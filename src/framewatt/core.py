"""Core configuration types and frame arithmetic.

Everything downstream (timeline builders, the event oracle, the power model)
consumes the three config records defined here.  Geometry and timing
helpers are exact: frame sizes are integers and window durations are integer
nanoseconds, rounded from the exact period in integer arithmetic.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from enum import Enum
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

NS_PER_S = 1_000_000_000

#: Display-controller on-chip buffer size (bytes).  The DC fetches the frame
#: from DRAM in chunks of this size; each chunk fetch is a short DRAM-active
#: burst in the timeline.
DEFAULT_DC_BUFFER_BYTES = 512 * 1024

#: Most DC buffer fills one frame may take.  A window's timeline holds a
#: record per fill, so a tiny buffer makes builds crawl; 5K at 32 bpp in
#: 4 KiB chunks (14,400 fills) still fits.
MAX_DC_FETCHES_PER_FRAME = 16_384

#: Display-link maximum payload rate, bits per second (four-lane HBR3-class
#: link).  Used for burst transfers; conventional streaming runs at the
#: panel's native rate, which must fit under this ceiling.
DEFAULT_EDP_MAX_BITS_PER_S = 25.92e9

#: Buffer-traffic share that decode batching's cached layout saves, by default.
CACHED_TRAFFIC_FRACTION = 0.34

#: Burst-window wake-up as a share of the refresh window, by default, as an
#: integer (numerator, denominator) pair.
BURST_WAKE_SHARE = (1, 50)


class Scheme(str, Enum):
    """Display pipeline scheme.

    BASELINE       decode -> DRAM -> DC streams to panel all window long
    BYPASS_ONLY    decoder feeds the DC buffer directly (no decoded frame
                   in DRAM); panel is still driven at its native rate
    BURSTING_ONLY  decode -> DRAM -> DC bursts at link max -> deep idle,
                   panel refreshes from its own frame buffer
    BURSTLINK      bypass + bursting combined
    """

    BASELINE = "baseline"
    BYPASS_ONLY = "bypass_only"
    BURSTING_ONLY = "bursting_only"
    BURSTLINK = "burstlink"

    @property
    def uses_bypass(self) -> bool:
        return self in (Scheme.BYPASS_ONLY, Scheme.BURSTLINK)

    @property
    def uses_bursting(self) -> bool:
        return self in (Scheme.BURSTING_ONLY, Scheme.BURSTLINK)


class WorkloadKind(str, Enum):
    """What the machine is rendering."""

    VIDEO = "video"          # straight video playback
    VR360 = "vr360"          # 360-degree video: GPU projection step per frame
    SINGLE_PLANE = "single_plane"  # interactive UI driven by a dirty-rect trace


class Record:
    """A frozen record.  Its fields are the names its class body annotates,
    in order, and a field's default is its class-body value: a dict is
    copied for each record that takes it, any other value is shared (so
    immutable).  Each class gets its own ``__init__``, which calls
    ``__post_init__`` if the class has one, so every construction and
    :func:`replace` validates.  Records of one class compare and hash by
    their fields."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # Defaults leave the class body, so that no class attribute shadows
        # a field and CPython keeps specialising field reads.
        cls._fields = fields = tuple(vars(cls).get("__annotations__", ()))
        defaults = {f: vars(cls)[f] for f in fields if f in vars(cls)}
        for f in defaults:
            delattr(cls, f)
        params = ", ".join(f"{f}=_d[{f!r}]" if f in defaults else f for f in fields)
        fresh = {f: f"dict({f}) if {f} is _d[{f!r}] else " for f, v in defaults.items()
                 if type(v) is dict}
        body = "".join(f" _set(self, {f!r}, {fresh.get(f, '')}{f})\n" for f in fields)
        post = " self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
        namespace = {"_set": object.__setattr__, "_d": defaults}
        exec(f"def __init__(self, {params}):\n{body}{post}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __setattr__(self, name: str, *value: Any) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: a {type(self).__name__} is frozen")

    __delattr__ = __setattr__

    def _values(self) -> tuple[Any, ...]:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


def replace(record: Record, **changes: Any) -> Any:
    """A copy of ``record`` with ``changes`` to its fields, built (and so
    validated) as a new record is."""
    return type(record)(**{**{f: getattr(record, f) for f in record._fields}, **changes})


class Resolution(Record):
    width: int
    height: int

    @property
    def pixels(self) -> int:
        return self.width * self.height

    def __str__(self) -> str:
        return f"{self.width}x{self.height}"


#: Named panel geometries accepted anywhere a resolution is parsed.
RESOLUTIONS: dict[str, Resolution] = {
    "fhd": Resolution(1920, 1080),
    "qhd": Resolution(2560, 1440),
    "4k": Resolution(3840, 2160),
    "5k": Resolution(5120, 2880),
}


def parse_resolution(value: str) -> Resolution:
    """Accept a preset name ('fhd', '4k', ...) or 'WxH' string (of any size:
    :class:`DisplayConfig` checks it)."""
    key = value.strip().lower()
    w, _, h = key.partition("x")
    try:
        return RESOLUTIONS.get(key) or Resolution(int(w), int(h))
    except ValueError:
        raise ValueError(f"unknown resolution {json_excerpt(value)}; use one of "
                         f"{sorted(RESOLUTIONS)} or 'WIDTHxHEIGHT'") from None


class DisplayConfig(Record):
    """Panel geometry, refresh timing, and link/panel capabilities."""

    resolution: Resolution = RESOLUTIONS["fhd"]
    refresh_hz: int = 60
    bits_per_pixel: int = 24
    edp_max_bits_per_s: float = DEFAULT_EDP_MAX_BITS_PER_S
    panel_psr_capable: bool = True
    panel_has_drfb: bool = True  # remote frame buffer wide enough for full frames

    def __post_init__(self) -> None:
        res, hz = self.resolution, self.refresh_hz
        found = out_of_range("display.", self, positive=("refresh_hz", "edp_max_bits_per_s"))
        if res.width <= 0 or res.height <= 0:
            found.insert(0, Violation("OUT_OF_RANGE", "display.resolution",
                                      f"resolution must be positive, got {res}"))
        frame_bits = res.pixels * self.bits_per_pixel
        if self.bits_per_pixel not in (16, 24, 30, 32):
            found.append(Violation("OUT_OF_RANGE", "display.bits_per_pixel",
                                   f"bits_per_pixel must be one of 16/24/30/32, "
                                   f"got {self.bits_per_pixel}"))
        elif frame_bits % 8:  # as frame_bytes requires
            found.append(Violation("OUT_OF_RANGE", "display.bits_per_pixel",
                                   f"{res} at {self.bits_per_pixel} bpp is not "
                                   "byte-aligned"))
        elif frame_bits * hz > sys.float_info.max:  # validate_config's rates are floats
            key, value = ("refresh_hz", hz) if hz > frame_bits else ("resolution", str(res))
            found.append(Violation("OUT_OF_RANGE", f"display.{key}",
                                   f"{key} {json_excerpt(value)} needs a native stream rate "
                                   "too large for a float"))
        reject(found)


class SystemConfig(Record):
    """SoC-side rates, buffer sizes, and DRAM energy coefficients.

    Rates are bytes per second unless the name says otherwise.  Times are
    seconds.  DRAM traffic coefficients are joules per byte; background powers
    are milliwatts keyed by DRAM mode.
    """

    dc_buffer_bytes: int = DEFAULT_DC_BUFFER_BYTES
    dram_fetch_rate: float = 31.104e9       # DC chunk fetch from DRAM
    decode_rate: float = 22.5e9             # decoder output (decoded bytes/s)
    vd_paced_rate: float | None = None      # decoder pacing when feeding DC directly;
                                            # None = decoder runs at decode_rate
    gpu_pt_rate: float = 20e9               # GPU projection throughput (vr360)
    orchestration_time: float = 1.9e-3      # software wake-up per active window
    burst_orchestration_time: float | None = None  # hardware-assisted wake-up;
                                            # None = BURST_WAKE_SHARE of the window
    encoded_bits_per_pixel: float = 0.5     # compressed stream density
    dram_coeff_read: float = 43e-12         # J per byte read
    dram_coeff_write: float = 43e-12        # J per byte written
    dram_background_mw: Mapping[str, float] = {
        "active": 450.0,
        "fast_powerdown": 150.0,
        "self_refresh": 25.0,
        "off": 0.0,
    }
    dram_capacity_bytes: int = 4 * 1024**3  # working-set ceiling for batching
    fbc_compute_mw: float = 50.0            # extra decode power while compressing
    gpu_active_mw: float = 1500.0           # GPU adder on projection intervals

    def __post_init__(self) -> None:
        found = out_of_range("system.", self, positive=(
            "dc_buffer_bytes", "dram_fetch_rate", "decode_rate", "vd_paced_rate", "gpu_pt_rate",
            "encoded_bits_per_pixel", "dram_capacity_bytes"), at_least_zero=(
            "orchestration_time", "burst_orchestration_time", "dram_coeff_read",
            "dram_coeff_write", "fbc_compute_mw", "gpu_active_mw"))
        modes = self.dram_background_mw
        if modes.keys() != _DRAM_MODES:
            names = set(modes)
            for label, wrong in (("missing", _DRAM_MODES - names),
                                 ("has unknown", names - _DRAM_MODES)):
                if wrong:
                    found.append(Violation("DRAM_MODES", "system.dram_background_mw",
                                           f"dram_background_mw {label} modes: {sorted(wrong)}"))
        found += out_of_range("system.dram_background_mw.", modes, at_least_zero=modes)
        reject(found)


#: DRAM modes ``SystemConfig.dram_background_mw`` must price, no more, no less.
_DRAM_MODES = frozenset({"active", "fast_powerdown", "self_refresh", "off"})


class WorkloadSpec(Record):
    """What is being played and how the pipeline is configured to show it."""

    kind: WorkloadKind = WorkloadKind.VIDEO
    scheme: Scheme = Scheme.BASELINE
    video_fps: int = 30
    psr_alternate_windows: bool = False  # under baseline, repeat windows become
                                         # panel-self-refresh instead of re-transfers

    def __post_init__(self) -> None:
        reject(out_of_range("workload.", self, positive=("video_fps",)))


def json_form(value: Any) -> Any:
    """``value`` as JSON data; the one encoder of framewatt values.  An enum
    is written by value and a resolution as ``WxH``.  A record, named
    tuple or mapping becomes an object, its fields in order and a
    ``(from, to)`` state key as ``from->to``, and any other tuple an array."""
    if type(value) in (str, int, float, bool, type(None)):  # by exact type: a str enum is not
        return value
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Resolution):
        return str(value)
    if hasattr(value, "_fields"):  # a record or a named tuple
        value = {f: getattr(value, f) for f in value._fields}
    if isinstance(value, Mapping):
        return {"->".join(map(json_form, k)) if isinstance(k, tuple) else json_form(k):
                json_form(v) for k, v in value.items()}
    return [json_form(v) for v in value] if isinstance(value, tuple) else value


# -- frame arithmetic ------------------------------------------------------


def frame_bytes(resolution: Resolution, bits_per_pixel: int = 24) -> int:
    """Uncompressed frame size in bytes (exact integer)."""
    bits = resolution.pixels * bits_per_pixel
    if bits % 8:
        raise ValueError(f"{resolution} at {bits_per_pixel} bpp is not byte-aligned")
    return bits // 8


def encoded_frame_bytes(resolution: Resolution, encoded_bits_per_pixel: float) -> int:
    """Compressed-bitstream bytes per frame, rounded up to whole bytes."""
    bits = resolution.pixels * encoded_bits_per_pixel
    return math.ceil(bits / 8)


def frame_window_ns(refresh_hz: int) -> int:
    """Refresh window period in integer nanoseconds (rounded, ties to even)."""
    q, r = divmod(NS_PER_S, refresh_hz)
    return q + (2 * r + (q & 1) > refresh_hz)


def windows_per_frame(cfg: SimConfig) -> int:
    """Refresh windows per video frame: a frame group (at least one window)."""
    return max(cfg.display.refresh_hz // cfg.workload.video_fps, 1)


def panel_stream_rate(
    resolution: Resolution, refresh_hz: int, bits_per_pixel: int = 24
) -> int:
    """Link payload rate (bits/s) needed to stream every refresh conventionally."""
    return frame_bytes(resolution, bits_per_pixel) * 8 * refresh_hz


def burst_transfer_time(n_bytes: int, edp_max_bits_per_s: float) -> float:
    """Seconds to push ``n_bytes`` over the link at its maximum rate."""
    if n_bytes < 0:
        raise ValueError("n_bytes must be >= 0")
    return n_bytes * 8 / edp_max_bits_per_s


def dc_fetch_count(n_bytes: int, dc_buffer_bytes: int) -> int:
    """Number of DC buffer fills needed to move a frame out of DRAM."""
    return -(-n_bytes // dc_buffer_bytes)  # ceil


def selective_update_bytes(full_frame_bytes: int, dirty_fraction: float) -> int:
    """Link payload for a partial update: dirty pixels plus a 128-byte
    rectangle header.

    The header is charged even when nothing changed (the panel still receives
    an update descriptor), while a fully dirty frame is sent whole with no
    header, so a 1.0 fraction is byte-identical to a plain full-frame
    transfer.
    """
    if not 0.0 <= dirty_fraction <= 1.0:
        raise ValueError(f"dirty_fraction must be in [0, 1], got {dirty_fraction}")
    if dirty_fraction == 1.0:
        return full_frame_bytes
    return min(round(full_frame_bytes * dirty_fraction) + 128, full_frame_bytes)


# -- validation ------------------------------------------------------------


class Violation(NamedTuple):
    """One machine-readable config or calibration problem.

    ``code`` is stable (screaming-snake identifier), ``field`` is the place
    of the offending value (a JSON key path, ``path:line.column`` in a CSV
    file, a flag), ``message`` is for humans.
    """

    code: str
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} [{self.field}]: {self.message}"


class ConfigurationError(ValueError):
    """Raised when a config or calibration fails validation."""

    def __init__(self, violations: Sequence[Violation]):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in violations))


def reject(violations: Sequence[Violation]) -> None:
    """Raise ConfigurationError carrying ``violations`` unless there are none."""
    if violations:
        raise ConfigurationError(violations)


def out_of_range(prefix: str, values: Mapping[Any, Any] | Record, positive: Iterable[Any] = (),
                 at_least_zero: Iterable[Any] = ()) -> list[Violation]:
    """An ``OUT_OF_RANGE`` violation at key path ``prefix + key`` for each
    key (of a mapping, or field of a record) in ``positive`` whose value is
    not above zero and each key in ``at_least_zero`` whose value is below
    zero.  A None value is an unset optional knob and passes.  Messages are
    built only for failures."""
    get = partial(getattr, values) if isinstance(values, Record) else values.__getitem__
    found: list[Violation] = []
    for key in positive:
        value = get(key)
        if value is not None and value <= 0:
            found.append(Violation("OUT_OF_RANGE", f"{prefix}{key}",
                                   f"{key} must be positive, got {value}"))
    for key in at_least_zero:
        value = get(key)
        if value is not None and value < 0:
            found.append(Violation("OUT_OF_RANGE", f"{prefix}{key}",
                                   f"{key} must be non-negative (>= 0), got {value}"))
    return found


def read_text(path: str | Path) -> str:
    """The UTF-8 text of the file at ``path``, line endings untranslated (as
    :mod:`csv` wants them); ValueError naming the file if it is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_json(path: str | Path) -> Any:
    """The parsed JSON file at ``path``; ValueError naming it if it is not
    UTF-8, not JSON (an integer literal past the decoder's digit limit
    included) or nested too deeply."""
    text = read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


#: Most characters of an offending value's JSON that an error line quotes.
_EXCERPT_CHARS = 60


def json_excerpt(value: Any) -> str:
    """``value`` as JSON for an error line, cut to ``_EXCERPT_CHARS``
    characters and ``...`` when longer, so a large input of the wrong
    shape still gives a short line."""
    text = json.dumps(_clip(value, _EXCERPT_CHARS + 1))
    return text if len(text) <= _EXCERPT_CHARS else text[:_EXCERPT_CHARS] + "..."


def _clip(value: Any, depth: int) -> Any:
    """``value`` with containers nested ``depth`` deep replaced by None and
    items past the first ``depth`` of each dropped.  Each level and each
    item takes at least one character of JSON, so for ``depth`` above
    ``_EXCERPT_CHARS`` the excerpt does not change, and encoding it recurses
    no deeper than ``depth`` however deep ``value`` is."""
    if isinstance(value, list):
        return [_clip(v, depth - 1) for v in value[:depth]] if depth else None
    if isinstance(value, Mapping):
        return {k: _clip(v, depth - 1) for k, v in islice(value.items(), depth)} if depth else None
    return value


#: A JSON value reader: takes a parsed value and its key path, returns the
#: value as kept, or raises ConfigurationError at that path or under it.
Reader = Callable[[Any, str], Any]


def rejection(code: str, where: str, message: str) -> ConfigurationError:
    """The error of one violation at key path ``where`` (``<root>`` if empty)."""
    return ConfigurationError([Violation(code, where or "<root>", message)])


def _expect(value: Any, where: str, accepted: tuple[type, ...], expected: str) -> Any:
    """``value`` if of an ``accepted`` type (a bool only where ``bool`` is),
    else ``WRONG_TYPE``; a NaN or an infinity, whatever type is expected,
    and an integer too large for a float are ``NON_FINITE``."""
    if isinstance(value, float) and not math.isfinite(value):
        raise rejection("NON_FINITE", where, f"{value} is not a finite number")
    if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in accepted):
        raise rejection("WRONG_TYPE", where, f"expected {expected}, got {json_excerpt(value)}")
    if type(value) is int and abs(value) > sys.float_info.max:
        raise rejection("NON_FINITE", where, f"{json_excerpt(value)} is too large for a float")
    return value


def json_keys(raw: Any, where: str, readers: Mapping[str, Reader],
              required: Iterable[str] = ()) -> dict[str, Any]:
    """The JSON object ``raw`` at key path ``where``, each value read by its
    key's reader, in the object's key order; the one check of every object
    and CSV row in an input file.  The first offence raises, at a key path
    (``runs[0].residency.C0``, ``trace.csv:3.window``): ``WRONG_TYPE`` if no
    object, then ``UNKNOWN_KEY``, ``MISSING_KEY`` for a ``required`` key, the readers'."""
    _expect(raw, where, (Mapping,), "an object")
    prefix = f"{where}." if where else ""
    for key in raw:
        if key not in readers:
            raise rejection("UNKNOWN_KEY", f"{prefix}{key}",
                            f"unknown key {key!r}; expected one of {', '.join(readers)}")
    for key in required:
        if key not in raw:
            raise rejection("MISSING_KEY", f"{prefix}{key}", f"missing required key {key!r}")
    return {key: readers[key](value, f"{prefix}{key}") for key, value in raw.items()}


def json_map(read: Reader, keys: Mapping[str, Any] | None = None) -> Reader:
    """A reader of an object whose values ``read`` reads, keyed by each
    name's entry in ``keys``, or by the name when no ``keys`` are given."""
    def read_map(raw: Any, where: str) -> dict[Any, Any]:
        names = keys or {name: name for name in _expect(raw, where, (Mapping,), "an object")}
        found = json_keys(raw, where, dict.fromkeys(names, read))
        return {names[k]: v for k, v in found.items()}
    return read_map


def json_array(read: Reader) -> Reader:
    """A reader of a non-empty array whose items ``read`` reads at ``where[i]``."""
    def read_array(raw: Any, where: str) -> list[Any]:
        items = _expect(raw, where, (list,), "an array")
        if not items:
            raise rejection("EMPTY", where, "expected at least one item, got []")
        return [read(item, f"{where}[{i}]") for i, item in enumerate(items)]
    return read_array


_number = partial(_expect, accepted=(int, float), expected="a number")
json_integer = partial(_expect, accepted=(int,), expected="an integer")
json_string = partial(_expect, accepted=(str,), expected="a string")


def json_number(value: Any, where: str) -> float:
    return float(_number(value, where))


def csv_cell(read: Reader) -> Reader:
    """A reader of a CSV cell's text: ``read`` takes it as an integer if it
    parses as one, else as a float if it parses as one, else as text."""
    def read_cell(text: str, where: str) -> Any:
        for parse in (int, float):
            try:
                value = parse(text)
            except ValueError:
                continue
            return read(value, where)
        return read(text, where)
    return read_cell


def csv_records(path: str | Path, readers: Mapping[str, Reader], required: Iterable[str],
                record: Callable[[dict[str, Any], str, int], Any]) -> list[Any]:
    """Each non-blank row of the CSV file at ``path``, in file order, as
    ``record(row, where, i)`` makes it from the ``i``-th row's object at
    ``where`` (``path:line``).  The object is keyed by the header's stripped
    column names, empty cells left out, and read by :func:`json_keys`.  The
    header's names are checked first, at ``path:1``: a name given twice is
    ``DUPLICATE_KEY``.  A row with a cell past the header's columns is
    ``EXTRA_CELLS``; a file of no rows is ``EMPTY``.  Each row is read and
    made before the next, so the first offence in the file raises."""
    rows = csv.reader(io.StringIO(read_text(path), newline=""))
    records: list[Any] = []
    try:
        names = [name.strip() for name in next(rows, [])]
        json_keys(dict.fromkeys(names, ""), f"{path}:1", dict.fromkeys(readers, json_string),
                  required)  # the header's names alone
        for i, name in enumerate(names):
            if name in names[:i]:
                raise rejection("DUPLICATE_KEY", f"{path}:1.{name}", f"column {name!r} named twice")
        for line, row in enumerate(rows, start=2):
            where = f"{path}:{line}"
            if any(row[len(names):]):
                raise rejection("EXTRA_CELLS", where, f"{len(row)} cells where the header names "
                                f"{len(names)} columns")
            if row:
                records.append(record(json_keys({k: v for k, v in zip(names, row) if v}, where,
                                                readers, required), where, len(records)))
    except csv.Error as exc:  # a cell longer than csv.field_size_limit()
        raise ValueError(f"{path}:{rows.line_num}: {exc}") from None
    if not records:
        raise rejection("EMPTY", f"{path}:2", "expected a row under the header")
    return records


def _member(enum: type[Enum]) -> Reader:
    """A reader of an ``enum`` member by its value; another string is
    ``UNKNOWN_VALUE``, quoted to 60 characters, with the values listed."""
    def read(value: Any, where: str) -> Enum:
        text = json_string(value, where)
        for member in enum:
            if member.value == text:
                return member
        raise rejection("UNKNOWN_VALUE", where, f"unknown {where.rpartition('.')[2]} "
                        f"{json_excerpt(text)}; use one of {', '.join(m.value for m in enum)}")
    return read


def _parsed(parse: Callable[[str], Any]) -> Reader:
    """A reader of a string that ``parse`` turns into a value; a string it
    refuses with a ValueError is ``UNKNOWN_VALUE``."""
    def read(value: Any, where: str) -> Any:
        try:
            return parse(json_string(value, where))
        except ConfigurationError:  # the string check's, or the value's own rule
            raise
        except ValueError as exc:
            raise rejection("UNKNOWN_VALUE", where, str(exc)) from None
    return read


# SimConfig comes after the rules above: making it builds, and so checks, its default sections.
class SimConfig(Record):
    """Bundle handed to the simulator: panel + SoC + workload."""

    display: DisplayConfig = DisplayConfig()
    system: SystemConfig = SystemConfig()
    workload: WorkloadSpec = WorkloadSpec()

    # -- serialization ----------------------------------------------------

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "SimConfig":
        return _read_fields(SimConfig, data, "")

    @staticmethod
    def from_json(path: str | Path) -> "SimConfig":
        return SimConfig.from_dict(read_json(path))

    def to_dict(self) -> dict[str, Any]:
        return json_form(self)


def _read_fields(cls: type, raw: Any, where: str) -> Any:
    """A ``cls`` from an object of some of its fields, read by annotation."""
    return cls(**json_keys(raw, where, {f: _READERS[cls.__annotations__[f]]
                                        for f in cls._fields}))


#: The reader of each config field annotation; numbers keep their JSON type.
_READERS: dict[str, Reader] = {
    "int": json_integer,
    "float": _number,
    "float | None": partial(_expect, accepted=(int, float, type(None)),
                            expected="a number or null"),
    "bool": partial(_expect, accepted=(bool,), expected="true or false"),
    "Mapping[str, float]": json_map(_number),
    "Resolution": _parsed(parse_resolution),
    "WorkloadKind": _member(WorkloadKind),
    "Scheme": _member(Scheme),
    "DisplayConfig": partial(_read_fields, DisplayConfig),
    "SystemConfig": partial(_read_fields, SystemConfig),
    "WorkloadSpec": partial(_read_fields, WorkloadSpec),
}


def validate_config(cfg: SimConfig) -> list[Violation]:
    """Cross-field checks.  Returns an empty list when the config is runnable.

    Per-field range checks already live in the record constructors; this
    catches combinations that are individually fine but jointly impossible.
    Each rule formats its message only when it fails.
    """
    out: list[Violation] = []
    disp, sys_, wl = cfg.display, cfg.system, cfg.workload
    hz, link, fps, scheme = disp.refresh_hz, disp.edp_max_bits_per_s, wl.video_fps, wl.scheme
    bursting, bypass = scheme.uses_bursting, scheme.uses_bypass
    fbytes = frame_bytes(disp.resolution, disp.bits_per_pixel)
    window_s = 1 / hz

    native = panel_stream_rate(disp.resolution, hz, disp.bits_per_pixel)
    if native > link:
        out.append(Violation("LINK_TOO_SLOW", "display.edp_max_bits_per_s",
                             f"panel needs {native/1e9:.3f} Gb/s to stream "
                             f"{disp.resolution}@{hz} but the link caps at {link/1e9:.3f} Gb/s"))
    if fps > hz:
        out.append(Violation("FPS_ABOVE_REFRESH", "workload.video_fps",
                             f"video at {fps} fps cannot be shown on a {hz} Hz panel"))
    elif hz % fps != 0:
        out.append(Violation("FPS_NOT_DIVISOR", "workload.video_fps",
                             f"refresh {hz} Hz must be an integer multiple of video fps {fps} "
                             "(repeat-window cadence would drift)"))
    if bursting and not disp.panel_has_drfb:
        out.append(Violation("BURST_NEEDS_DRFB", "display.panel_has_drfb",
                             f"scheme '{scheme.value}' parks the panel on its remote frame "
                             "buffer; this panel has none"))
    if bursting and not disp.panel_psr_capable:
        out.append(Violation("BURST_NEEDS_PSR", "display.panel_psr_capable",
                             f"scheme '{scheme.value}' requires a self-refresh-capable panel"))
    if disp.panel_has_drfb and not disp.panel_psr_capable:
        out.append(Violation("DRFB_NEEDS_PSR", "display.panel_has_drfb",
                             "a remote frame buffer is only usable on a self-refresh-capable panel"))
    if wl.psr_alternate_windows and not disp.panel_psr_capable:
        out.append(Violation("PSR_NOT_CAPABLE", "workload.psr_alternate_windows",
                             "repeat windows cannot self-refresh on a panel without PSR"))

    fetches = dc_fetch_count(fbytes, sys_.dc_buffer_bytes)
    if fetches > MAX_DC_FETCHES_PER_FRAME:
        out.append(Violation("DC_BUFFER_TOO_SMALL", "system.dc_buffer_bytes",
                             f"a {sys_.dc_buffer_bytes} B buffer takes {fetches} fills per "
                             f"frame, above the {MAX_DC_FETCHES_PER_FRAME} supported"))

    # A burst must fit inside one refresh window with room for orchestration.
    t_burst = burst_transfer_time(fbytes, link) if bursting else 0.0
    if t_burst >= window_s:
        out.append(Violation("BURST_EXCEEDS_WINDOW", "display.edp_max_bits_per_s",
                             f"bursting one frame takes {t_burst*1e3:.3f} ms, longer than "
                             f"the {window_s*1e3:.3f} ms refresh window"))

    # Wake-up plus the frame's work must end before the window closes.
    # Bypass schemes decode straight into the DC buffer, the decoder possibly
    # pacing itself below its peak rate (and, under burstlink, below the
    # link); the others decode into DRAM, then burst the frame or stream it
    # in what is left of the window.  VR adds the GPU's projection: back into
    # DRAM, or under bypass from a frame decoded into DRAM straight into the
    # DC buffer, in place of the decoder's feed.  Burst schemes wake up with
    # hardware help, by default in BURST_WAKE_SHARE of the window.
    if not bursting:
        t_orch = sys_.orchestration_time
    elif sys_.burst_orchestration_time is not None:
        t_orch = sys_.burst_orchestration_time
    else:
        num, den = BURST_WAKE_SHARE
        t_orch = window_s * (num / den)
    vr = wl.kind is WorkloadKind.VR360
    if bypass and vr:
        feed = min(sys_.gpu_pt_rate, link / 8) if bursting else sys_.gpu_pt_rate
        busy = t_orch + fbytes / sys_.decode_rate + fbytes / feed
        work, rate = "decode + projection feed", "gpu_pt_rate"
    elif bypass:
        pace = sys_.vd_paced_rate or sys_.decode_rate
        busy = t_orch + fbytes / (min(pace, link / 8) if bursting else pace)
        work = "direct-feed transfer"
        rate = "vd_paced_rate" if sys_.vd_paced_rate else "decode_rate"
    else:
        busy = t_orch + fbytes / sys_.decode_rate + t_burst
        work, rate = "decode", "decode_rate"
        if vr:
            busy += fbytes / sys_.gpu_pt_rate
            work, rate = "decode + projection", "gpu_pt_rate"
        if bursting:
            work += " + burst"
    if busy >= window_s:
        out.append(Violation("WINDOW_OVERRUN", f"system.{rate}",
                             f"wake-up + {work} takes {busy*1e3:.3f} ms, "
                             f"leaving no room in the {window_s*1e3:.3f} ms window"))

    if wl.kind is WorkloadKind.VR360 and scheme in (Scheme.BYPASS_ONLY, Scheme.BURSTING_ONLY):
        out.append(Violation("VR_SCHEME_UNSUPPORTED", "workload.scheme",
                             "360-degree playback is modeled for 'baseline' and 'burstlink' only"))
    return out


def check_run_shape(cfg: SimConfig, n_windows: int | None, fbc_ratio: float,
                    batch_every: int, cached_traffic_fraction: float,
                    dirty_trace: Sequence[float] | None) -> int:
    """The run's window count.  This is the one gate every run passes, in
    the timeline builder and the event oracle alike: an invalid config
    raises ``ConfigurationError`` first, then a run shape (the builder's
    keywords) that does not fit the config's workload raises ValueError."""
    reject(validate_config(cfg))
    if not 0.0 < fbc_ratio <= 1.0:
        raise ValueError(f"fbc_ratio must be in (0, 1], got {fbc_ratio}")
    if batch_every < 1:
        raise ValueError(f"batch_every must be >= 1, got {batch_every}")
    if not 0.0 <= cached_traffic_fraction <= 1.0:
        raise ValueError(
            f"cached_traffic_fraction must be in [0, 1], got {cached_traffic_fraction}")
    wl = cfg.workload
    if batch_every > 1:
        if wl.kind is not WorkloadKind.VIDEO or wl.scheme is not Scheme.BASELINE:
            raise ValueError(
                "frame batching applies only to video playback under the plain scheme"
            )
        # The decoded frames must fit in DRAM and their decodes in one window.
        fbytes = frame_bytes(cfg.display.resolution, cfg.display.bits_per_pixel)
        if batch_every * fbytes > cfg.system.dram_capacity_bytes:
            raise ValueError(
                f"BATCH_EXCEEDS_DRAM: {batch_every} frames of {fbytes} bytes exceed "
                f"dram_capacity_bytes={cfg.system.dram_capacity_bytes}"
            )
        window_s = 1 / cfg.display.refresh_hz
        busy = cfg.system.orchestration_time + batch_every * fbytes / cfg.system.decode_rate
        if busy >= window_s:
            raise ValueError(
                f"BATCH_WINDOW_OVERRUN: decoding {batch_every} frames takes "
                f"{busy * 1e3:.3f} ms, beyond the {window_s * 1e3:.3f} ms window"
            )
    if fbc_ratio != 1.0 and wl.kind is WorkloadKind.SINGLE_PLANE:
        raise ValueError("frame-buffer compression does not apply to single-plane workloads")
    if wl.kind is WorkloadKind.SINGLE_PLANE:
        if dirty_trace is None:
            raise ValueError("single-plane workloads need a dirty_trace")
        n = len(dirty_trace)
        if n == 0:
            raise ValueError("dirty_trace must not be empty")
        if n_windows not in (None, n):
            raise ValueError(f"n_windows must be the dirty trace's length {n}, got {n_windows}")
        return n
    n = n_windows if n_windows is not None else batch_every * windows_per_frame(cfg)
    if n < 1:
        raise ValueError("n_windows must be >= 1")
    if dirty_trace is not None:
        raise ValueError("dirty_trace only applies to single-plane workloads")
    return n
