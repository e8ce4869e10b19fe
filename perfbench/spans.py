"""In-memory span recorder and the timing wrappers of the traced run.

Wrappers are installed from the benchmark's side on the public functions as
each calling module references them (``framewatt.cli.build_timeline``,
``framewatt.power.build_timeline``, ``OracleResult.energy_uj``, ...), so the
program itself is not edited.  Each call records a span with the span that
caused it.  Self time is a span's duration minus the union of its children,
so children that overlap in time (the sweep's thread pool) are not
subtracted twice.

Counters are computed from the returned objects inside a ``tracer`` child
span, which is excluded from every function's self time and never reported
as a layer.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

TRACER = "tracer"

# (metric prefix, module that defines it, attribute); ``Class.method`` is
# patched on the class.
TRACED = (
    ("cstates.load_calibration", "framewatt.cstates", "load_calibration"),
    ("core.validate_config", "framewatt.core", "validate_config"),
    ("timeline.build_timeline", "framewatt.timeline", "build_timeline"),
    ("timeline.timeline_to_csv", "framewatt.timeline", "timeline_to_csv"),
    ("timeline.timeline_to_svg", "framewatt.timeline", "timeline_to_svg"),
    ("power.report_from_timeline", "framewatt.power", "report_from_timeline"),
    ("power.window_energy_breakdown", "framewatt.power", "window_energy_breakdown"),
    ("power.streaming_report", "framewatt.power", "streaming_report"),
    ("oracle.oracle_simulate", "framewatt.oracle", "oracle_simulate"),
    ("oracle.energy_uj", "framewatt.oracle", "OracleResult.energy_uj"),
    ("scenarios.single_plane_burst", "framewatt.scenarios", "single_plane_burst"),
    ("cli.main", "framewatt.cli", "main"),
)

# Timeline intervals that carry one chunk of a fetch or direct-feed phase.
FILL_LABELS = frozenset({"fetch", "decode-feed", "project-feed"})
ORACLE_TICK_S = 1e-6


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start: float
    end: float = math.nan


class Recorder:
    """Spans with per-thread parent stacks, plus exact work counters.

    A thread with no open span of its own (a pool worker) takes as parent
    the innermost open span of the thread that created the recorder, which
    is the call that submitted the work.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.per_call: list[dict[str, Any]] = []
        self.tag = ""  # the operation running, for per-call counters
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_thread = threading.get_ident()
        self._stacks: dict[int, list[int]] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._stacks[threading.get_ident()] = stack
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                root = self._stacks.get(self._root_thread)
                parent = root[-1] if root and stack is not root else None
            span = Span(next(self._ids), name, parent, time.perf_counter())
            self.spans.append(span)
            stack.append(span.sid)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        with self._lock:
            stack.pop()

    def count(self, **deltas: int) -> None:
        with self._lock:
            self.counters.update(deltas)

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered = _union_length(
                (max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.sid, ())
            )
            out[s.sid] = (s.end - s.start) - covered
        return out

    def by_function(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds), tracer spans left out."""
        selfs = self.self_times()
        calls: Counter[str] = Counter()
        total: dict[str, float] = {}
        for s in self.spans:
            if s.name == TRACER:
                continue
            calls[s.name] += 1
            total[s.name] = total.get(s.name, 0.0) + selfs[s.sid]
        return {name: (calls[name], total[name]) for name in calls}


def _union_length(intervals: Any) -> float:
    length = 0.0
    cur_start = cur_end = None
    for a, b in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                length += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        length += cur_end - cur_start
    return length


# -- counters computed from returned objects ------------------------------------


def timeline_counters(timeline: Any) -> dict[str, Any]:
    windows: dict[int, list[tuple]] = {}
    base = timeline.window_ns
    fill = 0
    for iv in timeline.intervals:
        off = iv.window * base
        windows.setdefault(iv.window, []).append((
            iv.kind, iv.state.value, iv.start_ns - off, iv.end_ns - off, iv.label,
            iv.dram_read_bytes, iv.dram_write_bytes, iv.edp_bytes,
            iv.drfb_active, iv.gpu_active, iv.fbc_active,
        ))
        fill += iv.label in FILL_LABELS
    kinds = Counter()
    for key in set(tuple(ivs) for ivs in windows.values()):
        kinds[key[0][0]] += 1
    return {
        "windows": timeline.n_windows,
        "intervals": len(timeline.intervals),
        "distinct_windows": sum(kinds.values()),
        "distinct_by_kind": dict(sorted(kinds.items())),
        "fill_chunks": fill,
        "scheme": timeline.scheme.value,
    }


def oracle_counters(result: Any) -> dict[str, int]:
    return {
        "periods": len(result.periods),
        "ticks": sum(math.ceil(p.span_s / ORACLE_TICK_S) for p in result.periods),
    }


def _count_timeline(rec: Recorder, timeline: Any) -> None:
    c = timeline_counters(timeline)
    c["op"] = rec.tag
    rec.count(**{f"timeline.{k}": c[k]
                 for k in ("windows", "intervals", "distinct_windows", "fill_chunks")})
    with rec._lock:
        rec.per_call.append(c)


def _count_oracle(rec: Recorder, result: Any) -> None:
    rec.count(**{f"oracle.{k}": v for k, v in oracle_counters(result).items()})


_COUNTERS: dict[str, Callable[[Recorder, Any], None]] = {
    "timeline.build_timeline": _count_timeline,
    "oracle.oracle_simulate": _count_oracle,
}


# -- installation -----------------------------------------------------------------


def _wrap(rec: Recorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    counter = _COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if counter is not None:
            t = rec.open(TRACER)
            try:
                counter(rec, result)
            finally:
                rec.close(t)
        return result

    return traced


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every traced function in every framewatt module that references
    it; returns a function that restores the originals."""
    undo: list[tuple[Any, str, Any]] = []
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "framewatt" or n.startswith("framewatt.")]
    for name, module_name, attr in TRACED:
        owner: Any = sys.modules[module_name]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            undo.append((owner, attr, original))
            setattr(owner, attr, _wrap(rec, name, original))
            continue
        original = getattr(owner, attr)
        wrapped = _wrap(rec, name, original)
        for module in modules:
            for ref_name, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, ref_name, value))
                    setattr(module, ref_name, wrapped)

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore
