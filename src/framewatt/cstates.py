"""Package power-state lattice and power calibrations.

Profiles attach a power figure (and optional transition latencies) to every
package state.

Three calibrations ship with the package:

* ``default``         -- hand-seeded table used for all scenario studies.
* ``reference-fhd30`` -- reproduces a measured full-HD 30 fps playback table
                         (row powers and residencies) when paired with the
                         matching presets.
* ``latency-demo``    -- the default table plus non-zero entry/exit latencies
                         on the deep states, for exercising transition costs.
"""

from __future__ import annotations

from enum import Enum
from functools import cache, cached_property, partial
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping

from .core import (ConfigurationError, Reader, Record, Scheme, Violation, json_keys, json_map,
                   json_number, json_string, out_of_range, read_json, reject)


class PackageCState(Enum):
    """Package idle states, shallow to deep.

    ``C7P`` is the C7 variant with the video decoder clock-gated while the
    display controller keeps draining; it sits between C7 and C8.  C3, C6,
    and C10 complete the lattice (core-sleep intermediates and full-off) but
    the shipped schemes never rest in them.
    """

    C0 = "C0"
    C2 = "C2"
    C3 = "C3"
    C6 = "C6"
    C7 = "C7"
    C7P = "C7P"
    C8 = "C8"
    C9 = "C9"
    C10 = "C10"

    # Members are singletons compared by identity, so they hash by identity
    # too, skipping the Python-level ``Enum.__hash__``.  Set order then varies
    # between processes, so no output iterates a set of states unsorted.
    __hash__ = object.__hash__

    @property
    def depth(self) -> int:
        return _DEPTH[self]

    def __str__(self) -> str:
        return self.value


#: Members are declared shallow to deep, so declaration order is depth order.
_DEPTH: dict[PackageCState, int] = {s: i for i, s in enumerate(PackageCState)}

STATES_BY_DEPTH: tuple[PackageCState, ...] = tuple(PackageCState)
#: Every (from, to) pair of states, shared by every profile's transition table.
_CHANGES = tuple((frm, to) for frm in STATES_BY_DEPTH for to in STATES_BY_DEPTH)

#: DRAM mode implied by each package state (background-power attribution).
STATE_DRAM_MODE: dict[PackageCState, str] = {
    PackageCState.C0: "active",
    PackageCState.C2: "active",
    PackageCState.C3: "self_refresh",
    PackageCState.C6: "self_refresh",
    PackageCState.C7: "self_refresh",
    PackageCState.C7P: "self_refresh",
    PackageCState.C8: "self_refresh",
    PackageCState.C9: "self_refresh",
    PackageCState.C10: "off",
}


# -- power profiles ---------------------------------------------------------


class PowerProfile(Record):
    """Per-state package power plus transition latencies for one pipeline mode.

    ``state_power_mw`` is the whole-package draw while resting in a state;
    ``display_power_mw`` is the portion of that attributable to the panel and
    link, and the DRAM background portion follows from the state's DRAM mode
    -- together they give the per-state split used in energy attributions.
    Latencies (in us, as the calibration file gives them) and powers
    describe entering a state from above and exiting it toward a shallower
    one; both default to zero (instant transitions).
    """

    name: str
    state_power_mw: Mapping[PackageCState, float]
    display_power_mw: Mapping[PackageCState, float]
    entry_latency_us: Mapping[PackageCState, float] = {}
    exit_latency_us: Mapping[PackageCState, float] = {}
    entry_power_mw: Mapping[PackageCState, float] = {}
    exit_power_mw: Mapping[PackageCState, float] = {}

    def __post_init__(self) -> None:
        where, powers = f"profiles.{self.name}", self.state_power_mw
        missing = set(PackageCState) - set(powers)
        if missing:
            raise ConfigurationError([Violation(
                "MISSING_STATE_POWER", f"{where}.state_power_mw", f"profile '{self.name}' "
                f"lacks powers for {sorted(s.value for s in missing)}")])
        found = out_of_range(f"{where}.state_power_mw.", powers, at_least_zero=STATES_BY_DEPTH)
        # Deeper must never draw more than shallower.
        found += [Violation("DEEPER_STATE_DRAWS_MORE", f"{where}.state_power_mw.{cur}",
                            f"profile '{self.name}': {cur} draws more than shallower {prev}")
                  for prev, cur in zip(STATES_BY_DEPTH, STATES_BY_DEPTH[1:])
                  if powers[cur] > powers[prev] + 1e-9]
        for s in PackageCState:
            disp = self.display_power_mw.get(s, 0.0)
            if disp < 0 or disp > powers[s]:
                found.append(Violation("DISPLAY_SPLIT_OUTSIDE_TOTAL",
                                       f"{where}.display_power_mw.{s}", f"profile "
                                       f"'{self.name}': display split for {s} outside [0, total]"))
        # Transition energy is latency x power, so neither may be negative.
        for key in ("entry_latency_us", "exit_latency_us", "entry_power_mw", "exit_power_mw"):
            values = getattr(self, key)
            found += out_of_range(f"{where}.{key}.", values, at_least_zero=values)
        reject(found)

    @cached_property
    def transition_costs(self) -> dict[tuple[PackageCState, PackageCState], float]:
        """Every state change's energy in uJ, each priced once per profile."""
        return {change: _transition_cost(self, *change) for change in _CHANGES}


def _transition_cost(profile: PowerProfile, frm: PackageCState, to: PackageCState) -> float:
    """The formula behind :attr:`PowerProfile.transition_costs`: going deeper
    pays the target's entry cost; coming up pays the source's exit cost;
    staying put is free.  The latency is rounded to integer ns (half to
    even); energy is power x latency."""
    if frm is to:
        return 0.0
    if to.depth > frm.depth:
        lat = round(profile.entry_latency_us.get(to, 0) * 1_000)
        p = float(profile.entry_power_mw.get(to, 0.0))
    else:
        lat = round(profile.exit_latency_us.get(frm, 0) * 1_000)
        p = float(profile.exit_power_mw.get(frm, 0.0))
    return p * lat * 1e-6  # mW * ns -> uJ


class CalibrationSet(Record):
    """Named pair of power profiles plus pipeline-wide adders.

    ``conventional`` covers schemes that drive the panel every window
    (baseline, bypass_only) and the burst-to-idle scheme that still uses the
    stock orchestration rows; ``burst`` covers the combined scheme whose
    active states carry the panel-side frame-buffer machinery.
    ``drfb_power_mw`` is added on intervals where the panel-side frame buffer
    is active; ``vd_gate_delta_mw`` pins C7P exactly that far below C7.
    """

    name: str
    conventional: PowerProfile
    burst: PowerProfile
    vd_gate_delta_mw: float = 95.0
    drfb_power_mw: float = 58.0

    def __post_init__(self) -> None:
        found = out_of_range("", self, at_least_zero=("vd_gate_delta_mw", "drfb_power_mw"))
        for prof in (self.conventional, self.burst):
            c7 = prof.state_power_mw[PackageCState.C7]
            c7p = prof.state_power_mw[PackageCState.C7P]
            want = c7 - self.vd_gate_delta_mw
            if abs(c7p - want) > 1e-6:
                found.append(Violation(
                    "C7P_GATE_DELTA", f"profiles.{prof.name}.state_power_mw.C7P",
                    f"profile '{prof.name}': C7P must equal C7 - {self.vd_gate_delta_mw} mW "
                    f"(expected {want}, got {c7p})"))
        reject(found)

    def profile_for(self, scheme: Scheme) -> PowerProfile:
        return self.burst if scheme is Scheme.BURSTLINK else self.conventional


# -- calibration file loading ------------------------------------------------

_BUILTIN_FILES = {
    "default": "default_calibration.json",
    "reference-fhd30": "reference_fhd30.json",
    "latency-demo": "latency_demo.json",
}

#: The profile keys, each the name of the :class:`PowerProfile` field it fills.
_PROFILE_KEYS = ("state_power_mw", "display_power_mw", "entry_latency_us", "exit_latency_us",
                 "entry_power_mw", "exit_power_mw")

#: Reads a per-state map: an object of numbers keyed by state name.
read_state_map = json_map(json_number, {s.value: s for s in PackageCState})


def _read_profile(raw: Any, where: str) -> PowerProfile:
    """The profile object at ``where``, named by its key."""
    maps = json_keys(raw, where, dict.fromkeys(_PROFILE_KEYS, read_state_map),
                     required=("state_power_mw",))
    return PowerProfile(name=where.rpartition(".")[2], **{
        key: MappingProxyType(maps.get(key, {})) for key in _PROFILE_KEYS})


_PROFILES = ("conventional", "burst")

#: The reader of each key of a calibration file; the description is checked, not kept.
_CALIBRATION_KEYS: dict[str, Reader] = {
    "name": json_string, "description": json_string,
    "vd_gate_delta_mw": json_number, "drfb_power_mw": json_number,
    "profiles": partial(json_keys, readers=dict.fromkeys(_PROFILES, _read_profile),
                        required=_PROFILES),
}


def calibration_from_dict(data: Mapping[str, Any]) -> CalibrationSet:
    read = json_keys(data, "", _CALIBRATION_KEYS, required=("profiles",))
    read.pop("description", None)
    return CalibrationSet(name=read.pop("name", "unnamed"), **read.pop("profiles"), **read)


def load_calibration(name_or_path: str | Path = "default") -> CalibrationSet:
    """Load a built-in calibration by name, or else a calibration JSON by path.
    A built-in is parsed once per process and shared; a path is read on every
    call.  The per-state maps of a loaded calibration are read-only."""
    builtin = _BUILTIN_FILES.get(str(name_or_path))
    if builtin:
        return _load_builtin(builtin)
    try:
        return calibration_from_dict(read_json(name_or_path))
    except FileNotFoundError:
        raise FileNotFoundError(f"no calibration file {str(name_or_path)!r}; built-ins "
                                f"are {sorted(_BUILTIN_FILES)}") from None


@cache
def _load_builtin(file: str) -> CalibrationSet:
    return calibration_from_dict(read_json(Path(__file__).parent / "data" / file))


def check_dram_split_consistency(
    profile: PowerProfile, dram_background_mw: Mapping[str, float]
) -> None:
    """Ensure per-state splits are computable against a DRAM background map.

    Every state's implied background must fit under the state total together
    with the display split (within 0.5 mW of slack); raises
    ConfigurationError naming each state that does not.
    """
    found: list[Violation] = []
    for state in STATES_BY_DEPTH:
        bg = float(dram_background_mw[STATE_DRAM_MODE[state]])
        disp = float(profile.display_power_mw.get(state, 0.0))
        total = profile.state_power_mw[state]
        if bg + disp > total + 0.5:
            found.append(Violation(
                "SPLIT_EXCEEDS_TOTAL", f"profiles.{profile.name}.state_power_mw.{state}",
                f"profile '{profile.name}': DRAM background {bg} mW + display "
                f"{disp} mW exceeds {state} total {total} mW"))
    reject(found)
