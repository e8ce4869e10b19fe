"""Energy accounting on top of interval timelines.

Two deliberately different power views exist side by side:

* :func:`average_power` is the closed-form figure: per-state powers weighted
  by residency, plus transition entry/exit energy spread over the run.  It
  is what a residency table alone can tell you.
* :class:`EnergyReport` (via :func:`streaming_report`) is the full bill: it
  charges state powers over exact state spans and adds DRAM traffic energy
  (coefficients times bytes moved), transition costs, and the conditional
  adders (panel-side frame buffer, GPU projection, compression engine).
  Its ``average_power_mw`` is total energy over total time.

Pricing is an integer tally, then one price: each distinct window's tally
(state spans, bytes, adder spans and state changes) is made once, in the walk
that checks it when the timeline is built; ``timeline_totals`` adds those
tallies per (template, entry state) pair without walking rows, and one formula
turns a tally into energies, for the whole run or for one window.

DRAM background power is part of each state's package power, so the DRAM
breakdown reports it as an attribution (carved out of the state totals using
the per-state splits), never as an extra charge; only the per-byte operating
energy is additive.
"""

from __future__ import annotations

from typing import Any, Mapping, NamedTuple

from .core import Scheme, SimConfig, SystemConfig, json_form
from .cstates import (
    STATE_DRAM_MODE,
    STATES_BY_DEPTH,
    CalibrationSet,
    PackageCState,
    PowerProfile,
    check_dram_split_consistency,
)
from .timeline import (
    TimelineTotals,
    WindowTimeline,
    build_timeline,
    timeline_totals,
)


# -- closed-form average ------------------------------------------------------


def average_power(
    profile: PowerProfile,
    residency: Mapping[PackageCState, float],
    transition_counts: Mapping[tuple[PackageCState, PackageCState], int] | None = None,
    total_time_s: float = 1.0,
) -> float:
    """Residency-weighted average package power in mW.

    Sum of state power times residency, plus every transition's entry/exit
    energy amortized over the run duration.  With zero-latency transitions
    the second term vanishes and the residencies alone decide the figure.
    """
    total_r = sum(residency.values())
    if not 0.999 <= total_r <= 1.001:
        raise ValueError(f"residencies must sum to 1 (got {total_r:.6f})")
    avg = sum(profile.state_power_mw[s] * r for s, r in residency.items())
    if transition_counts:
        if total_time_s <= 0:
            raise ValueError("total_time_s must be positive")
        energy_uj = 0.0
        for change, count in transition_counts.items():
            energy_uj += count * profile.transition_costs[change]
        avg += energy_uj / (total_time_s * 1e3)  # uJ per ms is mW
    return avg


# -- DRAM energy ---------------------------------------------------------------


class DramEnergy(NamedTuple):
    """DRAM energy view: additive operating energy, attributed background.

    ``operating_*_uj`` charge the per-byte coefficients (these add to the
    total bill); ``background_uj`` re-states the share of the state powers
    that the background map assigns to DRAM (already inside the state
    energies, never added again).
    """

    operating_read_uj: float
    operating_write_uj: float
    background_uj: float
    background_by_mode_ns: Mapping[str, int]

    @property
    def operating_uj(self) -> float:
        return self.operating_read_uj + self.operating_write_uj


# -- full report ----------------------------------------------------------------


class WindowEnergy(NamedTuple):
    """Energy bill of a single refresh window.

    ``dram_uj``/``display_uj``/``others_uj`` is the component view (background
    attribution plus operating traffic; display slice plus the panel-buffer
    adder; everything else) and always sums to ``total_uj``.  Fields are in
    ``report.csv`` column order.
    """

    kind: str
    total_uj: float
    dram_uj: float
    display_uj: float
    others_uj: float
    transition_uj: float
    dram_operating_uj: float
    adders_uj: float


class EnergyReport(NamedTuple):
    """Complete energy accounting for one simulated run."""

    scheme: Scheme
    calibration: str
    profile: str
    n_windows: int
    total_ns: int
    residency: Mapping[PackageCState, float]
    state_spans_ns: Mapping[PackageCState, int]
    state_energy_uj: Mapping[PackageCState, float]
    transition_counts: Mapping[tuple[PackageCState, PackageCState], int]
    transition_energy_uj: float
    dram: DramEnergy
    drfb_energy_uj: float
    gpu_energy_uj: float
    fbc_energy_uj: float
    dram_read_bytes: int
    dram_write_bytes: int
    edp_bytes: int
    component_energy_uj: Mapping[str, float]
    total_energy_uj: float
    average_power_mw: float
    analytic_average_power_mw: float

    def to_dict(self) -> dict[str, Any]:
        return json_form(self)


class _Bill(NamedTuple):
    """Energies of one tally, in uJ, under their :class:`EnergyReport` names."""

    state_energy_uj: dict[PackageCState, float]
    transition_energy_uj: float
    dram: DramEnergy
    drfb_energy_uj: float
    gpu_energy_uj: float
    fbc_energy_uj: float
    component_energy_uj: dict[str, float]
    total_energy_uj: float


def _price(totals: TimelineTotals, profile: PowerProfile, system: SystemConfig,
           drfb_power_mw: float) -> _Bill:
    """The one pricing formula: energies of an integer tally."""
    spans = totals.state_spans_ns
    state_uj = {s: profile.state_power_mw[s] * spans[s] * 1e-6 for s in STATES_BY_DEPTH}
    trans_uj = sum(c * profile.transition_costs[change]
                   for change, c in totals.transitions.items())
    by_mode: dict[str, int] = {m: 0 for m in system.dram_background_mw}
    for state, ns in spans.items():
        by_mode[STATE_DRAM_MODE[state]] += ns
    dram = DramEnergy(
        operating_read_uj=totals.dram_read_bytes * system.dram_coeff_read * 1e6,
        operating_write_uj=totals.dram_write_bytes * system.dram_coeff_write * 1e6,
        background_uj=sum(
            system.dram_background_mw[m] * ns * 1e-6 for m, ns in by_mode.items()),
        background_by_mode_ns=by_mode,
    )
    drfb_uj = drfb_power_mw * totals.drfb_ns * 1e-6
    gpu_uj = system.gpu_active_mw * totals.gpu_ns * 1e-6
    fbc_uj = system.fbc_compute_mw * totals.fbc_ns * 1e-6
    total_uj = (
        sum(state_uj.values()) + trans_uj + dram.operating_uj + drfb_uj + gpu_uj + fbc_uj
    )
    # Three-way component view: the DRAM background and display slices are
    # carved out of the state powers, the panel-side buffer adder is
    # display-side, and everything else -- compute rest, transitions, GPU and
    # compression adders -- lands in "others".
    display_uj = (
        sum(profile.display_power_mw.get(s, 0.0) * spans[s] * 1e-6 for s in STATES_BY_DEPTH)
        + drfb_uj
    )
    dram_uj = dram.background_uj + dram.operating_uj
    components = {"dram": dram_uj, "display": display_uj,
                  "others": total_uj - display_uj - dram_uj}
    return _Bill(state_uj, trans_uj, dram, drfb_uj, gpu_uj, fbc_uj, components, total_uj)


def report_from_timeline(
    timeline: WindowTimeline,
    cfg: SimConfig,
    calibration: CalibrationSet,
) -> EnergyReport:
    """Price a timeline under a calibration."""
    profile = calibration.profile_for(timeline.scheme)
    # Splits fit each state's total within 0.5 mW, so "others" is >= -0.5 mW overall.
    check_dram_split_consistency(profile, cfg.system.dram_background_mw)
    totals = timeline_totals(timeline)
    bill = _price(totals, profile, cfg.system, calibration.drfb_power_mw)
    spans = totals.state_spans_ns
    total_ns = timeline.total_ns
    residency = {s: spans[s] / total_ns for s in STATES_BY_DEPTH}
    return EnergyReport(
        scheme=timeline.scheme,
        calibration=calibration.name,
        profile=profile.name,
        n_windows=timeline.n_windows,
        total_ns=total_ns,
        residency=residency,
        state_spans_ns=spans,
        transition_counts=totals.transitions,
        dram_read_bytes=totals.dram_read_bytes,
        dram_write_bytes=totals.dram_write_bytes,
        edp_bytes=totals.edp_bytes,
        **bill._asdict(),
        average_power_mw=bill.total_energy_uj / (total_ns * 1e-6),
        analytic_average_power_mw=average_power(
            profile, residency, totals.transitions, total_ns * 1e-9
        ),
    )


def window_energy_breakdown(
    timeline: WindowTimeline,
    cfg: SimConfig,
    calibration: CalibrationSet,
) -> tuple[tuple[WindowEnergy, ...], tuple[int, ...]]:
    """Per-window bills, stored as the timeline stores windows: the distinct
    bills, and each window's index into them.  Boundary transitions are
    charged to the later window.

    A window's bill depends only on its template and the state the previous
    window ended in, so each such pair is tallied and priced once.
    """
    profile = calibration.profile_for(timeline.scheme)
    index: dict[tuple[int, PackageCState | None], int] = {}
    window_bill = tuple(index.setdefault(pair, len(index)) for pair in timeline.window_pairs)
    bills: list[WindowEnergy] = []
    for pair in index:  # each distinct pair, in order of first use
        bill = _price(timeline_totals(timeline, {pair: 1}), profile, cfg.system,
                      calibration.drfb_power_mw)
        bills.append(WindowEnergy(
            kind=timeline.templates[pair[0]].kind,
            transition_uj=bill.transition_energy_uj,
            dram_operating_uj=bill.dram.operating_uj,
            adders_uj=bill.drfb_energy_uj + bill.gpu_energy_uj + bill.fbc_energy_uj,
            dram_uj=bill.component_energy_uj["dram"],
            display_uj=bill.component_energy_uj["display"],
            others_uj=bill.component_energy_uj["others"],
            total_uj=bill.total_energy_uj,
        ))
    return tuple(bills), window_bill


def streaming_report(
    cfg: SimConfig,
    calibration: CalibrationSet,
    n_windows: int | None = None,
    **run: Any,
) -> EnergyReport:
    """Build the timeline for a config and price it in one step.

    ``run`` takes :func:`build_timeline`'s keywords.
    """
    return report_from_timeline(build_timeline(cfg, n_windows, **run), cfg, calibration)
