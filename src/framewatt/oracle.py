"""Independent event-driven cross-check for the analytic timeline builders.

This module re-derives window state sequences from the config with a
different implementation strategy: an event loop over the producer/consumer
buffer machine that steps every window, float-second arithmetic and merged
state spans, each priced at its own constant power.  Each transfer phase is
worked out as a list of ``(key, until)`` events, which one merge loop steps
through: it clips each to the window end and merges spans on one interned
(state, drfb, gpu, fbc) key.  Each window's spans are folded into per-state
time as the window closes, one walk over all spans prices the energy, and
:attr:`OracleResult.periods` (each span's window, state and stretch) is built
only when read.  It shares no interval construction with
:mod:`framewatt.timeline` and no pricing code with :mod:`framewatt.power`,
only definitions that give a config its meaning:
``check_run_shape`` (what a run may be), ``frame_bytes``,
``encoded_frame_bytes`` and ``selective_update_bytes`` (a window's payload),
``windows_per_frame`` (the frame group), ``BURST_WAKE_SHARE`` and
``CACHED_TRAFFIC_FRACTION`` (defaults), and the profile's ``transition_costs``
(the energies ``power`` prices from).  The equivalence tests hold the two within
a tenth of a percentage point of residency and a tenth of a percent of energy.

Semantics mirrored here (and nowhere loosened): the first two chunk fills of
a phase land back-to-back, later fills wait for the chunk two places ahead
to finish draining, producer-bound transfers run in lockstep with no drain
tail, and every window is cut off clean at its end.
"""

from __future__ import annotations

from itertools import accumulate, chain, product
from typing import Iterable, NamedTuple, Sequence

from .core import (BURST_WAKE_SHARE, CACHED_TRAFFIC_FRACTION, Scheme, SimConfig, WorkloadKind,
                   encoded_frame_bytes, frame_bytes, windows_per_frame)
from .cstates import STATES_BY_DEPTH, CalibrationSet, PackageCState
from .timeline import check_run_shape, selective_update_bytes


#: A span's merge key, (state, drfb, gpu, fbc).  ``_KEYS`` holds one object
#: for each, so spans merge on an identity check.
_Key = tuple[PackageCState, bool, bool, bool]
_KEYS: dict[_Key, _Key] = {k: k for k in product(PackageCState, *[(False, True)] * 3)}


def _key(state: PackageCState, drfb: bool = False, gpu: bool = False,
         fbc: bool = False) -> _Key:
    return _KEYS[state, drfb, gpu, fbc]


class OraclePeriod(NamedTuple):
    """One merged span's window, state and stretch in float seconds; its
    adders are in the span's key in :attr:`OracleResult.spans`."""

    window: int
    state: PackageCState
    start_s: float
    end_s: float

    @property
    def span_s(self) -> float:
        return self.end_s - self.start_s


class OracleResult(NamedTuple):
    """``spans`` holds the merged ``[key, start_s, end_s]`` spans in time
    order, window ``w``'s at ``spans[window_bounds[w]:window_bounds[w + 1]]``;
    ``state_s`` is each state's time, summed in that order as windows close."""

    n_windows: int
    window_s: float
    spans: list[list]
    window_bounds: list[int]
    state_s: dict[PackageCState, float]
    dram_read_bytes: int
    dram_write_bytes: int
    edp_bytes: int

    @property
    def total_s(self) -> float:
        return self.n_windows * self.window_s

    @property
    def periods(self) -> tuple[OraclePeriod, ...]:
        """The spans as :class:`OraclePeriod` records, built on each read."""
        bounds = self.window_bounds
        return tuple(OraclePeriod(w, key[0], start_s, end_s)
                     for w, (first, end) in enumerate(zip(bounds, bounds[1:]))
                     for key, start_s, end_s in self.spans[first:end])

    def residency(self) -> dict[PackageCState, float]:
        total = self.total_s
        return {s: t / total for s, t in self.state_s.items()}

    def energy_uj(self, cfg: SimConfig, calibration: CalibrationSet) -> float:
        """Integrate the energy bill over the spans in one walk.  Power is
        constant within a span, so each is integrated exactly as power times span."""
        profile = calibration.profile_for(cfg.workload.scheme)
        changes = profile.transition_costs
        # Each key that occurs is priced once per call.
        power: dict[_Key, float] = {}
        total_uj = 0.0
        prev_state: PackageCState | None = None
        for key, start_s, end_s in self.spans:
            power_mw = power.get(key)
            if power_mw is None:
                state, drfb, gpu, fbc = key
                power_mw = profile.state_power_mw[state]
                if drfb:
                    power_mw += calibration.drfb_power_mw
                if gpu:
                    power_mw += cfg.system.gpu_active_mw
                if fbc:
                    power_mw += cfg.system.fbc_compute_mw
                power[key] = power_mw
            total_uj += power_mw * (end_s - start_s) * 1e3  # mW * s -> uJ
            state = key[0]
            if prev_state is not None and prev_state is not state:
                total_uj += changes[prev_state, state]
            prev_state = state
        total_uj += self.dram_read_bytes * cfg.system.dram_coeff_read * 1e6
        total_uj += self.dram_write_bytes * cfg.system.dram_coeff_write * 1e6
        return total_uj


# -- the event machine ---------------------------------------------------------


_C0 = _key(PackageCState.C0)
_C8 = _key(PackageCState.C8)
_C7P = _key(PackageCState.C7P)
_C9_DRFB = _key(PackageCState.C9, drfb=True)
#: Matches no key, so a window's first span never merges into the last window.
_NO_SPAN: list = [None, 0.0, 0.0]


class _WindowSim:
    """Steps one window at a time, appending merged ``[key, start, end]``
    spans to one run-long list and folding each into its state's time as
    the window closes."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.window_bounds = [0]
        self.state_s = dict.fromkeys(STATES_BY_DEPTH, 0.0)

    def open(self, start_s: float, end_s: float) -> None:
        self.end = end_s
        self.t = start_s
        self.last = _NO_SPAN

    def run(self, events: Iterable[tuple[_Key, float]]) -> None:
        """Step through ``(key, until)`` events: each is clipped to the window
        end, skipped if it does not move time on, and else extends the last
        span if the key is the same or starts a new one."""
        end, t, last, spans = self.end, self.t, self.last, self.spans
        for key, until in events:
            if until > end:
                until = end
            if until <= t:
                continue
            if last[0] is key:
                last[2] = until
            else:
                last = [key, t, until]
                spans.append(last)
            t = until
        self.t, self.last = t, last

    def emit(self, key: _Key, until: float) -> None:
        self.run(((key, until),))

    def finish(self, tail: _Key) -> None:
        # Every span ends at or before the window's end, and the tail runs
        # up to it exactly, so no float drift leaks across windows.
        if self.t < self.end:
            self.emit(tail, self.end)
        state_s = self.state_s
        for key, start_s, end_s in self.spans[self.window_bounds[-1]:]:
            state_s[key[0]] += end_s - start_s
        self.window_bounds.append(len(self.spans))


def _chunks(payload: int, chunk: int) -> list[int]:
    n = -(-payload // chunk)
    return [chunk] * (n - 1) + [payload - (n - 1) * chunk] if n else []


def _run_phase(sim: _WindowSim, payload: int, chunk: int, fill_rate: float,
               drain_rate: float | None, fill_state: PackageCState,
               drain_state: PackageCState, *, gpu_fill: bool = False) -> None:
    """Drive the buffer machine; ``drain_rate`` None paces the drain across
    the rest of the window.  The phase's events are worked out first, then
    stepped through in one :meth:`_WindowSim.run`."""
    if payload <= 0 or sim.t >= sim.end:
        return
    fill, drain = _key(fill_state, gpu=gpu_fill), _key(drain_state)
    start, end = sim.t, sim.end
    span_mode = drain_rate is None
    d = payload / (end - start) if span_mode else float(drain_rate)
    sizes = _chunks(payload, chunk)
    events: list[tuple[_Key, float]] = []
    fill_end = start

    if fill_rate <= d:
        # Lockstep: consumer is never the constraint; chunks go out as they
        # are produced and the phase ends with the last fill.
        for c in sizes:
            fill_end += c / fill_rate
            events.append((fill, fill_end))
        if span_mode:
            events.append((drain, end))
    else:
        first_fill_end = start + sizes[0] / fill_rate
        drain_done = [first_fill_end + drained / d for drained in accumulate(sizes)]
        # The first two fills land back-to-back; a later one waits for the
        # chunk two places ahead of it to drain.
        for c, ready in zip(sizes, chain((start, start), drain_done)):
            if ready > fill_end:
                fill_end = ready
                events.append((drain, ready))
            fill_end += c / fill_rate
            events.append((fill, fill_end))
            if fill_end >= end:  # every later event is clipped away
                break
        events.append((drain, drain_done[-1]))
    sim.run(events)


class _P(NamedTuple):
    """Per-run scalar parameters, all plain floats/ints."""

    W: float
    F: int
    E: int
    chunk: int
    o: float
    o_b: float
    f: float
    b: float
    p: float
    e_B: float
    gpu: float
    group: int
    disp: int
    fbc_on: bool


def oracle_simulate(cfg: SimConfig, n_windows: int | None = None, *,
                    fbc_ratio: float = 1.0, batch_every: int = 1,
                    cached_traffic_fraction: float = CACHED_TRAFFIC_FRACTION,
                    dirty_trace: Sequence[float] | None = None) -> OracleResult:
    """Simulate the run with the event machine and return merged spans.

    Takes :func:`build_timeline`'s keywords and rejects the run shapes it
    rejects (:func:`check_run_shape`): like it, it defaults to one batch
    cycle (``batch_every`` frame groups), and a dirty trace sets its own
    length, which ``n_windows`` may only restate.
    """
    n = check_run_shape(cfg, n_windows, fbc_ratio, batch_every, cached_traffic_fraction,
                        dirty_trace)
    disp_cfg, sys_cfg, wl = cfg.display, cfg.system, cfg.workload
    F = frame_bytes(disp_cfg.resolution, disp_cfg.bits_per_pixel)
    W = 1.0 / disp_cfg.refresh_hz
    cut = (1.0 - cached_traffic_fraction) if batch_every > 1 else 1.0
    share_num, share_den = BURST_WAKE_SHARE
    par = _P(
        W=W,
        F=F,
        E=encoded_frame_bytes(disp_cfg.resolution, sys_cfg.encoded_bits_per_pixel),
        chunk=sys_cfg.dc_buffer_bytes,
        o=sys_cfg.orchestration_time,
        o_b=(sys_cfg.burst_orchestration_time
             if sys_cfg.burst_orchestration_time is not None else share_num / share_den * W),
        f=sys_cfg.decode_rate,
        b=sys_cfg.dram_fetch_rate,
        p=sys_cfg.vd_paced_rate if sys_cfg.vd_paced_rate else sys_cfg.decode_rate,
        e_B=disp_cfg.edp_max_bits_per_s / 8,
        gpu=sys_cfg.gpu_pt_rate,
        group=windows_per_frame(cfg),
        disp=round(F * fbc_ratio * cut),
        fbc_on=fbc_ratio != 1.0,
    )

    sim = _WindowSim()
    reads = writes = link = 0
    for w in range(n):
        sim.open(w * W, (w + 1) * W)
        if wl.kind is WorkloadKind.SINGLE_PLANE:
            r, wr, lk = _sim_plane(sim, par, wl.scheme, float(dirty_trace[w]))  # type: ignore[index]
        else:
            is_transfer = w % par.group == 0
            vr = wl.kind is WorkloadKind.VR360
            if wl.scheme is Scheme.BASELINE:
                decodes = 0
                if is_transfer:
                    frame_idx = w // par.group
                    decodes = batch_every if frame_idx % batch_every == 0 else 0
                r, wr, lk = _sim_baseline(
                    sim, par, is_transfer, decodes, vr, wl.psr_alternate_windows
                )
            elif not is_transfer:
                # Every other scheme parks a repeat window on the panel's
                # own frame buffer after a short wake-up.
                sim.emit(_C0, sim.t + par.o_b)
                sim.finish(_C9_DRFB)
                r = wr = lk = 0
            elif wl.scheme is Scheme.BYPASS_ONLY:
                r, wr, lk = _sim_bypass(sim, par)
            elif wl.scheme is Scheme.BURSTING_ONLY:
                r, wr, lk = _sim_bursting(sim, par)
            else:
                r, wr, lk = _sim_burstlink(sim, par, vr)
        reads += r
        writes += wr
        link += lk

    return OracleResult(n, W, sim.spans, sim.window_bounds, sim.state_s, reads, writes, link)


def _sim_baseline(
    sim: _WindowSim, par: _P, is_transfer: bool, decodes: int, vr: bool, psr_alt: bool
) -> tuple[int, int, int]:
    if not is_transfer and psr_alt:
        sim.finish(_C9_DRFB)
        return 0, 0, 0
    reads = writes = 0
    if is_transfer and decodes > 0:
        sim.emit(_key(PackageCState.C0, fbc=par.fbc_on and not vr),
                 sim.t + par.o + decodes * par.F / par.f)
        reads += decodes * par.E
        writes += decodes * (par.F if vr else par.disp)
        if vr:
            sim.emit(_key(PackageCState.C0, gpu=True, fbc=par.fbc_on),
                     sim.t + decodes * par.F / par.gpu)
            reads += decodes * par.F
            writes += decodes * par.disp
    else:
        sim.emit(_C0, sim.t + par.o)
    _run_phase(sim, par.disp, par.chunk, par.b, None,
               PackageCState.C2, PackageCState.C8)
    sim.finish(_C8)
    reads += par.disp
    return reads, writes, par.F


def _sim_bypass(sim: _WindowSim, par: _P) -> tuple[int, int, int]:
    sim.emit(_C0, sim.t + par.o)
    _run_phase(sim, par.F, par.chunk, par.p, None,
               PackageCState.C7, PackageCState.C7P)
    sim.finish(_C7P)
    return par.E, 0, par.F


def _sim_bursting(sim: _WindowSim, par: _P) -> tuple[int, int, int]:
    sim.emit(_key(PackageCState.C0, fbc=par.fbc_on), sim.t + par.o_b + par.F / par.f)
    d_units = par.e_B * par.disp / par.F if par.disp != par.F else par.e_B
    _run_phase(sim, par.disp, par.chunk, par.b, d_units,
               PackageCState.C2, PackageCState.C8)
    sim.finish(_C9_DRFB)
    return par.E + par.disp, par.disp, par.F


def _sim_burstlink(sim: _WindowSim, par: _P, vr: bool) -> tuple[int, int, int]:
    if vr:
        sim.emit(_C0, sim.t + par.o_b + par.F / par.f)
        _run_phase(sim, par.F, par.chunk, par.gpu, par.e_B,
                   PackageCState.C7, PackageCState.C7P, gpu_fill=True)
        sim.finish(_C9_DRFB)
        return par.E + par.F, par.F, par.F
    sim.emit(_C0, sim.t + par.o_b)
    _run_phase(sim, par.F, par.chunk, par.p, par.e_B,
               PackageCState.C7, PackageCState.C7P)
    sim.finish(_C9_DRFB)
    return par.E, 0, par.F


def _sim_plane(
    sim: _WindowSim, par: _P, scheme: Scheme, dirty: float
) -> tuple[int, int, int]:
    if scheme is Scheme.BASELINE:
        sim.emit(_C0, sim.t + par.o)
        _run_phase(sim, par.F, par.chunk, par.b, None,
                   PackageCState.C2, PackageCState.C8)
        sim.finish(_C8)
        return par.F, 0, par.F
    update = selective_update_bytes(par.F, dirty)
    sim.emit(_C0, sim.t + par.o_b)
    if update > 0:
        _run_phase(sim, update, par.chunk, par.b, par.e_B,
                   PackageCState.C2, PackageCState.C8)
    sim.finish(_C9_DRFB)
    return update, 0, update
