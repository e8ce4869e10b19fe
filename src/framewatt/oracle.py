"""Independent event-driven cross-check for the analytic timeline builders.

This module re-derives window state sequences from the config with a
different implementation strategy: an event loop over the producer/consumer
buffer machine that steps every window, float-second arithmetic and merged
state spans, each priced at its own constant power.  Each transfer phase is
worked out as a list of ``(key, until)`` events, which one merge loop steps
through: it clips each to the window end and merges spans on one (state,
drfb, gpu, fbc) key.  Each span goes onto three run-long packed columns
(its key's index in one key table, its start, its end: 17 bytes and no
Python object), and its time onto its state's as it closes.  One walk over
the columns prices the energy, and :attr:`OracleResult.periods` (each span's
window, state and stretch) is built only when read.  It imports nothing from
:mod:`framewatt.timeline` or :mod:`framewatt.power`: every name it shares
comes from :mod:`framewatt.core` or :mod:`framewatt.cstates`, a definition
that gives a config its meaning: ``check_run_shape`` (what a run may be),
``frame_bytes``, ``encoded_frame_bytes`` and ``selective_update_bytes`` (a
window's payload), ``windows_per_frame`` (the frame group),
``BURST_WAKE_SHARE`` and ``CACHED_TRAFFIC_FRACTION`` (defaults), and the
profile's ``transition_costs`` (the energies ``power`` prices from).  The
equivalence tests hold the two within a tenth of a percentage point of
residency and a tenth of a percent of energy.

Semantics mirrored here (and nowhere loosened): the first two chunk fills of
a phase land back-to-back, later fills wait for the chunk two places ahead
to finish draining, producer-bound transfers run in lockstep with no drain
tail, and every window is cut off clean at its end.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, islice, product
from typing import Iterable, NamedTuple, Sequence

from .core import (BURST_WAKE_SHARE, CACHED_TRAFFIC_FRACTION, Scheme, SimConfig, WorkloadKind,
                   check_run_shape, encoded_frame_bytes, frame_bytes, selective_update_bytes,
                   windows_per_frame)
from .cstates import STATES_BY_DEPTH, CalibrationSet, PackageCState


#: The key table: every span merge key (state, drfb, gpu, fbc) in product order, so
#: ``index >> 3`` is the state's place in ``STATES_BY_DEPTH``.  Spans merge on the index.
_Key = tuple[PackageCState, bool, bool, bool]
_KEYS: tuple[_Key, ...] = tuple(product(PackageCState, *[(False, True)] * 3))
_INDEX: dict[_Key, int] = {k: i for i, k in enumerate(_KEYS)}


def _key(state: PackageCState, drfb: bool = False, gpu: bool = False,
         fbc: bool = False) -> int:
    return _INDEX[state, drfb, gpu, fbc]


class OraclePeriod(NamedTuple):
    """One merged span's window, state and stretch in float seconds; its
    adders are in its key, at the same place in :attr:`OracleResult.keys`."""

    window: int
    state: PackageCState
    start_s: float
    end_s: float

    @property
    def span_s(self) -> float:
        return self.end_s - self.start_s


class OracleResult(NamedTuple):
    """The merged spans in time order, as three packed columns: ``keys``
    (indices into the key table), ``start_s`` and ``end_s``.  Window ``w``'s
    are at ``[window_bounds[w]:window_bounds[w + 1]]``; ``state_s`` is each
    state's time, summed in that order as spans close."""

    n_windows: int
    window_s: float
    keys: array
    start_s: array
    end_s: array
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
        bounds, spans = self.window_bounds, zip(self.keys, self.start_s, self.end_s)
        return tuple(OraclePeriod(w, _KEYS[key][0], start_s, end_s)
                     for w, (first, end) in enumerate(zip(bounds, bounds[1:]))
                     for key, start_s, end_s in islice(spans, end - first))

    def residency(self) -> dict[PackageCState, float]:
        total = self.total_s
        return {s: t / total for s, t in self.state_s.items()}

    def energy_uj(self, cfg: SimConfig, calibration: CalibrationSet) -> float:
        """Integrate the energy bill over the span columns in one walk.  Power is
        constant within a span, so each is integrated exactly as power times span."""
        profile = calibration.profile_for(cfg.workload.scheme)
        changes = profile.transition_costs
        # Each key that occurs is priced once per call.
        power: dict[int, float] = {}
        total_uj = 0.0
        prev_state: PackageCState | None = None
        for key, start_s, end_s in zip(self.keys, self.start_s, self.end_s):
            power_mw = power.get(key)
            if power_mw is None:
                state, drfb, gpu, fbc = _KEYS[key]
                power_mw = profile.state_power_mw[state]
                if drfb:
                    power_mw += calibration.drfb_power_mw
                if gpu:
                    power_mw += cfg.system.gpu_active_mw
                if fbc:
                    power_mw += cfg.system.fbc_compute_mw
                power[key] = power_mw
            total_uj += power_mw * (end_s - start_s) * 1e3  # mW * s -> uJ
            state = _KEYS[key][0]
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


class _WindowSim:
    """Steps one window at a time.  A span goes onto the run-long ``keys``
    and ``start_s`` columns as it opens, and its time onto its state's as it
    closes.  A window's spans tile it, so each ends where the next starts and
    the last at the window's end: ``finish`` copies those onto ``end_s``."""

    def __init__(self) -> None:
        self.keys, self.start_s, self.end_s = array("B"), array("d"), array("d")
        self.window_bounds = [0]
        self.state_s = [0.0] * len(STATES_BY_DEPTH)  # by depth, at key >> 3

    def open(self, start_s: float, end_s: float) -> None:
        self.end = end_s
        self.t = self.start = start_s
        self.key = -1  # no span is open, so none merges across windows

    def run(self, events: Iterable[tuple[int, float]]) -> None:
        """Step through ``(key, until)`` events: each is clipped to the window
        end, skipped if it does not move time on, and else extends the open
        span if the key is the same or closes it and opens a new one."""
        end, t, key, start = self.end, self.t, self.key, self.start
        keys, starts, state_s = self.keys, self.start_s, self.state_s
        for k, until in events:
            if until > end:
                until = end
            if until <= t:
                continue
            if k != key:
                if key >= 0:
                    state_s[key >> 3] += t - start
                key, start = k, t
                keys.append(k)
                starts.append(t)
            t = until
        self.t, self.key, self.start = t, key, start

    def emit(self, key: int, until: float) -> None:
        self.run(((key, until),))

    def finish(self, tail: int) -> None:
        # Every span ends at or before the window's end, and the tail runs
        # up to it exactly, so no float drift leaks across windows.
        if self.t < self.end:
            self.emit(tail, self.end)
        self.state_s[self.key >> 3] += self.t - self.start
        self.end_s.extend(self.start_s[self.window_bounds[-1] + 1:])
        self.end_s.append(self.t)
        self.window_bounds.append(len(self.keys))


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
    events: list[tuple[int, float]] = []
    fill_end = start

    if fill_rate <= d:
        # Lockstep: consumer is never the constraint; chunks go out as they
        # are produced, so the phase is one fill span ending with the last fill.
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

    Takes :func:`build_timeline`'s keywords and defaults to the same
    length; :func:`check_run_shape` alone decides whether the run exists,
    so it refuses what the builder refuses, with the same errors.
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

    return OracleResult(n, W, sim.keys, sim.start_s, sim.end_s, sim.window_bounds,
                        dict(zip(STATES_BY_DEPTH, sim.state_s)), reads, writes, link)


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
