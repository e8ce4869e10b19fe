"""Event-driven reference executor vs the analytic timeline builders.

The two implementations share no interval-construction code; agreement on
energy, residency, and traffic is the core cross-validation of the package.
The full 50-point grid runs in the acceptance gate; these tests probe the
corners (overlays, traces, default run length) the grid does not cover.
"""

from __future__ import annotations

import ast
import gc
import re
from array import array
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import framewatt.oracle as omod
from framewatt.core import (CACHED_TRAFFIC_FRACTION, ConfigurationError, DisplayConfig,
                            Resolution, Scheme, SimConfig, SystemConfig, WorkloadKind,
                            WorkloadSpec, check_run_shape, frame_bytes, replace,
                            validate_config)
from framewatt.cstates import STATES_BY_DEPTH, PackageCState, load_calibration
from framewatt.oracle import oracle_simulate
from framewatt.power import report_from_timeline
from framewatt.presets import PRESETS
from framewatt.timeline import build_timeline
from conftest import make_config
from test_acceptance import _valid_configs
from test_cli import CROSS_FIELD_RULES
from test_scenarios import bundled_trace


def cross_check(cfg, calibration, n_windows=None, **overlays):
    cal = load_calibration(calibration) if isinstance(calibration, str) else calibration
    tl = build_timeline(cfg, n_windows, **overlays)
    report = report_from_timeline(tl, cfg, cal)
    oracle = oracle_simulate(cfg, n_windows, **overlays)
    energy_pct = (
        abs(oracle.energy_uj(cfg, cal) - report.total_energy_uj)
        / report.total_energy_uj
        * 100
    )
    residency_pp = max(
        abs(oracle.residency().get(s, 0.0) - report.residency.get(s, 0.0)) * 100
        for s in PackageCState
    )
    return oracle, report, energy_pct, residency_pp


@pytest.mark.parametrize("scheme", list(Scheme))
def test_executors_agree_on_every_scheme(scheme):
    _, _, energy_pct, residency_pp = cross_check(
        make_config("4k", 60, scheme), "default"
    )
    assert energy_pct < 0.01
    assert residency_pp < 0.01


def test_executors_agree_on_repeat_window_cadence():
    _, _, energy_pct, residency_pp = cross_check(
        make_config("fhd", 30, Scheme.BURSTLINK), "default", 8
    )
    assert energy_pct < 0.01
    assert residency_pp < 0.01


def test_executors_agree_under_compression():
    _, _, energy_pct, residency_pp = cross_check(
        make_config("4k", 60, Scheme.BASELINE), "default", fbc_ratio=0.5
    )
    assert energy_pct < 0.01
    assert residency_pp < 0.01


def test_executors_agree_under_batching():
    _, _, energy_pct, residency_pp = cross_check(
        make_config("4k", 60, Scheme.BASELINE), "default", 4, batch_every=4
    )
    assert energy_pct < 0.01
    assert residency_pp < 0.01


def test_executors_agree_on_vr_playback():
    for scheme in (Scheme.BASELINE, Scheme.BURSTLINK):
        _, _, energy_pct, residency_pp = cross_check(
            make_config("4k", 60, scheme, kind=WorkloadKind.VR360), "default"
        )
        assert energy_pct < 0.01
        assert residency_pp < 0.01


def test_executors_agree_on_dirty_rect_traces():
    cfg = make_config(
        "fhd", 60, Scheme.BURSTING_ONLY, kind=WorkloadKind.SINGLE_PLANE
    )
    trace = [0.0, 0.1, 0.9, 1.0, 0.3]
    _, _, energy_pct, residency_pp = cross_check(
        cfg, "default", dirty_trace=trace
    )
    assert energy_pct < 0.01
    assert residency_pp < 0.01


@pytest.mark.parametrize("scheme, kind, trace", [
    (Scheme.BURSTLINK, WorkloadKind.VIDEO, None),
    (Scheme.BURSTING_ONLY, WorkloadKind.VIDEO, None),
    (Scheme.BURSTLINK, WorkloadKind.VR360, None),
    (Scheme.BURSTING_ONLY, WorkloadKind.SINGLE_PLANE, "gaming"),
], ids=["burstlink", "bursting_only", "vr360", "trace"])
def test_executors_agree_on_a_set_burst_wake_up(scheme, kind, trace):
    overlays = {"dirty_trace": bundled_trace(trace)} if trace else {}
    runs = [cross_check(make_config("4k", 60, scheme, kind=kind, system=system), "default",
                        **overlays)
            for system in (SystemConfig(), SystemConfig(burst_orchestration_time=0.5e-3))]
    for _, _, energy_pct, residency_pp in runs:
        assert energy_pct < 0.01
        assert residency_pp < 0.01
    # Every window wakes up for 0.5 ms, not the default 1/50 of 16.7 ms: 1 pp more C0.
    (_, default, *_), (_, set_wake, *_) = runs
    c0_pp = 100 * (set_wake.residency[PackageCState.C0] - default.residency[PackageCState.C0])
    assert c0_pp == pytest.approx(1.0, abs=1e-4)


def test_executors_agree_with_transition_latencies():
    _, _, energy_pct, residency_pp = cross_check(
        make_config("4k", 60, Scheme.BURSTLINK), "latency-demo"
    )
    assert energy_pct < 0.1
    assert residency_pp < 0.1


def test_oracle_traffic_matches_the_analytic_books():
    for scheme in Scheme:
        cfg = make_config("qhd", 30, scheme)
        oracle, report, _, _ = cross_check(cfg, "default")
        assert oracle.dram_read_bytes == report.dram_read_bytes
        assert oracle.dram_write_bytes == report.dram_write_bytes
        assert oracle.edp_bytes == report.edp_bytes


@pytest.mark.parametrize("batch_every", [1, 3])
def test_oracle_default_length_matches_the_builder(batch_every):
    cfg = make_config("fhd", 30)  # 30 fps on a 60 Hz panel: two windows a frame
    oracle = oracle_simulate(cfg, batch_every=batch_every)
    assert oracle.n_windows == build_timeline(cfg, batch_every=batch_every).n_windows
    assert oracle.n_windows == 2 * batch_every


def test_oracle_rejects_a_window_count_the_dirty_trace_does_not_give():
    cfg = make_config("fhd", 60, Scheme.BURSTING_ONLY, kind=WorkloadKind.SINGLE_PLANE)
    trace = [0.5] * 12
    assert oracle_simulate(cfg, 12, dirty_trace=trace).n_windows == 12
    for n in (5, 13):
        for run in (build_timeline, oracle_simulate):
            with pytest.raises(ValueError,
                               match=f"^n_windows must be the dirty trace's length 12, got {n}$"):
                run(cfg, n, dirty_trace=trace)


@pytest.mark.parametrize("run, message", [
    ({"fbc_ratio": 7.0}, "fbc_ratio must be in (0, 1], got 7.0"),
    ({"dirty_trace": [0.5]}, "dirty_trace only applies to single-plane workloads"),
    ({"batch_every": 0}, "batch_every must be >= 1, got 0"),
    ({"batch_every": 2, "cached_traffic_fraction": 1.5},
     "cached_traffic_fraction must be in [0, 1], got 1.5"),
], ids=["fbc-ratio", "dirty-trace", "batch-every", "cached-fraction"])
def test_oracle_rejects_the_run_shapes_the_builder_rejects(run, message):
    cfg = make_config("fhd", 60, Scheme.BURSTING_ONLY)
    for sim in (build_timeline, oracle_simulate):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sim(cfg, 4, **run)


def test_oracle_rejects_batching_off_plain_video():
    cfg = make_config("fhd", 60, Scheme.BURSTING_ONLY)
    for sim in (build_timeline, oracle_simulate):
        with pytest.raises(ValueError, match="^frame batching applies only to video playback"):
            sim(cfg, 4, batch_every=2)


def test_oracle_rejects_compression_and_empty_traces_on_single_planes():
    cfg = make_config("fhd", 60, Scheme.BURSTING_ONLY, kind=WorkloadKind.SINGLE_PLANE)
    for run, message in (({"fbc_ratio": 0.5, "dirty_trace": [0.5]},
                          "frame-buffer compression does not apply to single-plane workloads"),
                         ({"dirty_trace": []}, "dirty_trace must not be empty"),
                         ({}, "single-plane workloads need a dirty_trace")):
        for sim in (build_timeline, oracle_simulate):
            with pytest.raises(ValueError, match=f"^{message}$"):
                sim(cfg, **run)


def test_oracle_rejects_an_empty_run():
    for sim in (build_timeline, oracle_simulate):
        with pytest.raises(ValueError, match="^n_windows must be >= 1$"):
            sim(make_config("fhd", 60), 0)


@pytest.mark.parametrize("doc, lines", CROSS_FIELD_RULES)
def test_oracle_refuses_the_configs_the_builder_refuses(doc, lines):
    cfg = SimConfig.from_dict(doc)
    refused = []
    for sim in (build_timeline, oracle_simulate):
        with pytest.raises(ConfigurationError) as caught:
            sim(cfg)
        refused.append(caught.value.violations)
    assert refused[1] == refused[0]
    assert ["\t".join(v) for v in refused[1]] == lines


def _spans(oracle):
    """The oracle's merged spans as ``(key, start_s, end_s)``, zipped from
    its packed columns, each key looked up in the key table."""
    return [(omod._KEYS[key], start_s, end_s)
            for key, start_s, end_s in zip(oracle.keys, oracle.start_s, oracle.end_s)]


def tick_quadrature_uj(oracle, cfg, cal, tick_s=1e-6):
    """Reference energy: step through every period in ticks of ``tick_s``,
    with the adders its span's key sets."""
    profile = cal.profile_for(cfg.workload.scheme)
    total_uj = 0.0
    prev_state = None
    for p, ((_, drfb, gpu, fbc), _, _) in zip(oracle.periods, _spans(oracle), strict=True):
        power_mw = profile.state_power_mw[p.state]
        if drfb:
            power_mw += cal.drfb_power_mw
        if gpu:
            power_mw += cfg.system.gpu_active_mw
        if fbc:
            power_mw += cfg.system.fbc_compute_mw
        remaining = p.span_s
        while remaining > 0:
            dt = tick_s if remaining > tick_s else remaining
            total_uj += power_mw * dt * 1e3
            remaining -= dt
        if prev_state is not None and prev_state is not p.state:
            total_uj += profile.transition_costs[prev_state, p.state]
        prev_state = p.state
    total_uj += oracle.dram_read_bytes * cfg.system.dram_coeff_read * 1e6
    total_uj += oracle.dram_write_bytes * cfg.system.dram_coeff_write * 1e6
    return total_uj


#: Rates from 1 GB/s to 1 PB/s, at whole and odd mantissas.
_RATES = st.integers(9, 14).flatmap(lambda e: st.sampled_from([1.0, 2.5, 7.3]).map(
    lambda m: m * 10.0**e)) | st.just(1e15)
#: Wake-ups of nothing, a tenth of a ns, a us and a ms.
_WAKES = st.sampled_from([0.0, 1e-10, 1e-6, 1e-3])


@st.composite
def _edge_configs(draw):
    """A config from a wide space, with the dirty trace of a single-plane
    workload: panels from 16x16 to 4K at 30-240 Hz, rates, wake-ups and DC
    buffers (1 B to 512 KiB, at most 1,024 fills a frame) far from the
    shipped ones."""
    refresh = draw(st.sampled_from([30, 48, 60, 90, 120, 144, 240]))
    scheme, kind = draw(st.sampled_from(Scheme)), draw(st.sampled_from(WorkloadKind))
    display = DisplayConfig(
        resolution=Resolution(4 * draw(st.integers(4, 960)), draw(st.integers(16, 2160))),
        refresh_hz=refresh, bits_per_pixel=draw(st.sampled_from([16, 24, 30, 32])),
        edp_max_bits_per_s=8 * draw(_RATES))
    fills = draw(st.integers(1, 1024))
    system = SystemConfig(
        dc_buffer_bytes=min(-(-frame_bytes(display.resolution, display.bits_per_pixel) // fills),
                            512 * 1024),
        dram_fetch_rate=draw(_RATES), decode_rate=draw(_RATES),
        vd_paced_rate=draw(st.none() | _RATES), gpu_pt_rate=draw(_RATES),
        orchestration_time=draw(_WAKES), burst_orchestration_time=draw(st.none() | _WAKES))
    workload = WorkloadSpec(
        kind=kind, scheme=scheme,
        video_fps=refresh if kind is WorkloadKind.SINGLE_PLANE
        else refresh // draw(st.sampled_from([d for d in (1, 2, 3, 4) if refresh % d == 0])),
        psr_alternate_windows=draw(st.booleans()))
    trace = (draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                           min_size=1, max_size=3))
             if kind is WorkloadKind.SINGLE_PLANE else None)
    return SimConfig(display, system, workload), trace


@given(_edge_configs())
@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_every_validated_config_builds_and_agrees_with_the_oracle(case):
    cfg, trace = case
    if validate_config(cfg):
        return
    check_run_shape(cfg, None, 1.0, 1, CACHED_TRAFFIC_FRACTION, trace)
    build_timeline(cfg, dirty_trace=trace).check_coverage()
    # The default calibration prices no state change: the timeline drops the
    # changes of records that round to nothing, which the oracle still prices.
    oracle, report, energy_pct, residency_pp = cross_check(cfg, "default", dirty_trace=trace)
    assert energy_pct < 0.1  # criterion 3's tolerances
    assert residency_pp < 0.1
    assert (oracle.dram_read_bytes, oracle.dram_write_bytes, oracle.edp_bytes) == (
        report.dram_read_bytes, report.dram_write_bytes, report.edp_bytes)


@pytest.mark.parametrize("cfg, calibration, n_windows, overlays", [
    (make_config("4k", 60, Scheme.BASELINE), "default", 2, {}),
    (make_config("fhd", 30, Scheme.BURSTLINK), "latency-demo", 4, {}),
    (make_config("4k", 60, Scheme.BASELINE, kind=WorkloadKind.VR360), "default", 2,
     {"fbc_ratio": 0.5}),
    (make_config("4k", 60, Scheme.BASELINE), "default", 4, {"batch_every": 4}),
    (make_config("fhd", 60, Scheme.BURSTING_ONLY, kind=WorkloadKind.SINGLE_PLANE),
     "default", None, {"dirty_trace": [0.0, 0.1, 0.9, 1.0, 0.3]}),
], ids=["baseline", "burstlink", "vr-fbc", "batching", "single-plane"])
def test_closed_form_energy_matches_tick_quadrature(cfg, calibration, n_windows, overlays):
    cal = load_calibration(calibration)
    oracle = oracle_simulate(cfg, n_windows, **overlays)
    assert oracle.energy_uj(cfg, cal) == pytest.approx(
        tick_quadrature_uj(oracle, cfg, cal), rel=1e-9)


def test_oracle_periods_tile_the_run():
    oracle = oracle_simulate(make_config("4k", 60, Scheme.BURSTING_ONLY), 2)
    assert oracle.periods[0].start_s == 0.0
    assert oracle.total_s == pytest.approx(2 * oracle.window_s)
    for prev, cur in zip(oracle.periods, oracle.periods[1:]):
        assert prev.end_s == pytest.approx(cur.start_s)
    assert sum(oracle.residency().values()) == pytest.approx(1.0)


def test_a_held_oracle_result_keeps_almost_no_gc_tracked_objects():
    # The spans live in packed columns, not in a Python object each, so a
    # held result gives the cyclic collector a handful of objects to walk
    # however long the run (a list per span kept 9,201 for these 400 windows).
    cfg = PRESETS["fhd30"].config
    oracle_simulate(cfg, 2)
    gc.collect()
    before = len(gc.get_objects())
    held = oracle_simulate(cfg, 400)
    gc.collect()
    assert len(gc.get_objects()) - before < 50
    assert len(held.keys) > 400 * 20


def _ref_state_time_s(oracle):
    """Reference: each state's time, summed over the periods in order."""
    out = {s: 0.0 for s in PackageCState}
    for p in oracle.periods:
        out[p.state] += p.span_s
    return out


def _ref_energy_uj(oracle, cfg, calibration):
    """Reference: the energy bill priced period by period, with the adders
    its span's key sets."""
    profile = calibration.profile_for(cfg.workload.scheme)
    total_uj = 0.0
    prev_state = None
    for (_, state, start_s, end_s), ((_, drfb, gpu, fbc), _, _) in zip(
            oracle.periods, _spans(oracle), strict=True):
        power_mw = profile.state_power_mw[state]
        if drfb:
            power_mw += calibration.drfb_power_mw
        if gpu:
            power_mw += cfg.system.gpu_active_mw
        if fbc:
            power_mw += cfg.system.fbc_compute_mw
        total_uj += power_mw * (end_s - start_s) * 1e3
        if prev_state is not None and prev_state is not state:
            total_uj += profile.transition_costs[prev_state, state]
        prev_state = state
    total_uj += oracle.dram_read_bytes * cfg.system.dram_coeff_read * 1e6
    total_uj += oracle.dram_write_bytes * cfg.system.dram_coeff_write * 1e6
    return total_uj


@st.composite
def _oracle_runs(draw):
    """A criterion-4 config with a run shape: compression, batching, PSR
    alternation, or a dirty trace on a single-plane workload."""
    cfg, _ = draw(_valid_configs())
    run = {}
    if draw(st.booleans()):
        run["fbc_ratio"] = draw(st.sampled_from([0.5, 0.55, 0.7, 0.95]))
    if draw(st.booleans()):
        run["batch_every"] = draw(st.integers(2, 4))
        run["cached_traffic_fraction"] = draw(st.floats(0.0, 1.0))
        # Batching applies only to plain-scheme video.
        cfg = replace(cfg, workload=replace(cfg.workload, kind=WorkloadKind.VIDEO,
                                            scheme=Scheme.BASELINE))
    shape = draw(st.sampled_from(["video", "psr", "trace"]))
    if shape == "psr":
        cfg = replace(cfg, workload=replace(cfg.workload, scheme=Scheme.BASELINE,
                                            psr_alternate_windows=True))
    elif shape == "trace":
        cfg = replace(cfg, workload=replace(cfg.workload, kind=WorkloadKind.SINGLE_PLANE,
                                            video_fps=cfg.display.refresh_hz))
        run = {"dirty_trace": draw(st.lists(
            st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=6))}
    n_windows = None if shape == "trace" else draw(st.none() | st.integers(1, 6))
    return cfg, n_windows, run, draw(st.sampled_from(["default", "latency-demo"]))


@given(_oracle_runs())
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_folded_state_time_and_energy_equal_a_walk_over_the_periods(case):
    cfg, n_windows, run, calibration = case
    cal = load_calibration(calibration)
    shape = {"fbc_ratio": 1.0, "batch_every": 1,
             "cached_traffic_fraction": CACHED_TRAFFIC_FRACTION, "dirty_trace": None, **run}
    try:
        check_run_shape(cfg, n_windows, **shape)
    except ValueError as exc:  # a batch that does not fit: both sides refuse it
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            oracle_simulate(cfg, n_windows, **run)
        return
    oracle = oracle_simulate(cfg, n_windows, **run)
    times = _ref_state_time_s(oracle)
    assert oracle.residency() == {s: t / oracle.total_s for s, t in times.items()}
    assert oracle.energy_uj(cfg, cal) == _ref_energy_uj(oracle, cfg, cal)

    periods = oracle.periods
    assert [p.window for p in periods] == sorted(p.window for p in periods)
    for w in range(oracle.n_windows):
        mine = [p for p in periods if p.window == w]
        assert mine[0].start_s == w * oracle.window_s
        assert mine[-1].end_s == (w + 1) * oracle.window_s
        assert all(p.end_s > p.start_s for p in mine)
        assert all(a.end_s == b.start_s for a, b in zip(mine, mine[1:]))


# -- the one merge loop against emit-per-span ---------------------------------------
#
# _RefWindowSim and _ref_run_phase are the window stepper and _run_phase as
# they were before a phase's events were worked out first and stepped through
# in one merge loop, and before spans were packed into columns: a run-long list
# of [key, start, end] spans, each event emitted on its own, and each window's
# spans folded into state time as it closes.  They are kept, standing alone, as
# the reference the oracle must reproduce float for float.


class _RefWindowSim:
    def __init__(self):
        self.spans = []
        self.window_bounds = [0]
        self.state_s = [0.0] * len(STATES_BY_DEPTH)  # in depth order, as the oracle reads it

    def open(self, start_s, end_s):
        self.end = end_s
        self.t = start_s
        self.last = [None, 0.0, 0.0]  # matches no key: no span merges across windows

    def emit(self, key, until):
        if until > self.end:
            until = self.end
        if until <= self.t:
            return
        if self.last[0] == key:
            self.last[2] = until
        else:
            self.last = [key, self.t, until]
            self.spans.append(self.last)
        self.t = until

    def finish(self, tail):
        if self.t < self.end:
            self.emit(tail, self.end)
        for key, start_s, end_s in self.spans[self.window_bounds[-1]:]:
            self.state_s[STATES_BY_DEPTH.index(omod._KEYS[key][0])] += end_s - start_s
        self.window_bounds.append(len(self.spans))

    # The columns oracle_simulate reads off its stepper.
    keys = property(lambda self: array("B", [key for key, _, _ in self.spans]))
    start_s = property(lambda self: array("d", [start_s for _, start_s, _ in self.spans]))
    end_s = property(lambda self: array("d", [end_s for _, _, end_s in self.spans]))


def _ref_run_phase(sim, payload, chunk, fill_rate, drain_rate, fill_state, drain_state, *,
                   gpu_fill=False):
    if payload <= 0 or sim.t >= sim.end:
        return
    fill, drain = omod._key(fill_state, gpu=gpu_fill), omod._key(drain_state)
    emit = sim.emit
    start = sim.t
    span_mode = drain_rate is None
    d = payload / (sim.end - start) if span_mode else float(drain_rate)
    sizes = omod._chunks(payload, chunk)

    if fill_rate <= d:
        for c in sizes:
            emit(fill, sim.t + c / fill_rate)
        if span_mode:
            emit(drain, sim.end)
        return

    first_fill_end = start + sizes[0] / fill_rate
    drain_done = [first_fill_end + drained_after / d for drained_after in accumulate(sizes)]

    fill_end_prev = start
    for i, c in enumerate(sizes):
        if i == 0:
            fill_start = start
        elif i == 1:
            fill_start = fill_end_prev
        else:
            fill_start = max(fill_end_prev, drain_done[i - 2])
        if fill_start > sim.t:
            emit(drain, fill_start)
        fill_end_prev = fill_start + c / fill_rate
        emit(fill, fill_end_prev)
        if sim.t >= sim.end:
            return
    emit(drain, drain_done[-1])


_rates = st.floats(1e5, 1e11) | st.sampled_from([1e9 / 3, 5.2e9, 2.0e10])
_states = st.sampled_from([PackageCState.C0, PackageCState.C2, PackageCState.C7,
                           PackageCState.C7P, PackageCState.C8, PackageCState.C9])


@st.composite
def _phases(draw):
    """Windows of one run, each a wake-up and one phase: span- or rate-paced,
    lockstep or consumer-bound, often clipped at the window end."""
    window_s = draw(st.sampled_from([1 / 30, 1 / 60, 1 / 144]) | st.floats(1e-5, 0.05))
    windows = []
    for _ in range(draw(st.integers(1, 3))):
        chunk = draw(st.sampled_from([65536, 524288]) | st.integers(1, 2**20))
        payload = draw(st.integers(0, 40)) * chunk + draw(st.integers(0, chunk - 1))
        fill_rate = draw(_rates)
        drain_rate = draw(st.none() | _rates | st.builds(lambda x: fill_rate * x,
                                                         st.sampled_from([0.5, 1.0, 2.0])))
        windows.append((draw(st.floats(0.0, 1.2)) * window_s, payload, chunk, fill_rate,
                        drain_rate, draw(_states), draw(_states), draw(st.booleans()),
                        draw(_states)))
    return window_s, windows


def _step(sim, run_phase, window_s, windows):
    for w, (wake_s, payload, chunk, fill, drain, fill_state, drain_state, gpu, tail) in (
            enumerate(windows)):
        sim.open(w * window_s, (w + 1) * window_s)
        sim.emit(omod._C0, sim.t + wake_s)
        run_phase(sim, payload, chunk, fill, drain, fill_state, drain_state, gpu_fill=gpu)
        sim.finish(omod._key(tail))
    return _spans(sim), sim.window_bounds, sim.state_s


@given(_phases())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_merge_loop_phases_equal_emitting_each_span(case):
    window_s, windows = case
    got = _step(omod._WindowSim(), omod._run_phase, window_s, windows)
    assert got == _step(_RefWindowSim(), _ref_run_phase, window_s, windows)


@given(_oracle_runs())
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_oracle_runs_equal_emitting_each_span(case):
    cfg, n_windows, run, _ = case
    try:
        got = oracle_simulate(cfg, n_windows, **run)
    except ValueError:
        return  # a batch that does not fit; the rejection tests cover it
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(omod, "_WindowSim", _RefWindowSim)
        mp.setattr(omod, "_run_phase", _ref_run_phase)
        ref = oracle_simulate(cfg, n_windows, **run)
    assert got == ref


#: What the oracle takes from the builder's and the pricer's modules.  Each is
#: a definition, not a construction; the oracle docstring says why each is
#: shared.  A new name here is new sharing between the two sides.
_ORACLE_SHARES = {
    "core": {"BURST_WAKE_SHARE", "CACHED_TRAFFIC_FRACTION", "Scheme", "SimConfig",
             "WorkloadKind", "check_run_shape", "encoded_frame_bytes", "frame_bytes",
             "selective_update_bytes", "windows_per_frame"},
    "cstates": {"STATES_BY_DEPTH", "CalibrationSet", "PackageCState"},
    "timeline": set(),
    "power": set(),
}


def test_oracle_imports_from_the_builder_side_only_the_shared_names():
    tree = ast.parse(Path(omod.__file__).read_text(encoding="utf-8"))
    imported = {module: set() for module in _ORACLE_SHARES}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "framewatt"
                                                 or node.module.startswith("framewatt.")):
            module = node.module.rpartition(".")[2]
            imported.setdefault(module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "framewatt" for a in node.names)
    assert imported == _ORACLE_SHARES
