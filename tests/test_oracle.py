"""Event-driven reference executor vs the analytic timeline builders.

The two implementations share no interval-construction code; agreement on
energy, residency, and traffic is the core cross-validation of the package.
The full 50-point grid runs in the acceptance gate; these tests probe the
corners (overlays, traces, default run length) the grid does not cover.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from framewatt.core import Scheme, WorkloadKind
from framewatt.cstates import PackageCState, load_calibration, transition_cost
from framewatt.oracle import oracle_simulate
from framewatt.power import report_from_timeline
from framewatt.timeline import build_timeline
from conftest import make_config
from test_acceptance import _valid_configs


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


def tick_quadrature_uj(oracle, cfg, cal, tick_s=1e-6):
    """Reference energy: step through every period in ticks of ``tick_s``."""
    profile = cal.profile_for(cfg.workload.scheme)
    total_uj = 0.0
    prev_state = None
    for p in oracle.periods:
        power_mw = profile.state_power_mw[p.state]
        if p.drfb:
            power_mw += cal.drfb_power_mw
        if p.gpu:
            power_mw += cfg.system.gpu_active_mw
        if p.fbc:
            power_mw += cfg.system.fbc_compute_mw
        remaining = p.span_s
        while remaining > 0:
            dt = tick_s if remaining > tick_s else remaining
            total_uj += power_mw * dt * 1e3
            remaining -= dt
        if prev_state is not None and prev_state is not p.state:
            total_uj += transition_cost(profile, prev_state, p.state).energy_uj
        prev_state = p.state
    total_uj += oracle.dram_read_bytes * cfg.system.dram_coeff_read * 1e6
    total_uj += oracle.dram_write_bytes * cfg.system.dram_coeff_write * 1e6
    return total_uj


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


def _ref_state_time_s(oracle):
    """Reference: each state's time, summed over the periods in order."""
    out = {s: 0.0 for s in PackageCState}
    for p in oracle.periods:
        out[p.state] += p.span_s
    return out


def _ref_energy_uj(oracle, cfg, calibration):
    """Reference: the energy bill priced period by period."""
    profile = calibration.profile_for(cfg.workload.scheme)
    total_uj = 0.0
    prev_state = None
    for _, state, start_s, end_s, drfb, gpu, fbc in oracle.periods:
        power_mw = profile.state_power_mw[state]
        if drfb:
            power_mw += calibration.drfb_power_mw
        if gpu:
            power_mw += cfg.system.gpu_active_mw
        if fbc:
            power_mw += cfg.system.fbc_compute_mw
        total_uj += power_mw * (end_s - start_s) * 1e3
        if prev_state is not None and prev_state is not state:
            total_uj += transition_cost(profile, prev_state, state).energy_uj
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
