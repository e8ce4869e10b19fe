"""Event-driven reference executor vs the analytic timeline builders.

The two implementations share no interval-construction code; agreement on
energy, residency, and traffic is the core cross-validation of the package.
The full 50-point grid runs in the acceptance gate; these tests probe the
corners (overlays, traces, default run length) the grid does not cover.
"""

from __future__ import annotations

import pytest

from framewatt.core import Scheme, WorkloadKind
from framewatt.cstates import PackageCState, load_calibration, transition_cost
from framewatt.oracle import oracle_simulate
from framewatt.power import report_from_timeline
from framewatt.timeline import build_timeline
from conftest import make_config


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
