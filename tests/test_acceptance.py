"""Acceptance gate: one test per shipped guarantee, at the pinned tolerance.

Each test name carries its criterion number; the terminal summary section
prints one PASS/FAIL line per criterion (see conftest.py).
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from framewatt.calibrate import MeasuredRun, fit_state_powers, model_accuracy
from framewatt.cli import main
from framewatt.core import (
    RESOLUTIONS,
    DisplayConfig,
    Resolution,
    Scheme,
    SimConfig,
    SystemConfig,
    WorkloadKind,
    WorkloadSpec,
    burst_transfer_time,
    encoded_frame_bytes,
    frame_bytes,
    panel_stream_rate,
    validate_config,
)
from framewatt.cstates import PackageCState, load_calibration
from framewatt.oracle import oracle_simulate
from framewatt.power import average_power, report_from_timeline, streaming_report
from framewatt.presets import PRESETS, validation_grid
from framewatt.scenarios import apply_batching, apply_fbc, energy_reduction
from framewatt.timeline import build_timeline, timeline_to_csv, timeline_totals
from conftest import make_config

REPO_ROOT = Path(__file__).resolve().parents[1]


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_table_power_reproduction():
    """Measured-table rows reproduce to 2162 / 1274 mW within 1 mW."""
    cal = load_calibration("reference-fhd30")

    conventional = average_power(
        cal.conventional,
        {PackageCState.C0: 0.09, PackageCState.C2: 0.11, PackageCState.C8: 0.80},
    )
    assert abs(conventional - 2162.0) <= 1.0

    preset = PRESETS["fhd30-ref-burstlink"]
    report = streaming_report(preset.config, preset.calibration)
    combined = average_power(cal.burst, report.residency)
    assert abs(combined - 1274.0) <= 1.0
    assert report.average_power_mw == pytest.approx(combined, abs=0.5)

    baseline = PRESETS["fhd30-ref-baseline"]
    end_to_end = streaming_report(baseline.config, baseline.calibration)
    assert abs(end_to_end.average_power_mw - 2162.0) <= 1.0


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_2_payload_arithmetic():
    """Frame size, burst span, and stream rate land in their documented ranges."""
    four_k = RESOLUTIONS["4k"]
    payload = frame_bytes(four_k, 24)
    assert payload == 24_883_200

    span = burst_transfer_time(payload, 25.92e9)
    assert 7.2e-3 <= span <= 7.8e-3

    rate = panel_stream_rate(four_k, 60, 24)
    assert 11.3e9 <= rate <= 12.0e9


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3_executor_grid_agreement():
    """Analytic and event executors agree on all 50 grid points in <2 min."""
    started = time.perf_counter()
    calibrations = {}
    worst_energy = 0.0
    worst_residency = 0.0
    points = validation_grid()
    assert len(points) == 50
    for _, cfg, cal_name in points:
        cal = calibrations.setdefault(cal_name, load_calibration(cal_name))
        report = report_from_timeline(build_timeline(cfg), cfg, cal)
        oracle = oracle_simulate(cfg)
        energy_pct = (
            abs(oracle.energy_uj(cfg, cal) - report.total_energy_uj)
            / report.total_energy_uj
            * 100.0
        )
        residency = oracle.residency()
        residency_pp = max(
            abs(residency.get(s, 0.0) - report.residency.get(s, 0.0)) * 100.0
            for s in PackageCState
        )
        worst_energy = max(worst_energy, energy_pct)
        worst_residency = max(worst_residency, residency_pp)
    elapsed = time.perf_counter() - started
    assert worst_energy < 0.1
    assert worst_residency < 0.1
    assert elapsed < 120.0


# -- criterion 4 ---------------------------------------------------------------

_EXAMPLES_RUN = [0]

_KIND_SCHEMES = (
    (WorkloadKind.VIDEO, Scheme.BASELINE),
    (WorkloadKind.VIDEO, Scheme.BYPASS_ONLY),
    (WorkloadKind.VIDEO, Scheme.BURSTING_ONLY),
    (WorkloadKind.VIDEO, Scheme.BURSTLINK),
    (WorkloadKind.VR360, Scheme.BASELINE),
    (WorkloadKind.VR360, Scheme.BURSTLINK),
)

_DIVISORS = {30: (1, 2, 3, 5), 48: (1, 2, 3, 4), 60: (1, 2, 3, 4),
             90: (1, 2, 3), 120: (1, 2, 3, 4)}


@st.composite
def _valid_configs(draw) -> tuple[SimConfig, int]:
    kind, scheme = draw(st.sampled_from(_KIND_SCHEMES))
    refresh = draw(st.sampled_from(sorted(_DIVISORS)))
    divisor = draw(st.sampled_from(_DIVISORS[refresh]))
    fps = refresh // divisor

    if draw(st.booleans()):
        resolution = draw(st.sampled_from(sorted(RESOLUTIONS.values(),
                                                 key=lambda r: r.pixels)))
    else:
        resolution = Resolution(
            16 * draw(st.integers(20, 300)), 8 * draw(st.integers(20, 270))
        )
    bpp = draw(st.sampled_from((16, 24, 30, 32)))

    window_s = 1.0 / refresh
    payload = frame_bytes(resolution, bpp)
    if kind is WorkloadKind.VR360:
        decode_share = draw(st.floats(0.05, 0.25))
        gpu_share = draw(st.floats(0.03, 0.12))
        orch_share = draw(st.floats(0.0, 0.08))
        burst_share = draw(st.floats(0.02, 0.15))
    else:
        decode_share = draw(st.floats(0.05, 0.55))
        orch_share = draw(st.floats(0.0, 0.3))
        gpu_share = 0.1
        slack = 0.94 - decode_share - orch_share
        burst_share = 0.02 + draw(st.floats(0.0, 1.0, exclude_max=True)) * (
            slack - 0.02
        )

    native = panel_stream_rate(resolution, refresh, bpp)
    if scheme.uses_bursting:
        edp_max = payload * 8 / (burst_share * window_s)
    else:
        edp_max = native * draw(st.floats(1.02, 3.0))
    burst_bytes_per_s = edp_max / 8
    fetch_rate = max(native / 8, burst_bytes_per_s) * draw(st.floats(1.2, 3.5))

    cfg = SimConfig(
        display=DisplayConfig(
            resolution=resolution,
            refresh_hz=refresh,
            bits_per_pixel=bpp,
            edp_max_bits_per_s=edp_max,
        ),
        system=SystemConfig(
            decode_rate=payload / (decode_share * window_s),
            orchestration_time=orch_share * window_s,
            gpu_pt_rate=payload / (gpu_share * window_s),
            dram_fetch_rate=fetch_rate,
            dram_coeff_read=draw(st.floats(0.0, 200e-12)),
            dram_coeff_write=draw(st.floats(0.0, 200e-12)),
            encoded_bits_per_pixel=draw(st.floats(0.05, 2.0)),
        ),
        workload=WorkloadSpec(kind=kind, scheme=scheme, video_fps=fps),
    )
    return cfg, divisor


@given(_valid_configs())
@settings(
    max_examples=1050,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much,
                           HealthCheck.data_too_large],
)
def _structural_invariants(case: tuple[SimConfig, int]) -> None:
    cfg, windows_per_frame = case
    assert not validate_config(cfg)

    timeline = build_timeline(cfg)
    timeline.check_coverage()
    assert timeline.n_windows == windows_per_frame

    # exact interval coverage: sorted, abutting, spanning [0, n * window)
    intervals = timeline.intervals
    assert intervals[0].start_ns == 0
    assert intervals[-1].end_ns == timeline.total_ns
    for left, right in zip(intervals, intervals[1:]):
        assert left.end_ns == right.start_ns
        assert left.end_ns > left.start_ns

    from framewatt.timeline import residencies

    shares = residencies(timeline)
    assert abs(sum(shares.values()) - 1.0) <= 1e-9

    changes = sum(
        1
        for left, right in zip(intervals, intervals[1:])
        if left.state is not right.state
    )
    assert sum(timeline_totals(timeline).transitions.values()) == changes

    # link-byte conservation: one full frame on the transfer window; repeat
    # windows re-stream only under the plain scheme
    per_window = {}
    for iv in intervals:
        per_window[iv.window] = per_window.get(iv.window, 0) + iv.edp_bytes
    payload = frame_bytes(cfg.display.resolution, cfg.display.bits_per_pixel)
    repeat = payload if cfg.workload.scheme is Scheme.BASELINE else 0
    expected = {w: payload if w == 0 else repeat
                for w in range(timeline.n_windows)}
    assert per_window == expected

    # decoded frames never touch DRAM when the decoder feeds the panel
    if (cfg.workload.scheme.uses_bypass
            and cfg.workload.kind is WorkloadKind.VIDEO):
        encoded = encoded_frame_bytes(
            cfg.display.resolution, cfg.system.encoded_bits_per_pixel
        )
        assert sum(iv.dram_write_bytes for iv in intervals) == 0
        assert sum(iv.dram_read_bytes for iv in intervals) == encoded

    # no-op overlays must be bit-exact no-ops
    identity = build_timeline(
        cfg, fbc_ratio=1.0, batch_every=1, cached_traffic_fraction=0.9
    )
    assert identity == timeline

    _EXAMPLES_RUN[0] += 1


def test_criterion_4_random_config_invariants():
    """Structural invariants hold on 1,000+ randomly drawn valid configs."""
    _EXAMPLES_RUN[0] = 0
    _structural_invariants()
    assert _EXAMPLES_RUN[0] >= 1000


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_5_scheme_energy_orderings():
    """Scheme energies stay strictly ordered across the resolution grid."""
    reductions = {}
    for res in ("fhd", "qhd", "4k", "5k"):
        for fps in (30, 60):
            reports = {
                scheme: streaming_report(make_config(res, fps, scheme))
                for scheme in Scheme
            }
            energy = {s: r.total_energy_uj for s, r in reports.items()}
            assert energy[Scheme.BURSTLINK] < energy[Scheme.BYPASS_ONLY]
            assert energy[Scheme.BYPASS_ONLY] < energy[Scheme.BASELINE]
            assert energy[Scheme.BURSTING_ONLY] < energy[Scheme.BASELINE]
            reductions[(res, fps)] = energy_reduction(
                reports[Scheme.BASELINE], reports[Scheme.BURSTLINK]
            )

    for fps in (30, 60):
        ladder = [reductions[(res, fps)] for res in ("fhd", "qhd", "4k", "5k")]
        assert ladder == sorted(ladder)
    for res in ("fhd", "qhd", "4k", "5k"):
        assert reductions[(res, 60)] >= reductions[(res, 30)]


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_6_shipped_reduction_bands():
    """One shipped calibration hits all four documented reduction bands."""
    four_k = make_config("4k", 60)
    fhd = make_config("fhd", 30)

    burstlink_4k = energy_reduction(
        streaming_report(four_k),
        streaming_report(make_config("4k", 60, Scheme.BURSTLINK)),
    )
    assert abs(burstlink_4k - 41.0) <= 3.0

    burstlink_fhd = energy_reduction(
        streaming_report(fhd),
        streaming_report(make_config("fhd", 30, Scheme.BURSTLINK)),
    )
    assert abs(burstlink_fhd - 37.0) <= 3.0

    assert abs(apply_fbc(four_k, 0.5).reduction - 9.0) <= 3.0
    assert abs(apply_batching(four_k, 4).reduction - 6.0) <= 3.0

    assert (REPO_ROOT / "tools" / "fit_calibration.py").is_file()
    assert (REPO_ROOT / "docs" / "calibration_fit.md").is_file()


# -- criterion 7 ---------------------------------------------------------------


def _random_residency(rng: random.Random) -> dict[PackageCState, float]:
    weights = [rng.random() + 0.05 for _ in PackageCState]
    total = sum(weights)
    return {s: w / total for s, w in zip(PackageCState, weights)}


def test_criterion_7_fit_recovery_and_generalization():
    """State-power fits are exact noiseless and >=96% accurate at 2% noise."""
    table = load_calibration("default").conventional.state_power_mw

    rng = random.Random(2026)
    clean = []
    for i in range(20):
        residency = _random_residency(rng)
        power = sum(table[s] * r for s, r in residency.items())
        clean.append(MeasuredRun(residency, power, label=f"clean{i}"))
    fit = fit_state_powers(clean)
    assert fit.rank == len(PackageCState)
    for state in PackageCState:
        assert fit.state_power_mw[state] == pytest.approx(table[state], abs=1e-6)

    noisy = []
    for i in range(40):
        residency = _random_residency(rng)
        power = sum(table[s] * r for s, r in residency.items())
        power *= 1.0 + 0.02 * rng.gauss(0.0, 1.0)
        noisy.append(MeasuredRun(residency, power, label=f"noisy{i}"))
    trained = fit_state_powers(noisy[:30])
    held_out = model_accuracy(trained.state_power_mw, noisy[30:])
    assert held_out.accuracy_pct >= 96.0


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_8_byte_reproducible_reports(tmp_path, capsys):
    """Every preset yields byte-identical reports on repeated runs."""
    for name, preset in sorted(PRESETS.items()):
        docs = []
        csvs = []
        for _ in range(2):
            report = streaming_report(preset.config, preset.calibration)
            docs.append(json.dumps(report.to_dict(), sort_keys=True))
            csvs.append(timeline_to_csv(build_timeline(preset.config)))
        assert docs[0] == docs[1], name
        assert csvs[0] == csvs[1], name

    out = tmp_path / "run"
    filenames = ("report.json", "report.csv", "timeline.csv", "timeline.svg")
    assert main(["simulate", "--preset", "4k60-vr", "--out", str(out)]) == 0
    first = {name: (out / name).read_bytes() for name in filenames}
    assert main(["simulate", "--preset", "4k60-vr", "--out", str(out)]) == 0
    capsys.readouterr()
    for name in filenames:
        assert (out / name).read_bytes() == first[name], name
