"""Energy pricing: average power, DRAM attribution, and full reports."""

from __future__ import annotations

import json

import pytest

from framewatt.core import RESOLUTIONS, Scheme, WorkloadKind, frame_bytes
from framewatt.cstates import PackageCState, load_calibration
from framewatt.power import (
    ConfigurationError,
    average_power,
    report_from_timeline,
    streaming_report,
    transition_counts,
    window_energy_breakdown,
)
from framewatt.timeline import build_timeline, state_spans_ns
from conftest import make_config

C = PackageCState


# -- average_power ------------------------------------------------------------


def test_average_power_is_residency_weighted(default_cal):
    prof = default_cal.conventional
    avg = average_power(prof, {C.C0: 0.5, C.C10: 0.5})
    assert avg == pytest.approx((5940.0 + 350.0) / 2)


def test_average_power_requires_residencies_summing_to_one(default_cal):
    with pytest.raises(ValueError, match="sum to 1"):
        average_power(default_cal.conventional, {C.C0: 0.4, C.C10: 0.4})


def test_average_power_amortizes_transition_energy(latency_cal):
    prof = latency_cal.conventional
    base = average_power(prof, {C.C8: 0.5, C.C9: 0.5})
    # one deep-sleep entry per second adds its energy as steady power:
    # 180 uJ over 1 s is 0.18 mW
    with_entry = average_power(
        prof, {C.C8: 0.5, C.C9: 0.5}, {(C.C8, C.C9): 1}, total_time_s=1.0
    )
    assert with_entry - base == pytest.approx(0.18)


def test_average_power_reproduces_the_measured_conventional_row(reference_cal):
    avg = average_power(
        reference_cal.conventional, {C.C0: 0.09, C.C2: 0.11, C.C8: 0.80}
    )
    assert avg == pytest.approx(2161.55, abs=0.01)
    assert abs(avg - 2162.0) <= 1.0


def test_average_power_reproduces_the_measured_burst_row(reference_cal):
    from framewatt.presets import get_preset

    preset = get_preset("fhd30-ref-burstlink")
    report = streaming_report(preset.config, preset.calibration)
    direct = average_power(reference_cal.burst, report.residency)
    assert direct == pytest.approx(report.average_power_mw)
    assert abs(direct - 1274.0) <= 1.0


# -- DRAM energy ----------------------------------------------------------------


def test_dram_operating_energy_charges_per_byte_coefficients(default_cal):
    cfg = make_config("4k", 60, Scheme.BASELINE)
    tl = build_timeline(cfg, None)
    de = report_from_timeline(tl, cfg, default_cal).dram
    reads = sum(iv.dram_read_bytes for iv in tl.intervals)
    writes = sum(iv.dram_write_bytes for iv in tl.intervals)
    # 43 pJ/B, expressed in uJ
    assert de.operating_read_uj == pytest.approx(reads * 43e-12 * 1e6)
    assert de.operating_write_uj == pytest.approx(writes * 43e-12 * 1e6)
    assert de.operating_uj == pytest.approx(
        de.operating_read_uj + de.operating_write_uj
    )


def test_dram_background_energy_follows_state_modes(default_cal):
    cfg = make_config("4k", 60, Scheme.BASELINE)
    tl = build_timeline(cfg, None)
    de = report_from_timeline(tl, cfg, default_cal).dram
    spans = state_spans_ns(tl)
    active_ns = spans.get(C.C0, 0) + spans.get(C.C2, 0)
    idle_ns = sum(
        ns for s, ns in spans.items() if s not in (C.C0, C.C2, C.C10)
    )
    expect = (450.0 * active_ns + 25.0 * idle_ns) * 1e-6  # mW * ns -> uJ
    assert de.background_uj == pytest.approx(expect, rel=1e-9)


def test_zero_coefficients_zero_the_operating_bill(default_cal):
    from framewatt.core import SystemConfig

    cfg = make_config(system=SystemConfig(dram_coeff_read=0.0, dram_coeff_write=0.0))
    tl = build_timeline(cfg, None)
    de = report_from_timeline(tl, cfg, default_cal).dram
    assert de.operating_uj == 0.0
    assert de.background_uj > 0.0


# -- full reports ------------------------------------------------------------------


def test_conventional_uhd_report_matches_frozen_figures(default_cal):
    cfg = make_config("4k", 60, Scheme.BASELINE)
    report = report_from_timeline(build_timeline(cfg, None), cfg, default_cal)
    assert report.average_power_mw == pytest.approx(2453.9682, abs=5e-4)
    assert report.total_energy_uj == pytest.approx(40899.47, abs=0.01)
    assert report.component_energy_uj["dram"] == pytest.approx(4196.43, abs=0.01)
    assert report.component_energy_uj["display"] == pytest.approx(16666.67, abs=0.01)
    assert report.component_energy_uj["others"] == pytest.approx(20036.38, abs=0.01)
    res_pct = {s: r * 100 for s, r in report.residency.items() if r > 0}
    assert res_pct[C.C0] == pytest.approx(18.0355, abs=5e-4)
    assert res_pct[C.C2] == pytest.approx(4.8, abs=5e-4)
    assert res_pct[C.C8] == pytest.approx(77.1645, abs=5e-4)
    assert report.dram_read_bytes == 25_401_600
    assert report.dram_write_bytes == 24_883_200
    assert report.edp_bytes == 24_883_200


def test_combined_uhd_report_matches_frozen_figures(default_cal):
    cfg = make_config("4k", 60, Scheme.BURSTLINK)
    report = report_from_timeline(build_timeline(cfg, None), cfg, default_cal)
    assert report.average_power_mw == pytest.approx(1387.1320, abs=5e-4)
    assert report.total_energy_uj == pytest.approx(23118.87, abs=0.01)
    assert report.component_energy_uj["dram"] == pytest.approx(580.62, abs=0.01)
    assert report.component_energy_uj["display"] == pytest.approx(16735.71, abs=0.01)
    assert report.component_energy_uj["others"] == pytest.approx(5802.54, abs=0.01)
    res_pct = {s: r * 100 for s, r in report.residency.items() if r > 0}
    assert res_pct[C.C0] == pytest.approx(2.0, abs=5e-4)
    assert res_pct[C.C7] == pytest.approx(6.6355, abs=5e-4)
    assert res_pct[C.C7P] == pytest.approx(39.5843, abs=5e-4)
    assert res_pct[C.C9] == pytest.approx(51.7802, abs=5e-4)
    assert report.dram_read_bytes == 518_400
    assert report.dram_write_bytes == 0


def test_component_energies_partition_the_total():
    for scheme in Scheme:
        report = streaming_report(make_config("qhd", 30, scheme), "default")
        comp = report.component_energy_uj
        assert comp["dram"] + comp["display"] + comp["others"] == pytest.approx(
            report.total_energy_uj, rel=1e-12
        )
        assert min(comp.values()) >= 0.0


def test_analytic_power_decomposes_the_priced_timeline():
    # The closed-form figure covers the state table and transitions; the
    # priced timeline adds per-byte DRAM energy and the three power adders.
    for scheme in Scheme:
        report = streaming_report(make_config("4k", 60, scheme), "default")
        total_ms = report.total_ns * 1e-6
        extras_mw = (
            report.dram.operating_read_uj
            + report.dram.operating_write_uj
            + report.drfb_energy_uj
            + report.gpu_energy_uj
            + report.fbc_energy_uj
        ) / total_ms
        assert report.analytic_average_power_mw + extras_mw == pytest.approx(
            report.average_power_mw, rel=1e-9
        )


def test_report_dict_is_json_serializable_and_stable():
    report = streaming_report(make_config("fhd", 60, Scheme.BURSTLINK), "default")
    doc = report.to_dict()
    a = json.dumps(doc, sort_keys=True)
    report2 = streaming_report(make_config("fhd", 60, Scheme.BURSTLINK), "default")
    b = json.dumps(report2.to_dict(), sort_keys=True)
    assert a == b
    parsed = json.loads(a)
    assert parsed["average_power_mw"] == pytest.approx(report.average_power_mw)


def test_streaming_report_validates_first():
    from framewatt.core import DisplayConfig

    cfg = make_config(
        scheme=Scheme.BURSTLINK,
        display=DisplayConfig(resolution=RESOLUTIONS["4k"], panel_has_drfb=False),
    )
    with pytest.raises(ConfigurationError) as err:
        streaming_report(cfg, "default")
    assert "BURST_NEEDS_DRFB" in str(err.value)


def test_transition_counts_track_adjacent_state_changes():
    tl = build_timeline(make_config("4k", 60, Scheme.BURSTLINK), None)
    counts = transition_counts(tl)
    changes = sum(
        1
        for prev, cur in zip(tl.intervals, tl.intervals[1:])
        if prev.state is not cur.state
    )
    assert sum(counts.values()) == changes
    assert all(frm is not to for frm, to in counts)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_transition_counts_keep_first_occurrence_order(scheme):
    # report.json lists the counts, and sums their energies, in this order
    tl = build_timeline(make_config("fhd", 30, scheme), 12)
    expected: dict = {}
    for prev, cur in zip(tl.intervals, tl.intervals[1:]):
        if prev.state is not cur.state:
            key = (prev.state, cur.state)
            expected[key] = expected.get(key, 0) + 1
    assert list(transition_counts(tl).items()) == list(expected.items())


@pytest.mark.parametrize("scheme", list(Scheme))
def test_window_breakdown_charges_every_boundary_transition(scheme, latency_cal):
    cfg = make_config("fhd", 30, scheme)
    tl = build_timeline(cfg, 6)
    report = report_from_timeline(tl, cfg, latency_cal)
    rows = window_energy_breakdown(tl, cfg, latency_cal)
    assert report.transition_energy_uj > 0
    assert sum(r.transition_uj for r in rows) == pytest.approx(report.transition_energy_uj)


def test_transition_energy_appears_only_with_latencied_calibrations():
    cfg = make_config("4k", 60, Scheme.BURSTLINK)
    plain = streaming_report(cfg, "default")
    assert plain.transition_energy_uj == 0.0
    priced = streaming_report(cfg, "latency-demo")
    assert priced.transition_energy_uj == pytest.approx(180.0)
    assert priced.average_power_mw > plain.average_power_mw


def test_window_breakdown_sums_to_the_report_totals(default_cal):
    cfg = make_config("fhd", 30, Scheme.BURSTLINK)
    tl = build_timeline(cfg, 4)
    report = report_from_timeline(tl, cfg, default_cal)
    rows = window_energy_breakdown(tl, cfg, default_cal)
    assert [r.window for r in rows] == [0, 1, 2, 3]
    assert sum(r.total_uj for r in rows) == pytest.approx(report.total_energy_uj)
    assert sum(r.dram_uj for r in rows) == pytest.approx(
        report.component_energy_uj["dram"]
    )
    assert sum(r.display_uj for r in rows) == pytest.approx(
        report.component_energy_uj["display"]
    )
    assert sum(r.others_uj for r in rows) == pytest.approx(
        report.component_energy_uj["others"]
    )


def test_per_window_transition_charges_survive_the_breakdown(latency_cal):
    cfg = make_config("fhd", 30, Scheme.BURSTLINK)
    tl = build_timeline(cfg, 4)
    report = report_from_timeline(tl, cfg, latency_cal)
    rows = window_energy_breakdown(tl, cfg, latency_cal)
    assert sum(r.transition_uj for r in rows) == pytest.approx(
        report.transition_energy_uj
    )
    assert sum(r.total_uj for r in rows) == pytest.approx(report.total_energy_uj)


def test_burst_scheme_report_tracks_panel_buffer_energy():
    report = streaming_report(make_config("4k", 60, Scheme.BURSTLINK), "default")
    assert report.drfb_energy_uj > 0.0
    plain = streaming_report(make_config("4k", 60, Scheme.BASELINE), "default")
    assert plain.drfb_energy_uj == 0.0


def test_vr_reports_include_gpu_projection_energy():
    report = streaming_report(
        make_config("4k", 60, Scheme.BURSTLINK, kind=WorkloadKind.VR360), "default"
    )
    assert report.gpu_energy_uj > 0.0
    flat = streaming_report(make_config("4k", 60, Scheme.BURSTLINK), "default")
    assert flat.gpu_energy_uj == 0.0


def test_compression_compute_energy_is_billed_when_compressing():
    cfg = make_config("4k", 60, Scheme.BASELINE)
    squeezed = streaming_report(cfg, "default", fbc_ratio=0.5)
    assert squeezed.fbc_energy_uj > 0.0
    plain = streaming_report(cfg, "default")
    assert plain.fbc_energy_uj == 0.0
