"""Energy pricing: average power, DRAM attribution, and full reports."""

from __future__ import annotations

import json
from importlib import resources

import pytest

from framewatt import power
from framewatt.core import RESOLUTIONS, ConfigurationError, Scheme, WorkloadKind, frame_bytes
from framewatt.cstates import (
    STATE_DRAM_MODE,
    PackageCState,
    load_calibration,
    transition_cost,
)
from framewatt.power import (
    average_power,
    report_from_timeline,
    streaming_report,
    window_energy_breakdown,
)
from framewatt.scenarios import read_dirty_trace
from framewatt.timeline import build_timeline, timeline_totals
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
    spans = timeline_totals(tl).state_spans_ns
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
    counts = timeline_totals(tl).transitions
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
    assert list(timeline_totals(tl).transitions.items()) == list(expected.items())


@pytest.mark.parametrize("scheme", list(Scheme))
def test_window_breakdown_charges_every_boundary_transition(scheme, latency_cal):
    cfg = make_config("fhd", 30, scheme)
    tl = build_timeline(cfg, 6)
    report = report_from_timeline(tl, cfg, latency_cal)
    bills, window_bill = window_energy_breakdown(tl, cfg, latency_cal)
    rows = [bills[b] for b in window_bill]
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
    bills, window_bill = window_energy_breakdown(tl, cfg, default_cal)
    rows = [bills[b] for b in window_bill]
    assert len(rows) == 4
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
    bills, window_bill = window_energy_breakdown(tl, cfg, latency_cal)
    rows = [bills[b] for b in window_bill]
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


# -- one tally, one price ---------------------------------------------------------


def _window_bill(ivs, prev_state, profile, system, drfb_power_mw):
    """Reference bill of one window, pricing every interval on its own in
    floats; the breakdown prices the window's integer tally instead."""
    state_uj: dict = {}
    trans_uj = dram_op_uj = dram_bg_uj = display_uj = adders_uj = 0.0
    for iv in ivs:
        ms = iv.span_ns * 1e-6
        state_uj[iv.state] = (
            state_uj.get(iv.state, 0.0) + profile.state_power_mw[iv.state] * ms
        )
        if prev_state is not None and prev_state is not iv.state:
            trans_uj += transition_cost(profile, prev_state, iv.state).energy_uj
        prev_state = iv.state
        dram_op_uj += (
            iv.dram_read_bytes * system.dram_coeff_read
            + iv.dram_write_bytes * system.dram_coeff_write
        ) * 1e6
        dram_bg_uj += system.dram_background_mw[STATE_DRAM_MODE[iv.state]] * ms
        display_uj += profile.display_power_mw.get(iv.state, 0.0) * ms
        if iv.drfb_active:
            drfb = drfb_power_mw * ms
            adders_uj += drfb
            display_uj += drfb
        if iv.gpu_active:
            adders_uj += system.gpu_active_mw * ms
        if iv.fbc_active:
            adders_uj += system.fbc_compute_mw * ms
    total = sum(state_uj.values()) + trans_uj + dram_op_uj + adders_uj
    dram_uj = dram_bg_uj + dram_op_uj
    return {
        "kind": ivs[0].kind,
        "transition_uj": trans_uj,
        "dram_operating_uj": dram_op_uj,
        "adders_uj": adders_uj,
        "dram_uj": dram_uj,
        "display_uj": display_uj,
        "others_uj": total - dram_uj - display_uj,
        "total_uj": total,
    }


def _gaming_slice(n):
    ref = resources.files("framewatt").joinpath("data", "traces", "gaming.csv")
    with resources.as_file(ref) as path:
        return read_dirty_trace(path)[:n]


# (config, build keywords): every scheme, repeat windows entered from C9
# (PSR alternation), a decode batch, GPU and compression adders, and a slice
# of a dirty trace.
_PRICED_RUNS = [
    *(pytest.param(make_config("fhd", 30, scheme), {"n_windows": 6}, id=scheme.value)
      for scheme in Scheme),
    pytest.param(make_config("fhd", 30, psr_alternate=True), {"n_windows": 6},
                 id="psr-alternate"),
    pytest.param(make_config("fhd", 30), {"n_windows": 9, "batch_every": 3}, id="batch-3"),
    *(pytest.param(make_config("4k", 60, scheme, kind=WorkloadKind.VR360),
                   {"n_windows": 3, "fbc_ratio": 0.5}, id=f"vr-{scheme.value}-fbc")
      for scheme in (Scheme.BASELINE, Scheme.BURSTLINK)),
    pytest.param(make_config("fhd", 60, Scheme.BURSTING_ONLY, kind=WorkloadKind.SINGLE_PLANE),
                 {"dirty_trace": _gaming_slice(40)}, id="gaming-trace-40"),
]


@pytest.mark.parametrize("calibration", ["default", "latency-demo"])
@pytest.mark.parametrize("cfg, kw", _PRICED_RUNS)
def test_breakdown_rows_match_a_per_interval_bill(cfg, kw, calibration):
    cal = load_calibration(calibration)
    tl = build_timeline(cfg, **kw)
    profile = cal.profile_for(tl.scheme)
    bills, window_bill = window_energy_breakdown(tl, cfg, cal)
    assert len(window_bill) == tl.n_windows
    prev = None
    for b, t in zip(window_bill, tl.window_template):
        ivs = tl.rows[t]
        expect = _window_bill(ivs, prev, profile, cfg.system, cal.drfb_power_mw)
        got = bills[b]._asdict()
        assert got.pop("kind") == expect.pop("kind")
        assert got == pytest.approx(expect, rel=1e-12)
        prev = ivs[-1].state


@pytest.mark.parametrize("cfg, kw", _PRICED_RUNS)
def test_breakdown_prices_each_distinct_window_pair_once(cfg, kw, monkeypatch):
    tl = build_timeline(cfg, **kw)
    priced = []
    real = power._price
    monkeypatch.setattr(power, "_price", lambda *a: priced.append(a) or real(*a))
    bills, window_bill = window_energy_breakdown(tl, cfg, load_calibration("latency-demo"))
    pairs = list(dict.fromkeys(tl.window_pairs))  # distinct, in order of first use
    assert len(priced) == len(bills) == len(pairs)
    assert window_bill == tuple(pairs.index(p) for p in tl.window_pairs)


@pytest.mark.parametrize("cfg, kw", _PRICED_RUNS)
def test_whole_run_tally_matches_a_tally_over_every_interval(cfg, kw):
    tl = build_timeline(cfg, **kw)
    spans = {s: 0 for s in PackageCState}
    sums = dict.fromkeys(("read", "write", "edp", "drfb", "gpu", "fbc"), 0)
    changes: dict = {}
    ivs = tl.intervals
    for i, iv in enumerate(ivs):
        spans[iv.state] += iv.span_ns
        sums["read"] += iv.dram_read_bytes
        sums["write"] += iv.dram_write_bytes
        sums["edp"] += iv.edp_bytes
        sums["drfb"] += iv.span_ns * iv.drfb_active
        sums["gpu"] += iv.span_ns * iv.gpu_active
        sums["fbc"] += iv.span_ns * iv.fbc_active
        if i and ivs[i - 1].state is not iv.state:
            key = (ivs[i - 1].state, iv.state)
            changes[key] = changes.get(key, 0) + 1
    totals = timeline_totals(tl)
    assert totals.state_spans_ns == spans
    assert (totals.dram_read_bytes, totals.dram_write_bytes, totals.edp_bytes,
            totals.drfb_ns, totals.gpu_ns, totals.fbc_ns) == tuple(sums.values())
    assert list(totals.transitions.items()) == list(changes.items())
