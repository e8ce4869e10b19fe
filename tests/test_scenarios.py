"""Energy-saving studies: compression, batching, scheme comparison, dirty traces."""

from __future__ import annotations

import statistics
from importlib import resources

import pytest

from framewatt.core import Scheme, WorkloadKind
from framewatt.cstates import PackageCState, load_calibration
from framewatt.power import streaming_report
from framewatt.scenarios import energy_reduction, read_dirty_trace, single_plane_burst
from conftest import load_tool, make_config

DEFAULT = load_calibration()


def bundled_trace(name: str):
    ref = resources.files("framewatt").joinpath("data", "traces", f"{name}.csv")
    with resources.as_file(ref) as path:
        return read_dirty_trace(path)


# -- reduction arithmetic ------------------------------------------------------


def test_energy_reduction_compares_per_unit_time_rates():
    base = streaming_report(make_config("4k", 60, Scheme.BASELINE), DEFAULT)
    better = streaming_report(make_config("4k", 60, Scheme.BURSTLINK), DEFAULT)
    red = energy_reduction(base, better)
    assert red == pytest.approx(
        100.0 * (1 - better.average_power_mw / base.average_power_mw)
    )
    assert red == pytest.approx(43.4739, abs=5e-4)


def test_energy_reduction_is_zero_against_itself():
    report = streaming_report(make_config("fhd", 30, Scheme.BASELINE), DEFAULT)
    assert energy_reduction(report, report) == 0.0


# -- frame-buffer compression ----------------------------------------------------


def fbc_pair(cfg, ratio):
    """The plain run and the run with the frame buffer compressed to ``ratio``."""
    return streaming_report(cfg, DEFAULT), streaming_report(cfg, DEFAULT, fbc_ratio=ratio)


def test_half_rate_compression_saves_mid_single_digits_at_uhd():
    base, modified = fbc_pair(make_config("4k", 60, Scheme.BASELINE), 0.5)
    assert energy_reduction(base, modified) == pytest.approx(6.3172, abs=5e-4)
    assert base.average_power_mw > modified.average_power_mw


def test_stronger_compression_saves_more():
    cfg = make_config("4k", 60, Scheme.BASELINE)
    mild = energy_reduction(*fbc_pair(cfg, 0.8))
    strong = energy_reduction(*fbc_pair(cfg, 0.4))
    assert strong > mild > 0.0


def test_unit_ratio_compression_is_a_no_op():
    base, modified = fbc_pair(make_config("4k", 60, Scheme.BASELINE), 1.0)
    assert energy_reduction(base, modified) == 0.0
    assert base.total_energy_uj == modified.total_energy_uj


def test_compression_is_ignored_for_direct_feed_schemes():
    base, modified = fbc_pair(make_config("4k", 60, Scheme.BURSTLINK), 0.5)
    assert energy_reduction(base, modified) == 0.0
    assert base.total_energy_uj == modified.total_energy_uj


def test_compression_ratio_bounds_are_enforced():
    with pytest.raises(ValueError):
        streaming_report(make_config(), DEFAULT, fbc_ratio=0.0)


# -- decode batching ---------------------------------------------------------------


def batching_reduction(cfg, batch_every):
    """Saving of one batch cycle over the plain run of the same windows."""
    batched = streaming_report(cfg, DEFAULT, batch_every=batch_every)
    return energy_reduction(streaming_report(cfg, DEFAULT, batched.n_windows), batched)


def test_batching_four_frames_saves_low_single_digits_at_uhd():
    assert batching_reduction(make_config("4k", 60, Scheme.BASELINE), 4) == pytest.approx(
        4.5455, abs=5e-4)


def test_batch_savings_come_from_the_cached_layout_not_the_depth():
    # The cache-friendly layout cuts the same per-frame traffic whatever the
    # batch depth, so any depth >= 2 lands on (almost) the same reduction.
    cfg = make_config("4k", 60, Scheme.BASELINE)
    shallow = batching_reduction(cfg, 2)
    deep = batching_reduction(cfg, 8)
    assert shallow > 0.0
    assert deep == pytest.approx(shallow, abs=1e-3)


def test_batching_rejects_non_video_workloads():
    with pytest.raises(ValueError, match="batching applies only to video playback"):
        streaming_report(make_config(kind=WorkloadKind.VR360, scheme=Scheme.BASELINE),
                         DEFAULT, batch_every=4)


def test_batching_rejects_non_plain_schemes():
    with pytest.raises(ValueError, match="under the plain scheme"):
        streaming_report(make_config(scheme=Scheme.BURSTLINK), DEFAULT, batch_every=4)


def test_batching_respects_memory_capacity():
    # a 4 GiB working set fits at most ~172 decoded UHD frames
    with pytest.raises(ValueError, match="BATCH_EXCEEDS_DRAM"):
        streaming_report(make_config("4k", 60, Scheme.BASELINE), DEFAULT, batch_every=200)


def test_batching_respects_the_decode_window():
    # wake-up plus 14 frame decodes cannot fit one 60 Hz window
    with pytest.raises(ValueError, match="BATCH_WINDOW_OVERRUN"):
        streaming_report(make_config("4k", 60, Scheme.BASELINE), DEFAULT, batch_every=14)


# -- dirty-rect traces ----------------------------------------------------------------


def test_static_screens_idle_almost_the_entire_window():
    cfg = make_config("4k", 60, Scheme.BURSTING_ONLY,
                      kind=WorkloadKind.SINGLE_PLANE)
    comp = single_plane_burst(cfg, [0.0] * 600, calibration=DEFAULT)
    assert comp.burst.residency[PackageCState.C9] == pytest.approx(0.98, abs=5e-3)
    assert energy_reduction(comp.stream, comp.burst) == pytest.approx(40.1869, abs=5e-4)


def test_static_screen_saving_stays_under_the_idle_power_ratio_bound():
    # the burst side can at best swap streaming idle for deep idle, so the
    # saving cannot exceed the gap between those two state powers
    cfg = make_config("4k", 60, Scheme.BURSTING_ONLY,
                      kind=WorkloadKind.SINGLE_PLANE)
    comp = single_plane_burst(cfg, [0.0] * 600, calibration=DEFAULT)
    bound = 100.0 * (1090.0 / 1285.0)
    assert energy_reduction(comp.stream, comp.burst) <= bound


def test_busier_screens_save_less():
    cfg = make_config("4k", 60, Scheme.BURSTING_ONLY,
                      kind=WorkloadKind.SINGLE_PLANE)
    reductions = [
        energy_reduction(comp.stream, comp.burst)
        for comp in (single_plane_burst(cfg, [d] * 120, calibration=DEFAULT)
                     for d in (0.0, 0.5, 1.0))
    ]
    assert reductions == sorted(reductions, reverse=True)
    assert reductions[-1] == pytest.approx(24.4554, abs=5e-4)


def test_single_plane_requires_a_usable_trace():
    cfg = make_config("4k", 60, Scheme.BURSTING_ONLY,
                      kind=WorkloadKind.SINGLE_PLANE)
    with pytest.raises(ValueError):
        single_plane_burst(cfg, [], calibration=DEFAULT)
    with pytest.raises(ValueError):
        single_plane_burst(cfg, [0.5, 1.2], calibration=DEFAULT)


def test_trace_round_trip(tmp_path):
    path = tmp_path / "trace.csv"
    trace = [0.0, 0.123456, 1.0]
    load_tool("make_traces").write_dirty_trace(path, trace)
    assert read_dirty_trace(path) == trace


def test_trace_reader_rejects_malformed_headers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("frame,dirty\n0,0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.csv:1\.frame\]: unknown key 'frame'"):
        read_dirty_trace(path)


def test_trace_reader_pins_errors_to_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("window,dirty_fraction\n0,0.5\n2,0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.csv:3"):
        read_dirty_trace(path)


@pytest.mark.parametrize("text, message", [
    ("", "MISSING_KEY [PATH:1.window]: missing required key 'window'"),
    ("window,dirty_fraction\n", "EMPTY [PATH:2]: expected a row under the header"),
    ("window,dirty_fraction\n0\n",
     "MISSING_KEY [PATH:2.dirty_fraction]: missing required key 'dirty_fraction'"),
], ids=["empty", "header-only", "short-row"])
def test_trace_reader_rejects_traces_without_usable_rows(text, message, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_dirty_trace(path)
    assert str(err.value) == message.replace("PATH", str(path))


def test_trace_reader_skips_blank_lines(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("window,dirty_fraction\n0,0.5\n\n1,0.25\n", encoding="utf-8")
    assert read_dirty_trace(path) == [0.5, 0.25]


def test_trace_reader_rejects_out_of_range_fractions(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("window,dirty_fraction\n0,1.5\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_dirty_trace(path)


def test_trace_reader_takes_empty_cells_past_the_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("window,dirty_fraction\n0,0.5,\n1,0.25,,\n", encoding="utf-8")
    assert read_dirty_trace(path) == [0.5, 0.25]


@pytest.mark.parametrize("text, message", [
    ("window,dirty_fraction\n0,0.5\n1,0.5,0.9\n",
     "EXTRA_CELLS [PATH:3]: 3 cells where the header names 2 columns"),
    ("window,dirty_fraction,window\n0,0.5,0\n",
     "DUPLICATE_KEY [PATH:1.window]: key 'window' named twice"),
    ("window,dirty_fraction\n0,0.5\n2,nan\n",
     "OUT_OF_RANGE [PATH:3.window]: expected window 1, got 2"),
    ("window,dirty_fraction\n0,0.5\n2,0.5\n2,0.5\n3,x\n",
     "OUT_OF_RANGE [PATH:3.window]: expected window 1, got 2"),
    ("window,dirty_fraction\n0,0.5\n1,1.5\n2,x\n",
     "OUT_OF_RANGE [PATH:3.dirty_fraction]: dirty_fraction must be in [0, 1], got 1.5"),
    ("dirty_fraction,window\n0.5,0\nnan,2\n",
     "NON_FINITE [PATH:3.dirty_fraction]: nan is not a finite number"),
], ids=["cell-past-the-header", "column-named-twice", "skip-before-nan",
        "skip-before-a-later-bad-cell", "range-before-a-later-bad-cell", "cells-in-column-order"])
def test_trace_reader_names_the_first_offence_in_file_order(text, message, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_dirty_trace(path)
    assert str(err.value) == message.replace("PATH", str(path))


# -- bundled interaction traces ---------------------------------------------------


def test_bundled_traces_cover_the_activity_spectrum():
    gaming = bundled_trace("gaming")
    conferencing = bundled_trace("conferencing")
    productivity = bundled_trace("productivity")
    for trace in (gaming, conferencing, productivity):
        assert len(trace) == 600
        assert all(0.0 <= v <= 1.0 for v in trace)
    assert statistics.mean(gaming) == pytest.approx(0.8381, abs=5e-4)
    assert statistics.mean(conferencing) == pytest.approx(0.4730, abs=5e-4)
    assert statistics.mean(productivity) == pytest.approx(0.0925, abs=5e-4)
    assert (
        statistics.mean(productivity)
        < statistics.mean(conferencing)
        < statistics.mean(gaming)
    )


def test_casual_gaming_trace_saves_a_quarter_to_a_third_at_uhd():
    cfg = make_config("4k", 60, Scheme.BURSTING_ONLY,
                      kind=WorkloadKind.SINGLE_PLANE)
    comp = single_plane_burst(cfg, bundled_trace("gaming"), calibration=DEFAULT)
    reduction = energy_reduction(comp.stream, comp.burst)
    assert 25.0 <= reduction <= 30.0
    assert reduction == pytest.approx(27.0015, abs=5e-4)


def test_mostly_static_traces_save_more_than_busy_ones():
    cfg = make_config("4k", 60, Scheme.BURSTING_ONLY,
                      kind=WorkloadKind.SINGLE_PLANE)
    comps = {name: single_plane_burst(cfg, bundled_trace(name), calibration=DEFAULT)
             for name in ("gaming", "conferencing", "productivity")}
    by_trace = {name: energy_reduction(comp.stream, comp.burst)
                for name, comp in comps.items()}
    assert by_trace["gaming"] < by_trace["conferencing"] < by_trace["productivity"]
