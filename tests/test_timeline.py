"""Interval-timeline construction: coverage, traffic placement, and overlays."""

from __future__ import annotations

import csv
import dataclasses
import html
import io
import json
from fractions import Fraction
from importlib import resources
from itertools import accumulate
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from framewatt.core import (
    BURST_WAKE_SHARE,
    CACHED_TRAFFIC_FRACTION,
    NS_PER_S,
    RESOLUTIONS,
    ConfigurationError,
    Scheme,
    SystemConfig,
    WorkloadKind,
    dc_fetch_count,
    encoded_frame_bytes,
    frame_bytes,
    frame_window_ns,
    replace,
    selective_update_bytes,
)
from framewatt import timeline as tmod
from framewatt.cli import main
from framewatt.cstates import PackageCState, load_calibration
from framewatt.power import report_from_timeline, window_energy_breakdown
from framewatt.presets import PRESETS, get_preset
from framewatt.scenarios import read_dirty_trace, single_plane_burst
from framewatt.timeline import (
    CSV_HEADER,
    Interval,
    TimelineTotals,
    build_timeline,
    timeline_to_csv,
    timeline_to_svg,
    timeline_totals,
)
from conftest import export_text, make_config

F_4K = frame_bytes(RESOLUTIONS["4k"])
E_4K = encoded_frame_bytes(RESOLUTIONS["4k"], 0.5)
F_FHD = frame_bytes(RESOLUTIONS["fhd"])


def _as_intervals(rows, kind="update"):
    """Template rows, or rounded records, as window-0 :class:`Interval`s."""
    return tuple(Interval(0, kind, *row) for row in rows)


def _template_intervals(timeline):
    """Each template's rows as window-0 :class:`Interval`s of its kind."""
    return [_as_intervals(rows, tpl.kind) for tpl, rows in zip(timeline.templates, timeline.rows)]


def per_window(timeline, attr):
    out: dict[int, int] = {}
    for iv in timeline.intervals:
        out[iv.window] = out.get(iv.window, 0) + getattr(iv, attr)
    return out


# -- coverage ----------------------------------------------------------------


@pytest.mark.parametrize("scheme", list(Scheme))
def test_intervals_tile_every_window_exactly(scheme):
    tl = build_timeline(make_config("4k", 60, scheme), None)
    tl.check_coverage()
    assert tl.intervals[0].start_ns == 0
    assert tl.intervals[-1].end_ns == tl.n_windows * tl.window_ns
    for prev, cur in zip(tl.intervals, tl.intervals[1:]):
        assert prev.end_ns == cur.start_ns
    assert all(iv.end_ns > iv.start_ns for iv in tl.intervals)


def test_window_count_defaults_to_one_frame_group():
    assert build_timeline(make_config("4k", 60, Scheme.BASELINE), None).n_windows == 1
    assert build_timeline(make_config("fhd", 30, Scheme.BASELINE), None).n_windows == 2
    assert build_timeline(make_config("fhd", 20, Scheme.BASELINE), None).n_windows == 3


def test_batched_window_count_defaults_to_one_batch_cycle():
    assert build_timeline(make_config("fhd", 30, Scheme.BASELINE), None,
                          batch_every=3).n_windows == 6


def test_invalid_configurations_are_rejected_before_building():
    cfg = make_config("fhd", 45, Scheme.BASELINE)
    with pytest.raises(ConfigurationError, match="FPS_NOT_DIVISOR"):
        build_timeline(cfg, None)


def test_explicit_window_count_is_honored():
    tl = build_timeline(make_config("fhd", 30, Scheme.BURSTLINK), 6)
    assert tl.n_windows == 6
    assert tl.total_ns == 6 * frame_window_ns(60)


def test_residencies_sum_to_one():
    for scheme in Scheme:
        cfg = make_config("qhd", 30, scheme)
        report = report_from_timeline(build_timeline(cfg, None), cfg, load_calibration("default"))
        assert sum(report.residency.values()) == pytest.approx(1.0, abs=1e-12)


def test_state_spans_add_up_to_the_run_length():
    tl = build_timeline(make_config("5k", 60, Scheme.BURSTING_ONLY), 3)
    assert sum(timeline_totals(tl).state_spans_ns.values()) == tl.total_ns


# -- distinct-window templates ------------------------------------------------


def _rebuild(cfg, n, batch_every=1, dirty_trace=None):
    """Reference timeline: run every window's recipe on its own and shift it."""
    wl, scheme = cfg.workload, cfg.workload.scheme
    k = tmod._knobs(cfg, 1.0, 1.0 - 0.34 if batch_every > 1 else 1.0)
    W_ns = frame_window_ns(cfg.display.refresh_hz)
    vr = wl.kind is WorkloadKind.VR360
    out = []
    for w in range(n):
        decodes = 0
        if dirty_trace is not None:
            update = selective_update_bytes(k.F, dirty_trace[w])
            if scheme is Scheme.BASELINE:
                kind, link = "update", k.F
            else:
                kind, link = ("update" if update > 0 else "idle"), update
        else:
            transfer = w % k.group == 0
            kind = "transfer" if transfer else "repeat"
            link = k.F if transfer else 0
            if scheme is Scheme.BASELINE:
                batched = transfer and (w // k.group) % batch_every == 0
                decodes = batch_every if batched else 0
                link = 0 if not transfer and wl.psr_alternate_windows else k.F
        recs = tmod._records(*tmod._recipe(k, scheme, kind, decodes, link, vr,
                                           wl.psr_alternate_windows))
        base = w * W_ns
        out.extend(
            iv._replace(window=w, start_ns=base + iv.start_ns,
                        end_ns=base + iv.end_ns)
            for iv in _as_intervals(tmod._round_records(recs, W_ns, link), kind)
        )
    return tuple(out)


@pytest.mark.parametrize("batch_every", [1, 2, 3, 4, 5])
def test_batched_windows_expand_to_a_window_by_window_rebuild(batch_every):
    cfg = make_config("fhd", 30, Scheme.BASELINE)
    n = 4 * batch_every + 3
    tl = build_timeline(cfg, n, batch_every=batch_every)
    assert tl.intervals == _rebuild(cfg, n, batch_every)
    # Window 0 enters from no state, so its recipe gets a second template.
    assert len(tl.templates) == (3 if batch_every == 1 else 4)


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("kind", [WorkloadKind.VIDEO, WorkloadKind.VR360])
def test_scheme_windows_expand_to_a_window_by_window_rebuild(scheme, kind):
    cfg = make_config("4k", 20, scheme, kind=kind)
    if kind is WorkloadKind.VR360 and scheme in (Scheme.BYPASS_ONLY,
                                                 Scheme.BURSTING_ONLY):
        with pytest.raises(ConfigurationError, match="VR_SCHEME_UNSUPPORTED"):
            build_timeline(cfg, 7)
        return
    assert build_timeline(cfg, 7).intervals == _rebuild(cfg, 7)


def test_self_refresh_windows_expand_to_a_window_by_window_rebuild():
    cfg = make_config("fhd", 30, psr_alternate=True)
    assert build_timeline(cfg, 5).intervals == _rebuild(cfg, 5)


@pytest.mark.parametrize("scheme", [Scheme.BASELINE, Scheme.BURSTING_ONLY])
def test_trace_windows_expand_to_a_window_by_window_rebuild(scheme):
    ref = resources.files("framewatt").joinpath("data", "traces", "productivity.csv")
    with resources.as_file(ref) as path:
        trace = read_dirty_trace(path)[:120]
    cfg = make_config("fhd", 60, scheme, kind=WorkloadKind.SINGLE_PLANE)
    tl = build_timeline(cfg, None, dirty_trace=trace)
    assert tl.intervals == _rebuild(cfg, len(trace), dirty_trace=trace)
    assert len(tl.templates) < tl.n_windows


def _replace_template(tl, t, **fields):
    templates = list(tl.templates)
    templates[t] = templates[t]._replace(**fields)
    return replace(tl, templates=tuple(templates))


def test_timeline_check_rejects_traffic_on_a_silent_state():
    tl = build_timeline(make_config("fhd", 30, Scheme.BURSTLINK), None)
    burst = next(t for t, tpl in enumerate(tl.templates) if tpl.phase and tpl.phase.n)
    phase = tl.templates[burst].phase._replace(drain_state=PackageCState.C9)
    broken = _replace_template(tl, burst, phase=phase)
    with pytest.raises(ValueError, match="link bytes on C9"):
        broken.check_coverage()


def test_timeline_check_rejects_a_coverage_gap():
    tl = build_timeline(make_config("fhd", 30, Scheme.BASELINE), None)
    wake = tl.templates[0].wake
    state, start, end, *rest = wake[0]
    broken = _replace_template(tl, 0, wake=((state, start, end - 1, *rest),) + wake[1:])
    with pytest.raises(ValueError, match="window 0: coverage gap"):
        broken.check_coverage()


def test_timeline_check_rejects_a_stale_tally():
    tl = build_timeline(make_config("fhd", 30, Scheme.BASELINE), None)
    totals = tl.templates[1].totals._replace(edp_bytes=0)
    with pytest.raises(ValueError, match="window 1: template tally disagrees"):
        _replace_template(tl, 1, totals=totals).check_coverage()


# -- per-template tallies ------------------------------------------------------


def _bundled_trace(name):
    ref = resources.files("framewatt").joinpath("data", "traces", f"{name}.csv")
    with resources.as_file(ref) as path:
        return read_dirty_trace(path)


def _tally_run(run):
    """(config, build keywords) of a bundled trace burst or a preset."""
    if run in ("gaming", "conferencing"):
        cfg = get_preset("4k60").config
        cfg = replace(cfg, workload=replace(
            cfg.workload, kind=WorkloadKind.SINGLE_PLANE, scheme=Scheme.BURSTING_ONLY))
        return cfg, {"dirty_trace": _bundled_trace(run)}
    cfg = get_preset(run).config
    return replace(cfg, workload=replace(
        cfg.workload, scheme=Scheme.BURSTLINK)), {"n_windows": 24}


def _walk(rows, prev=None):
    """Reference tally: one walk over expanded rows, entered from ``prev``."""
    spans = {s: 0 for s in PackageCState}
    sums = [0] * 6
    changes: dict = {}
    for iv in rows:
        span = iv.end_ns - iv.start_ns
        spans[iv.state] += span
        for i, v in enumerate((iv.dram_read_bytes, iv.dram_write_bytes, iv.edp_bytes,
                               span * iv.drfb_active, span * iv.gpu_active,
                               span * iv.fbc_active)):
            sums[i] += v
        if prev is not None and prev is not iv.state:
            changes[(prev, iv.state)] = changes.get((prev, iv.state), 0) + 1
        prev = iv.state
    return TimelineTotals(spans, *sums, changes)


@pytest.mark.parametrize("run", ["gaming", "conferencing", "4k60-vr"])
def test_tallies_combine_to_a_walk_over_the_expanded_rows(run):
    cfg, kw = _tally_run(run)
    tl = build_timeline(cfg, **kw)
    rows: dict[int, list] = {}
    for iv in tl.intervals:
        rows.setdefault(iv.window, []).append(iv)
    whole = timeline_totals(tl)
    assert whole == _walk(tl.intervals)
    assert list(whole.transitions) == list(_walk(tl.intervals).transitions)
    for t, tpl in enumerate(tl.templates):
        w = tl.window_template.index(t)
        assert tpl.entry == (rows[w - 1][-1].state if w else None)
        expected = _walk(rows[w], tpl.entry)
        assert tpl.totals == expected
        assert list(tpl.totals.transitions) == list(expected.transitions)


def _template_matches_its_rows(tpl, W_ns):
    rows = _as_intervals(tmod._expand(tpl, W_ns), tpl.kind)
    expected = _walk(rows, tpl.entry)
    assert tpl.totals == expected
    assert list(tpl.totals.transitions) == list(expected.transitions)
    assert tpl.last == rows[-1].state


def _preset_and_trace_runs():
    for name in sorted(PRESETS):
        for scheme in Scheme:
            yield pytest.param(name, scheme, id=f"{name}-{scheme.value}")
    for name in ("gaming", "conferencing", "productivity"):
        for scheme in (Scheme.BASELINE, Scheme.BURSTING_ONLY):
            yield pytest.param(name, scheme, id=f"{name}-{scheme.value}")


@pytest.mark.parametrize("run, scheme", _preset_and_trace_runs())
def test_closed_form_tallies_match_a_walk_over_every_preset_and_trace(run, scheme):
    tl = _preset_or_trace_timeline(run, scheme)
    for tpl in tl.templates if tl else ():
        _template_matches_its_rows(tpl, tl.window_ns)


def _first_violation(rows):
    """The message the row checks give the first row whose traffic its
    state cannot carry, or None."""
    for iv in rows:
        for moved, allowed, what in ((iv.dram_read_bytes, tmod._READ_STATES, "DRAM read"),
                                     (iv.dram_write_bytes, tmod._WRITE_STATES, "DRAM write")):
            if moved and iv.state not in allowed:
                return f"{what} bytes on {iv.state} at {iv.start_ns} ns"
        if iv.edp_bytes and iv.state in tmod._LINK_SILENT_STATES:
            return f"link bytes on {iv.state} at {iv.start_ns} ns"
    return None


def _rec(state: PackageCState, start: Fraction, end: Fraction, label: str,
         read: int = 0, write: int = 0, gpu: bool = False, fbc: bool = False,
         drfb: bool = False, streams: bool = False) -> tuple:
    """A record spanning [start, end] seconds, given as Fractions."""
    den = lcm(start.denominator, end.denominator)
    return (state, start.numerator * (den // start.denominator),
            end.numerator * (den // end.denominator), den, label, read, write,
            gpu, fbc, drfb, streams)


def _tick_phase(start, hard_end, payload, chunk, fill_rate, drain_rate, *args, **kwargs):
    """``tmod._phase`` over [start, hard_end] seconds with byte rates, all
    given as Fractions (``drain_rate`` None for span pacing): the times in
    ticks of the least tick that makes them and the times per byte whole."""
    rates = [fill_rate] if drain_rate is None else [fill_rate, drain_rate]
    Q = lcm(start.denominator, hard_end.denominator, *(r.numerator for r in rates))
    fill_tpb, *drain = [Q // r.numerator * r.denominator for r in rates]
    return tmod._phase(int(start * Q), int(hard_end * Q), Q, payload, chunk, fill_tpb,
                       (drain[0], 1) if drain else None, *args, **kwargs)


def _phase_template(start, W, payload, chunk, fill_rate, drain_rate, feed=False,
                    read_total=None, wake_read=0, wake_write=0, link_bytes=None,
                    gpu_fill=False, wake_streams=False):
    """A window of one C0 wake-up record over [0, start] and one transfer
    phase over [start, W], and its length in ns."""
    states = ((PackageCState.C7, PackageCState.C7P, "decode-feed") if feed
              else (PackageCState.C2, PackageCState.C8, "fetch"))
    wake = (_rec(PackageCState.C0, Fraction(0), start, "wake", read=wake_read,
                 write=wake_write, streams=wake_streams),)
    phase = _tick_phase(start, W, payload, chunk, fill_rate, drain_rate, *states, "burst",
                        fill_read_total=payload if read_total is None else read_total,
                        gpu_fill=gpu_fill)
    W_ns = _round_half_even(W.numerator * NS_PER_S, W.denominator)
    link = payload if link_bytes is None else link_bytes
    return (wake, phase, link), W_ns


def _check_phase_template(parts, W_ns):
    wake, phase, link = parts
    rows = _as_intervals(tmod._round_records(tmod._records(wake, phase), W_ns, link))
    violation = _first_violation(rows)
    if violation is not None:
        with pytest.raises(ValueError, match=f"^{violation}$"):
            tmod._template("update", link, wake, phase, None, W_ns)
        return None
    tpl = tmod._template("update", link, wake, phase, None, W_ns)
    _template_matches_its_rows(tpl, W_ns)
    return tpl


_ratios = st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=1000)


@settings(max_examples=300, deadline=None)
@given(
    start=st.fractions(min_value=0, max_value=Fraction(1, 50), max_denominator=10**9),
    W=st.sampled_from([Fraction(1, 30), Fraction(1, 60), Fraction(1, 144),
                       Fraction(1001, 60_000)]),
    chunk=st.sampled_from([1, 7, 4096, 65536, 100_000, 512 * 1024]),
    chunks=st.integers(min_value=1, max_value=300),
    tail=st.floats(min_value=0.0, max_value=1.0),
    fill_rate=st.sampled_from([10**7, 10**9, 3 * 10**9, 10**10]).flatmap(
        lambda r: _ratios.map(lambda x: r * x)),
    drain_rate=st.none() | st.sampled_from([10**7, 10**9, 3 * 10**9]).flatmap(
        lambda r: _ratios.map(lambda x: r * x)),
    feed=st.booleans(),
    read_share=st.fractions(min_value=0, max_value=1, max_denominator=8),
    wake_traffic=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
    link_share=st.fractions(min_value=0, max_value=2, max_denominator=8),
    flags=st.tuples(st.booleans(), st.booleans()),
)
def test_closed_form_tally_matches_a_walk_over_the_rows(
    start, W, chunk, chunks, tail, fill_rate, drain_rate, feed, read_share, wake_traffic,
    link_share, flags,
):
    payload = (chunks - 1) * chunk + max(1, round(chunk * tail))
    parts, W_ns = _phase_template(
        min(start, W), W, payload, chunk, fill_rate, drain_rate, feed=feed,
        read_total=int(payload * read_share), wake_read=wake_traffic[0],
        wake_write=wake_traffic[1], link_bytes=int(payload * link_share),
        gpu_fill=flags[0], wake_streams=flags[1])
    _check_phase_template(parts, W_ns)


@pytest.mark.parametrize("start, chunk, drain_rate", [
    # 0.4 ns fills, one every 1.5 ns.
    pytest.param(Fraction(1, 10**6), 4, Fraction(8 * 10**9, 3), id="0.4ns-fills"),
    # Fills of exactly 1 ns, one every 3 ns, each starting on a half ns:
    # every other one rounds from 1.5 to 2 and from 2.5 to 2 ns.
    pytest.param(Fraction(1, 2 * 10**9), 10, Fraction(10**10, 3), id="1ns-fills-on-ties"),
])
def test_a_body_of_records_up_to_1ns_is_rounded_record_by_record(start, chunk, drain_rate):
    # Some fills round to nothing, so the body is not tallied in closed form.
    parts, W_ns = _phase_template(start, Fraction(1, 60), 100 * chunk, chunk,
                                  Fraction(10**10), drain_rate, read_total=0)
    assert tmod._body(parts[1]) == 0
    records = tmod._records(*parts[:2])
    assert len(tmod._round_records(records, W_ns, parts[2])) < len(records)
    _check_phase_template(parts, W_ns)


def test_a_body_whose_drains_outlast_its_fills_by_up_to_1ns_is_rounded_record_by_record():
    # Consumer-bound 2 ns fills, one every 3 ns: each drain gap is 1 ns.
    parts, W_ns = _phase_template(Fraction(1, 2 * 10**9), Fraction(1, 60), 100 * 20, 20,
                                  Fraction(10**10), Fraction(2 * 10**10, 3), read_total=0)
    assert not parts[1].producer
    assert tmod._body(parts[1]) == 0
    _check_phase_template(parts, W_ns)


def test_a_body_of_longer_records_is_tallied_in_closed_form():
    parts, W_ns = _phase_template(Fraction(1, 10**4), Fraction(1, 60), 10**6, 4096,
                                  Fraction(10**10), Fraction(10**9))
    assert tmod._body(parts[1]) == 244  # chunks 3..244 of 245
    assert _check_phase_template(parts, W_ns) is not None


@pytest.mark.parametrize("payload, chunk, fill_rate, drain_rate, where", [
    # The fill that would start after the hard end is dropped; its reads
    # land on the drain record cut at the end.
    pytest.param(1_000_000, 100_000, 10**9, 20_000_000, 5_200_000, id="clipped-drain"),
])
def test_reads_carried_onto_a_drain_state_are_rejected(payload, chunk, fill_rate, drain_rate,
                                                       where):
    parts, W_ns = _phase_template(Fraction(0), Fraction(9, 1000), payload, chunk,
                                  Fraction(fill_rate), Fraction(drain_rate))
    with pytest.raises(ValueError, match=f"^DRAM read bytes on C8 at {where} ns$"):
        tmod._template("update", parts[2], *parts[:2], None, W_ns)


def test_sub_nanosecond_fills_keep_the_first_for_1ns_and_give_it_their_reads():
    # 0.1 ns fills against 10 ns drains round to nothing.  The first has no
    # kept row before it that can read DRAM, so it keeps 1 ns; every later
    # one gives its read back to it.
    parts, W_ns = _phase_template(Fraction(0), Fraction(9, 1000), 1000, 1,
                                  Fraction(10**10), Fraction(10**8))
    tpl = _check_phase_template(parts, W_ns)
    rows = tmod._round_records(tmod._records(*parts[:2]), W_ns, parts[2])
    assert rows[0][:5] == [PackageCState.C2, 0, 1, "fetch", 1000]
    assert [row[4] for row in rows[1:]] == [0] * (len(rows) - 1)
    assert tpl.totals.dram_read_bytes == 1000


@pytest.mark.parametrize("before, read, write, expected", [
    # A fetch can take both back.
    pytest.param(PackageCState.C2, 3, 4, [(PackageCState.C2, 0, 5_000_000, 3, 4),
                                         (PackageCState.C9, 5_000_000, 16_666_667, 0, 0)],
                 id="given-back"),
    # A direct feed can read but not write DRAM, so the record keeps 1 ns.
    pytest.param(PackageCState.C7, 3, 4, [(PackageCState.C7, 0, 5_000_000, 0, 0),
                                         (PackageCState.C0, 5_000_000, 5_000_001, 3, 4),
                                         (PackageCState.C9, 5_000_001, 16_666_667, 0, 0)],
                 id="write-kept"),
    pytest.param(PackageCState.C8, 0, 4, [(PackageCState.C8, 0, 5_000_000, 0, 0),
                                         (PackageCState.C0, 5_000_000, 5_000_001, 0, 4),
                                         (PackageCState.C9, 5_000_001, 16_666_667, 0, 0)],
                 id="drain-then-write"),
])
def test_a_record_that_rounds_to_nothing_gives_its_traffic_back_or_keeps_1ns(
        before, read, write, expected):
    recs = [_rec(before, Fraction(0), Fraction(1, 200), "before"),
            _rec(PackageCState.C0, Fraction(1, 200), Fraction(1, 200), "empty",
                 read=read, write=write),
            _rec(PackageCState.C9, Fraction(1, 200), Fraction(1, 60), "idle")]
    rows = tmod._round_records(recs, frame_window_ns(60), 0)
    assert [(row[0], row[1], row[2], row[4], row[5]) for row in rows] == expected
    tpl = tmod._template("update", 0, tuple(recs), None, None, frame_window_ns(60))
    assert tpl.totals[1:3] == (read, write)


def _counting(monkeypatch, name):
    """Patch ``timeline.<name>`` to record the template of each call."""
    calls = []
    fn = getattr(tmod, name)

    def counted(*args):
        calls.append(args[0])
        return fn(*args)

    monkeypatch.setattr(tmod, name, counted)
    return calls


def test_each_template_is_tallied_once_per_build(monkeypatch):
    tallied = _counting(monkeypatch, "_template")
    cfg, kw = _tally_run("gaming")
    tl = build_timeline(cfg, **kw)
    assert len(tallied) == len(tl.templates) > 1
    cal = load_calibration("default")
    report_from_timeline(tl, cfg, cal)
    window_energy_breakdown(tl, cfg, cal)
    timeline_totals(tl)
    assert len(tallied) == len(tl.templates)
    tl.check_coverage()  # re-derives every template from its records
    assert len(tallied) == 2 * len(tl.templates)


def test_rows_are_expanded_only_for_export(monkeypatch):
    expanded = _counting(monkeypatch, "_expand")
    cfg, kw = _tally_run("gaming")
    cal = load_calibration("default")
    single_plane_burst(cfg, kw["dirty_trace"], cal)
    tl = build_timeline(cfg, **kw)
    report_from_timeline(tl, cfg, cal)
    window_energy_breakdown(tl, cfg, cal)
    tl.check_coverage()
    assert expanded == []
    export_text(timeline_to_csv, tl)
    export_text(timeline_to_svg, tl)
    shapes: dict = {}  # templates that differ only in their entry state share rows
    for tpl in tl.templates:
        shapes.setdefault(tpl[:4], tpl)
    assert expanded == list(shapes.values())


@pytest.mark.parametrize("preset, kw", [("fhd30", {"batch_every": 2}), ("4k60-vr", {})])
def test_a_periodic_run_keeps_its_templates_and_bills_at_twice_the_windows(preset, kw):
    cfg = get_preset(preset).config
    cal = load_calibration("default")
    counts = []
    for n in (1_000, 2_000):
        tl = build_timeline(cfg, n, **kw)
        counts.append(len(tl.templates))
        assert len(window_energy_breakdown(tl, cfg, cal)) == len(tl.templates)
    assert counts[0] == counts[1]


def test_simulate_out_expands_each_row_shape_once(monkeypatch, tmp_path, capsys):
    # Window 0 enters from no state, so it has a template of its own whose rows
    # are a later template's: they are expanded, and formatted, once.
    expanded = _counting(monkeypatch, "_expand")
    assert main(["simulate", "--preset", "4k60", "--windows", "40",
                 "--out", str(tmp_path)]) == 0
    tl = build_timeline(get_preset("4k60").config, 40)
    shapes = {tpl[:4] for tpl in tl.templates}
    assert len(expanded) == len(shapes) < len(tl.templates)
    assert {tpl[:4] for tpl in expanded} == shapes


# -- integer-time window arithmetic ----------------------------------------------


def _round_half_even(n: int, d: int) -> int:
    """``round(Fraction(n, d))`` for ``d > 0``: nearest integer, ties to even.
    The reference that the rounding inlined in ``_round_records`` is held to."""
    q, r = divmod(n, d)
    return q + (2 * r > d or (2 * r == d and q & 1))


@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=1, max_value=10**24))
def test_integer_rounding_matches_fraction_rounding(n, d):
    assert _round_half_even(n * NS_PER_S, d) == round(Fraction(n, d) * NS_PER_S)


@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=1, max_value=10**9))
def test_integer_rounding_breaks_exact_ties_to_even(k, m):
    n, d = (2 * k + 1) * m, 2 * NS_PER_S * m  # exactly k + 1/2 ns
    expected = k + k % 2
    assert _round_half_even(n * NS_PER_S, d) == expected
    assert round(Fraction(n, d) * NS_PER_S) == expected


@st.composite
def _progressions(draw):
    """(a, p, k, D) for sums of ``round((a + i * p) * 1e9 / D)``; half of
    them put exact half-ns ties on the progression."""
    k = draw(st.integers(min_value=0, max_value=60))
    if draw(st.booleans()):
        # a * 1e9 / D is j + 1/2, and each step moves it by a whole or a
        # half ns, so ties recur along the progression.
        u = draw(st.integers(min_value=1, max_value=10**6))
        D = 2 * NS_PER_S * u
        a = u * (2 * draw(st.integers(min_value=0, max_value=10**9)) + 1)
        return a, u * draw(st.integers(min_value=0, max_value=10**6)), k, D
    D = draw(st.integers(min_value=1, max_value=10**30))
    a = draw(st.integers(min_value=0, max_value=10**40))
    return a, draw(st.integers(min_value=0, max_value=10**36)), k, D


@example((1, 2, 5, 2 * NS_PER_S))  # 0.5, 1.5, ..., 4.5 ns: every term a tie
@example((3, 0, 4, 2 * NS_PER_S))  # 1.5 ns four times
@given(_progressions())
def test_progression_round_sum_matches_rounding_each_term(case):
    a, p, k, D = case
    assert tmod._round_sum(a, p, k, D) == sum(
        _round_half_even((a + i * p) * NS_PER_S, D) for i in range(k))


@given(st.integers(min_value=1, max_value=10**15), st.integers(min_value=1, max_value=10**6)
       | st.just(2))
def test_window_rounding_rounds_each_boundary_like_the_reference(n, d):
    end = Fraction(n + d, d * NS_PER_S)  # 1 + n / d ns
    recs = [_rec(PackageCState.C0, Fraction(0), end, "wake"),
            _rec(PackageCState.C9, end, end + 1, "idle")]
    rows = _as_intervals(tmod._round_records(recs, round((end + 1) * NS_PER_S), 0))
    assert rows[0].end_ns == _round_half_even(end.numerator * NS_PER_S, end.denominator)


def test_window_rounding_rejects_records_that_leave_a_gap():
    recs = [_rec(PackageCState.C0, Fraction(0), Fraction(1, 100), "wake"),
            _rec(PackageCState.C9, Fraction(1, 99), Fraction(1, 60), "idle")]
    with pytest.raises(ValueError, match="left a gap at 0.01 s"):
        tmod._round_records(recs, frame_window_ns(60), 0)


def test_window_rounding_rejects_records_that_stop_short_of_the_window_end():
    recs = (_rec(PackageCState.C0, Fraction(0), Fraction(1, 100), "wake"),
            _rec(PackageCState.C9, Fraction(1, 100), Fraction(15, 1000), "idle"))
    W_ns = frame_window_ns(60)
    assert W_ns == 16_666_667
    for build in (lambda: tmod._round_records(list(recs), W_ns, 0),
                  lambda: tmod._template("update", 0, recs, None, None, W_ns)):
        with pytest.raises(ValueError, match=r"^coverage gap: window recipe ends at 0\.015 s$"):
            build()


def test_window_rounding_rejects_a_record_that_runs_backwards():
    recs = (_rec(PackageCState.C0, Fraction(0), Fraction(1, 100), "wake"),
            _rec(PackageCState.C8, Fraction(1, 100), Fraction(1, 150), "drain"),
            _rec(PackageCState.C9, Fraction(1, 150), Fraction(1, 60), "idle"))
    for build in (lambda: tmod._round_records(list(recs), frame_window_ns(60), 0),
                  lambda: tmod._template("update", 0, recs, None, None, frame_window_ns(60))):
        with pytest.raises(ValueError, match="^coverage overlap: window recipe runs back to "
                                             r"0\.00666"):
            build()


def test_window_rounding_keeps_zero_length_records_legal():
    # A zero orchestration_time makes an empty wake-up record.  With no
    # kept row before it to take its reads, it keeps 1 ns.
    recs = [_rec(PackageCState.C0, Fraction(0), Fraction(0), "wake", read=5),
            _rec(PackageCState.C2, Fraction(0), Fraction(1, 60), "fetch")]
    rows = _as_intervals(tmod._round_records(recs, frame_window_ns(60), 0))
    assert [(iv.state, iv.start_ns, iv.end_ns, iv.dram_read_bytes) for iv in rows] == [
        (PackageCState.C0, 0, 1, 5), (PackageCState.C2, 1, frame_window_ns(60), 0)]


def duplex_phase(*args, **kwargs):
    """Every record of one transfer phase, none merged into a body."""
    return tmod._records((), _tick_phase(*args, **kwargs))


def fraction_phase(start, hard_end, payload, chunk, fill_rate, drain_rate):
    """Reference phase: the per-chunk ``Fraction`` arithmetic that the
    integer-time phase replaced, as [state, start, end, read] records that
    run to ``hard_end``: C2 fills and C8 drains, then C8 (span pacing) or C9
    (rate pacing) for whatever time is left."""
    if start >= hard_end:
        return []
    fill_state, drain_state = PackageCState.C2, PackageCState.C8
    n = -(-payload // chunk)
    chunks = [chunk] * (n - 1) + [payload - (n - 1) * chunk]
    reads = chunks  # the phase reads exactly what it fetches
    d = Fraction(payload) / (hard_end - start) if drain_rate is None else drain_rate
    fill = [Fraction(c) / fill_rate for c in chunks]
    recs = []
    if fill_rate <= d:
        t = start
        for dur, read in zip(fill, reads):
            recs.append([fill_state, t, t + dur, read])
            t += dur
        end = t
    else:
        done, acc = [], start + fill[0]
        for c in chunks:
            acc += Fraction(c) / d
            done.append(acc)
        t = start
        for i, (dur, read) in enumerate(zip(fill, reads)):
            fs = start if i == 0 else start + fill[0] if i == 1 else done[i - 2]
            if fs > t:
                recs.append([drain_state, t, fs, 0])
            recs.append([fill_state, fs, fs + dur, read])
            t = fs + dur
        if done[-1] > t:
            recs.append([drain_state, t, done[-1], 0])
        end = done[-1]
    kept, lost = [], 0
    for r in recs:
        if r[1] >= hard_end:
            lost += r[3]
            continue
        r[2] = min(r[2], hard_end)
        kept.append(r)
    if lost and kept:
        kept[-1][3] += lost
    if end < hard_end:
        idle = drain_state if drain_rate is None else PackageCState.C9
        kept.append([idle, end, hard_end, 0])
    return kept


_rates = st.floats(min_value=1e8, max_value=5e10).map(Fraction)


@settings(max_examples=150, deadline=None)
@given(
    start=st.floats(min_value=0.0, max_value=0.02).map(Fraction),
    refresh=st.sampled_from([30, 60, 120, 144]),
    payload=st.integers(min_value=1, max_value=3_000_000),
    chunk=st.sampled_from([4096, 65536, 100_000, 512 * 1024]),
    fill_rate=_rates,
    drain_rate=st.none() | _rates,
)
def test_integer_time_phase_matches_the_fraction_reference(
    start, refresh, payload, chunk, fill_rate, drain_rate
):
    hard_end = Fraction(1, refresh)
    recs = duplex_phase(
        start, hard_end, payload, chunk, fill_rate, drain_rate,
        PackageCState.C2, PackageCState.C8, "fetch", "burst", fill_read_total=payload,
    )
    expected = fraction_phase(start, hard_end, payload, chunk, fill_rate, drain_rate)
    got = [[state, Fraction(start, den), Fraction(end, den), read]
           for state, start, end, den, _, read, *_ in recs]
    assert got == expected


_C2, _C8 = PackageCState.C2, PackageCState.C8
_t = [Fraction(n, 10_000) for n in range(100)]  # _t[n] is n tenths of a ms


@pytest.mark.parametrize("fill_rate, drain_rate, expected", [
    # Producer-bound: ten 100 kB fills of 2 ms each against a faster drain.
    # The fifth fill straddles the 9 ms end and is cut there; the five fills
    # that would start later are dropped, their reads landing on it.
    pytest.param(50_000_000, 100_000_000,
                 [[_C2, _t[0], _t[20], 100_000], [_C2, _t[20], _t[40], 100_000],
                  [_C2, _t[40], _t[60], 100_000], [_C2, _t[60], _t[80], 100_000],
                  [_C2, _t[80], _t[90], 600_000]], id="producer-bound"),
    # Consumer-bound: 0.1 ms fills against a 5 ms-per-chunk drain.  The
    # drain that waits for the fourth buffer slot straddles the end and is
    # cut there; the reads of the seven fills that would start later land on
    # it.
    pytest.param(10**9, 20_000_000,
                 [[_C2, _t[0], _t[1], 100_000], [_C2, _t[1], _t[2], 100_000],
                  [_C8, _t[2], _t[51], 0], [_C2, _t[51], _t[52], 100_000],
                  [_C8, _t[52], _t[90], 700_000]], id="consumer-bound"),
])
def test_rate_paced_phase_is_clipped_at_the_hard_end(fill_rate, drain_rate, expected):
    args = (Fraction(0), Fraction(9, 1000), 1_000_000, 100_000,
            Fraction(fill_rate), Fraction(drain_rate))
    recs = duplex_phase(*args, _C2, _C8, "fetch", "burst", fill_read_total=1_000_000)
    assert [[state, Fraction(start, den), Fraction(end, den), read]
            for state, start, end, den, _, read, *_ in recs] == expected
    assert fraction_phase(*args) == expected


def _streamed_link_bytes(link_bytes, *ends_ms):
    """Link bytes that `_round_records` gives back-to-back streaming records
    ending at ``ends_ms``."""
    bounds = [Fraction(0), *(Fraction(e, 1000) for e in ends_ms)]
    recs = [_rec(PackageCState.C2, a, b, "fetch", streams=True)
            for a, b in zip(bounds, bounds[1:])]
    rows = _as_intervals(tmod._round_records(recs, ends_ms[-1] * 10**6, link_bytes))
    return [iv.edp_bytes for iv in rows]



# -- the integer recipe against the Fraction recipe ---------------------------------
#
# _RefKnobs, _ref_knobs, _ref_recipe and _ref_phase are the Fraction-valued
# knobs and window recipe that the build-tick integers replaced, kept
# verbatim as the reference the integer build must reproduce exactly.


def frame_window(refresh_hz: int) -> Fraction:
    """Refresh window period in seconds, exact (the build's knobs hold it as
    the integer ratio ``(1, refresh_hz)``)."""
    return Fraction(1, refresh_hz)


@dataclasses.dataclass(frozen=True)
class _RefKnobs:
    """Resolved per-build quantities shared by all windows."""

    W: Fraction  # window period, seconds
    F: int  # frame bytes
    E: int  # encoded-stream bytes per frame
    chunk: int
    o: Fraction  # conventional wake-up, seconds
    o_b: Fraction  # short (hardware-assisted) wake-up, seconds
    f: Fraction  # decode rate, B/s
    b: Fraction  # DRAM fetch rate, B/s
    p: Fraction  # decoder direct-feed pacing, B/s
    e_B: Fraction  # link max rate, B/s
    gpu: Fraction  # GPU projection rate, B/s
    group: int  # windows per video frame
    disp: int  # display-buffer bytes per window (after fbc/batching cuts)
    fbc_on: bool


def _ref_knobs(cfg, fbc_ratio, traffic_cut):
    disp_cfg, sys_cfg, wl = cfg.display, cfg.system, cfg.workload
    F = frame_bytes(disp_cfg.resolution, disp_cfg.bits_per_pixel)
    W = frame_window(disp_cfg.refresh_hz)
    o_b = (
        Fraction(sys_cfg.burst_orchestration_time)
        if sys_cfg.burst_orchestration_time is not None
        else W * Fraction(1, 50)
    )
    group = max(disp_cfg.refresh_hz // wl.video_fps, 1)
    return _RefKnobs(
        W=W,
        F=F,
        E=encoded_frame_bytes(disp_cfg.resolution, sys_cfg.encoded_bits_per_pixel),
        chunk=sys_cfg.dc_buffer_bytes,
        o=Fraction(sys_cfg.orchestration_time),
        o_b=o_b,
        f=Fraction(sys_cfg.decode_rate),
        b=Fraction(sys_cfg.dram_fetch_rate),
        p=Fraction(sys_cfg.vd_paced_rate if sys_cfg.vd_paced_rate else sys_cfg.decode_rate),
        e_B=Fraction(disp_cfg.edp_max_bits_per_s) / 8,
        gpu=Fraction(sys_cfg.gpu_pt_rate),
        group=group,
        disp=round(F * fbc_ratio * traffic_cut),
        fbc_on=fbc_ratio != 1.0,
    )


def _ref_phase(
    start: Fraction,
    hard_end: Fraction,
    payload: int,
    chunk: int,
    fill_rate: Fraction,
    drain_rate: Fraction | None,
    fill_state: PackageCState,
    drain_state: PackageCState,
    fill_label: str,
    drain_label: str,
    fill_read_total: int = 0,
    gpu_fill: bool = False,
):
    if start >= hard_end:
        return None
    n = dc_fetch_count(payload, chunk) if payload > 0 else 0
    tail = payload - (n - 1) * chunk
    d: Fraction = (
        Fraction(payload) / (hard_end - start) if drain_rate is None else drain_rate
    )
    # Every boundary of the phase is the start plus whole fill and drain
    # durations of full and tail chunks, so all of them are integers over
    # one common denominator D.
    exact = ((start, hard_end, chunk / fill_rate, tail / fill_rate, chunk / d, tail / d)
             if n else (start, hard_end))
    D = lcm(*(x.denominator for x in exact))
    times = [x.numerator * (D // x.denominator) for x in exact]
    return tmod._Phase(*times, *[0] * (6 - len(times)), D, n, chunk, payload,
                       fill_rate <= d, drain_rate is None, fill_state, drain_state,
                       fill_label, drain_label, fill_read_total, gpu_fill)


def _ref_recipe(k, scheme, kind, decodes, link_bytes, vr, psr_alt):
    if scheme is Scheme.BASELINE and kind == "repeat" and psr_alt:
        return (_rec(PackageCState.C9, Fraction(0), k.W, "psr", drfb=True),), None
    stream = scheme is Scheme.BASELINE or (scheme is Scheme.BYPASS_ONLY
                                           and kind == "transfer")
    # The decoder (or, for VR, the GPU) feeds the DC buffer directly.
    feed = kind == "transfer" and scheme.uses_bypass
    if scheme is not Scheme.BASELINE and kind == "transfer" and (vr or not feed):
        decodes = 1  # the frame is decoded into DRAM first
    t = (k.o if stream else k.o_b) + Fraction(decodes * k.F) / k.f
    recs = [_rec(PackageCState.C0, Fraction(0), min(t, k.W),
                 "wake+decode" if decodes else "wake", read=decodes * k.E,
                 write=decodes * (k.F if vr else k.disp),
                 fbc=bool(decodes) and k.fbc_on and not vr, streams=stream)]
    if vr and decodes and not feed:
        # The GPU re-projects the decoded frame into DRAM.  Wake-up records
        # are clipped to the window: one that starts past its end is dropped.
        t_pt = t + Fraction(decodes * k.F) / k.gpu
        if t < k.W:
            recs.append(_rec(PackageCState.C0, t, min(t_pt, k.W), "project",
                             read=decodes * k.F, write=decodes * k.disp, gpu=True,
                             fbc=k.fbc_on, streams=True))
        t = t_pt
    if feed:
        fill_state, drain_state, payload = PackageCState.C7, PackageCState.C7P, k.F
        fill_rate, fill_label, read = ((k.gpu, "project-feed", k.F) if vr
                                       else (k.p, "decode-feed", k.E))
    else:
        # The DC fetches from DRAM: the (compressed, batching-cut) display
        # buffer of a video frame, or a single plane's update as it is.
        fill_state, drain_state = PackageCState.C2, PackageCState.C8
        payload = k.disp if kind in ("transfer", "repeat") and link_bytes else link_bytes
        fill_rate, fill_label, read = k.b, "fetch", payload
    # Fetched bytes leave the link as ``link_bytes``, so a compressed fetch
    # drains proportionally slower in fetched-byte units.
    drain = (None if stream
             else k.e_B * Fraction(payload, link_bytes) if payload else k.e_B)
    return tuple(recs), _ref_phase(
        min(t, k.W), k.W, payload, k.chunk, fill_rate, drain, fill_state, drain_state,
        fill_label, "stream" if stream else "burst", fill_read_total=read,
        gpu_fill=feed and vr,
    )


def _in_seconds(wake, phase):
    """A window's wake-up records and phase with every time as a Fraction of
    a second, whatever denominator it was built over."""
    recs = [(r[0], Fraction(r[1], r[3]), Fraction(r[2], r[3]), *r[4:]) for r in wake]
    if phase is None:
        return recs, None
    return recs, (*(Fraction(x, phase.D) for x in phase[:6]), *phase[7:])


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _mostly(usual, rare):
    """Draws from ``usual``, and one in eight from ``rare``."""
    return st.integers(0, 7).flatmap(lambda i: rare if i == 0 else usual)


# Rates (B/s) and times (s): ordinary values, values that are not integers,
# and tiny and huge valid floats; times at or past the window leave no phase.
_float_rates = _mostly(
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(9, 10))
    | st.sampled_from([1e9 / 3, 22.5e9, 31.104e9]),
    st.sampled_from([5e-324, 1e-3, 1e300]))
_float_times = _mostly(st.floats(0.0, 0.004) | st.sampled_from([0.0, 1.9e-3, 1e-300]),
                       st.sampled_from([5e-324, 1 / 60, 1 / 30, 1.0]))


@settings(max_examples=150, deadline=None)
@example(  # the DRAM fetch and the link move a byte in the same time
    system=SystemConfig(), res="fhd", refresh=60, edp=8 * SystemConfig().dram_fetch_rate,
    scheme=Scheme.BURSTING_ONLY, vr=False, psr_alt=False, fbc_ratio=1.0, traffic_cut=1.0,
    window=("update", 0, "frame"))
@given(
    system=st.builds(
        SystemConfig,
        dc_buffer_bytes=st.sampled_from([65536, 100_000, 512 * 1024, 10**6]),
        dram_fetch_rate=_float_rates,
        decode_rate=_float_rates,
        vd_paced_rate=st.none() | _float_rates,
        gpu_pt_rate=_float_rates,
        orchestration_time=_float_times,
        burst_orchestration_time=st.none() | _float_times,
    ),
    res=st.sampled_from(["fhd", "qhd", "4k"]),
    refresh=st.sampled_from([30, 60, 90, 120, 144]),
    edp=_float_rates,
    scheme=st.sampled_from(list(Scheme)),
    vr=st.booleans(),
    psr_alt=st.booleans(),
    fbc_ratio=st.sampled_from([1.0, 0.55]) | st.floats(min_value=0.01, max_value=1.0),
    traffic_cut=st.sampled_from([1.0, 0.66, 0.0]) | st.floats(min_value=0.0, max_value=1.0),
    window=st.tuples(st.sampled_from(["transfer", "repeat", "update", "idle"]),
                     st.integers(min_value=0, max_value=3),
                     st.sampled_from(["none", "frame", "display", "part"])),
)
def test_integer_recipe_matches_the_fraction_recipe(
    system, res, refresh, edp, scheme, vr, psr_alt, fbc_ratio, traffic_cut, window,
):
    display = replace(make_config(res, refresh=refresh).display,
                                  edp_max_bits_per_s=edp)
    cfg = make_config(res, refresh, display=display, system=system)
    k, ref = tmod._knobs(cfg, fbc_ratio, traffic_cut), _ref_knobs(cfg, fbc_ratio, traffic_cut)
    assert type(k) is tmod._Knobs and all(type(x) in (int, bool) for x in k)
    kind, decodes, link = window
    link_bytes = {"none": 0, "frame": k.F, "display": k.disp, "part": k.F // 3 + 128}[link]
    if kind == "transfer":
        link_bytes = link_bytes or k.F  # a transfer window always moves a frame
    args = (scheme, kind, decodes, link_bytes, vr, psr_alt)
    got, expected = tmod._recipe(k, *args), _ref_recipe(ref, *args)
    assert _in_seconds(*got) == _in_seconds(*expected)
    W_ns = frame_window_ns(refresh)
    rows = [_outcome(tmod._round_records, tmod._records(*parts), W_ns, link_bytes)
            for parts in (got, expected)]
    assert rows[0] == rows[1]
    tpls = [_outcome(tmod._template, kind, link_bytes, *parts, None, W_ns)
            for parts in (got, expected)]
    if isinstance(tpls[0], str):
        assert tpls[0] == tpls[1]
    else:  # equal but for the denominators their records are kept over
        assert tpls[0]._replace(wake=None, phase=None) == tpls[1]._replace(wake=None, phase=None)
        assert list(tpls[0].totals.transitions) == list(tpls[1].totals.transitions)


def test_a_sub_ns_tail_fill_gives_its_reads_to_the_last_fill(tmp_path, capsys):
    # 4k60 at dirty fraction 0.063205 updates 1,572,871 B: three 524,288-B
    # chunks and a 7-B tail whose fill spans 0.225 ns and rounds to nothing
    # right before a C8 drain, which cannot read DRAM.
    cfg = get_preset("4k60").config
    plane = replace(cfg, workload=replace(
        cfg.workload, kind=WorkloadKind.SINGLE_PLANE, scheme=Scheme.BURSTING_ONLY))
    tl = build_timeline(plane, dirty_trace=[0.063205])
    tl.check_coverage()
    reads = [(row[0], row[3], row[4]) for row in tl.rows[0] if row[4]]
    assert reads == [(PackageCState.C2, "fetch", 524288)] * 2 + [
        (PackageCState.C2, "fetch", 524288 + 7)]
    assert timeline_totals(tl).dram_read_bytes == 1_572_871
    comparison = single_plane_burst(cfg, [0.063205], load_calibration())
    assert comparison.burst.dram_read_bytes == 1_572_871
    trace = tmp_path / "trace.csv"
    trace.write_text("window,dirty_fraction\n0,0.063205\n")
    assert main(["simulate", "--preset", "4k60", "--kind", "single_plane", "--scheme",
                 "bursting_only", "--trace", str(trace)]) == 0
    assert "DRAM read bytes" not in capsys.readouterr().err


def test_a_zero_wake_up_before_sub_ns_fetches_builds_and_agrees_with_the_oracle(tmp_path, capsys):
    # No wake-up time and a 1e15 B/s fetch: every record before the first
    # drain rounds to nothing, so the first fill keeps 1 ns and takes the reads.
    doc = {"display": {"resolution": "4k", "refresh_hz": 60},
           "system": {"burst_orchestration_time": 0.0, "dram_fetch_rate": 1e15},
           "workload": {"kind": "single_plane", "scheme": "bursting_only", "video_fps": 60}}
    config, trace = tmp_path / "config.json", tmp_path / "trace.csv"
    config.write_text(json.dumps(doc), encoding="utf-8")
    trace.write_text("window,dirty_fraction\n0,0.0\n1,0.5\n", encoding="utf-8")
    assert main(["simulate", "--config", str(config), "--trace", str(trace)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["validate", "--config", str(config), "--trace", str(trace)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(": OK")


def test_a_window_that_fails_its_check_is_named_by_the_build(monkeypatch):
    recipe = tmod._recipe

    def reads_on_idle(k, scheme, kind, *rest):
        if kind == "repeat":  # window 1 of a 30 fps video on a 60 Hz panel
            return (_rec(PackageCState.C9, Fraction(0), Fraction(1, 60), "idle", read=1),), None
        return recipe(k, scheme, kind, *rest)

    monkeypatch.setattr(tmod, "_recipe", reads_on_idle)
    with pytest.raises(ValueError, match="^window 1: DRAM read bytes on C9 at 0 ns$"):
        build_timeline(make_config("fhd", 30, Scheme.BURSTLINK), 2)


def _fraction_knobs(cfg, fbc_ratio, traffic_cut):
    """The build's knobs derived through ``Fraction``s, as the integer build
    first did it, kept verbatim as the reference for the integer ratios."""
    disp_cfg, sys_cfg, wl = cfg.display, cfg.system, cfg.workload
    F = frame_bytes(disp_cfg.resolution, disp_cfg.bits_per_pixel)
    W, burst_o = frame_window(disp_cfg.refresh_hz), sys_cfg.burst_orchestration_time
    times = (W, Fraction(sys_cfg.orchestration_time),
             W * Fraction(*BURST_WAKE_SHARE) if burst_o is None else Fraction(burst_o))
    rates = (*map(Fraction, (sys_cfg.decode_rate, sys_cfg.dram_fetch_rate,
                             sys_cfg.vd_paced_rate or sys_cfg.decode_rate)),
             Fraction(disp_cfg.edp_max_bits_per_s) / 8, Fraction(sys_cfg.gpu_pt_rate))
    Q = lcm(*(x.denominator for x in times), *(r.numerator for r in rates))
    W, o, o_b = (Q // x.denominator * x.numerator for x in times)
    f, b, p, e_B, gpu = (Q // r.numerator * r.denominator for r in rates)
    return tmod._Knobs(
        Q=Q, W=W, F=F,
        E=encoded_frame_bytes(disp_cfg.resolution, sys_cfg.encoded_bits_per_pixel),
        chunk=sys_cfg.dc_buffer_bytes, o=o, o_b=o_b, f=f, b=b, p=p, e_B=e_B, gpu=gpu,
        group=max(disp_cfg.refresh_hz // wl.video_fps, 1),
        disp=round(F * fbc_ratio * traffic_cut), fbc_on=fbc_ratio != 1.0,
    )


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_integer_knobs_equal_the_fraction_knobs_on_every_preset(name):
    cfg = get_preset(name).config
    for fbc_ratio in (1.0, 0.5, 0.55, 0.6, 0.65, 0.7):
        for cut in (1.0, 1.0 - CACHED_TRAFFIC_FRACTION, 0.5, 0.0):
            k = tmod._knobs(cfg, fbc_ratio, cut)
            assert k == _fraction_knobs(cfg, fbc_ratio, cut)
            assert all(type(x) in (int, bool) for x in k)


# Rates as floats, or as ints, some above 2**53 and some multiples of 8 (the
# link's bits per byte).
_any_rates = (_float_rates | st.integers(1, 2**64)
              | st.integers(1, 2**61).map(lambda x: 8 * x) | st.just(2**53 + 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    system=st.builds(
        SystemConfig,
        dram_fetch_rate=_any_rates,
        decode_rate=_any_rates,
        vd_paced_rate=st.none() | _any_rates,
        gpu_pt_rate=_any_rates,
        orchestration_time=_float_times | st.just(1),
        burst_orchestration_time=st.none() | _float_times | st.just(1),
    ),
    refresh=st.sampled_from([30, 60, 90, 120, 144]) | st.integers(1, 10**6),
    edp=_any_rates,
    fbc_ratio=st.sampled_from([1.0, 0.55]) | st.floats(min_value=0.01, max_value=1.0),
    traffic_cut=st.sampled_from([1.0, 0.66, 0.0]) | st.floats(min_value=0.0, max_value=1.0),
)
def test_integer_knobs_equal_the_fraction_knobs(system, refresh, edp, fbc_ratio, traffic_cut):
    display = replace(make_config("fhd").display, refresh_hz=refresh,
                                  edp_max_bits_per_s=edp)
    cfg = replace(make_config("fhd"), display=display, system=system)
    assert tmod._knobs(cfg, fbc_ratio, traffic_cut) == _fraction_knobs(cfg, fbc_ratio,
                                                                      traffic_cut)


def _preset_or_trace_timeline(run, scheme):
    """The timeline of a preset (4 windows) or a bundled trace at 4K under
    ``scheme``, or None if the preset's workload cannot run under it."""
    if run in PRESETS:
        cfg, kw = get_preset(run).config, {"n_windows": 4}
    else:
        cfg, kw = make_config("4k", 60, kind=WorkloadKind.SINGLE_PLANE), {
            "dirty_trace": _bundled_trace(run)}
    cfg = replace(cfg, workload=replace(cfg.workload, scheme=scheme))
    try:
        return build_timeline(cfg, **kw)
    except ConfigurationError:
        return None  # e.g. VR under a scheme that cannot project


@pytest.mark.parametrize("run, scheme", _preset_and_trace_runs())
def test_every_built_time_is_an_int(run, scheme):
    tl = _preset_or_trace_timeline(run, scheme)
    for tpl in tl.templates if tl else ():
        for rec in tpl.wake:
            assert all(type(x) is int for x in rec[1:4]), rec
        if tpl.phase:
            assert all(type(x) is int for x in tpl.phase[:7]), tpl.phase

# -- per-scheme traffic -------------------------------------------------------


def test_conventional_scheme_stores_and_refetches_the_decoded_frame():
    tl = build_timeline(make_config("4k", 60, Scheme.BASELINE), None)
    assert sum(iv.dram_read_bytes for iv in tl.intervals) == E_4K + F_4K
    assert sum(iv.dram_write_bytes for iv in tl.intervals) == F_4K
    assert sum(iv.edp_bytes for iv in tl.intervals) == F_4K


def test_direct_feed_scheme_keeps_decoded_frames_out_of_dram():
    tl = build_timeline(make_config("4k", 60, Scheme.BYPASS_ONLY), None)
    assert sum(iv.dram_read_bytes for iv in tl.intervals) == E_4K
    assert sum(iv.dram_write_bytes for iv in tl.intervals) == 0
    assert sum(iv.edp_bytes for iv in tl.intervals) == F_4K


def test_burst_to_idle_scheme_still_round_trips_dram():
    tl = build_timeline(make_config("4k", 60, Scheme.BURSTING_ONLY), None)
    assert sum(iv.dram_read_bytes for iv in tl.intervals) == E_4K + F_4K
    assert sum(iv.dram_write_bytes for iv in tl.intervals) == F_4K
    assert sum(iv.edp_bytes for iv in tl.intervals) == F_4K


def test_combined_scheme_moves_only_the_encoded_stream_through_dram():
    tl = build_timeline(make_config("4k", 60, Scheme.BURSTLINK), None)
    assert sum(iv.dram_read_bytes for iv in tl.intervals) == E_4K
    assert sum(iv.dram_write_bytes for iv in tl.intervals) == 0
    assert sum(iv.edp_bytes for iv in tl.intervals) == F_4K


def test_transfer_windows_carry_one_full_frame_over_the_link():
    # Only the plain scheme re-streams the held frame on repeat windows;
    # every other scheme lets the panel self-refresh from its own buffer.
    for scheme in Scheme:
        tl = build_timeline(make_config("fhd", 30, scheme), None)
        repeat = F_FHD if scheme is Scheme.BASELINE else 0
        assert per_window(tl, "edp_bytes") == {0: F_FHD, 1: repeat}


def test_repeat_windows_fetch_but_do_not_rewrite_the_frame():
    tl = build_timeline(make_config("fhd", 30, Scheme.BASELINE), None)
    reads = per_window(tl, "dram_read_bytes")
    writes = per_window(tl, "dram_write_bytes")
    e_fhd = encoded_frame_bytes(RESOLUTIONS["fhd"], 0.5)
    assert reads == {0: e_fhd + F_FHD, 1: F_FHD}
    assert writes == {0: F_FHD, 1: 0}


def test_self_refresh_alternation_silences_repeat_windows():
    tl = build_timeline(make_config("fhd", 30, psr_alternate=True), None)
    assert per_window(tl, "edp_bytes") == {0: F_FHD, 1: 0}
    repeat_states = {iv.state for iv in tl.intervals if iv.window == 1}
    assert repeat_states == {PackageCState.C9}


def test_vr_projection_round_trips_the_projected_frame_even_when_combined():
    tl = build_timeline(make_config("4k", 60, Scheme.BURSTLINK,
                                    kind=WorkloadKind.VR360), None)
    assert sum(iv.dram_read_bytes for iv in tl.intervals) == E_4K + F_4K
    assert sum(iv.dram_write_bytes for iv in tl.intervals) == F_4K
    assert any(iv.gpu_active for iv in tl.intervals)


def test_vr_plain_scheme_adds_projection_traffic_on_top_of_playback():
    tl = build_timeline(make_config("4k", 60, Scheme.BASELINE,
                                    kind=WorkloadKind.VR360), None)
    # decode read + projection round trip + display fetch
    assert sum(iv.dram_read_bytes for iv in tl.intervals) == E_4K + F_4K + F_4K
    assert sum(iv.dram_write_bytes for iv in tl.intervals) == F_4K + F_4K


def test_traffic_only_rides_on_matching_activity_flags():
    tl = build_timeline(make_config("4k", 60, Scheme.BURSTLINK), None)
    for iv in tl.intervals:
        if iv.dram_read_bytes or iv.dram_write_bytes:
            assert iv.state in (PackageCState.C0, PackageCState.C2, PackageCState.C7)
        if iv.edp_bytes:
            assert iv.state not in (PackageCState.C9, PackageCState.C10)


def test_deep_idle_states_carry_no_traffic():
    for scheme in Scheme:
        tl = build_timeline(make_config("qhd", 60, scheme), None)
        for iv in tl.intervals:
            if iv.state in (PackageCState.C9, PackageCState.C10):
                assert iv.dram_read_bytes == 0
                assert iv.dram_write_bytes == 0
                assert iv.edp_bytes == 0


# -- link-byte split -----------------------------------------------------------


def test_link_bytes_split_exactly_and_proportionally_to_streaming_spans():
    assert _streamed_link_bytes(1000, 3, 4, 5) == [600, 200, 200]


def test_link_bytes_split_remainders_without_loss():
    shares = _streamed_link_bytes(10, 1, 2, 3)
    assert sum(shares) == 10
    assert all(s >= 0 for s in shares)


def test_link_bytes_split_zero_total():
    assert _streamed_link_bytes(0, 5, 10) == [0, 0]


# -- overlays -------------------------------------------------------------------


def test_identity_overlays_change_nothing():
    cfg = make_config("4k", 60, Scheme.BASELINE)
    plain = build_timeline(cfg, None)
    dressed = build_timeline(cfg, None, fbc_ratio=1.0, batch_every=1,
                             cached_traffic_fraction=0.9, dirty_trace=None)
    assert plain == dressed


def test_frame_buffer_compression_cuts_dram_traffic_not_link_traffic():
    cfg = make_config("4k", 60, Scheme.BASELINE)
    tl = build_timeline(cfg, None, fbc_ratio=0.5)
    assert sum(iv.edp_bytes for iv in tl.intervals) == F_4K
    assert sum(iv.dram_write_bytes for iv in tl.intervals) == round(F_4K * 0.5)
    assert sum(iv.dram_read_bytes for iv in tl.intervals) == E_4K + round(F_4K * 0.5)
    assert any(iv.fbc_active for iv in tl.intervals)


def test_compression_ratio_must_be_in_unit_interval():
    cfg = make_config()
    with pytest.raises(ValueError):
        build_timeline(cfg, None, fbc_ratio=0.0)
    with pytest.raises(ValueError):
        build_timeline(cfg, None, fbc_ratio=1.5)


def test_batching_decodes_ahead_and_skips_later_wakeups():
    cfg = make_config("4k", 60, Scheme.BASELINE)
    tl = build_timeline(cfg, 4, batch_every=4)
    reads = per_window(tl, "dram_read_bytes")
    writes = per_window(tl, "dram_write_bytes")
    cut = 1.0 - 0.34
    disp = round(F_4K * cut)
    assert writes == {0: 4 * disp, 1: 0, 2: 0, 3: 0}
    assert reads == {0: 4 * E_4K + disp, 1: disp, 2: disp, 3: disp}


def test_batching_is_limited_to_plain_video_playback():
    with pytest.raises(ValueError, match="plain scheme"):
        build_timeline(make_config("4k", 60, Scheme.BURSTLINK), 4, batch_every=4)
    with pytest.raises(ValueError, match="video playback"):
        build_timeline(make_config("4k", 60, kind=WorkloadKind.VR360), 4,
                       batch_every=4)


def test_dirty_traces_only_drive_single_plane_workloads():
    with pytest.raises(ValueError):
        build_timeline(make_config("4k", 60, Scheme.BASELINE), None,
                       dirty_trace=[0.5])
    with pytest.raises(ValueError):
        build_timeline(make_config("4k", 60, Scheme.BURSTING_ONLY,
                                   kind=WorkloadKind.SINGLE_PLANE), None)
    with pytest.raises(ValueError, match="compression"):
        build_timeline(make_config("4k", 60, Scheme.BURSTING_ONLY,
                                   kind=WorkloadKind.SINGLE_PLANE), None,
                       fbc_ratio=0.5, dirty_trace=[0.5])


def test_single_plane_updates_follow_the_dirty_trace():
    cfg = make_config("fhd", 60, Scheme.BURSTING_ONLY,
                      kind=WorkloadKind.SINGLE_PLANE)
    tl = build_timeline(cfg, None, dirty_trace=[0.0, 0.5, 1.0])
    assert tl.n_windows == 3
    link = per_window(tl, "edp_bytes")
    assert link == {
        0: selective_update_bytes(F_FHD, 0.0),
        1: selective_update_bytes(F_FHD, 0.5),
        2: selective_update_bytes(F_FHD, 1.0),
    }


def test_a_dirty_trace_sets_the_window_count():
    cfg = make_config("fhd", 60, Scheme.BURSTING_ONLY, kind=WorkloadKind.SINGLE_PLANE)
    assert build_timeline(cfg, 3, dirty_trace=[0.0, 0.5, 1.0]).n_windows == 3
    for n in (1, 5):
        with pytest.raises(ValueError, match=f"length 3, got {n}$"):
            build_timeline(cfg, n, dirty_trace=[0.0, 0.5, 1.0])


# -- selective updates ------------------------------------------------------------


def test_selective_update_of_a_clean_frame_is_just_the_header():
    assert selective_update_bytes(F_FHD, 0.0) == 128


def test_selective_update_scales_with_the_dirty_fraction():
    assert selective_update_bytes(F_FHD, 0.25) == round(F_FHD * 0.25) + 128
    assert selective_update_bytes(F_FHD, 0.5) == round(F_FHD * 0.5) + 128
    # Worked by hand: 1,555,200 B and 1,572,742.656 B (rounded up), plus the header.
    assert selective_update_bytes(6_220_800, 0.25) == 1_555_328
    assert selective_update_bytes(24_883_200, 0.063205) == 1_572_871


def test_selective_update_of_a_fully_dirty_frame_is_one_whole_frame():
    assert selective_update_bytes(F_FHD, 1.0) == F_FHD
    assert selective_update_bytes(24_883_200, 1.0) == 24_883_200  # no header


def test_selective_update_never_exceeds_a_full_frame():
    tiny = 100
    assert selective_update_bytes(tiny, 0.999) == tiny
    assert selective_update_bytes(tiny, 0.9) == tiny  # 90 B plus the header is capped


# -- exports -----------------------------------------------------------------------


def test_csv_export_has_the_documented_header_and_parses():
    tl = build_timeline(make_config("fhd", 30, Scheme.BURSTLINK), None)
    rows = list(csv.reader(io.StringIO(export_text(timeline_to_csv, tl))))
    assert rows[0] == CSV_HEADER.split(",")
    assert len(rows) == len(tl.intervals) + 1
    total_read = sum(int(r[6]) for r in rows[1:])
    assert total_read == sum(iv.dram_read_bytes for iv in tl.intervals)


def test_csv_columns_follow_the_row_type():
    assert CSV_HEADER.split(",") == list(Interval._fields)
    ref = resources.files("framewatt").joinpath("data", "traces", "gaming.csv")
    with resources.as_file(ref) as path:
        trace = read_dirty_trace(path)[:12]
    cfg = make_config("4k", 60, Scheme.BURSTING_ONLY, kind=WorkloadKind.SINGLE_PLANE)
    tl = build_timeline(cfg, None, dirty_trace=trace)
    parse = {"window": int, "kind": str, "state": PackageCState, "label": str}
    flag = {"0": False, "1": True}
    rows = list(csv.DictReader(io.StringIO(export_text(timeline_to_csv, tl))))
    assert len(rows) == len(tl.intervals)
    for row, iv in zip(rows, tl.intervals):
        for name in Interval._fields:
            value = row[name]
            got = (flag[value] if name.endswith("_active")
                   else parse.get(name, int)(value))
            assert got == getattr(iv, name), name


def test_template_rows_are_shared_and_immutable():
    tl = build_timeline(make_config("fhd", 30, Scheme.BURSTLINK), 4)
    row = tl.rows[0][0]
    with pytest.raises(TypeError):
        row[6] = 1  # edp bytes
    with pytest.raises(TypeError):
        row[0] = PackageCState.C10
    # window 0 reads the template row as built
    assert tl.intervals[0] == Interval(0, tl.templates[0].kind, *row)


def test_template_rows_are_10_tuples_that_intervals_offset_by_the_window_start():
    for case, tl in _export_timelines():
        expected = []
        for w, t in enumerate(tl.window_template):
            base, kind = w * tl.window_ns, tl.templates[t].kind
            for row in tl.rows[t]:
                assert type(row) is tuple and len(row) == 10, case
                state, start, end, *rest = row
                expected.append(Interval(w, kind, state, base + start, base + end, *rest))
        assert tl.intervals == tuple(expected), case


def test_csv_export_is_deterministic():
    cfg = make_config("qhd", 60, Scheme.BURSTING_ONLY)
    assert export_text(timeline_to_csv, build_timeline(cfg, None)) == export_text(
        timeline_to_csv, build_timeline(cfg, None)
    )


def test_svg_export_draws_every_occupied_state():
    tl = build_timeline(make_config("4k", 60, Scheme.BURSTLINK), None)
    svg = export_text(timeline_to_svg, tl)
    assert svg.lstrip().startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    for state in {iv.state for iv in tl.intervals}:
        assert state.value in svg


# -- exports against the row-by-row reference ----------------------------------
# _ref_csv and _ref_svg are the exports as they were before each window was
# stitched from its template's pieces, formatting every row on its own.

_STATE_COLORS = tmod._STATE_COLORS


def _ref_csv(timeline):
    # Each template's rows are formatted once; windows add only their index
    # and offset.
    rows = [
        [(f",{iv.kind},{iv.state},", iv.start_ns, iv.end_ns,
          f",{iv.label},{iv.dram_read_bytes},{iv.dram_write_bytes},"
          f"{iv.edp_bytes},{int(iv.drfb_active)},{int(iv.gpu_active)},"
          f"{int(iv.fbc_active)}")
         for iv in ivs]
        for ivs in _template_intervals(timeline)
    ]
    lines = [CSV_HEADER]
    for w, t in enumerate(timeline.window_template):
        base = w * timeline.window_ns
        lines.extend(f"{w}{head}{base + s},{base + e}{tail}"
                     for head, s, e, tail in rows[t])
    return "\n".join(lines) + "\n"


def _ref_svg(timeline):
    """Render the timeline as a self-contained Gantt-style SVG string.

    One row per refresh window, blocks colored by package state, with a
    legend; pure text output with no plotting dependencies.
    """
    width, row_h, gap, left, top = 1000, 26, 6, 70, 30
    legend_h = 40
    n = timeline.n_windows
    height = top + n * (row_h + gap) + legend_h
    sx = (width - left - 10) / timeline.window_ns

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="16">package-state timeline: '
        f"{html.escape(timeline.scheme.value)}, {n} windows of "
        f"{timeline.window_ns / 1e6:.3f} ms</text>",
    ]
    # Block geometry is window-relative, so each template's blocks are
    # formatted once; windows add only their row and absolute times.
    rects = [
        [(f'<rect x="{left + iv.start_ns * sx:.2f}" y="',
          f'" width="{max((iv.end_ns - iv.start_ns) * sx, 0.5):.2f}" height="{row_h}" '
          f'fill="{_STATE_COLORS[iv.state]}"><title>{html.escape(iv.label)} '
          f"{iv.state} [", iv.start_ns, iv.end_ns)
         for iv in ivs]
        for ivs in _template_intervals(timeline)
    ]
    for w, t in enumerate(timeline.window_template):
        y = top + w * (row_h + gap)
        base = w * timeline.window_ns
        parts.extend(f"{head}{y}{mid}{base + s}-{base + e}] ns</title></rect>"
                     for head, mid, s, e in rects[t])
    for w, t in enumerate(timeline.window_template):
        y = top + w * (row_h + gap) + row_h - 8
        kind = timeline.templates[t].kind
        parts.append(f'<text x="4" y="{y}">w{w} {html.escape(kind[:4])}</text>')
    lx = left
    ly = top + n * (row_h + gap) + 16
    for state, color in _STATE_COLORS.items():
        parts.append(f'<rect x="{lx}" y="{ly - 10}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{lx + 16}" y="{ly}">{state}</text>')
        lx += 64
    parts.append("</svg>")
    return "\n".join(parts)


def _export_timelines():
    """(id, timeline) of every preset x scheme, the overlays, the three
    bundled traces cut to 24 windows, a 1-window run and a run whose
    windows use more than one template."""
    for name in sorted(PRESETS):
        for scheme in Scheme:
            tl = _preset_or_trace_timeline(name, scheme)
            if tl:
                yield f"{name}-{scheme.value}", tl
    fhd30, vr = get_preset("fhd30").config, get_preset("4k60-vr").config
    yield "batch-2", build_timeline(fhd30, None, batch_every=2)
    yield "fbc-0.55", build_timeline(vr, 8, fbc_ratio=0.55)
    yield "psr-alternation", build_timeline(make_config("fhd", 30, psr_alternate=True), 6)
    yield "vr", build_timeline(vr, 6)
    for name in ("gaming", "conferencing", "productivity"):
        for scheme in (Scheme.BASELINE, Scheme.BURSTING_ONLY):
            cfg = make_config("4k", 60, scheme, kind=WorkloadKind.SINGLE_PLANE)
            trace = _bundled_trace(name)[:24]
            yield f"{name}-{scheme.value}", build_timeline(cfg, None, dirty_trace=trace)
    yield "one-window", build_timeline(get_preset("4k60").config, 1)


def test_exports_match_the_row_by_row_reference():
    cases = dict(_export_timelines())
    assert cases["one-window"].n_windows == 1
    assert any(len(tl.templates) > 1 for tl in cases.values())
    for case, tl in cases.items():
        assert export_text(timeline_to_csv, tl) == _ref_csv(tl), case
        assert export_text(timeline_to_svg, tl) == _ref_svg(tl), case


def test_exports_reject_template_rows_that_do_not_abut(monkeypatch):
    tl = build_timeline(make_config("fhd", 30, Scheme.BURSTLINK), 4)
    rows = list(tl.rows)
    first, *rest = rows[1]
    rows[1] = (first[:2] + (first[2] - 1,) + first[3:], *rest)  # end 1 ns early
    monkeypatch.setitem(vars(tl), "rows", tuple(rows))
    window = tl.window_template.index(1)
    for export in (timeline_to_csv, timeline_to_svg):
        with pytest.raises(ValueError, match=f"window {window}: rows do not abut"):
            export(tl, io.StringIO())


def test_exports_reject_a_template_whose_last_row_ends_short_of_the_window(monkeypatch):
    tl = build_timeline(make_config("fhd", 30, Scheme.BURSTLINK), 4)
    rows = list(tl.rows)
    *rest, last = rows[1]
    rows[1] = (*rest, last[:2] + (last[2] - 1,) + last[3:])  # end 1 ns early
    monkeypatch.setitem(vars(tl), "rows", tuple(rows))
    window = tl.window_template.index(1)
    for export in (timeline_to_csv, timeline_to_svg):
        with pytest.raises(ValueError, match=f"window {window}: rows do not abut"):
            export(tl, io.StringIO())


class _Recording(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def test_exports_write_nothing_when_rows_do_not_abut(monkeypatch):
    tl = build_timeline(make_config("fhd", 30, Scheme.BURSTLINK), 4)
    first, *rest = tl.rows[0]
    first = first[:1] + (1,) + first[2:]  # start at 1 ns
    monkeypatch.setitem(vars(tl), "rows", ((first, *rest), *tl.rows[1:]))
    for export in (timeline_to_csv, timeline_to_svg):
        out = _Recording()
        with pytest.raises(ValueError, match="window 0: rows do not abut"):
            export(tl, out)
        assert out.writes == [] and out.getvalue() == ""


@pytest.mark.parametrize("preset, run", [("fhd30", {"batch_every": 2}), ("4k60", {})],
                         ids=["fhd30-batch-2", "4k60"])
def test_exports_make_one_write_per_window(preset, run):
    # Work counts, not timings: the CSV writes its header and then one block
    # per window, the SVG its head, one block per window and its labels with
    # the legend, so doubling the run doubles only the per-window writes.
    for n in (30, 60):
        tl = build_timeline(get_preset(preset).config, n, **run)
        for export, fixed in ((timeline_to_csv, 1), (timeline_to_svg, 2)):
            out = _Recording()
            export(tl, out)
            assert len(out.writes) == fixed + n, (export.__name__, n)


def test_boundary_text_is_every_interval_start_and_the_run_end():
    for case, tl in _export_timelines():
        text, offsets = tl.boundary_text
        assert text == [str(iv.start_ns) for iv in tl.intervals] + [str(tl.total_ns)], case
        lengths = [len(tl.rows[t]) for t in tl.window_template]
        assert offsets == list(accumulate(lengths, initial=0))[:-1], case


def test_svg_words_need_no_escaping():
    words = {scheme.value for scheme in Scheme}
    for _, tl in _export_timelines():
        words |= {tpl.kind for tpl in tl.templates}
        words |= {iv.label for ivs in _template_intervals(tl) for iv in ivs}
    assert {"wake+decode", "fetch", "idle", "psr", "transfer"} <= words
    assert not any(set(word) & set("&<>\"'") for word in words)


@pytest.mark.parametrize("argv, preset, run", [
    (["--preset", "4k60"], "4k60", {}),
    (["--preset", "4k60-vr", "--fbc-ratio", "0.6"], "4k60-vr", {"fbc_ratio": 0.6}),
    (["--preset", "fhd30", "--batch-every", "3"], "fhd30", {"batch_every": 3}),
])
def test_simulate_writes_the_exports_the_api_writes(argv, preset, run, tmp_path, capsys):
    assert main(["simulate", *argv, "--windows", "24", "--out", str(tmp_path)]) == 0
    tl = build_timeline(get_preset(preset).config, 24, **run)
    for name, export, ref in (("timeline.csv", timeline_to_csv, _ref_csv),
                              ("timeline.svg", timeline_to_svg, _ref_svg)):
        written = (tmp_path / name).read_bytes()
        assert written == export_text(export, tl).encode() == ref(tl).encode(), name
