"""Analytic per-window package-state timelines for every display scheme.

A timeline is an exact tiling of refresh windows with intervals, each pinned
to one package state and carrying its share of DRAM and display-link traffic.
The knobs are resolved once per build into integers over one build tick of
1/Q seconds, in which every time and every rate's time per byte is a whole
number of ticks, so each interval boundary is an exact integer; it is
rounded to integer nanoseconds once.  The window end rounds to the window's
length in ns, so a recipe that tiles the window exactly tiles it in ns too.

Every window has one shape: a few wake-up records (wake, decode, projection)
followed by one transfer phase that runs to the window end.  The data
movement inside the phase follows a double-buffered producer/consumer
machine: a producer (DRAM fetch engine, video decoder, or GPU) fills fixed
size chunks of the display controller's buffer while a consumer (panel link)
drains them.  When the producer outpaces the consumer the window shows
fill/drain cycles (fetch bursts between quiet drain stretches); when the
consumer outpaces the producer the chunks stream back-to-back at the
producer's pace.  Two pacing modes exist:

* span-paced  -- the drain rate is whatever spreads the payload across the
                 remainder of the window (conventional streaming);
* rate-paced  -- the drain runs at the link's maximum rate and the window
                 ends in deep idle, the panel refreshing from its own frame
                 buffer (burst transfers).

Drain tails that would spill past a boundary are absorbed into the final
interval: the model keeps every window fully drained, trading sub-chunk
phasing fidelity for exact per-state totals.

Each distinct window is kept as a small template record: its wake-up
records (plain tuples over their own denominator), one transfer-phase
descriptor (every boundary an integer over one phase denominator) and its
kind.  The record is tallied when the timeline is built, in O(phases) and
not O(chunks): the records at the edges of a phase are rounded, checked and
tallied one by one, and the run of whole fill/drain chunk cycles between
them is tallied in closed form, as sums of rounded arithmetic progressions.
Pricing combines the tallies per (template, entry state) pair.  Rows are
expanded from the record, as plain tuples, only where rows are read -- the
CSV and SVG exports and ``WindowTimeline.intervals``, the one maker of
:class:`Interval` records -- once per template.  Each row boundary becomes
text once per timeline, for both exports; each stitches its windows from
text pieces formatted once per template and writes one block per window to
``out``, which the CLI opens with a large buffer.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TextIO

from .core import (
    BURST_WAKE_SHARE,
    CACHED_TRAFFIC_FRACTION,
    NS_PER_S,
    Record,
    Scheme,
    SimConfig,
    WorkloadKind,
    check_run_shape,
    dc_fetch_count,
    encoded_frame_bytes,
    frame_bytes,
    frame_window_ns,
    selective_update_bytes,
    windows_per_frame,
)
from .cstates import PackageCState


class Interval(NamedTuple):
    """One contiguous stretch of a single package state, in absolute ns.

    ``window`` indexes the refresh window the interval belongs to and
    ``kind`` is that window's role (transfer/repeat/update/idle).  Byte
    counters attribute traffic to the interval; the three flags mark when a
    power adder applies (panel-side frame buffer refresh, GPU projection,
    frame-buffer compression).  The fields after ``kind`` are a template row
    (:attr:`WindowTimeline.rows`) with its times offset by the window start.
    """

    window: int
    kind: str
    state: PackageCState
    start_ns: int
    end_ns: int
    label: str
    dram_read_bytes: int
    dram_write_bytes: int
    edp_bytes: int
    drfb_active: bool
    gpu_active: bool
    fbc_active: bool


class TimelineTotals(NamedTuple):
    """Integer tally of a multiset of windows, all that pricing needs: time
    per state, bytes, time under each adder, and state changes in order."""

    state_spans_ns: dict[PackageCState, int]
    dram_read_bytes: int
    dram_write_bytes: int
    edp_bytes: int
    drfb_ns: int
    gpu_ns: int
    fbc_ns: int
    transitions: dict[tuple[PackageCState, PackageCState], int]


class _Phase(NamedTuple):
    """One transfer phase: chunks of a payload fill the display controller's
    buffer at one rate while the link drains them at another.

    Times are integers over the phase denominator ``D`` seconds, relative to
    the window start: the start ``s``, the hard end ``h``, and the fill and
    drain durations of a full chunk and of the tail chunk.  ``D`` is the
    build tick's ``Q`` times the denominator of the drain's ticks per byte,
    not necessarily the least denominator: every use of the times compares
    or rounds ratios, which scaling leaves alone.  ``n`` counts the
    chunks (0 for an empty payload); ``producer`` marks fills that stream
    back-to-back at the producer's pace; ``span_mode`` marks span pacing.
    """

    s: int
    h: int
    fill_full: int
    fill_tail: int
    drain_full: int
    drain_tail: int
    D: int
    n: int
    chunk: int
    payload: int
    producer: bool
    span_mode: bool
    fill_state: PackageCState
    drain_state: PackageCState
    fill_label: str
    drain_label: str
    read_total: int
    gpu_fill: bool


class Template(NamedTuple):
    """One distinct window: its wake-up records, its transfer phase (None if
    the wake-up records fill the window), and what the build derived from
    them -- the states its first and last rows are in and its tally."""

    kind: str
    link_bytes: int
    wake: tuple[tuple, ...]
    phase: _Phase | None
    first: PackageCState
    last: PackageCState
    totals: TimelineTotals


class WindowTimeline(Record):
    """Interval tiling of refresh windows for one scheme.

    Windows built from the same recipe (kind, decodes, update bytes) are
    identical once rounded, because rounding is relative to the window
    start.  Each distinct window is therefore stored once, in ``templates``,
    and ``window_template`` gives the template of every window.  Pricing
    combines the templates' tallies; ``rows`` and ``intervals`` expand the
    rows for export, on demand.
    """

    scheme: Scheme
    window_ns: int
    templates: tuple[Template, ...]
    window_template: tuple[int, ...]

    @property
    def n_windows(self) -> int:
        return len(self.window_template)

    @property
    def total_ns(self) -> int:
        return self.window_ns * self.n_windows

    @cached_property
    def rows(self) -> tuple[tuple[tuple, ...], ...]:
        """Each template's rows, with window-relative times, expanded once:
        immutable tuples ``(state, start_ns, end_ns, label, read, write, edp,
        drfb, gpu, fbc)`` that every window using the template shares."""
        return tuple(_expand(t, self.window_ns) for t in self.templates)

    @cached_property
    def boundary_text(self) -> tuple[list[str], list[int]]:
        """Every row boundary as absolute-ns text (windows share their edges)
        and each window's offset into it.  Raises ValueError, naming the first
        window of a template whose rows do not abut each other and its edges."""
        starts = [[row[1] for row in rows] for rows in self.rows]
        for t, (s, rows) in enumerate(zip(starts, self.rows)):
            if [*s, self.window_ns] != [0, *(row[2] for row in rows)]:
                raise ValueError(f"window {self.window_template.index(t)}: rows do not abut")
        text, offsets = [], []
        for base, t in zip(range(0, self.total_ns, self.window_ns), self.window_template):
            offsets.append(len(text))
            text += [str(base + s) for s in starts[t]]
        text.append(str(self.total_ns))
        return text, offsets

    @property
    def intervals(self) -> tuple[Interval, ...]:
        """Every window's rows as :class:`Interval` records, in order."""
        out: list[Interval] = []
        rows = self.rows
        for w, t in enumerate(self.window_template):
            base, kind = w * self.window_ns, self.templates[t].kind
            out.extend(Interval(w, kind, row[0], base + row[1], base + row[2], *row[3:])
                       for row in rows[t])
        return tuple(out)

    @property
    def window_pairs(self) -> list[tuple[int, PackageCState | None]]:
        """Each window's template and the state the previous window ended in
        (None for the first window)."""
        ends = [self.templates[t].last for t in self.window_template]
        return list(zip(self.window_template, [None, *ends[:-1]]))

    def check_coverage(self) -> None:
        """Raise ValueError, naming the first window that uses the template,
        unless every distinct window tiles [0, window] exactly (no gaps,
        overlaps or empty intervals), its traffic rides only on states that can
        move it, and its record still holds the tally its wake-up records and
        phase give.  The build makes the same check as it tallies each template."""
        for t, tpl in enumerate(self.templates):
            try:
                if _template(*tpl[:4], self.window_ns) != tpl:
                    raise ValueError("template tally disagrees with its records")
            except ValueError as exc:
                raise ValueError(f"window {self.window_template.index(t)}: {exc}") from None


#: States in which each traffic type may legitimately appear.  DRAM reads on
#: C7 cover the direct-feed paths (encoded-stream and projection-source reads
#: folded into the decoder-active state), although ``cstates.STATE_DRAM_MODE``
#: prices C7's DRAM as ``self_refresh``.  The sets are written by hand because
#: they are the independent rule that ``check_coverage`` holds the recipe to:
#: derived from the states the recipe and phase emit traffic on, the check
#: would pass by construction.
_READ_STATES = {PackageCState.C0, PackageCState.C2, PackageCState.C7}
_WRITE_STATES = {PackageCState.C0, PackageCState.C2}
_LINK_SILENT_STATES = {PackageCState.C9, PackageCState.C10}
#: Zero time in every state, in declaration order (reports follow it).
_NO_SPANS: dict[PackageCState, int] = dict.fromkeys(PackageCState, 0)


def timeline_totals(
    timeline: WindowTimeline,
    pairs: Mapping[tuple[int, PackageCState | None], int] | None = None,
) -> TimelineTotals:
    """Tally windows given as (template, state the previous window ended in)
    pairs with their counts, as each template's tally times its count.  The
    change into a window's first state is counted for that window, before
    the template's own changes.  ``pairs`` defaults to every window of the
    timeline (:attr:`WindowTimeline.window_pairs`), counted in order, so the
    changes keep their order of first occurrence along the timeline."""
    if pairs is None:
        pairs = Counter(timeline.window_pairs)
    spans = _NO_SPANS.copy()
    changes: dict[tuple[PackageCState, PackageCState], int] = {}
    read = write = edp = drfb = gpu = fbc = 0
    for (t, prev), m in pairs.items():
        tpl = timeline.templates[t]
        tally, first = tpl.totals, tpl.first
        if prev is not None and prev is not first:
            changes[(prev, first)] = changes.get((prev, first), 0) + m
        for change, c in tally.transitions.items():
            changes[change] = changes.get(change, 0) + c * m
        for state, ns in tally.state_spans_ns.items():
            spans[state] += ns * m
        read += tally.dram_read_bytes * m
        write += tally.dram_write_bytes * m
        edp += tally.edp_bytes * m
        drfb += tally.drfb_ns * m
        gpu += tally.gpu_ns * m
        fbc += tally.fbc_ns * m
    return TimelineTotals(spans, read, write, edp, drfb, gpu, fbc, changes)


# -- window construction ------------------------------------------------------

# A record is a plain tuple ``(state, start, end, den, label, read, write,
# gpu, fbc, drfb, streams)`` made while assembling a window.  Times are exact:
# integer numerators over ``den`` seconds, relative to the window start.  A
# wake-up record counts build ticks (``den`` is the build's ``Q``); the
# records of one transfer phase share the phase's denominator.  So each
# boundary costs integer multiplies, adds and compares, and no rational number
# is built per window.  ``streams`` marks a record eligible to carry link
# traffic.


def _phase(
    s: int,
    h: int,
    Q: int,
    payload: int,
    chunk: int,
    fill_tpb: int,
    drain: tuple[int, int] | None,
    fill_state: PackageCState,
    drain_state: PackageCState,
    fill_label: str,
    drain_label: str,
    fill_read_total: int = 0,
    gpu_fill: bool = False,
) -> _Phase | None:
    """Describe one transfer phase over [s, h] build ticks of 1/Q seconds
    (None if it is empty); :func:`_phase_records` emits its records.

    A fill moves a byte in ``fill_tpb`` ticks.  ``drain`` of None selects
    span pacing: the payload is spread over [s, h] and any time left over
    stays in the drain state.  Otherwise the drain moves a byte in A/B ticks
    for ``drain = (A, B)`` and, once the last chunk is handed over, the phase
    idles in C9 while the panel refreshes from its own frame buffer.  The
    fills read ``fill_read_total`` between them.
    """
    if s >= h:
        return None
    n = dc_fetch_count(payload, chunk) if payload > 0 else 0
    A, B = (h - s, payload) if drain is None else drain
    rest = (n, chunk, payload, fill_tpb * B >= A, drain is None, fill_state, drain_state,
            fill_label, drain_label, fill_read_total, gpu_fill)
    if not n:
        return _Phase(s, h, 0, 0, 0, 0, Q, *rest)
    # Every boundary of the phase is the start plus whole fill and drain
    # durations of full and tail chunks, so over D = Q * B all of them are
    # integers.
    g = gcd(A, B)
    A, B = A // g, B // g
    fill, tail = fill_tpb * B, payload - (n - 1) * chunk
    return _Phase(s * B, h * B, chunk * fill, tail * fill, chunk * A, tail * A, Q * B, *rest)


def _phase_records(ph: _Phase, body: int = 0) -> list[tuple]:
    """Emit the fill/drain cycle records of one transfer phase, as tuples
    over the phase denominator; together they tile [start, hard_end].

    Each fill reads its chunk's share of the read total by cumulative
    flooring.  Records are clipped to the hard end as they are emitted: the
    record that reaches it is cut there and takes the reads of every chunk
    after it, which are considered drained (the window never carries debt
    into the next one).  A ``body`` of m (see :func:`_body`) emits chunks
    3..m as one record: their merged fills when the phase is producer-bound,
    else a record of state None that stands for their fill/drain cycles.
    """
    (s, h, fill_full, fill_tail, drain_full, drain_tail, D, n, chunk, payload,
     producer, span_mode, fill_state, drain_state, fill_label, drain_label,
     total, gpu_fill) = ph
    recs: list[tuple] = []
    # Reads handed to the fills so far; a record that reaches ``h`` is cut
    # there, takes every read still unhanded and ends the phase.
    handed = 0
    if not n:
        phase_end = s
    elif producer:
        # Producer-bound: chunks stream back-to-back at the producer's pace;
        # the consumer keeps up in lockstep, so there are no drain-only gaps.
        t, i = s, 1
        while i <= n:
            last = body if i == 3 and body else i  # the last chunk this record fills
            e = s + last * fill_full if last < n else t + fill_tail
            cut = total * last * chunk // payload if last < n and e < h else total
            recs.append((fill_state, t, e if e < h else h, D, fill_label, cut - handed, 0,
                         gpu_fill, False, False, True))
            if e >= h:
                return recs
            handed, t, i = cut, e, last + 1
        phase_end = t
    else:
        # Consumer-bound: the first two fills land back-to-back (the drain
        # cannot start before the first chunk exists), then each later fill
        # waits for a buffer slot, i.e. for the chunk two places ahead of it
        # to finish draining.  The drain runs without a stall from the end
        # of the first fill, so full chunk j drains by
        # drain_start + (j + 1) * drain_full.
        drain_start = s + (fill_full if n > 1 else fill_tail)
        t = fill_start = s
        i = 1
        while i <= n:
            if i == 3 and body:
                cut = total * body * chunk // payload
                e = drain_start + (body - 2) * drain_full + fill_full
                recs.append((None, t, e, D, fill_label, cut - handed, 0, gpu_fill, False,
                             False, True))
                handed, t, i = cut, e, body + 1
                fill_start = drain_start + (body - 1) * drain_full
                continue
            if fill_start > t:
                if fill_start >= h:
                    recs.append((drain_state, t, h, D, drain_label, total - handed, 0,
                                 False, False, False, True))
                    return recs
                recs.append((drain_state, t, fill_start, D, drain_label, 0, 0,
                             False, False, False, True))
            t = fill_start + (fill_full if i < n else fill_tail)
            cut = total * i * chunk // payload if i < n and t < h else total
            recs.append((fill_state, fill_start, t if t < h else h, D, fill_label,
                         cut - handed, 0, gpu_fill, False, False, True))
            if t >= h:
                return recs
            handed, fill_start = cut, drain_start + (i - 1) * drain_full
            i += 1
        phase_end = drain_start + (n - 1) * drain_full + drain_tail
        if phase_end > t:
            recs.append((drain_state, t, min(phase_end, h), D, drain_label, 0, 0,
                         False, False, False, True))
    if phase_end < h:
        pad_state, pad_label = ((drain_state, drain_label) if span_mode
                                else (PackageCState.C9, "idle"))
        recs.append((pad_state, phase_end, h, D, pad_label, 0, 0, False, False,
                     not span_mode, span_mode))
    return recs


def _body(ph: _Phase) -> int:
    """The last chunk m of the phase's body, chunks 3..m, or 0 if it has none.

    The body is every whole chunk after the first two whose fill ends before
    the hard end.  Its records need no rounding one by one: each of them
    spans more than 1 ns (a fill, and a drain gap when consumer-bound), so
    each survives rounding and nothing is carried across it, and its states
    can carry the traffic it moves, so it cannot fail a check.
    """
    s, h, fill_full, _, drain_full, _, D, n = ph[:8]
    if (n < 4 or fill_full * NS_PER_S <= D or ph.fill_state not in _READ_STATES
            or {ph.fill_state, ph.drain_state} & _LINK_SILENT_STATES):
        return 0
    if ph.producer:
        m = -(-(h - s) // fill_full) - 1
    elif (drain_full - fill_full) * NS_PER_S <= D:
        return 0
    else:
        # Chunk i's fill starts at s + fill_full + (i - 2) * drain_full.
        m = -(-(h - s - 2 * fill_full) // drain_full) + 1
    m = min(m, n - 1)
    return m if m >= 3 else 0


class _Knobs(NamedTuple):
    """Resolved per-build quantities shared by all windows, as integers over
    one build tick of 1/Q seconds: times in ticks, rates in ticks per byte."""

    Q: int  # build ticks per second
    W: int  # window period, ticks
    F: int  # frame bytes
    E: int  # encoded-stream bytes per frame
    chunk: int
    o: int  # conventional wake-up, ticks
    o_b: int  # short (hardware-assisted) wake-up, ticks
    f: int  # decode, ticks per byte
    b: int  # DRAM fetch, ticks per byte
    p: int  # decoder direct-feed pacing, ticks per byte
    e_B: int  # link at its max rate, ticks per byte
    gpu: int  # GPU projection, ticks per byte
    group: int  # windows per video frame
    disp: int  # display-buffer bytes per window (after fbc/batching cuts)
    fbc_on: bool


def _knobs(cfg: SimConfig, fbc_ratio: float, traffic_cut: float) -> _Knobs:
    """The build's knobs over the least tick Q that makes every time a whole
    number of ticks and every rate's time per byte too.  The configs hold
    ints and floats, each read as its exact ratio in lowest terms."""
    disp_cfg, sys_cfg = cfg.display, cfg.system
    F = frame_bytes(disp_cfg.resolution, disp_cfg.bits_per_pixel)
    hz, burst_o = disp_cfg.refresh_hz, sys_cfg.burst_orchestration_time
    share_num, share_den = BURST_WAKE_SHARE
    times = ((1, hz), sys_cfg.orchestration_time.as_integer_ratio(),
             _lowest(share_num, share_den * hz) if burst_o is None
             else burst_o.as_integer_ratio())
    edp_num, edp_den = disp_cfg.edp_max_bits_per_s.as_integer_ratio()
    rates = (*(r.as_integer_ratio() for r in (sys_cfg.decode_rate, sys_cfg.dram_fetch_rate,
                                               sys_cfg.vd_paced_rate or sys_cfg.decode_rate)),
             _lowest(edp_num, edp_den * 8), sys_cfg.gpu_pt_rate.as_integer_ratio())
    Q = lcm(*(den for _, den in times), *(num for num, _ in rates))
    W, o, o_b = (Q // den * num for num, den in times)
    f, b, p, e_B, gpu = (Q // num * den for num, den in rates)
    return _Knobs(
        Q=Q, W=W, F=F,
        E=encoded_frame_bytes(disp_cfg.resolution, sys_cfg.encoded_bits_per_pixel),
        chunk=sys_cfg.dc_buffer_bytes, o=o, o_b=o_b, f=f, b=b, p=p, e_B=e_B, gpu=gpu,
        group=windows_per_frame(cfg),
        disp=round(F * fbc_ratio * traffic_cut), fbc_on=fbc_ratio != 1.0,
    )


def _lowest(num: int, den: int) -> tuple[int, int]:
    g = gcd(num, den)
    return num // g, den // g


def _recipe(k: _Knobs, scheme: Scheme, kind: str, decodes: int, link_bytes: int,
            vr: bool, psr_alt: bool) -> tuple[tuple[tuple, ...], _Phase | None]:
    """One window (times relative to the window start), with link bytes not
    yet assigned: its wake-up records, and the transfer phase that runs from
    them to the window end.

    Windows that drive the panel at its native rate (the plain scheme, and
    transfer windows of the direct-feed scheme) wake up conventionally and
    stream for the rest of the window; every other window takes the short
    wake-up, bursts at the link's peak rate and idles.  ``decodes`` counts
    the frames the plain scheme decodes in this window.
    """
    Q, W = k.Q, k.W
    if scheme is Scheme.BASELINE and kind == "repeat" and psr_alt:
        return ((PackageCState.C9, 0, W, Q, "psr", 0, 0, False, False, True, False),), None
    stream = scheme is Scheme.BASELINE or (scheme is Scheme.BYPASS_ONLY
                                           and kind == "transfer")
    # The decoder (or, for VR, the GPU) feeds the DC buffer directly.
    feed = kind == "transfer" and scheme.uses_bypass
    if scheme is not Scheme.BASELINE and kind == "transfer" and (vr or not feed):
        decodes = 1  # the frame is decoded into DRAM first
    t = (k.o if stream else k.o_b) + decodes * k.F * k.f
    recs = [(PackageCState.C0, 0, min(t, W), Q, "wake+decode" if decodes else "wake",
             decodes * k.E, decodes * (k.F if vr else k.disp), False,
             bool(decodes) and k.fbc_on and not vr, False, stream)]
    if vr and decodes and not feed:
        # The GPU re-projects the decoded frame into DRAM.  Wake-up records
        # are clipped to the window: one that starts past its end is dropped.
        t_pt = t + decodes * k.F * k.gpu
        if t < W:
            recs.append((PackageCState.C0, t, min(t_pt, W), Q, "project", decodes * k.F,
                         decodes * k.disp, True, k.fbc_on, False, True))
        t = t_pt
    if feed:
        fill_state, drain_state, payload = PackageCState.C7, PackageCState.C7P, k.F
        fill_tpb, fill_label, read = ((k.gpu, "project-feed", k.F) if vr
                                      else (k.p, "decode-feed", k.E))
    else:
        # The DC fetches from DRAM: the (compressed, batching-cut) display
        # buffer of a video frame, or a single plane's update as it is.
        fill_state, drain_state = PackageCState.C2, PackageCState.C8
        payload = k.disp if kind in ("transfer", "repeat") and link_bytes else link_bytes
        fill_tpb, fill_label, read = k.b, "fetch", payload
    # Fetched bytes leave the link as ``link_bytes``, so a compressed fetch
    # drains proportionally slower in fetched-byte units.
    drain = (None if stream
             else (k.e_B * link_bytes, payload) if payload else (k.e_B, 1))
    return tuple(recs), _phase(
        min(t, W), W, Q, payload, k.chunk, fill_tpb, drain, fill_state, drain_state,
        fill_label, "stream" if stream else "burst", fill_read_total=read,
        gpu_fill=feed and vr,
    )


def build_timeline(
    cfg: SimConfig,
    n_windows: int | None = None,
    *,
    fbc_ratio: float = 1.0,
    batch_every: int = 1,
    cached_traffic_fraction: float = CACHED_TRAFFIC_FRACTION,
    dirty_trace: Sequence[float] | None = None,
) -> WindowTimeline:
    """Construct the exact interval timeline for ``n_windows`` refresh windows.

    ``fbc_ratio`` scales the display-bound frame buffer (compressed writes and
    fetches); ``batch_every`` decodes that many frames ahead in one window and
    cuts the cached buffer traffic by ``cached_traffic_fraction``;
    ``dirty_trace`` drives single-plane workloads (one dirty fraction per
    window).  Defaults leave the plain scheme untouched.

    :func:`~framewatt.core.check_run_shape` alone decides whether the run
    exists.  ``n_windows`` defaults to one batch cycle (``batch_every``
    frame groups); a dirty trace sets its own length, which ``n_windows``
    may only restate.
    """
    n = check_run_shape(cfg, n_windows, fbc_ratio, batch_every, cached_traffic_fraction,
                        dirty_trace)
    wl = cfg.workload
    scheme = wl.scheme
    cut = (1.0 - cached_traffic_fraction) if batch_every > 1 else 1.0
    k = _knobs(cfg, fbc_ratio, cut)

    vr = wl.kind is WorkloadKind.VR360
    plane = wl.kind is WorkloadKind.SINGLE_PLANE
    psr_alt = wl.psr_alternate_windows

    # A window is fully determined by (kind, decodes, link bytes); each
    # distinct key is built and tallied once.
    W_ns = frame_window_ns(cfg.display.refresh_hz)
    templates: list[Template] = []
    index: dict[tuple[str, int, int], int] = {}
    window_template: list[int] = []
    for w in range(n):
        if plane:
            dirty = float(dirty_trace[w])  # type: ignore[index]
            update = selective_update_bytes(k.F, dirty)
            if scheme is Scheme.BASELINE:
                key = ("update", 0, k.F)
            else:
                key = ("update" if update > 0 else "idle", 0, update)
        else:
            is_transfer = w % k.group == 0
            decodes = 0
            if (is_transfer and scheme is Scheme.BASELINE
                    and (w // k.group) % batch_every == 0):
                decodes = batch_every
            restream = scheme is Scheme.BASELINE and not psr_alt
            link_bytes = k.F if is_transfer or restream else 0
            key = ("transfer" if is_transfer else "repeat", decodes, link_bytes)
        t = index.get(key)
        if t is None:
            t = index[key] = len(templates)
            try:
                templates.append(_template(key[0], key[2],
                                           *_recipe(k, scheme, *key, vr, psr_alt), W_ns))
            except ValueError as exc:
                raise ValueError(f"window {w}: {exc}") from None
        window_template.append(t)

    return WindowTimeline(scheme=scheme, window_ns=W_ns, templates=tuple(templates),
                          window_template=tuple(window_template))


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """``sum((a * i + b) // m for i in range(n))`` for ``m > 0`` and
    ``a, b >= 0``, in O(log m) steps (``floor_sum`` of the AtCoder Library,
    https://github.com/atcoder/ac-library/blob/master/document_en/math.md)."""
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y = a * n + b
        if y < m:
            return total
        n, b = divmod(y, m)
        m, a = a, m


def _round_sum(a: int, p: int, k: int, D: int) -> int:
    """``sum(round((a + i * p) * NS_PER_S / D) for i in range(k))`` with each
    quotient taken exactly, for ``a, p >= 0``: the sum rounding half up, less
    the exact ties whose floor is even, which round down instead."""
    n2 = 2 * NS_PER_S
    up = _floor_sum(k, 2 * D, n2 * p, n2 * a + D)
    # (a + i * p) * NS_PER_S is an even integer plus a half times D exactly
    # when 2 * (a + i * p) * NS_PER_S + 3 * D is a multiple of 4 * D, which
    # no i makes it unless the step's gcd with 4 * D divides the offset.
    c = n2 * a + 3 * D
    if c % gcd(n2 * p, 4 * D):
        return up
    return up - _floor_sum(k, 4 * D, n2 * p, c) + _floor_sum(k, 4 * D, n2 * p, c - 1)


def _records(wake: tuple[tuple, ...], phase: _Phase | None, body: int = 0) -> list[tuple]:
    """A window's records: its wake-up records, then its phase's."""
    return [*wake, *_phase_records(phase, body)] if phase else list(wake)


def _round_records(recs: list[tuple], W_ns: int, link_bytes: int) -> list[tuple]:
    """Round one window's records to integer ns (relative to the window
    start) and assign link traffic: the rows that survive, as ``(state,
    start_ns, end_ns, label, read, write, edp, drfb, gpu, fbc)``.

    One pass checks that the records abut exactly and none runs backwards
    (exact rational times: rounding only quantizes shared boundaries, it
    never papers over gaps), rounds each end half-to-even and checks that
    the last lands on the window end, gives the reads and writes of a
    record that rounds to nothing back to the last kept rows that can move
    them (if there is none, the record keeps 1 ns), and sums the streaming
    spans; a second pass splits ``link_bytes`` over those spans by
    cumulative flooring, or, if every streaming record rounded to nothing,
    gives them to the last kept row that can carry them.
    """
    kept: list[list] = []
    cursor, cursor_den = 0, 1
    prev_ns = streaming = 0
    for state, start, end, den, label, read, write, gpu, fbc, drfb, streams in recs:
        if (start != cursor if den == cursor_den else start * cursor_den != cursor * den):
            raise ValueError(
                f"coverage gap: window recipe left a gap at {cursor / cursor_den} s")
        cursor, cursor_den = end, den
        q, r = divmod(end * NS_PER_S, den)
        end_ns = q + (2 * r > den or (2 * r == den and q & 1))
        if end_ns <= prev_ns:  # rounding must not reverse an edge
            if end < start:  # only a record that rounds to nothing can run backwards
                raise ValueError(f"coverage overlap: window recipe runs back to {end / den} s")
            # Its traffic goes back to the last kept rows that can move it, if any.
            reader = read and next((row for row in reversed(kept) if row[0] in _READ_STATES), 0)
            writer = write and next((row for row in reversed(kept) if row[0] in _WRITE_STATES), 0)
            if (reader or not read) and (writer or not write):
                if read:
                    reader[4] += read
                if write:
                    writer[5] += write
                continue
            end_ns = prev_ns + 1
        kept.append([state, prev_ns, end_ns, label, read, write, streams, drfb, gpu, fbc])
        if streams:
            streaming += end_ns - prev_ns
        prev_ns = end_ns
    # Rounded ends never decrease, so the last kept row ends where the last record does.
    if prev_ns != W_ns:
        raise ValueError(f"coverage gap: window recipe ends at {cursor / cursor_den} s")
    cum = handed = 0
    for row in kept:
        edp = 0
        if row[6] and streaming:
            cum += row[2] - row[1]
            edp = link_bytes * cum // streaming - handed
            handed += edp
        row[6] = edp
    if link_bytes and not streaming:  # every streaming record rounded to nothing
        for row in reversed(kept):
            if row[0] not in _LINK_SILENT_STATES:
                row[6] = link_bytes
                break
    return kept


def _expand(tpl: Template, W_ns: int) -> tuple[tuple, ...]:
    """A template's rows, every record rounded one by one."""
    return tuple(map(tuple, _round_records(_records(tpl.wake, tpl.phase), W_ns, tpl.link_bytes)))


def _template(kind: str, link_bytes: int, wake: tuple[tuple, ...], phase: _Phase | None,
              W_ns: int) -> Template:
    """Check and tally one window's records without expanding its body.

    The records are rounded as :func:`_expand` rounds them, except
    the phase body (:func:`_body`), which stays one row.  One walk over
    the rows checks that traffic rides only on states that can move it and
    tallies them; the body's fill and drain spans are sums of rounded
    arithmetic progressions, and each of its cycles changes state twice.
    Raises ValueError naming the offending row.
    """
    m = _body(phase) if phase else 0
    rows = _round_records(_records(wake, phase, m), W_ns, link_bytes)
    spans = _NO_SPANS.copy()
    changes: dict[tuple[PackageCState, PackageCState], int] = {}
    read = write = edp = drfb = gpu = fbc = 0
    prev = None
    for state, start, end, _, r, w, e, d, g, f in rows:
        span = end - start
        if state is None:  # the consumer-bound body: chunk cycles 3..m
            state, drain, fill_ns = _cycles_fill_ns(phase, m)  # type: ignore[arg-type]
            spans[drain] += span - fill_ns
            span = fill_ns
            if drain is not state:
                changes[(state, drain)] = changes.get((state, drain), 0) + m - 2
                changes[(drain, state)] = changes.get((drain, state), 0) + m - 2
        else:
            if r and state not in _READ_STATES:
                raise ValueError(f"DRAM read bytes on {state} at {start} ns")
            if w and state not in _WRITE_STATES:
                raise ValueError(f"DRAM write bytes on {state} at {start} ns")
            if e and state in _LINK_SILENT_STATES:
                raise ValueError(f"link bytes on {state} at {start} ns")
            if prev is not None and prev is not state:
                changes[(prev, state)] = changes.get((prev, state), 0) + 1
        spans[state] += span
        read += r
        write += w
        edp += e
        drfb += span * d
        gpu += span * g
        fbc += span * f
        prev = state
    totals = TimelineTotals(spans, read, write, edp, drfb, gpu, fbc, changes)
    return Template(kind, link_bytes, wake, phase, rows[0][0], prev, totals)


def _cycles_fill_ns(ph: _Phase, m: int) -> tuple[PackageCState, PackageCState, int]:
    """The fill and drain states of a consumer-bound body, chunk cycles
    3..m, and its rounded fill time.  Chunk i's fill spans [a_i, a_i +
    fill_full] with a_i = s + fill_full + (i - 2) * drain_full, and its
    drain gap ends at a_i, so the fill time is a sum of rounded ends less a
    sum of rounded starts, each over an arithmetic progression."""
    a = ph.s + ph.fill_full + ph.drain_full
    fill_ns = (_round_sum(a + ph.fill_full, ph.drain_full, m - 2, ph.D)
               - _round_sum(a, ph.drain_full, m - 2, ph.D))
    return ph.fill_state, ph.drain_state, fill_ns


# -- exports -----------------------------------------------------------------

CSV_HEADER = ",".join(Interval._fields)


def _stitch(timeline: WindowTimeline, cells: Callable, keys: Iterable[str], head: str,
            out: TextIO) -> None:
    """Write ``head``, then each window stitched from its template's pieces.

    ``cells(kind, row)`` gives a template row's fixed text around its three slots
    (the window's key from ``keys``, then the row's absolute start and end)
    as ``(before_key, key_to_start, start_to_end, after_end)``; the start and
    end are sliced from :attr:`WindowTimeline.boundary_text`, which raises
    ValueError before ``head`` is written if a template's rows do not abut.
    """
    text, offsets = timeline.boundary_text
    layouts = []
    for tpl, rows in zip(timeline.templates, timeline.rows):
        parts = [""]  # a row's head is joined onto the piece before it
        for row in rows:
            before, mid, sep, tail = cells(tpl.kind, row)
            parts[-1] += before
            parts += ("", mid, "", sep, "", tail)
        layouts.append((parts, len(rows)))
    out.write(head)
    for t, key, i in zip(timeline.window_template, keys, offsets):
        parts, k = layouts[t]
        parts[1::6] = [key] * k
        parts[3::6] = text[i:i + k]
        parts[5::6] = text[i + 1:i + k + 1]
        out.write("".join(parts))


def timeline_to_csv(timeline: WindowTimeline, out: TextIO) -> None:
    """Write the rows as CSV to ``out``."""
    # Each template's rows are formatted once; see _stitch for the windows.
    def cells(kind: str, row: tuple) -> tuple[str, str, str, str]:
        state, _, _, label, read, write, edp, drfb, gpu, fbc = row
        return ("", f",{kind},{state},", ",", f",{label},{read},{write},{edp},"
                f"{int(drfb)},{int(gpu)},{int(fbc)}\n")

    _stitch(timeline, cells, map(str, range(timeline.n_windows)), CSV_HEADER + "\n", out)


_STATE_COLORS = {
    PackageCState.C0: "#d94141",
    PackageCState.C2: "#e8893c",
    PackageCState.C3: "#d4b42e",
    PackageCState.C6: "#b8c42e",
    PackageCState.C7: "#56a845",
    PackageCState.C7P: "#3f9c7a",
    PackageCState.C8: "#3d7fc4",
    PackageCState.C9: "#5950b8",
    PackageCState.C10: "#444455",
}


def timeline_to_svg(timeline: WindowTimeline, out: TextIO) -> None:
    """Write the timeline to ``out`` as a self-contained Gantt-style SVG.

    One row per refresh window, blocks colored by package state, with a
    legend; pure text output with no plotting dependencies.  Its words (scheme,
    window kinds, row labels) hold no markup characters, so none are escaped.
    """
    width, row_h, gap, left, top, legend_h = 1000, 26, 6, 70, 30, 40
    n = timeline.n_windows
    height = top + n * (row_h + gap) + legend_h
    sx = (width - left - 10) / timeline.window_ns

    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<text x="{left}" y="16">package-state timeline: '
        f"{timeline.scheme.value}, {n} windows of "
        f"{timeline.window_ns / 1e6:.3f} ms</text>\n"
    )

    # Block geometry is window-relative, so each template's blocks are
    # formatted once; windows add only their row and boundaries (see _stitch).
    def cells(kind: str, row: tuple) -> tuple[str, str, str, str]:
        state, start, end, label = row[:4]
        return (f'<rect x="{left + start * sx:.2f}" y="',
                f'" width="{max((end - start) * sx, 0.5):.2f}" height="{row_h}" '
                f'fill="{_STATE_COLORS[state]}"><title>{label} '
                f"{state} [", "-", "] ns</title></rect>\n")

    ys = range(top, top + n * (row_h + gap), row_h + gap)
    _stitch(timeline, cells, map(str, ys), head, out)
    parts = [f'<text x="4" y="{y + row_h - 8}">w{w} {timeline.templates[t].kind[:4]}</text>'
             for w, (t, y) in enumerate(zip(timeline.window_template, ys))]
    lx = left
    ly = top + n * (row_h + gap) + 16
    for state, color in _STATE_COLORS.items():
        parts.append(f'<rect x="{lx}" y="{ly - 10}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{lx + 16}" y="{ly}">{state}</text>')
        lx += 64
    parts.append("</svg>")
    out.write("\n".join(parts))
