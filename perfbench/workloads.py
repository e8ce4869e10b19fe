"""Workload definitions: seeded inputs and the operations each pass runs.

Every workload is a closed loop in one process: operations run one after
another, each starting when the previous one has returned.  The seed only
chooses inputs; the program under test never sees it.

Overlay knobs (compression ratio, batch size) are drawn from small discrete
sets, so every input a seed can produce has a recorded output digest in
``digests.json``.  Dirty-screen traces are continuous, so only the seeds
listed there have trace digests; other seeds fall back to invariant checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

WORKLOADS = ("video-export", "ui-traces", "grid-check")
DEFAULT_SEED = 0

FBC_RATIOS = (0.5, 0.55, 0.6, 0.65, 0.7)
BATCH_SIZES = (2, 3, 4, 5)

# Lengths keep one pass at 2-4 s on a 2-CPU host, so a 30 s run makes six or
# more fresh launches and its medians are not left to two or three of them.  The per-window breakdown, the SVG export and the per-chunk timeline
# recipe still dominate video-export at these lengths; the scaling probes
# below show their growth at longer ones.
VIDEO_WINDOWS = {"4k60": 150, "4k60-burstlink": 150, "4k60-vr": 200, "fhd30": 600}
TRACE_WINDOWS = 200
TRACE_SHAPES = ("gaming", "conferencing", "productivity")
TRACE_DIGEST_SEEDS = 21  # ui-traces report digests are recorded for seeds 0-20
PRESET_CHECK_WINDOWS = 600
PRESET_CHECKS = ("fhd30", "fhd30-ref-burstlink")

# Scaling probes of the traced run: one video-export config and one
# ui-traces shape at N and 2N windows.
PROBE_VIDEO_WINDOWS = 600
PROBE_TRACE_WINDOWS = 200


@dataclass(frozen=True)
class CliOp:
    """One ``framewatt`` invocation through ``cli.main``.

    ``out`` is the relative output directory (None when the command writes
    nothing); ``windows`` is the number of refresh windows the command asks
    the model to price, or None when it is read back from the outputs.
    """

    name: str
    argv: tuple[str, ...]
    out: str | None
    windows: int | None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class PlaneOp:
    """One ``scenarios.single_plane_burst`` call on a 4K 60 Hz panel."""

    name: str
    trace: tuple[float, ...]

    @property
    def windows(self) -> int:
        return 2 * len(self.trace)  # the burst and the streaming timeline


def draw_overlays(workload: str, seed: int) -> tuple[float, int]:
    rng = random.Random(f"{workload}:{seed}")
    return rng.choice(FBC_RATIOS), rng.choice(BATCH_SIZES)


def _simulate(name: str, preset: str, windows: int, *extra: str) -> CliOp:
    out = f"out/{name}"
    argv = ("simulate", "--preset", preset, *extra, "--windows", str(windows),
            "--out", out)
    return CliOp(name, argv, out, windows)


def video_export_ops(fbc: float, batch: int) -> list[CliOp]:
    w = VIDEO_WINDOWS
    return [
        _simulate("4k60-baseline", "4k60", w["4k60"]),
        _simulate("4k60-burstlink", "4k60", w["4k60-burstlink"], "--scheme", "burstlink"),
        _simulate("4k60-vr-fbc", "4k60-vr", w["4k60-vr"], "--fbc-ratio", str(fbc)),
        _simulate("fhd30-batched", "fhd30", w["fhd30"], "--batch-every", str(batch)),
    ]


def grid_check_ops(fbc: float, batch: int) -> list[CliOp]:
    ops = [
        CliOp("validate-grid", ("validate", "--grid"), None, None),
        CliOp("sweep-default", ("sweep", "--out", "out/sweep-default"),
              "out/sweep-default", None),
        CliOp("sweep-overlay",
              ("sweep", "--fbc-ratios", f"1.0,{fbc}", "--batch-sizes", f"1,{batch}",
               "--out", "out/sweep-overlay"),
              "out/sweep-overlay", None),
    ]
    for preset in PRESET_CHECKS:
        ops.append(CliOp(f"validate-{preset}",
                         ("validate", "--preset", preset, "--windows",
                          str(PRESET_CHECK_WINDOWS)),
                         None, PRESET_CHECK_WINDOWS))
    return ops


# -- dirty-screen traces ---------------------------------------------------------
# The three shapes follow the bundled traces' generator (gaming, conferencing,
# productivity), parameterized by length.


def _clamp(v: float) -> float:
    return round(min(1.0, max(0.0, v)), 6)


def gaming_trace(rng: random.Random, n: int) -> list[float]:
    trace: list[float] = []
    while len(trace) < n:
        if rng.random() < 0.8:  # sustained play
            trace.extend(_clamp(rng.gauss(0.88, 0.06)) for _ in range(rng.randint(40, 90)))
        else:  # menu or pause screen, still animated
            trace.extend(_clamp(rng.gauss(0.5, 0.08)) for _ in range(rng.randint(8, 20)))
    return trace[:n]


def conferencing_trace(rng: random.Random, n: int) -> list[float]:
    frame = rng.uniform(0.78, 0.88)  # speaker-view camera share of the screen
    trace = [
        _clamp(rng.gauss(frame, 0.03)) if w % 2 == 0 else _clamp(rng.gauss(0.06, 0.03))
        for w in range(n)
    ]
    for _ in range(max(1, n // 200)):  # layout reshuffles
        at = rng.randrange(n - 6)
        for i in range(6):
            trace[at + i] = _clamp(rng.uniform(0.85, 1.0))
    return trace


def productivity_trace(rng: random.Random, n: int) -> list[float]:
    trace = [0.0] * n
    w = 0
    while w < n:  # keystroke bursts with think pauses
        for _ in range(rng.randint(6, 20)):
            if w >= n:
                break
            trace[w] = _clamp(rng.uniform(0.01, 0.05))
            w += rng.randint(3, 8)
        w += rng.randint(30, 120)
    w = rng.randint(40, 90)
    while w < n:  # scroll flicks that decay as the page settles
        flick = rng.uniform(0.55, 1.0)
        length = rng.randint(10, 25)
        for i in range(length):
            if w >= n:
                break
            trace[w] = _clamp(flick * (0.4 + 0.6 * max(0.0, 1.0 - i / length)))
            w += 1
        w += rng.randint(60, 160)  # reading pause
    return trace


_SHAPES = {
    "gaming": gaming_trace,
    "conferencing": conferencing_trace,
    "productivity": productivity_trace,
}


def make_trace(shape: str, seed: int, n: int) -> tuple[float, ...]:
    return tuple(_SHAPES[shape](random.Random(f"ui-traces:{shape}:{seed}"), n))


def ui_trace_ops(seed: int, n: int = TRACE_WINDOWS) -> list[PlaneOp]:
    return [PlaneOp(shape, make_trace(shape, seed, n)) for shape in TRACE_SHAPES]


def build_ops(workload: str, seed: int) -> Sequence[CliOp | PlaneOp]:
    if workload == "ui-traces":
        return ui_trace_ops(seed)
    fbc, batch = draw_overlays(workload, seed)
    if workload == "video-export":
        return video_export_ops(fbc, batch)
    if workload == "grid-check":
        return grid_check_ops(fbc, batch)
    raise ValueError(f"unknown workload {workload!r}")
