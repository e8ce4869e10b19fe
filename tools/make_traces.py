#!/usr/bin/env python3
"""Generate the bundled synthetic dirty-fraction traces.

Each trace is 600 refresh windows (10 s at 60 Hz) of per-window dirty screen
fraction for a single-plane UI workload.  Generation is seeded, so re-running
this script reproduces the shipped files byte for byte.  All three traces are
synthetic stand-ins shaped to plausible screen-update statistics, not
recordings of real sessions:

  gaming        casual gaming: sustained play repaints most of the viewport
                every refresh (animated board, particles, parallax), with
                short menu/pause lulls that still animate about half of it
  conferencing  a video call in speaker view: the camera frame (most of the
                screen) updates on every other window (30 fps feed on a
                60 Hz panel), with occasional layout reshuffles
  productivity  document editing: long runs of near-idle windows (cursor,
                keystrokes) broken by scroll flicks that repaint most of the
                viewport and decay as the scroll settles

Usage: python tools/make_traces.py [--out DIR]
"""

from __future__ import annotations

import argparse
import csv
import random
from pathlib import Path
from typing import Sequence

WINDOWS = 600
REFRESH_HZ = 60


def _clamp(v: float) -> float:
    return round(min(1.0, max(0.0, v)), 6)


def make_gaming(rng: random.Random) -> list[float]:
    trace: list[float] = []
    while len(trace) < WINDOWS:
        if rng.random() < 0.8:  # sustained play
            for _ in range(rng.randint(40, 90)):
                trace.append(_clamp(rng.gauss(0.88, 0.06)))
        else:  # menu / pause screen, still animated
            for _ in range(rng.randint(8, 20)):
                trace.append(_clamp(rng.gauss(0.5, 0.08)))
    return trace[:WINDOWS]


def make_conferencing(rng: random.Random) -> list[float]:
    trace = []
    frame = rng.uniform(0.78, 0.88)  # speaker-view camera share of the screen
    for w in range(WINDOWS):
        if w % 2 == 0:  # 30 fps camera feed on a 60 Hz panel
            trace.append(_clamp(rng.gauss(frame, 0.03)))
        else:  # toolbar, captions, self-view thumbnail
            trace.append(_clamp(rng.gauss(0.06, 0.03)))
    # A couple of layout reshuffles (someone joins, screen share starts).
    for _ in range(3):
        at = rng.randrange(WINDOWS - 6)
        for i in range(6):
            trace[at + i] = _clamp(rng.uniform(0.85, 1.0))
    return trace


def make_productivity(rng: random.Random) -> list[float]:
    trace = [0.0] * WINDOWS
    w = 0
    while w < WINDOWS:  # keystroke bursts with think pauses
        for _ in range(rng.randint(6, 20)):
            if w >= WINDOWS:
                break
            trace[w] = _clamp(rng.uniform(0.01, 0.05))
            w += rng.randint(3, 8)
        w += rng.randint(30, 120)
    w = rng.randint(40, 90)
    while w < WINDOWS:  # scroll flicks that decay as the page settles
        flick = rng.uniform(0.55, 1.0)
        length = rng.randint(10, 25)
        for i in range(length):
            if w >= WINDOWS:
                break
            decay = max(0.0, 1.0 - i / length)
            trace[w] = _clamp(flick * (0.4 + 0.6 * decay))
            w += 1
        w += rng.randint(60, 160)  # reading pause
    return trace


def write_dirty_trace(path: Path, trace: Sequence[float]) -> None:
    """Write a trace as ``framewatt.scenarios.read_dirty_trace`` reads it."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", "dirty_fraction"])
        for i, d in enumerate(trace):
            writer.writerow([i, f"{float(d):.6f}"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    default_out = Path(__file__).resolve().parents[1] / "src/framewatt/data/traces"
    parser.add_argument("--out", default=str(default_out), metavar="DIR")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for name, make, seed in [
        ("gaming", make_gaming, 101),
        ("conferencing", make_conferencing, 202),
        ("productivity", make_productivity, 303),
    ]:
        trace = make(random.Random(seed))
        path = out / f"{name}.csv"
        write_dirty_trace(path, trace)
        busy = sum(1 for v in trace if v > 0)
        print(f"{path}: {len(trace)} windows, {busy} dirty, "
              f"mean dirty {sum(trace) / len(trace):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
