#!/usr/bin/env python3
"""How the event oracle's cost grows with the run, per framewatt checkout.

For each checkout (default: the one holding this script) and each window
count N in ``SIZES`` it starts fresh interpreters, so that no run inherits
another's heap, and prints:

- the oracle's µs per window: the wall of one ``oracle_simulate`` call on
  the ``fhd30`` preset for N windows, with the cyclic collector on, in a
  fresh interpreter that imports framewatt first and times only the call;
- the wall and peak RSS of the whole command
  ``python -m framewatt validate --preset fhd30 --windows N``, the peak as
  the child's ``ru_maxrss`` from ``os.wait4``.

Each figure is the least of ``LAUNCHES`` launches: on a shared host,
interference only ever adds time, and a median of five still moved by a
fifth between runs.  Checkouts alternate launch by launch (and which one
goes first alternates round by round), so a drift of the host's speed
falls on all of them alike.  Cost that grows linearly with the run reads as
a flat µs per window.

Usage: python tools/oracle_scale.py [CHECKOUT ...]
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

SIZES = (10_000, 30_000, 100_000)
LAUNCHES = 5

_TIME_ORACLE = """\
import sys, time
from framewatt.oracle import oracle_simulate
from framewatt.presets import PRESETS
cfg, n = PRESETS["fhd30"].config, int(sys.argv[1])
t = time.perf_counter()
oracle_simulate(cfg, n)
print(time.perf_counter() - t)
"""


def _env(checkout: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(checkout / "src")}


def oracle_us_per_window(checkout: Path, n: int) -> float:
    """µs per window of one ``oracle_simulate`` call on fhd30 for ``n`` windows."""
    proc = subprocess.run([sys.executable, "-c", _TIME_ORACLE, str(n)], env=_env(checkout),
                          capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{checkout}: oracle run failed:\n{proc.stderr[-500:]}")
    return float(proc.stdout) / n * 1e6


def validate_run(checkout: Path, n: int) -> tuple[float, float]:
    """Wall in s and peak RSS in MiB of ``validate --preset fhd30 --windows n``."""
    t = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "framewatt", "validate", "--preset", "fhd30",
                             "--windows", str(n)], env=_env(checkout),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise RuntimeError(f"{checkout}: validate --windows {n} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024


def main(argv: list[str]) -> int:
    checkouts = [Path(a).resolve() for a in argv] or [Path(__file__).resolve().parents[1]]
    runs: dict[tuple[Path, int], list[tuple[float, float, float]]] = {
        (c, n): [] for c in checkouts for n in SIZES}
    for i in range(LAUNCHES):
        for n in SIZES:
            for c in checkouts if i % 2 == 0 else checkouts[::-1]:
                runs[c, n].append((oracle_us_per_window(c, n), *validate_run(c, n)))
    width = max(len(str(c)) for c in checkouts)
    print(f"{'checkout':<{width}} {'windows':>8} {'oracle us/window':>17} "
          f"{'validate s':>11} {'validate peak MiB':>18}   (least of {LAUNCHES})")
    for (c, n), launches in runs.items():
        us, wall, mib = map(min, zip(*launches))
        print(f"{str(c):<{width}} {n:>8} {us:>17.1f} {wall:>11.2f} {mib:>18.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
