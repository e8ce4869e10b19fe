#!/usr/bin/env python3
"""Source size and cold compile time of framewatt checkouts.

For each checkout (default: the one holding this script) it prints the
total of ``wc -l src/framewatt/*.py`` and the package's cold compile time:
the sum of the ``framewatt*`` self times that

    python -S -X importtime -c "import framewatt.cli"

reports, each launch run against a fresh, empty ``PYTHONPYCACHEPREFIX`` so
that no bytecode cache is read.  It makes a fixed 11 launches per checkout,
alternating checkouts (and which one goes first) launch by launch, and
reports the median and quartiles in milliseconds.  After that table it
prints each module's line count, one column per checkout in the same order,
so that lines moved between modules show as moved.

Usage: python tools/srcstats.py [CHECKOUT ...]
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

LAUNCHES = 11

_LINE = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)$", re.MULTILINE)


def module_lines(checkout: Path) -> dict[str, int]:
    """Lines in each ``src/framewatt/*.py`` file, as ``wc -l`` counts them."""
    return {p.name: p.read_bytes().count(b"\n")
            for p in (checkout / "src" / "framewatt").glob("*.py")}


def line_count(checkout: Path) -> int:
    """Lines in ``src/framewatt/*.py``, as ``wc -l`` counts them."""
    return sum(module_lines(checkout).values())


def compile_us(checkout: Path) -> int:
    """framewatt's summed self time, in us, of one cold ``import framewatt.cli``."""
    with tempfile.TemporaryDirectory() as prefix:
        env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONPYCACHEPREFIX": prefix}
        proc = subprocess.run([sys.executable, "-S", "-X", "importtime", "-c",
                               "import framewatt.cli"], env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{checkout}: import framewatt.cli failed:\n{proc.stderr[-500:]}")
    return sum(int(us) for us, name in _LINE.findall(proc.stderr)
               if name == "framewatt" or name.startswith("framewatt."))


def main(argv: list[str]) -> int:
    checkouts = [Path(a).resolve() for a in argv] or [Path(__file__).resolve().parents[1]]
    times: dict[Path, list[int]] = {c: [] for c in checkouts}
    for i in range(LAUNCHES):
        for c in checkouts if i % 2 == 0 else checkouts[::-1]:
            times[c].append(compile_us(c))
    print(f"{'checkout':<40} {'src lines':>9}  cold compile ms, median [q1, q3] "
          f"of {LAUNCHES}")
    for c, us in times.items():
        q1, med, q3 = statistics.quantiles(us, n=4, method="inclusive")
        print(f"{str(c):<40} {line_count(c):>9}  {med / 1e3:.1f} "
              f"[{q1 / 1e3:.1f}, {q3 / 1e3:.1f}]")
    counts = [module_lines(c) for c in checkouts]
    widths = [max(len(c.name), 6) for c in checkouts]
    print()
    print(f"{'module lines':<16}" + "".join(f" {c.name:>{w}}" for c, w in zip(checkouts, widths)))
    for module in sorted(set().union(*counts)):
        print(f"{module:<16}" + "".join(f" {n.get(module, '-'):>{w}}"
                                        for n, w in zip(counts, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
