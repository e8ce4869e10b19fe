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

Then the start-up ledger, from a copy of each checkout's package with the
bytecode that ``PYTHONDONTWRITEBYTECODE=1`` leaves: no framewatt bytecode
("framewatt cold"), or framewatt's compiled first ("all warm"); the
standard library reads its installed bytecode either way.  It prints

* the wall time of ``python -S -c "import framewatt.cli"`` framewatt cold
  and all warm, median and quartiles over 11 launches that alternate
  checkouts;
* each framewatt module's warm self time, the median over 11 launches of
  ``-X importtime``;
* the standard-library modules that ``import framewatt.cli`` loads beyond
  ``import argparse, json, csv``, one column per checkout.

Usage: python tools/srcstats.py [CHECKOUT ...]
"""

from __future__ import annotations

import compileall
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
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
    return sum(_self_times(proc.stderr).values())


def _self_times(importtime: str) -> dict[str, int]:
    """Each framewatt module's self time, in us, from ``-X importtime`` output."""
    return {name: int(us) for us, name in _LINE.findall(importtime)
            if name == "framewatt" or name.startswith("framewatt.")}


def _launch(package_root: Path, *args: str) -> subprocess.CompletedProcess:
    """One ``python -S`` launch with framewatt importable from ``package_root``."""
    env = {**os.environ, "PYTHONPATH": str(package_root), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPYCACHEPREFIX", None)
    proc = subprocess.run([sys.executable, "-S", *args], env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{package_root}: launch failed:\n{proc.stderr[-500:]}")
    return proc


def launch_s(package_root: Path) -> float:
    """Wall seconds of one ``python -S -c "import framewatt.cli"``."""
    start = time.perf_counter()
    _launch(package_root, "-c", "import framewatt.cli")
    return time.perf_counter() - start


def self_us(package_root: Path) -> dict[str, int]:
    """Each framewatt module's self time, in us, in one ``-X importtime`` launch."""
    proc = _launch(package_root, "-X", "importtime", "-c", "import framewatt.cli")
    return _self_times(proc.stderr)


def stdlib_beyond(package_root: Path) -> set[str]:
    """The non-framewatt modules ``import framewatt.cli`` loads that
    ``import argparse, json, csv`` does not."""
    script = ("import sys; import argparse, json, csv; base = set(sys.modules); "
              "import framewatt.cli; print(*set(sys.modules) - base)")
    loaded = _launch(package_root, "-c", script).stdout.split()
    return {m for m in loaded if m != "framewatt" and not m.startswith("framewatt.")}


def package_copy(checkout: Path, root: Path, warm: bool) -> Path:
    """A directory holding a copy of ``checkout``'s package, without
    bytecode, or with it compiled if ``warm``."""
    shutil.copytree(checkout / "src" / "framewatt", root / "framewatt",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if warm and not compileall.compile_dir(root / "framewatt", quiet=1):
        raise RuntimeError(f"{checkout}: framewatt does not compile")
    return root


def _quartiles(values: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{med:.1f} [{q1:.1f}, {q3:.1f}]"


def startup(checkouts: list[Path]) -> list[str]:
    """The start-up ledger's lines."""
    with tempfile.TemporaryDirectory() as tmp:
        trees = {(c, warm): package_copy(c, Path(tmp) / f"{i}-{warm}", warm)
                 for i, c in enumerate(checkouts) for warm in (False, True)}
        walls: dict[tuple[Path, bool], list[float]] = {key: [] for key in trees}
        selfs: dict[Path, list[dict[str, int]]] = {c: [] for c in checkouts}
        for i in range(LAUNCHES):
            for c in checkouts if i % 2 == 0 else checkouts[::-1]:
                walls[c, False].append(launch_s(trees[c, False]) * 1e3)
                walls[c, True].append(launch_s(trees[c, True]) * 1e3)
                selfs[c].append(self_us(trees[c, True]))
        extra = {c: stdlib_beyond(trees[c, True]) for c in checkouts}
    names = [c.name for c in checkouts]
    widths = [max(len(n), 6) for n in names]
    lines = [f'{"launch ms":<40} {"framewatt cold":>18}  {"all warm":>18}  of {LAUNCHES}, '
             f'python -S -c "import framewatt.cli"']
    lines += [f"{str(c):<40} {_quartiles(walls[c, False]):>18}  {_quartiles(walls[c, True]):>18}"
              for c in checkouts]
    lines += ["", f"{'warm self ms':<24}" + "".join(f" {n:>{w}}" for n, w in zip(names, widths))]
    modules = sorted(set().union(*(s for runs in selfs.values() for s in runs)))
    for module in modules:
        cells = [statistics.median(s.get(module, 0) for s in selfs[c]) / 1e3 for c in checkouts]
        lines.append(f"{module:<24}" + "".join(f" {v:>{w}.2f}" for v, w in zip(cells, widths)))
    lines += ["", f"{'stdlib beyond argparse, json, csv':<40}"
              + "".join(f" {n:>{w}}" for n, w in zip(names, widths))]
    lines.append(f"{'(count)':<40}" + "".join(f" {len(extra[c]):>{w}}"
                                             for c, w in zip(checkouts, widths)))
    for module in sorted(set().union(*extra.values())):
        lines.append(f"{module:<40}" + "".join(f" {'x' if module in extra[c] else '-':>{w}}"
                                               for c, w in zip(checkouts, widths)))
    return lines


def main(argv: list[str]) -> int:
    checkouts = [Path(a).resolve() for a in argv] or [Path(__file__).resolve().parents[1]]
    times: dict[Path, list[int]] = {c: [] for c in checkouts}
    for i in range(LAUNCHES):
        for c in checkouts if i % 2 == 0 else checkouts[::-1]:
            times[c].append(compile_us(c))
    print(f"{'checkout':<40} {'src lines':>9}  cold compile ms, median [q1, q3] "
          f"of {LAUNCHES}")
    for c, us in times.items():
        print(f"{str(c):<40} {line_count(c):>9}  {_quartiles([u / 1e3 for u in us])}")
    counts = [module_lines(c) for c in checkouts]
    widths = [max(len(c.name), 6) for c in checkouts]
    print()
    print(f"{'module lines':<16}" + "".join(f" {c.name:>{w}}" for c, w in zip(checkouts, widths)))
    for module in sorted(set().union(*counts)):
        print(f"{module:<16}" + "".join(f" {n.get(module, '-'):>{w}}"
                                        for n, w in zip(counts, widths)))
    print()
    print("\n".join(startup(checkouts)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
