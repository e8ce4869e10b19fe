"""The host's speed, from fixed work that shares nothing with the program.

The benchmark shares a few cores of a host whose speed drifts with its
neighbours' load: on a shared 2-vCPU Xeon host a fixed loop ran at full or
at about half speed, switching every few seconds to minutes.  Timing the
reference loop before, between and after the operations of a pass, and
rescaling each operation's time by the loops on either side of it, removes
most of that drift: ``norm_wall_s`` is in seconds on a host that runs the
reference loop in ``REF_NOMINAL_S``.  The loop lives in the benchmark's
files, so a change to the program cannot move it.

Contention slows different code by different amounts.  Of four candidate
loops (dict and int arithmetic, a float integration loop, ``Fraction``
arithmetic and string formatting), the sum of the float loop and the string
formatting tracked the pass times of all three workloads best, so one
chunk of the reference runs both.

Set-up is mostly starting an interpreter and importing modules, which the
loop tracked poorly (its time grew about half as fast as set-up's).  So
``setup_s`` is rescaled by a reference of its own kind: the time to start a
fresh interpreter that imports a fixed set of modules the program does not
own, taken just before each launch.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

REF_CHUNKS = 5
FLOAT_STEPS = 100_000
FORMAT_ROWS = 16_000
REF_NOMINAL_S = 0.1
SPAWN_IMPORTS = "import argparse, csv, dataclasses, fractions, json, numpy"
SPAWN_NOMINAL_S = 0.2


def _chunk() -> float:
    t = time.perf_counter()
    tick = 1e-6
    remaining, total = FLOAT_STEPS * tick, 0.0
    while remaining > 0:
        dt = tick if remaining > tick else remaining
        total += 3.7 * dt * 1e3
        remaining -= dt
    ",".join([f"{i},{i * 0.37:.6f},c{i % 9}" for i in range(FORMAT_ROWS)])
    return time.perf_counter() - t


def reference_loop() -> float:
    """Seconds this interpreter takes for the reference loop right now: the
    median of its chunks, so a single preemption or a cold first chunk does
    not count, times the number of chunks."""
    return REF_CHUNKS * statistics.median(_chunk() for _ in range(REF_CHUNKS))


def reference_spawn() -> float:
    """Seconds to start an interpreter that runs ``SPAWN_IMPORTS`` and exits."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_IMPORTS], check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t


def rescale(seconds: float, nominal: float, *refs: float) -> float:
    """``seconds`` at the nominal speed, given the reference's times around
    them and its time at that speed."""
    return seconds * nominal / statistics.fmean(refs)
