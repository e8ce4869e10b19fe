#!/usr/bin/env python3
"""framewatt benchmark: closed-loop workloads timed end to end and per module.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload video-export --seed 3 --seconds 30 --trace 0
  python3 perfbench/run.py                 # every workload, untraced and traced

With ``--trace 0`` the run starts fresh interpreters one after another, each
setting up and running one pass of the workload, until ``--seconds`` is
spent (at least five), and reports medians over the launches; set-up and
pass times are rescaled by the host's speed (``hostspeed.py``).  With
``--trace 1`` it runs ``-X importtime`` three times, five pairs of an
untraced and a traced launch, and one launch for the workload's scaling
probe, and reports the per-module metrics.  ``--seconds`` does not apply to it.

Human-readable tables go to standard output; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
program is run from ``src/`` of the checkout; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(BENCH))
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402

MIN_FULL_LAUNCHES = 5
IMPORTTIME_LAUNCHES = 3
TRACE_PAIRS = 5  # an untraced and a traced launch each
LAUNCH_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("norm_wall_s", "s"),
    ("norm_windows_per_s", "windows/s"),
    ("peak_rss_mb", "MiB"),
)
CALLS = ("cstates.load_calibration", "core.validate_config", "timeline.build_timeline",
         "power.report_from_timeline", "oracle.oracle_simulate", "cli.main")
SCALE2X = ("timeline.build_timeline", "timeline.timeline_to_csv", "timeline.timeline_to_svg",
           "power.report_from_timeline", "power.window_energy_breakdown")
COUNTERS = ("timeline.windows", "timeline.intervals", "timeline.distinct_windows",
            "timeline.fill_chunks", "oracle.periods", "oracle.ticks")
IMPORTS = (("calibrate.import_s", "framewatt.calibrate"),
           ("numpy.import_s", "numpy"),
           ("framewatt.import_s", "framewatt.cli"))


class LaunchError(RuntimeError):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def launch(workload: str, seed: int, mode: str) -> dict:
    """One fresh worker interpreter; ``setup_s`` is measured from its spawn."""
    workdir = WORK / workload
    result = WORK / f"{workload}.result.json"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--workdir", str(workdir),
            "--result", str(result)]
    spawn_s = hostspeed.reference_spawn()
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
                              timeout=LAUNCH_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise LaunchError(f"{workload} {mode} launch timed out") from exc
    if proc.returncode != 0 or not result.is_file():
        raise LaunchError(f"{workload} {mode} launch exited {proc.returncode}")
    doc = json.loads(result.read_text(encoding="utf-8"))
    doc["setup_s"] = doc["ready"] - t0  # both clocks are CLOCK_MONOTONIC
    doc["norm_setup_s"] = hostspeed.rescale(doc["setup_s"], hostspeed.SPAWN_NOMINAL_S, spawn_s)
    doc["spawn_s"] = spawn_s
    doc["launch_s"] = time.perf_counter() - t0
    return doc


def _failed(doc: dict) -> int:
    return sum(1 for op in doc["ops"] if op["problems"])


def _report_problems(docs: list[dict]) -> None:
    for doc in docs:
        for op in doc["ops"]:
            for problem in op["problems"]:
                print(f"FAILED {op['name']}: {problem}", file=sys.stderr)


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    full: list[dict] = []
    while len(full) < MIN_FULL_LAUNCHES or (
            time.perf_counter() - start + full[-1]["launch_s"] <= seconds):
        full.append(launch(workload, seed, "full"))
    _report_problems(full)

    metrics = {
        "setup_s": statistics.median(d["norm_setup_s"] for d in full),
        "norm_wall_s": statistics.median(d["norm_wall_s"] for d in full),
        "norm_windows_per_s": statistics.median(d["windows"] / d["norm_wall_s"]
                                                for d in full),
        "peak_rss_mb": statistics.median(d["rss_kib"] / 1024 for d in full),
    }
    host = {  # as measured and not gated, because the host's speed drifts
        "host.setup_s": (statistics.median(d["setup_s"] for d in full), "s"),
        "host.spawn_ref_s": (statistics.median(d["spawn_s"] for d in full), "s"),
        "host.wall_s": (statistics.median(d["wall_s"] for d in full), "s"),
        "host.windows_per_s": (statistics.median(d["windows"] / d["wall_s"] for d in full),
                          "windows/s"),
        "host.ref_loop_s": (statistics.median(r for d in full for r in d["refs"]), "s"),
    }
    attempted = sum(len(d["ops"]) for d in full)
    failed = sum(_failed(d) for d in full)

    print(f"workload {workload}  seed {seed}  closed loop, 1 process, "
          f"{len(full)} fresh launches")
    print(f"  windows per pass {full[0]['windows']}")
    for i, op in enumerate(full[0]["ops"]):
        times = [d["ops"][i]["seconds"] for d in full]
        print(f"  op {op['name']:<22} median {statistics.median(times):8.4f} s")
    units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"  {name:<20} {value:12.4f} {units[name]}")
    for name, (value, unit) in host.items():
        print(f"  {name:<20} {value:12.4f} {unit}  (as measured)")
    print(f"  ops_failed/ops   {failed}/{attempted}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END},
    }


def importtime() -> dict[str, float]:
    """Cumulative import seconds of the modules behind ``setup_s``."""
    samples: dict[str, list[float]] = {name: [] for name, _ in IMPORTS}
    for _ in range(IMPORTTIME_LAUNCHES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import framewatt.cli"],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=LAUNCH_TIMEOUT_S)
        if proc.returncode != 0:
            raise LaunchError(f"import framewatt.cli failed: {proc.stderr[-500:]}")
        cumulative = {}
        for m in re.finditer(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$",
                             proc.stderr, re.M):
            cumulative.setdefault(m.group(2), int(m.group(1)) * 1e-6)
        for name, module in IMPORTS:
            samples[name].append(cumulative.get(module, 0.0))  # 0: not imported
    return {name: statistics.median(v) for name, v in samples.items()}


def _layer_metrics(traced: dict, probe: dict) -> dict[str, tuple[float, str]]:
    """Per-module metrics of one traced launch and the workload's probe."""
    functions = traced["functions"]
    counters = {k: traced["counters"].get(k, 0) for k in COUNTERS}
    metrics: dict[str, tuple[float, str]] = {}
    for name, _, _ in spans.TRACED:
        calls, self_s = functions.get(name, (0, 0.0))  # 0: never called
        if name in CALLS:
            metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        if name == "timeline.build_timeline":
            windows = counters["timeline.windows"]
            metrics[f"{name}.us_per_window"] = (1e6 * self_s / windows if windows else 0.0,
                                                "us")
        if name in SCALE2X:  # 0: no probe of the workload exercises it
            metrics[f"{name}.scale2x"] = (probe.get(name, 0.0), "x")
    for name, value in counters.items():
        metrics[name] = (value, "count")
    metrics["cli.bytes_written"] = (traced["bytes_written"], "B")
    return metrics


def run_traced(workload: str, seed: int) -> dict:
    imports = importtime()
    plain, traced = [], []
    for i in range(TRACE_PAIRS):  # alternating order, so a steady drift cancels
        for mode in (("full", "traced") if i % 2 == 0 else ("traced", "full")):
            (plain if mode == "full" else traced).append(launch(workload, seed, mode))
    probe = launch(workload, seed, "probe")
    _report_problems(plain + traced)

    # Counts must repeat exactly across the traced launches; times are medians.
    problems = list(probe["problems"])
    per_launch = [_layer_metrics(t, probe["probe"]) for t in traced]
    metrics: dict[str, tuple[float, str]] = {n: (v, "s") for n, v in imports.items()}
    for name, (_, unit) in per_launch[0].items():
        values = [m[name][0] for m in per_launch]
        if unit in ("count", "B"):
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced launches: {values}")
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    overheads = [100.0 * (t["norm_wall_s"] - p["norm_wall_s"]) / p["norm_wall_s"]
                 for p, t in zip(plain, traced)]
    metrics["trace.overhead_pct"] = (statistics.median(overheads), "%")
    metrics["host.wall_s"] = (statistics.median(p["wall_s"] for p in plain), "s")
    metrics["host.ref_loop_s"] = (statistics.median(r for p in plain for r in p["refs"]), "s")
    metrics["host.setup_s"] = (statistics.median(p["setup_s"] for p in plain), "s")
    metrics["host.spawn_ref_s"] = (statistics.median(p["spawn_s"] for p in plain), "s")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)

    attempted = sum(len(d["ops"]) for d in plain + traced)
    failed = sum(_failed(d) for d in plain + traced)

    walls = {kind: " ".join(f"{d['norm_wall_s']:.3f}" for d in docs)
             for kind, docs in (("traced", traced), ("untraced", plain))}
    print(f"workload {workload}  seed {seed}  traced run (norm_wall traced {walls['traced']} s, "
          f"untraced {walls['untraced']} s)")
    functions = traced[0]["functions"]
    modules: dict[str, float] = {}
    for name, (calls, self_s) in sorted(functions.items(), key=lambda kv: -kv[1][1]):
        modules[name.split(".")[0]] = modules.get(name.split(".")[0], 0.0) + self_s
        print(f"  span {name:<32} calls {calls:6d}  self {self_s:9.4f} s  (first launch)")
    for module, self_s in sorted(modules.items(), key=lambda kv: -kv[1]):
        print(f"  module {module:<12} self {self_s:9.4f} s  (first launch)")
    for c in sorted(traced[0]["per_call"], key=lambda c: (c["op"], -c["windows"])):
        if c["windows"] >= 100:
            print(f"  build {c['op']:<18} {c['scheme']:<14} windows {c['windows']:5d}  "
                  f"intervals {c['intervals']:7d}  distinct {c['distinct_windows']:4d} "
                  f"{c['distinct_by_kind']}  fill chunks {c['fill_chunks']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:14.4f} {unit}" if isinstance(value, float)
              else f"  {name:<42} {value:14d} {unit}")
    print(f"  ops_failed/ops   {failed}/{attempted}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1],
                   help="0: end-to-end metrics, 1: per-module metrics "
                        "(default: both, only with --workload all)")
    args = p.parse_args()
    if not (SRC / "framewatt" / "cli.py").is_file():
        print(f"perfbench: no framewatt source at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        if args.workload != "all":
            trace = args.trace or 0
            result = (run_traced(args.workload, args.seed) if trace
                      else run_untraced(args.workload, args.seed, args.seconds))
        else:
            results = {}
            for workload in WORKLOADS:
                for trace in ([0, 1] if args.trace is None else [args.trace]):
                    results[(workload, trace)] = (
                        run_traced(workload, args.seed) if trace
                        else run_untraced(workload, args.seed, args.seconds))
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}/{name}": m for (w, _), r in results.items()
                            for name, m in r["metrics"].items()},
            }
    except LaunchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
