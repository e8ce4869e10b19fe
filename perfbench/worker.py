"""One fresh interpreter running one workload; started by ``run.py``.

Modes:
  full     set up, run one pass of the workload's operations, check outputs
  traced   as ``full`` with timing wrappers installed
  probe    set up, then run the workload's scaling probe (video-export and
           ui-traces have one; grid-check has none)

Set-up covers importing ``framewatt.cli``, loading the calibration,
generating the seeded inputs and making the output directory.  The worker
writes one JSON document to ``--result``; its own standard output is not
read.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import hostspeed
import spans
import workloads as wl_mod

PROBE_ROUNDS = 5


def _setup(workload: str, seed: int, workdir: Path) -> dict:
    import framewatt.cli as cli
    from framewatt import cstates, presets, scenarios

    calibration = cstates.load_calibration("default")
    ops = wl_mod.build_ops(workload, seed)
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    return {
        "cli": cli,
        "scenarios": scenarios,
        "calibration": calibration,
        "panel": presets.get_preset("4k60").config,
        "ops": ops,
    }


def _run_op(env: dict, op, results: list) -> None:
    t = time.perf_counter()
    rc, value, error = 0, None, None
    try:
        if isinstance(op, wl_mod.CliOp):
            rc = env["cli"].main(list(op.argv))
        else:
            value = env["scenarios"].single_plane_burst(
                env["panel"], op.trace, env["calibration"])
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # one failed operation must not end the pass
        error = traceback.format_exc()
    results.append((op, time.perf_counter() - t, rc, value, error))


def _run_pass(env: dict, rec=None) -> tuple[list, list[float]]:
    """The operations' results and the reference-loop seconds around them."""
    results: list = []
    refs = [hostspeed.reference_loop()]
    for op in env["ops"]:
        if rec is not None:
            rec.tag = op.name
        _run_op(env, op, results)
        refs.append(hostspeed.reference_loop())
    return results, refs


def _norm_wall(results: list, refs: list[float]) -> float:
    """Pass seconds at the nominal host speed, each operation rescaled by
    the reference loops on either side of it."""
    return sum(hostspeed.rescale(seconds, hostspeed.REF_NOMINAL_S, refs[i], refs[i + 1])
               for i, (_, seconds, *_) in enumerate(results))


def _grid_windows() -> int:
    from framewatt.presets import validation_grid

    return sum(max(1, cfg.display.refresh_hz // cfg.workload.video_fps)
               for _, cfg, _ in validation_grid())


def _op_windows(op, workdir: Path) -> int:
    """Windows a completed operation asked the model to price."""
    if isinstance(op, wl_mod.PlaneOp) or op.windows is not None:
        return op.windows
    if op.argv[0] == "sweep":
        return checks.sweep_windows(workdir / op.out)
    return _grid_windows()  # validate --grid: one frame group per point


def _check(results: list, workdir: Path) -> tuple[list[dict], int]:
    """Per-operation reports and the windows the pass priced."""
    digests = checks.load_digests()
    ops, windows = [], 0
    for op, seconds, rc, value, error in results:
        if error is not None:
            problems = [error.strip().splitlines()[-1]]
            sys.stderr.write(error)
        elif isinstance(op, wl_mod.CliOp):
            problems = checks.check_cli_op(op, rc, workdir, digests)
        else:
            problems = checks.check_plane_op(op, value, digests)
        if error is None and rc == 0:
            windows += _op_windows(op, workdir)
        ops.append({"name": op.name, "seconds": seconds, "problems": problems})
    return ops, windows


def _probe_video(env: dict, scale: int) -> None:
    n = wl_mod.PROBE_VIDEO_WINDOWS * scale
    rc = env["cli"].main(["simulate", "--preset", "fhd30", "--batch-every", "2",
                          "--windows", str(n), "--out", f"probe/{n}"])
    if rc != 0:
        raise RuntimeError(f"video probe exited {rc}")


def _probe_trace(env: dict, scale: int) -> None:
    trace = wl_mod.make_trace("gaming", wl_mod.DEFAULT_SEED,
                              wl_mod.PROBE_TRACE_WINDOWS * scale)
    env["scenarios"].single_plane_burst(env["panel"], trace, env["calibration"])


PROBES = {"video-export": _probe_video, "ui-traces": _probe_trace}


def _probe(env: dict, workload: str) -> tuple[dict, list[str]]:
    """Self time per layer at 2N over N windows of the workload's probe.

    Each round times N and 2N back to back, in alternating order, after a
    full garbage collection each, so a drift in the host's speed over a few
    seconds mostly cancels in the round's ratio; the median of the rounds'
    ratios is reported.  The rounds do identical work, so their counters
    must match exactly."""
    ratios: dict[str, list[float]] = {}
    counters: dict[int, dict] = {}
    problems: list[str] = []
    for rnd in range(PROBE_ROUNDS):
        self_s: dict[int, dict[str, float]] = {}
        for scale in ((1, 2) if rnd % 2 == 0 else (2, 1)):
            gc.collect()
            rec = spans.Recorder()
            restore = spans.install(rec)
            try:
                PROBES[workload](env, scale)
            finally:
                restore()
            first = counters.setdefault(scale, dict(rec.counters))
            if first != dict(rec.counters):
                problems.append(f"probe counters at scale {scale} changed between "
                                f"rounds: {first} then {dict(rec.counters)}")
            self_s[scale] = {name: t for name, (_, t) in rec.by_function().items()}
        for name, t in self_s[1].items():
            if t > 0 and name in self_s[2]:
                ratios.setdefault(name, []).append(self_s[2][name] / t)
    return {name: statistics.median(r) for name, r in ratios.items()}, problems


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=wl_mod.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=["full", "traced", "probe"])
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args()
    workdir = Path(args.workdir).resolve()
    result_path = Path(args.result).resolve()

    env = _setup(args.workload, args.seed, workdir)
    doc: dict = {"ready": time.perf_counter()}
    if args.mode == "probe":
        doc["probe"], doc["problems"] = (_probe(env, args.workload)
                                         if args.workload in PROBES else ({}, []))
    else:
        rec = spans.Recorder() if args.mode == "traced" else None
        restore = spans.install(rec) if rec is not None else None
        results, refs = _run_pass(env, rec)
        doc["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if restore is not None:
            restore()
        doc["wall_s"] = sum(seconds for _, seconds, *_ in results)
        doc["norm_wall_s"] = _norm_wall(results, refs)
        doc["refs"] = refs
        doc["ops"], doc["windows"] = _check(results, workdir)
        doc["bytes_written"] = sum(f.stat().st_size for f in (workdir / "out").rglob("*")
                                   if f.is_file())
        if rec is not None:
            doc["functions"] = rec.by_function()
            doc["counters"] = dict(rec.counters)
            doc["per_call"] = rec.per_call
    result_path.write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
