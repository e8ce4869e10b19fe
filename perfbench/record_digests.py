#!/usr/bin/env python3
"""Record the output digests the benchmark checks against.

Runs every operation any seed can draw for ``video-export`` and the sweeps
of ``grid-check`` (their overlay knobs come from small discrete sets), and
the ``ui-traces`` operations of seeds 0 to ``TRACE_DIGEST_SEEDS`` - 1, then
writes ``perfbench/digests.json``.  Recording is only correct on a commit whose
outputs are known good; a change that alters an output byte must justify it
before the digests are recorded again.

Usage (from the root of a checkout): python3 perfbench/record_digests.py
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    import framewatt.cli as cli
    from framewatt import cstates, presets, scenarios

    workdir = ROOT / ".perfbench_work" / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "out").mkdir(parents=True)
    os.chdir(workdir)

    ops = {}
    for fbc in wl.FBC_RATIOS:
        for batch in wl.BATCH_SIZES:
            for op in wl.video_export_ops(fbc, batch) + wl.grid_check_ops(fbc, batch):
                if checks.output_files(op):
                    ops[op.key] = op
    digests: dict[str, object] = {}
    for key, op in sorted(ops.items()):
        with contextlib.redirect_stdout(None):
            rc = cli.main(list(op.argv))
        if rc != 0:
            raise SystemExit(f"{key}: exit code {rc}")
        digests[key] = checks.file_digests(op, workdir)
        print(key, file=sys.stderr)

    panel = presets.get_preset("4k60").config
    calibration = cstates.load_calibration("default")
    for seed in range(wl.TRACE_DIGEST_SEEDS):
        for op in wl.ui_trace_ops(seed):
            comparison = scenarios.single_plane_burst(panel, op.trace, calibration)
            digests[checks.trace_key(op.name, op.trace)] = checks.comparison_digest(comparison)
        print(f"ui-traces seed {seed}", file=sys.stderr)

    doc = {
        "note": "SHA-256 of every file each operation writes, keyed by its argv, and "
                "of the sorted-key EnergyReport.to_dict() JSON of each ui-traces "
                "comparison, keyed by shape, length and trace digest",
        "ops": dict(sorted(digests.items())),
    }
    checks.DIGESTS_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
