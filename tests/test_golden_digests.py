"""Byte identity of the commands and window recipes that the benchmark's
digests do not reach.

``tests/golden_digests.json`` holds, for each invocation below, the SHA-256
of its standard output and of every file it writes under ``--out``.  Each
invocation runs from a fresh working directory holding ``runs.csv`` (a copy
of ``tests/data/golden_runs.csv``) and ``traces/`` (the bundled dirty
traces), so every path in the argv, and in the manifests that embed them, is
relative.  To re-record after an intended output change::

    PYTHONPATH=src python tests/test_golden_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
from importlib import resources
from pathlib import Path

import pytest

from framewatt.cli import main

_HERE = Path(__file__).resolve().parent
_GOLDEN = _HERE / "golden_digests.json"
_TRACES = ("conferencing", "gaming", "productivity")

OPS = [
    "compare --preset 4k60 --scheme-b burstlink --out cmp",
    "compare --preset 4k60-vr --scheme-b burstlink --fbc-ratio-b 0.5 --out cmp",
    "compare --preset 4k60 --preset-b fhd30 --batch-every-b 2 --out cmp",
    "validate --grid --out val",
    "validate --preset fhd30-ref-burstlink --windows 60 --out val",
    "validate --preset fhd30 --windows 600 --out val",
    "validate --preset 4k60-vr --fbc-ratio 0.5 --out val",
    "validate --preset fhd30 --batch-every 2 --out val",
    "validate --preset fhd30 --psr-alternate --windows 4 --out val",
    "validate --preset fhd60 --kind single_plane --trace traces/gaming.csv "
    "--scheme bursting_only --out val",
    "calibrate --runs runs.csv --out fit",
    "simulate --preset 4k60-vr --scheme burstlink --out out",
    "simulate --preset fhd30-ref-burstlink --windows 4 --out out",
    "simulate --preset fhd30 --scheme bypass_only --windows 4 --out out",
    "simulate --preset fhd30 --scheme bursting_only --windows 4 --out out",
    "simulate --preset fhd30 --psr-alternate --windows 4 --out out",
    "simulate --preset fhd30 --batch-every 2 --cached-fraction 1.0 --out out",
    *(f"simulate --preset fhd60 --kind single_plane --trace traces/{name}.csv "
      f"--scheme {scheme} --out out"
      for name in _TRACES for scheme in ("baseline", "bursting_only")),
    "simulate --preset fhd30 --batch-every 3 --calibration latency-demo --out out",
    "simulate --preset fhd30 --psr-alternate --windows 4 --calibration latency-demo --out out",
    "simulate --preset 4k60-vr --scheme burstlink --windows 3 --calibration latency-demo --out out",
    "simulate --preset fhd60 --kind single_plane --trace traces/gaming.csv "
    "--scheme bursting_only --calibration latency-demo --out out",
    "sweep --calibration latency-demo --out sw",
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(op: str, workdir: Path) -> dict[str, str]:
    """Run one invocation in ``workdir``; digests of stdout and its files."""
    shutil.copy(_HERE / "data" / "golden_runs.csv", workdir / "runs.csv")
    traces = workdir / "traces"
    traces.mkdir()
    for name in _TRACES:
        ref = resources.files("framewatt").joinpath("data", "traces", f"{name}.csv")
        (traces / f"{name}.csv").write_bytes(ref.read_bytes())
    argv = op.split(" ")
    stdout = io.StringIO()
    with contextlib.chdir(workdir), contextlib.redirect_stdout(stdout):
        assert main(argv) == 0, op
    out = workdir / argv[argv.index("--out") + 1]
    digests = {"stdout": _sha(stdout.getvalue().encode())}
    digests.update((p.name, _sha(p.read_bytes())) for p in sorted(out.iterdir()))
    return digests


def test_every_invocation_has_a_recorded_digest():
    assert sorted(json.loads(_GOLDEN.read_text(encoding="utf-8"))) == sorted(OPS)


@pytest.mark.parametrize("op", OPS)
def test_outputs_match_golden_digests(op, tmp_path):
    golden = json.loads(_GOLDEN.read_text(encoding="utf-8"))
    assert _run(op, tmp_path) == golden[op]


def _record() -> None:
    import tempfile

    doc = {}
    for op in OPS:
        with tempfile.TemporaryDirectory() as tmp:
            doc[op] = _run(op, Path(tmp))
    _GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(doc)} invocations in {_GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _record()
