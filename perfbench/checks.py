"""Output checks: byte-exact digests where recorded, invariants everywhere.

``report.json`` and ``sweep.json`` embed ``--out`` in their manifest, so the
operations write to relative directories from a fixed working directory and
the digests do not depend on where the checkout lives.  ``validate`` is
judged by its exit code only: its deviations sit in float noise that a
faster oracle may legitimately change.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Any

DIGESTS_PATH = Path(__file__).resolve().with_name("digests.json")
SIMULATE_FILES = ("report.json", "report.csv", "timeline.csv", "timeline.svg")
SWEEP_FILES = ("sweep.csv", "sweep.json")
REL_TOL = 1e-9


def load_digests() -> dict[str, dict[str, Any]]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))["ops"]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def trace_key(shape: str, trace: tuple[float, ...]) -> str:
    blob = json.dumps(list(trace)).encode()
    return f"single_plane_burst 4k60 {shape} {len(trace)} {hashlib.sha256(blob).hexdigest()}"


def comparison_digest(comparison: Any) -> str:
    doc = {"burst": comparison.burst.to_dict(), "stream": comparison.stream.to_dict()}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def output_files(op: Any) -> tuple[str, ...]:
    if op.argv[0] == "simulate":
        return SIMULATE_FILES
    if op.argv[0] == "sweep":
        return SWEEP_FILES
    return ()


def file_digests(op: Any, workdir: Path) -> dict[str, str]:
    return {f: sha256_file(workdir / op.out / f) for f in output_files(op)}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check_cli_op(op: Any, rc: int, workdir: Path, digests: dict[str, Any]) -> list[str]:
    """Problems with one CLI operation's result; empty when it is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    problems = []
    files = output_files(op)
    for f in files:
        if not (workdir / op.out / f).is_file():
            problems.append(f"missing {op.out}/{f}")
    if problems:
        return problems
    expected = digests.get(op.key)
    if expected is not None:
        for f, sha in file_digests(op, workdir).items():
            if expected.get(f) != sha:
                problems.append(f"{f} digest {sha[:12]} != recorded {str(expected.get(f))[:12]}")
    if op.argv[0] == "simulate":
        problems += _check_simulate(workdir / op.out)
    elif op.argv[0] == "sweep":
        problems += _check_sweep(workdir / op.out)
    return problems


def _check_simulate(out: Path) -> list[str]:
    report = json.loads((out / "report.json").read_text())["report"]
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    total = sum(float(r["total_uj"]) for r in rows)
    problems = []
    if len(rows) != report["n_windows"]:
        problems.append(f"report.csv has {len(rows)} windows, report {report['n_windows']}")
    if not _close(total, report["total_energy_uj"]):
        problems.append(f"per-window totals {total!r} != total_energy_uj "
                        f"{report['total_energy_uj']!r}")
    return problems


def _check_sweep(out: Path) -> list[str]:
    rows = json.loads((out / "sweep.json").read_text())["rows"]
    with open(out / "sweep.csv", newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != len(csv_rows) or not rows:
        problems.append(f"sweep.json has {len(rows)} rows, sweep.csv {len(csv_rows)}")
    if not any(r["status"] == "ok" for r in rows):
        problems.append("no sweep point succeeded")
    return problems


def sweep_windows(out: Path) -> int:
    if not (out / "sweep.json").is_file():
        return 0
    rows = json.loads((out / "sweep.json").read_text())["rows"]
    return sum(r["n_windows"] for r in rows if r["status"] == "ok")


def check_plane_op(op: Any, comparison: Any, digests: dict[str, Any]) -> list[str]:
    problems = []
    expected = digests.get(trace_key(op.name, op.trace))
    if expected is not None and expected != comparison_digest(comparison):
        problems.append("report digest differs from the recorded one")
    for side in ("burst", "stream"):
        r = getattr(comparison, side)
        parts = (sum(r.state_energy_uj.values()) + r.transition_energy_uj
                 + r.dram.operating_uj + r.drfb_energy_uj + r.gpu_energy_uj
                 + r.fbc_energy_uj)
        if r.n_windows != len(op.trace):
            problems.append(f"{side}: {r.n_windows} windows priced, trace has {len(op.trace)}")
        if not _close(parts, r.total_energy_uj):
            problems.append(f"{side}: energy parts {parts!r} != total {r.total_energy_uj!r}")
        if abs(sum(r.residency.values()) - 1.0) > REL_TOL:
            problems.append(f"{side}: residencies sum to {sum(r.residency.values())!r}")
    return problems
