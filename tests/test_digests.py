"""Byte identity of ``simulate`` and ``sweep`` outputs against the benchmark's
recorded digests.

``perfbench/digests.json`` holds the SHA-256 of every output file for each
``simulate`` and ``sweep`` invocation the benchmark can draw.  The invocations
write to a relative ``--out``, which the reports embed in their manifests, so
each one runs from a fresh working directory with the argv exactly as
recorded.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from framewatt.cli import main

_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text(
        encoding="utf-8")
)["ops"]
SIMULATE_KEYS = sorted(k for k in _DIGESTS if k.startswith("simulate "))
SWEEP_KEYS = sorted(k for k in _DIGESTS if k.startswith("sweep "))


def test_every_recorded_overlay_is_covered():
    # 2 plain 4k60 runs, 5 compression ratios, 4 batch sizes
    assert len(SIMULATE_KEYS) == 11
    # the default sweep, and one overlay sweep per ratio and batch size
    assert len(SWEEP_KEYS) == 21


def _assert_outputs_match(key, files, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = key.split(" ")
    assert main(argv) == 0
    out = tmp_path / argv[argv.index("--out") + 1]
    for name in files:
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == _DIGESTS[key][name], name


@pytest.mark.parametrize("key", SIMULATE_KEYS)
def test_simulate_outputs_match_recorded_digests(key, tmp_path, monkeypatch, capsys):
    _assert_outputs_match(key, ("report.json", "report.csv", "timeline.csv",
                                "timeline.svg"), tmp_path, monkeypatch)


@pytest.mark.parametrize("key", SWEEP_KEYS)
def test_sweep_outputs_match_recorded_digests(key, tmp_path, monkeypatch, capsys):
    _assert_outputs_match(key, ("sweep.csv", "sweep.json"), tmp_path, monkeypatch)
