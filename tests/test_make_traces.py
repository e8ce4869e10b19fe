"""``tools/make_traces.py``: a real launch reproduces the bundled traces."""

from __future__ import annotations

import subprocess
import sys

from conftest import REPO

NAMES = ("gaming", "conferencing", "productivity")


def test_make_traces_rewrites_the_bundled_traces_byte_for_byte(tmp_path):
    subprocess.run([sys.executable, str(REPO / "tools" / "make_traces.py"), "--out", str(tmp_path)],
                   check=True, capture_output=True)
    bundled = REPO / "src" / "framewatt" / "data" / "traces"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{n}.csv" for n in NAMES)
    for name in NAMES:
        assert (tmp_path / f"{name}.csv").read_bytes() == (bundled / f"{name}.csv").read_bytes()
