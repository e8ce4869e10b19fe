"""``tools/fit_calibration.py``: the shipped knobs give the documented metrics."""

from __future__ import annotations

from conftest import REPO, load_tool


def test_shipped_knobs_reproduce_the_documented_metrics_inside_their_bands():
    fit = load_tool("fit_calibration")
    doc = (REPO / "docs" / "calibration_fit.md").read_text(encoding="utf-8")
    rows = [[cell.strip() for cell in line.split("|")[1:-1]]
            for line in doc.splitlines() if line.startswith("| ")]
    documented = {cells[0]: cells[2] for cells in rows[1:]}
    values = fit.evaluate(fit.SHIPPED)
    assert documented == {m.name: f"{values[m.name]:.2f}" for m in fit.METRICS}
    assert fit.score(fit.SHIPPED) == 0
