"""Shared fixtures and the acceptance-gate terminal summary.

Tests named ``test_criterion_<n>_*`` (the acceptance gate) are collected
into a one-line-per-criterion verdict table printed at the end of the run,
so the gate's outcome is readable without scrolling the full log.
"""

from __future__ import annotations

import importlib.util
import io
import re
import sys
from pathlib import Path

import pytest

from framewatt.core import (
    RESOLUTIONS,
    DisplayConfig,
    Scheme,
    SimConfig,
    SystemConfig,
    WorkloadKind,
    WorkloadSpec,
)
from framewatt.cstates import load_calibration

REPO = Path(__file__).resolve().parents[1]

_CRITERION_RE = re.compile(r"test_criterion_(\d+)_")

#: criterion number -> (outcome, headline) filled in as the gate runs.
_ACCEPTANCE_RESULTS: dict[int, tuple[str, str]] = {}


def make_config(
    res: str = "4k",
    fps: int = 60,
    scheme: Scheme = Scheme.BASELINE,
    kind: WorkloadKind = WorkloadKind.VIDEO,
    refresh: int = 60,
    psr_alternate: bool = False,
    display: DisplayConfig | None = None,
    system: SystemConfig | None = None,
) -> SimConfig:
    """One-call configuration builder used across the suite."""
    return SimConfig(
        display=display
        or DisplayConfig(resolution=RESOLUTIONS[res], refresh_hz=refresh),
        system=system or SystemConfig(),
        workload=WorkloadSpec(
            kind=kind,
            scheme=scheme,
            video_fps=fps,
            psr_alternate_windows=psr_alternate,
        ),
    )


def export_text(export, timeline) -> str:
    """What a timeline export (``timeline_to_csv`` or ``timeline_to_svg``) writes."""
    out = io.StringIO()
    export(timeline, out)
    return out.getvalue()


def load_tool(name: str):
    """Import ``tools/<name>.py`` as a module (registered first, as
    ``dataclasses`` needs)."""
    spec = importlib.util.spec_from_file_location(name, REPO / "tools" / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def default_cal():
    return load_calibration("default")


@pytest.fixture(scope="session")
def reference_cal():
    return load_calibration("reference-fhd30")


@pytest.fixture(scope="session")
def latency_cal():
    return load_calibration("latency-demo")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    match = _CRITERION_RE.search(item.name)
    if not match:
        return
    number = int(match.group(1))
    doc = (item.function.__doc__ or "").strip().splitlines()
    headline = doc[0] if doc else item.name
    _ACCEPTANCE_RESULTS[number] = (report.outcome.upper(), headline)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE_RESULTS):
        outcome, headline = _ACCEPTANCE_RESULTS[number]
        verdict = "PASS" if outcome == "PASSED" else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {verdict} - {headline}")
