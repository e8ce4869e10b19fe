"""Energy savings as the difference between two runs of one model.

A study prices a plain and a modified run and compares them with
:func:`energy_reduction`.  Compression (``fbc_ratio``) and batching
(``batch_every``) are keywords of the one timeline build, so each of their
studies is two :func:`~framewatt.power.streaming_report` calls; the
single-plane study drives a dirty-rectangle trace through both pipelines.
"""

from __future__ import annotations

from itertools import count
from pathlib import Path
from typing import Any, NamedTuple, Sequence

from .core import (Scheme, SimConfig, WorkloadKind, csv_cell, csv_records, json_integer,
                   json_number, rejection, replace)
from .cstates import CalibrationSet
from .power import EnergyReport, streaming_report


def energy_reduction(base: EnergyReport, improved: EnergyReport) -> float:
    """Energy saving of ``improved`` over ``base`` in percent (per unit time).

    Runs of different lengths compare fairly because both bills are first
    normalized to energy per unit time.
    """
    base_rate = base.total_energy_uj / base.total_ns
    imp_rate = improved.total_energy_uj / improved.total_ns
    return 100.0 * (1.0 - imp_rate / base_rate)


class PlaneComparison(NamedTuple):
    """Selective-update bursting versus conventional full streaming."""

    burst: EnergyReport
    stream: EnergyReport


def single_plane_burst(
    cfg: SimConfig,
    dirty_trace: Sequence[float],
    calibration: CalibrationSet,
) -> PlaneComparison:
    """Drive a dirty-rectangle trace through both single-plane pipelines.

    The burst pipeline sends only each window's dirty bytes (plus a rectangle
    header) and parks in deep idle -- a static trace is therefore almost all
    C9.  The comparison pipeline streams the full frame every refresh no
    matter how little changed.
    """
    base_wl = replace(cfg.workload, kind=WorkloadKind.SINGLE_PLANE)
    burst_cfg = replace(cfg, workload=replace(base_wl, scheme=Scheme.BURSTING_ONLY))
    stream_cfg = replace(cfg, workload=replace(base_wl, scheme=Scheme.BASELINE))
    return PlaneComparison(
        burst=streaming_report(burst_cfg, calibration, dirty_trace=list(dirty_trace)),
        stream=streaming_report(stream_cfg, calibration, dirty_trace=list(dirty_trace)),
    )


# -- dirty-fraction trace files -------------------------------------------------


def _fraction(value: Any, where: str) -> float:
    fraction = json_number(value, where)
    if not 0.0 <= fraction <= 1.0:
        raise rejection("OUT_OF_RANGE", where, f"dirty_fraction must be in [0, 1], got {fraction}")
    return fraction


def read_dirty_trace(path: str | Path) -> list[float]:
    """Load a per-window dirty-fraction trace CSV (columns: window, dirty_fraction);
    windows count 0, 1, 2, ... and each fraction is in [0, 1].  Each cell is
    checked as it is read, so the first offence in the file raises."""
    windows = count()

    def window(value: Any, where: str) -> int:
        expected = next(windows)  # the reader sees each row's window once, in order
        if json_integer(value, where) != expected:
            raise rejection("OUT_OF_RANGE", where, f"expected window {expected}, got {value}")
        return value

    columns = {"window": csv_cell(window), "dirty_fraction": csv_cell(_fraction)}
    return csv_records(path, columns, columns, lambda row, where, i: row["dirty_fraction"])
