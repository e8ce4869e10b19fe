"""What-if studies layered on the base schemes.

Each study rebuilds the timeline with one knob turned and prices both the
plain and the modified run, so results always come as a pair.  Compression
scales buffer traffic and batching changes the decode cadence; both are
keywords of the one timeline build, which scales the display buffer by their
product, so there is no order in which they are applied.
"""

from __future__ import annotations

import csv
import io
import warnings
from pathlib import Path
from typing import NamedTuple, Sequence

from .core import Scheme, SimConfig, WorkloadKind, read_text, replace
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


class ScenarioResult(NamedTuple):
    """A plain run and its modified counterpart."""

    base: EnergyReport
    modified: EnergyReport

    @property
    def reduction(self) -> float:
        return energy_reduction(self.base, self.modified)


def apply_fbc(
    cfg: SimConfig,
    ratio: float,
    calibration: CalibrationSet | str = "default",
) -> ScenarioResult:
    """Frame-buffer compression: the display-bound buffer shrinks to ``ratio``.

    Writes of the composed frame, DC fetches, and the fetch bursts all scale
    with the ratio; the compression engine draws extra power while the frame
    is produced.  Schemes that never put the frame in DRAM have nothing to
    compress: the knob is ignored with a warning and the result shows no
    change.
    """
    if cfg.workload.scheme.uses_bypass and ratio != 1.0:
        warnings.warn(
            f"scheme '{cfg.workload.scheme.value}' keeps no DRAM frame buffer; "
            "compression ratio ignored",
            stacklevel=2,
        )
        ratio = 1.0
    base = streaming_report(cfg, calibration)
    modified = streaming_report(cfg, calibration, fbc_ratio=ratio)
    return ScenarioResult(base=base, modified=modified)


def apply_batching(
    cfg: SimConfig,
    batch_every: int,
    calibration: CalibrationSet | str = "default",
) -> ScenarioResult:
    """Decode batching: one window decodes ``batch_every`` frames ahead.

    The other windows of the batch skip the decoder wake-up entirely, and the
    frames parked in DRAM are kept in a cache-friendly layout that cuts their
    write/fetch traffic by ``core.CACHED_TRAFFIC_FRACTION``.  The timeline build
    rejects batching outside plain video playback on the conventional scheme.
    """
    # The batched run covers one whole batch cycle, so the cadence is
    # represented faithfully; the plain run covers the same windows.
    modified = streaming_report(cfg, calibration, batch_every=batch_every)
    base = streaming_report(cfg, calibration, modified.n_windows)
    return ScenarioResult(base=base, modified=modified)


class PlaneComparison(NamedTuple):
    """Selective-update bursting versus conventional full streaming."""

    burst: EnergyReport
    stream: EnergyReport


def single_plane_burst(
    cfg: SimConfig,
    dirty_trace: Sequence[float],
    calibration: CalibrationSet | str = "default",
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


def read_dirty_trace(path: str | Path) -> list[float]:
    """Load a per-window dirty-fraction trace CSV (columns: window, dirty_fraction)."""
    rows: list[float] = []
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty trace file")
    if [c.strip() for c in header] != ["window", "dirty_fraction"]:
        raise ValueError(
            f"{path}: expected header 'window,dirty_fraction', got {header}"
        )
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            idx, dirty = int(row[0]), float(row[1])
        except (IndexError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: bad trace row {row}") from exc
        if idx != len(rows):
            raise ValueError(f"{path}:{lineno}: window indices must be 0,1,2,...")
        if not 0.0 <= dirty <= 1.0:
            raise ValueError(f"{path}:{lineno}: dirty fraction {dirty} outside [0, 1]")
        rows.append(dirty)
    if not rows:
        raise ValueError(f"{path}: trace has no rows")
    return rows


def write_dirty_trace(path: str | Path, trace: Sequence[float]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", "dirty_fraction"])
        for i, d in enumerate(trace):
            writer.writerow([i, f"{float(d):.6f}"])
