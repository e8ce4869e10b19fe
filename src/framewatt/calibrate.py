"""Fit per-state package powers from measured playback runs.

Each measured run contributes one linear equation: the residency-weighted
state powers must reproduce the measured average.  With enough structurally
different runs the system pins every state that actually occurs; the fit
reports its rank so callers can tell a pinned-down table from a guessed one.
Powers are physical quantities, so the solver is non-negative least squares.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.linalg import qr
from scipy.optimize import nnls

from .core import (ConfigurationError, check_finite, json_array, json_form, json_keys, json_number,
                   json_string, read_json, read_text)
from .cstates import PackageCState, read_state_map


class UnderDeterminedError(ValueError):
    """The measured runs cannot pin down every requested state power."""

    def __init__(self, states: Sequence[PackageCState], rank: int, needed: int):
        self.states = tuple(states)
        names = ", ".join(s.value for s in self.states) or "unknown"
        super().__init__(
            f"residency matrix has rank {rank} but {needed} states are being "
            f"fitted; not uniquely identifiable: {names}"
        )


@dataclass(frozen=True)
class MeasuredRun:
    """One power measurement: residencies plus the average the meter saw."""

    residency: Mapping[PackageCState, float]
    average_power_mw: float
    label: str = ""

    def __post_init__(self) -> None:
        outside = [s.value for s, r in self.residency.items() if not 0.0 <= r <= 1.0]
        if outside:
            raise ValueError(f"run '{self.label}': residencies of {', '.join(outside)} "
                             "outside [0, 1]")
        total = sum(self.residency.values())
        if not 0.99 <= total <= 1.01:
            raise ValueError(
                f"run '{self.label}': residencies sum to {total:.4f}, expected 1"
            )
        if self.average_power_mw < 0:
            raise ValueError(f"run '{self.label}': negative measured power")


class FitResult(NamedTuple):
    state_power_mw: Mapping[PackageCState, float]
    states: tuple[PackageCState, ...]
    residual_rms_mw: float
    rank: int

    def to_dict(self) -> dict[str, Any]:
        return json_form(self)


def fit_state_powers(
    runs: Sequence[MeasuredRun],
    states: Sequence[PackageCState] | None = None,
) -> FitResult:
    """Non-negative least-squares fit of state powers to measured averages.

    ``states`` defaults to every state with non-zero residency in some run.
    When the residency matrix has lower rank than the number of states being
    solved for, the powers are not unique and the fit refuses with
    :class:`UnderDeterminedError` naming the states it cannot separate.
    """
    if not runs:
        raise ValueError("need at least one measured run")
    if states is None:
        seen = {s for run in runs for s, r in run.residency.items() if r > 0}
        states = tuple(sorted(seen, key=lambda s: s.depth))
    else:
        states = tuple(states)
    if not states:
        raise ValueError("no states to fit")

    a = np.array([[run.residency.get(s, 0.0) for s in states] for run in runs])
    b = np.array([run.average_power_mw for run in runs])
    rank = int(np.linalg.matrix_rank(a))
    if rank < len(states):
        # Column-pivoted QR: the columns pivoted past the numerical rank are
        # the ones that add no new information -- name those states.
        _, _, pivots = qr(a, mode="economic", pivoting=True)
        culprits = sorted((states[i] for i in pivots[rank:]), key=lambda s: s.depth)
        raise UnderDeterminedError(culprits, rank, len(states))
    solution, residual = nnls(a, b)
    rms = float(residual / np.sqrt(len(runs)))
    return FitResult(
        state_power_mw={s: float(p) for s, p in zip(states, solution)},
        states=states,
        residual_rms_mw=rms,
        rank=rank,
    )


class AccuracyReport(NamedTuple):
    predicted_mw: tuple[float, ...]
    measured_mw: tuple[float, ...]
    abs_error_mw: tuple[float, ...]
    mape_pct: float
    max_abs_error_mw: float
    #: Accuracy per dominant state, over runs spending >50% of time in it.
    per_state_accuracy_pct: Mapping[PackageCState, float]

    @property
    def accuracy_pct(self) -> float:
        """100 minus the mean absolute percentage error."""
        return 100.0 - self.mape_pct

    def to_dict(self) -> dict[str, Any]:
        return {**json_form(self), "accuracy_pct": self.accuracy_pct}


def model_accuracy(
    state_power_mw: Mapping[PackageCState, float],
    runs: Sequence[MeasuredRun],
) -> AccuracyReport:
    """How well a power table predicts a set of measured runs.

    Besides the overall figure, runs that spend more than half their time in
    one state grade that state individually.
    """
    if not runs:
        raise ValueError("need at least one measured run")
    predicted = []
    measured = []
    by_state: dict[PackageCState, list[float]] = {}
    for run in runs:
        p = sum(state_power_mw.get(s, 0.0) * r for s, r in run.residency.items())
        predicted.append(p)
        measured.append(run.average_power_mw)
        if run.average_power_mw > 0:
            acc = 100.0 * (1.0 - abs(p - run.average_power_mw) / run.average_power_mw)
            for s, r in run.residency.items():
                if r > 0.5:
                    by_state.setdefault(s, []).append(acc)
    errors = [abs(p - m) for p, m in zip(predicted, measured)]
    pct = [e / m * 100.0 for e, m in zip(errors, measured) if m > 0]
    return AccuracyReport(
        predicted_mw=tuple(predicted),
        measured_mw=tuple(measured),
        abs_error_mw=tuple(errors),
        mape_pct=float(np.mean(pct)) if pct else 0.0,
        max_abs_error_mw=max(errors),
        per_state_accuracy_pct={
            s: float(np.mean(v))
            for s, v in sorted(by_state.items(), key=lambda kv: kv[0].depth)
        },
    )


def runs_from_csv(path: str | Path) -> list[MeasuredRun]:
    """Load measured runs from CSV: label, one residency column per state,
    power_mw, and an optional dram_bandwidth column (ignored by the fit)."""
    out: list[MeasuredRun] = []
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    if reader.fieldnames is None:
        raise ValueError(f"{path}: empty runs file")
    state_names = {s.value for s in PackageCState}
    known = state_names | {"label", "power_mw", "dram_bandwidth"}
    unknown = set(reader.fieldnames) - known
    if unknown:
        raise ValueError(f"{path}: unknown columns {sorted(unknown)}")
    if "power_mw" not in reader.fieldnames:
        raise ValueError(f"{path}: missing power_mw column")
    for lineno, row in enumerate(reader, start=2):
        try:
            cells = {c: float(row[c]) for c in reader.fieldnames
                     if c in state_names and row[c] not in (None, "")}
            cells["power_mw"] = float(row["power_mw"])
            check_finite({f"{path}:{lineno}": cells})
            power = cells.pop("power_mw")
            out.append(
                MeasuredRun(
                    residency={PackageCState(c): r for c, r in cells.items()},
                    average_power_mw=power,
                    label=row.get("label") or f"run{lineno - 2}",
                )
            )
        except ConfigurationError:
            raise
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: bad run row: {exc}") from None
    if not out:
        raise ValueError(f"{path}: runs file has no rows")
    return out


def load_runs(path: str | Path) -> list[MeasuredRun]:
    """Load measured runs from a ``.csv`` or ``.json`` file by extension."""
    p = Path(path)
    if p.suffix.lower() == ".json":
        return runs_from_json(p)
    return runs_from_csv(p)


#: The reader of a measured-runs file's one key, an array of run objects.
_RUNS_KEYS = {"runs": json_array(partial(
    json_keys, readers={"label": json_string, "residency": read_state_map,
                        "average_power_mw": json_number},
    required=("residency", "average_power_mw")))}


def runs_from_json(path: str | Path) -> list[MeasuredRun]:
    """Load measured runs from ``{"runs": [{label, residency, average_power_mw}]}``."""
    data = read_json(path)
    check_finite(data)
    runs = json_keys(data, "", _RUNS_KEYS, required=("runs",))["runs"]
    if not runs:
        raise ValueError("measured-runs file has no runs")
    return [MeasuredRun(run["residency"], run["average_power_mw"], run.get("label", f"run{i}"))
            for i, run in enumerate(runs)]
