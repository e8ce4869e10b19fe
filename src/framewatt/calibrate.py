"""Fit per-state package powers from measured playback runs.

Each measured run contributes one linear equation: the residency-weighted
state powers must reproduce the measured average.  With enough structurally
different runs the system pins every state that actually occurs; the fit
reports its rank so callers can tell a pinned-down table from a guessed one.
Powers are physical quantities, so the solver is non-negative least squares.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.linalg import qr
from scipy.optimize import nnls

from .core import (Reader, Record, csv_cell, csv_records, json_array, json_form, json_keys,
                   json_number, json_string, read_json, rejection)
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


class MeasuredRun(Record):
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


def _run(where: str, residency: Mapping[PackageCState, float], power: float,
         label: str) -> MeasuredRun:
    """The run read at ``where``; a value it refuses is ``OUT_OF_RANGE`` there."""
    try:
        return MeasuredRun(residency, power, label)
    except ValueError as exc:
        raise rejection("OUT_OF_RANGE", where, str(exc)) from None


#: The columns of a measured-runs CSV: the label, one residency column per
#: state, the power and a bandwidth column the fit ignores.
_RUN_COLUMNS: dict[str, Reader] = {
    "label": json_string, **{s.value: csv_cell(json_number) for s in PackageCState},
    "power_mw": csv_cell(json_number), "dram_bandwidth": json_string}


def runs_from_csv(path: str | Path) -> list[MeasuredRun]:
    """Load measured runs from CSV: label, one residency column per state,
    power_mw, and an optional dram_bandwidth column (ignored by the fit)."""
    return csv_records(path, _RUN_COLUMNS, ("power_mw",), lambda row, where, i: _run(
        where, {PackageCState(c): r for c, r in row.items()
                if c not in ("label", "power_mw", "dram_bandwidth")},
        row["power_mw"], row.get("label", f"run{i}")))


def load_runs(path: str | Path) -> list[MeasuredRun]:
    """Load measured runs from a ``.csv`` or ``.json`` file by extension."""
    p = Path(path)
    if p.suffix.lower() == ".json":
        return runs_from_json(p)
    return runs_from_csv(p)


#: The reader of a measured-runs file's one key, a non-empty array of run objects.
_RUNS_KEYS = {"runs": json_array(partial(
    json_keys, readers={"label": json_string, "residency": read_state_map,
                        "average_power_mw": json_number},
    required=("residency", "average_power_mw")))}


def runs_from_json(path: str | Path) -> list[MeasuredRun]:
    """Load measured runs from ``{"runs": [{label, residency, average_power_mw}]}``."""
    runs = json_keys(read_json(path), "", _RUNS_KEYS, required=("runs",))["runs"]
    return [_run(f"runs[{i}]", run["residency"], run["average_power_mw"],
                 run.get("label", f"run{i}"))
            for i, run in enumerate(runs)]
