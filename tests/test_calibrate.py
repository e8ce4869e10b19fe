"""Fitting per-state powers from measured residency/power runs."""

from __future__ import annotations

import json
import random

import pytest

from framewatt.calibrate import (
    MeasuredRun,
    UnderDeterminedError,
    fit_state_powers,
    load_runs,
    model_accuracy,
    runs_from_csv,
    runs_from_json,
)
from framewatt.cstates import PackageCState, load_calibration

C = PackageCState

#: A plausible ground-truth table for synthetic-run generation.
TRUE = {
    C.C0: 5940.0, C.C2: 5445.0, C.C7: 1385.0, C.C7P: 1290.0,
    C.C8: 1285.0, C.C9: 1090.0, C.C10: 350.0,
}


def synth_run(residency: dict[PackageCState, float], noise: float = 0.0,
              rng: random.Random | None = None, label: str = "") -> MeasuredRun:
    power = sum(TRUE[s] * r for s, r in residency.items())
    if noise:
        power *= 1.0 + (rng or random).gauss(0.0, noise)
    return MeasuredRun(residency=residency, average_power_mw=power, label=label)


def random_residency(rng: random.Random, states) -> dict[PackageCState, float]:
    weights = [rng.random() + 0.05 for _ in states]
    total = sum(weights)
    return {s: w / total for s, w in zip(states, weights)}


# -- exact recovery -----------------------------------------------------------


def test_fit_recovers_a_known_table_from_noiseless_runs():
    rng = random.Random(7)
    states = tuple(TRUE)
    runs = [synth_run(random_residency(rng, states), label=f"r{i}")
            for i in range(20)]
    fit = fit_state_powers(runs)
    assert fit.rank == len(states)
    assert fit.residual_rms_mw < 1e-6
    for s, truth in TRUE.items():
        assert fit.state_power_mw[s] == pytest.approx(truth, abs=1e-6)


def test_fit_on_pure_runs_reads_the_powers_directly():
    runs = [synth_run({s: 1.0}, label=s.value) for s in (C.C0, C.C8, C.C9)]
    fit = fit_state_powers(runs)
    assert fit.states == (C.C0, C.C8, C.C9)
    assert fit.state_power_mw[C.C9] == pytest.approx(1090.0)


def test_fit_defaults_to_the_states_the_runs_visit():
    runs = [
        synth_run({C.C0: 0.3, C.C8: 0.7}),
        synth_run({C.C0: 0.6, C.C8: 0.4}),
    ]
    fit = fit_state_powers(runs)
    assert fit.states == (C.C0, C.C8)


def test_fitted_powers_are_never_negative():
    # measurements near zero cannot drag a state power below zero
    runs = [
        MeasuredRun({C.C8: 0.5, C.C9: 0.5}, 1.0, "a"),
        MeasuredRun({C.C8: 0.9, C.C9: 0.1}, 500.0, "b"),
        MeasuredRun({C.C8: 0.1, C.C9: 0.9}, 1.0, "c"),
    ]
    fit = fit_state_powers(runs)
    assert min(fit.state_power_mw.values()) >= 0.0


# -- rank handling -------------------------------------------------------------


def test_fewer_runs_than_states_is_under_determined():
    runs = [synth_run({C.C0: 0.2, C.C8: 0.5, C.C9: 0.3})]
    with pytest.raises(UnderDeterminedError, match="rank 1 but 3 states"):
        fit_state_powers(runs)


def test_collinear_runs_are_under_determined():
    residency = {C.C0: 0.25, C.C8: 0.75}
    runs = [synth_run(residency, label="a"), synth_run(residency, label="b")]
    with pytest.raises(UnderDeterminedError):
        fit_state_powers(runs)


def test_under_determined_error_names_the_unresolvable_states():
    runs = [synth_run({C.C0: 0.5, C.C9: 0.5}),
            synth_run({C.C0: 0.2, C.C9: 0.8})]
    with pytest.raises(UnderDeterminedError) as err:
        fit_state_powers(runs, states=(C.C0, C.C8, C.C9))
    assert C.C8 in err.value.states
    assert "C8" in str(err.value)


def test_requesting_an_unvisited_state_fails_rather_than_guessing():
    runs = [synth_run({C.C0: 1.0}), synth_run({C.C9: 1.0})]
    with pytest.raises(UnderDeterminedError):
        fit_state_powers(runs, states=(C.C0, C.C2, C.C9))


# -- run validation ---------------------------------------------------------------


def test_runs_must_have_residencies_summing_to_one():
    with pytest.raises(ValueError, match="sum to"):
        MeasuredRun({C.C0: 0.5}, 1000.0, "half")


def test_runs_reject_residencies_outside_zero_to_one():
    # They sum to one, so only the range check can catch them.
    with pytest.raises(ValueError, match=r"run 'hot': residencies of C0, C8 outside \[0, 1\]"):
        MeasuredRun({C.C0: 1.5, C.C8: -0.5}, 3000.0, "hot")


def test_runs_reject_negative_measured_power():
    with pytest.raises(ValueError, match="negative"):
        MeasuredRun({C.C0: 1.0}, -5.0, "neg")


def test_fit_requires_at_least_one_run():
    with pytest.raises(ValueError, match="at least one"):
        fit_state_powers([])


def test_fit_requires_at_least_one_state():
    with pytest.raises(ValueError, match="^no states to fit$"):
        fit_state_powers([synth_run({C.C0: 1.0})], [])


# -- accuracy grading ----------------------------------------------------------------


def test_perfect_table_scores_one_hundred_percent():
    rng = random.Random(3)
    runs = [synth_run(random_residency(rng, tuple(TRUE))) for _ in range(10)]
    report = model_accuracy(TRUE, runs)
    assert report.accuracy_pct == pytest.approx(100.0)
    assert report.max_abs_error_mw == pytest.approx(0.0)


def test_accuracy_grades_dominant_states_individually():
    runs = [
        synth_run({C.C8: 0.8, C.C9: 0.2}, label="mostly-draining"),
        synth_run({C.C9: 0.9, C.C8: 0.1}, label="mostly-asleep"),
        synth_run({C.C0: 0.5, C.C9: 0.5}, label="even-split"),
    ]
    report = model_accuracy(TRUE, runs)
    assert set(report.per_state_accuracy_pct) == {C.C8, C.C9}


def test_accuracy_requires_at_least_one_run():
    with pytest.raises(ValueError, match="^need at least one measured run$"):
        model_accuracy(TRUE, [])


def test_biased_table_loses_accuracy():
    rng = random.Random(11)
    runs = [synth_run(random_residency(rng, tuple(TRUE))) for _ in range(10)]
    biased = {s: p * 1.10 for s, p in TRUE.items()}
    report = model_accuracy(biased, runs)
    assert report.accuracy_pct == pytest.approx(90.0, abs=0.01)


# -- file loading ----------------------------------------------------------------------


def test_runs_load_from_csv(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text(
        "label,C0,C2,C8,power_mw,dram_bandwidth\n"
        "playback,0.09,0.11,0.80,2162,4.1\n"
        "idle,0.0,0.0,1.0,1285,\n",
        encoding="utf-8",
    )
    runs = runs_from_csv(path)
    assert len(runs) == 2
    assert runs[0].label == "playback"
    assert runs[0].residency[C.C2] == 0.11
    assert runs[1].average_power_mw == 1285.0


def test_csv_rejects_unknown_columns(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text("label,C0,C11,power_mw\nx,1.0,0.0,100\n", encoding="utf-8")
    with pytest.raises(ValueError,
                       match=r"^UNKNOWN_KEY \[.*runs\.csv:1\.C11\]: unknown key 'C11'"):
        runs_from_csv(path)


def test_csv_requires_a_power_column(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text("label,C0\nx,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="power_mw"):
        runs_from_csv(path)


@pytest.mark.parametrize("text, message", [
    ("", "MISSING_KEY [PATH:1.power_mw]: missing required key 'power_mw'"),
    ("label,C0,power_mw\n", "EMPTY [PATH:2]: expected a row under the header"),
], ids=["empty", "header-only"])
def test_csv_without_runs_is_rejected(text, message, tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        runs_from_csv(path)
    assert str(err.value) == message.replace("PATH", str(path))


def test_csv_pins_bad_rows_to_line_numbers(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text("label,C0,power_mw\nok,1.0,100\nbad,oops,100\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=r"runs\.csv:3"):
        runs_from_csv(path)


@pytest.mark.parametrize("text, message", [
    ("label,C0,power_mw\nx,1.0,100,7\n",
     "EXTRA_CELLS [PATH:2]: 4 cells where the header names 3 columns"),
    ("label,C0,C0,power_mw\nx,0.0,1.0,5\n",
     "DUPLICATE_KEY [PATH:1.C0]: column 'C0' named twice"),
    ("label,C0,power_mw\nbad,0.5,100\nok,x,100\n",
     "OUT_OF_RANGE [PATH:2]: run 'bad': residencies sum to 0.5000, expected 1"),
], ids=["cell-past-the-header", "column-named-twice", "run-rule-before-a-later-bad-cell"])
def test_csv_names_the_first_offence_and_drops_no_cell(text, message, tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        runs_from_csv(path)
    assert str(err.value) == message.replace("PATH", str(path))


def test_runs_load_from_json(tmp_path):
    path = tmp_path / "runs.json"
    doc = {"runs": [
        {"label": "a", "residency": {"C0": 0.5, "C9": 0.5},
         "average_power_mw": 3515.0},
    ]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    runs = runs_from_json(path)
    assert runs[0].residency == {C.C0: 0.5, C.C9: 0.5}


def test_json_rejects_unknown_run_keys(tmp_path):
    path = tmp_path / "runs.json"
    doc = {"runs": [{"label": "a", "residency": {"C0": 1.0},
                     "average_power_mw": 1.0, "comment": "x"}]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        runs_from_json(path)
    assert str(err.value) == ("UNKNOWN_KEY [runs[0].comment]: unknown key 'comment'; expected "
                              "one of label, residency, average_power_mw")


def test_json_rejects_unknown_top_level_keys(tmp_path):
    path = tmp_path / "runs.json"
    doc = {"runs": [{"residency": {"C0": 1.0}, "average_power_mw": 1.0}], "meter": "x"}
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        runs_from_json(path)
    assert str(err.value) == "UNKNOWN_KEY [meter]: unknown key 'meter'; expected one of runs"


@pytest.mark.parametrize("runs, message", [
    ([5], "WRONG_TYPE [runs[0]]: expected an object, got 5"),
    ([{"residency": 5, "average_power_mw": 1}],
     "WRONG_TYPE [runs[0].residency]: expected an object, got 5"),
    ([{"residency": {"C0": "x"}, "average_power_mw": 1}],
     'WRONG_TYPE [runs[0].residency.C0]: expected a number, got "x"'),
    ([{"residency": {"C0": 1.0}, "average_power_mw": None}],
     "WRONG_TYPE [runs[0].average_power_mw]: expected a number, got null"),
    ([], "EMPTY [runs]: expected at least one item, got []"),
    ([{"residency": {"C0": 1.0}}],
     "MISSING_KEY [runs[0].average_power_mw]: missing required key 'average_power_mw'"),
])
def test_json_runs_of_the_wrong_shape_name_the_key(runs, message, tmp_path):
    path = tmp_path / "runs.json"
    path.write_text(json.dumps({"runs": runs}), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        runs_from_json(path)
    assert str(err.value) == message


def test_load_runs_dispatches_on_extension(tmp_path):
    csv_path = tmp_path / "runs.csv"
    csv_path.write_text("label,C0,power_mw\nx,1.0,5940\n", encoding="utf-8")
    json_path = tmp_path / "runs.json"
    json_path.write_text(
        json.dumps({"runs": [{"residency": {"C0": 1.0},
                              "average_power_mw": 5940.0}]}),
        encoding="utf-8",
    )
    assert load_runs(csv_path)[0].average_power_mw == 5940.0
    assert load_runs(json_path)[0].average_power_mw == 5940.0


def test_fit_result_serializes():
    runs = [synth_run({s: 1.0}) for s in (C.C0, C.C9)]
    doc = fit_state_powers(runs).to_dict()
    assert json.dumps(doc)
    assert doc["rank"] == 2
    assert doc["state_power_mw"]["C9"] == pytest.approx(1090.0)


# -- end-to-end against a shipped table ---------------------------------------------


def test_fit_recovers_the_shipped_conventional_table():
    profile = load_calibration("default").conventional
    rng = random.Random(23)
    states = tuple(PackageCState)
    runs = []
    for i in range(30):
        residency = random_residency(rng, states)
        power = sum(profile.state_power_mw[s] * w for s, w in residency.items())
        runs.append(MeasuredRun(residency, power, f"synthetic{i}"))
    fit = fit_state_powers(runs)
    for s in states:
        assert fit.state_power_mw[s] == pytest.approx(
            profile.state_power_mw[s], abs=1e-6
        )
