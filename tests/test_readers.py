"""Fuzzing the input readers: one mutation of a valid JSON document or CSV
file either reads cleanly or is refused by a violation at the mutated key
path or row."""

from __future__ import annotations

import copy
import json
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from framewatt.calibrate import runs_from_csv, runs_from_json
from framewatt.core import ConfigurationError, SimConfig
from framewatt.cstates import calibration_from_dict
from framewatt.presets import PRESETS
from framewatt.scenarios import read_dirty_trace

_CALIBRATION = json.loads(resources.files("framewatt").joinpath(
    "data", "default_calibration.json").read_text(encoding="utf-8"))

_RUNS = {"runs": [
    {"label": "busy", "residency": {"C0": 0.25, "C8": 0.75}, "average_power_mw": 2000.0},
    {"residency": {"C2": 0.5, "C9": 0.5}, "average_power_mw": 900},
]}

#: Each format's start documents and the key paths its reader requires.
_FORMATS = {
    "config": ([p.config.to_dict() for p in PRESETS.values()], ()),
    "calibration": ([_CALIBRATION], (
        "profiles", "profiles.conventional", "profiles.burst",
        "profiles.conventional.state_power_mw", "profiles.burst.state_power_mw")),
    "runs": ([_RUNS], ("runs", "runs[0].residency", "runs[0].average_power_mw",
                       "runs[1].residency", "runs[1].average_power_mw")),
}

_HUGE = 10 ** 400

#: Replacement values by JSON kind; a value is replaced only by another
#: kind's, by a nested value, or by a number no float holds.
_VALUES = {
    "bool": [True, False],
    "number": [0, 7, 2.5],
    "string": ["x", ""],
    "null": [None],
    "array": [[1], [[1]], [{"zz": 1}]],
    "object": [{"zz": 1}, {"zz": {"y": [1]}}, {"zz": float("nan")}],
}
_ALWAYS = [float("nan"), float("inf"), -float("inf"), _HUGE, -_HUGE]


def _kind(value):
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if value is None:
        return "null"
    return "array" if isinstance(value, list) else "object"


def _locations(value, where=""):
    """(path, container, key) of every value below the root, by the key
    path form violations use."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        at = f"{where}[{key}]" if isinstance(value, list) else f"{where}.{key}" if where else key
        yield at, value, key
        yield from _locations(item, at)


def _objects(value, where=""):
    """(path, object) of the root and every object below it."""
    if isinstance(value, dict):
        yield where, value
    for at, container, key in _locations(value, where):
        if isinstance(container[key], dict):
            yield at, container[key]


def _under(field, path):
    return field == path or field.startswith((f"{path}.", f"{path}["))


def _read(fmt, doc, tmp_path):
    if fmt == "config":
        return SimConfig.from_dict(doc)
    if fmt == "calibration":
        return calibration_from_dict(doc)
    path = tmp_path / "runs.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return runs_from_json(path)


@settings(max_examples=600, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), fmt=st.sampled_from(sorted(_FORMATS)),
       how=st.sampled_from(["replace", "add", "drop"]))
def test_one_mutation_is_read_or_refused_at_its_key_path(data, fmt, how, tmp_path):
    starts, required = _FORMATS[fmt]
    doc = copy.deepcopy(data.draw(st.sampled_from(starts)))
    if how == "drop" and required:  # no config key is required: a replacement instead
        path = data.draw(st.sampled_from(required))
        container, key = next((c, k) for at, c, k in _locations(doc) if at == path)
        del container[key]
        allowed = [path]
    elif how == "add":
        path, obj = data.draw(st.sampled_from(list(_objects(doc))))
        obj["zz_unknown"] = data.draw(st.sampled_from(
            [v for values in _VALUES.values() for v in values] + _ALWAYS))
        # an object of free names (DRAM modes) takes the key; its own rule names it
        allowed = [f"{path}.zz_unknown" if path else "zz_unknown"] + [path] * bool(path)
    else:
        path, container, key = data.draw(st.sampled_from(list(_locations(doc))))
        kind = _kind(container[key])
        container[key] = data.draw(st.sampled_from(
            [v for k, values in _VALUES.items() if k != kind or k in ("array", "object")
             for v in values] + _ALWAYS))
        allowed = [path]
    try:
        _read(fmt, doc, tmp_path)
    except ConfigurationError as exc:
        field = exc.violations[0].field
        assert any(_under(field, p) for p in allowed), (field, allowed, exc)


@pytest.mark.parametrize("fmt", sorted(_FORMATS))
def test_every_start_document_reads_cleanly(fmt, tmp_path):
    for doc in _FORMATS[fmt][0]:
        _read(fmt, copy.deepcopy(doc), tmp_path)


# -- CSV files ----------------------------------------------------------------

_TRACE = "".join(resources.files("framewatt").joinpath(
    "data", "traces", "gaming.csv").read_text(encoding="utf-8").splitlines(True)[:6])

#: Each CSV reader's start file and the mutations that apply to it.
_CSV = {
    "trace.csv": (read_dirty_trace, _TRACE,
                  ["cell", "rename", "drop", "cut", "skip", "fraction", "extra", "twice"]),
    "runs.csv": (runs_from_csv, "label,C0,C8,power_mw,dram_bandwidth\n"
                                "busy,0.25,0.75,2000,4.1\nidle,0,1.0,1285,\n",
                 ["cell", "rename", "drop", "cut", "fraction", "extra", "twice"]),
}

#: The columns a fraction mutation may put outside [0, 1].
_FRACTIONS = {"dirty_fraction", "C0", "C8"}


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), name=st.sampled_from(sorted(_CSV)))
def test_one_mutation_of_a_csv_file_is_read_or_refused_at_its_row(data, name, tmp_path):
    read, text, mutations = _CSV[name]
    rows = [line.split(",") for line in text.splitlines()]
    header = rows[0]
    how = data.draw(st.sampled_from(mutations))
    row = data.draw(st.integers(1, len(rows) - 1))
    column = data.draw(st.integers(0, len(header) - 1))
    lines = [row + 1]  # the lines whose place a violation may name
    if how == "cell":
        rows[row][column] = data.draw(st.sampled_from(["x", "nan", "inf", str(_HUGE), ""]))
    elif how == "rename":
        header[column] = data.draw(st.sampled_from(["zz", "", "Window"]))
        lines = [1]
    elif how == "drop":
        for cells in rows:
            del cells[column]
        lines = range(1, len(rows) + 1)
    elif how == "cut":
        del rows[row][data.draw(st.integers(1, len(header) - 1)):]
    elif how == "skip":
        for cells in rows[row:]:
            cells[0] = str(int(cells[0]) + 1)
    elif how == "extra":  # a cell past the header, which no column would read
        rows[row] += [""] * (len(header) - len(rows[row])) + ["0.5"]
    elif how == "twice":  # a column named twice, whose first cells no key would keep
        header[column] = header[column - 1]
        lines = [1]
    else:
        column = header.index(data.draw(st.sampled_from(sorted(_FRACTIONS & set(header)))))
        rows[row][column] = data.draw(st.sampled_from(["1.5", "-0.25"]))
    path = tmp_path / name
    path.write_text("".join(",".join(cells) + "\n" for cells in rows), encoding="utf-8")
    try:
        read(path)
    except ConfigurationError as exc:
        field = exc.violations[0].field
        assert any(_under(field, f"{path}:{line}") for line in lines), (field, list(lines), exc)
    else:
        assert how not in ("extra", "twice"), "a cell was dropped without a word"


@pytest.mark.parametrize("name", sorted(_CSV))
def test_every_csv_start_file_reads_cleanly(name, tmp_path):
    read, text, _ = _CSV[name]
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    read(path)
