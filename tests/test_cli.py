"""Command-line interface: subcommands, exit codes, files, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from framewatt import cli
from framewatt.cli import main
from framewatt.cstates import load_calibration
from conftest import make_config
from framewatt.core import Scheme
from framewatt.power import streaming_report


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.json"
    cfg = make_config("4k", 60, Scheme.BURSTLINK)
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    return path


@pytest.fixture()
def broken_config_file(tmp_path):
    path = tmp_path / "broken.json"
    doc = make_config("4k", 60, Scheme.BURSTLINK).to_dict()
    doc["display"]["panel_has_drfb"] = False
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# -- simulate -----------------------------------------------------------------


def test_simulate_preset_prints_the_headline_figures(capsys):
    assert main(["simulate", "--preset", "4k60", "--scheme", "burstlink"]) == 0
    out = capsys.readouterr().out
    assert "average power" in out
    assert "burstlink" in out
    assert "residency" in out


def test_simulate_writes_the_result_files(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["simulate", "--preset", "fhd30", "--out", str(out_dir)]) == 0
    for name in ("report.json", "report.csv", "timeline.csv", "timeline.svg"):
        assert (out_dir / name).exists()
    doc = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert doc["manifest"]["command"] == "simulate"
    assert doc["manifest"]["preset"] == "fhd30"
    assert doc["report"]["average_power_mw"] > 0
    assert doc["config"]["workload"]["scheme"] == "baseline"


def test_simulate_accepts_config_files(config_file, capsys):
    assert main(["simulate", "--config", str(config_file)]) == 0
    assert "burstlink" in capsys.readouterr().out


def test_simulate_json_only_format(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["simulate", "--preset", "fhd30", "--out", str(out_dir),
                 "--format", "json"]) == 0
    assert (out_dir / "report.json").exists()
    assert not (out_dir / "report.csv").exists()


def test_simulate_is_byte_deterministic(tmp_path, capsys):
    out = tmp_path / "run"
    names = ("report.json", "report.csv", "timeline.csv", "timeline.svg")
    assert main(["simulate", "--preset", "4k60", "--scheme", "burstlink",
                 "--out", str(out)]) == 0
    first = {name: (out / name).read_bytes() for name in names}
    assert main(["simulate", "--preset", "4k60", "--scheme", "burstlink",
                 "--out", str(out)]) == 0
    for name in names:
        assert (out / name).read_bytes() == first[name]


def test_simulate_rejects_both_config_and_preset(config_file, capsys):
    code = main(["simulate", "--config", str(config_file), "--preset", "fhd30"])
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_simulate_requires_a_source(capsys):
    assert main(["simulate"]) == 2
    assert "required" in capsys.readouterr().err


def test_simulate_flags_invalid_configurations(broken_config_file, capsys):
    assert main(["simulate", "--config", str(broken_config_file)]) == 2
    err = capsys.readouterr().err
    assert "BURST_NEEDS_DRFB" in err


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
def test_simulate_rejects_non_finite_config_numbers(literal, tmp_path, capsys):
    doc = json.dumps(make_config("4k", 60, Scheme.BURSTLINK).to_dict())
    path = tmp_path / "config.json"
    path.write_text(doc.replace('"decode_rate": 22500000000.0',
                                f'"decode_rate": {literal}'), encoding="utf-8")
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "violation\tNON_FINITE\tsystem.decode_rate\t" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("literal", ["Infinity", "NaN"])
def test_simulate_rejects_non_finite_calibration_numbers(literal, tmp_path, capsys):
    from importlib import resources

    text = resources.files("framewatt").joinpath(
        "data", "default_calibration.json").read_text(encoding="utf-8")
    doc = json.loads(text)
    doc["drfb_power_mw"] = "PLACEHOLDER"
    path = tmp_path / "calibration.json"
    path.write_text(json.dumps(doc).replace('"PLACEHOLDER"', literal),
                    encoding="utf-8")
    assert main(["simulate", "--preset", "4k60", "--calibration", str(path)]) == 2
    err = capsys.readouterr().err
    assert "violation\tNON_FINITE\tdrfb_power_mw\t" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("doc", [
    '{"display": {"resolution": 5}}',
    '{"display": {"refresh_hz": "60"}}',
    '{"display": {"refresh_hz": 60.5}}',
    '{"system": {"dc_buffer_bytes": 1.5}}',
    '{"display": null}',
    '{"system": {"dram_background_mw": {"active": "x", "fast_powerdown": 1, '
    '"self_refresh": 1, "off": 0}}}',
    '{"system": {"dram_background_mw": {"active": true, "fast_powerdown": 1, '
    '"self_refresh": 1, "off": 0}}}',
])
def test_simulate_rejects_config_values_of_the_wrong_json_type(doc, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(doc, encoding="utf-8")
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_wrong_type_inside_an_object_names_the_nested_key(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"system": {"dram_background_mw": {"active": "x"}}}',
                    encoding="utf-8")
    assert main(["simulate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: config key 'system.dram_background_mw.active' must be a number, "
        'got "x"\n')


_DRAM_MODES = {"active": 450.0, "fast_powerdown": 150.0, "self_refresh": 25.0, "off": 0.0}


@pytest.mark.parametrize("system, argv, message", [
    ({"gpu_active_mw": -5}, ["--kind", "vr360"], "gpu_active_mw must be >= 0, got -5"),
    ({"fbc_compute_mw": -1e9}, ["--fbc-ratio", "0.5"],
     "fbc_compute_mw must be >= 0, got -1000000000.0"),
    ({"dram_background_mw": {**_DRAM_MODES, "active": -100}}, [],
     "dram_background_mw.active must be >= 0, got -100"),
    ({"dram_background_mw": {**_DRAM_MODES, "extra": 5}}, [],
     "dram_background_mw has unknown modes: ['extra']"),
    ({"dram_capacity_bytes": 0}, [], "dram_capacity_bytes must be positive, got 0"),
    ({"dram_capacity_bytes": -1}, [], "dram_capacity_bytes must be positive, got -1"),
], ids=["gpu", "fbc", "negative-mode", "unknown-mode", "zero-capacity", "negative-capacity"])
def test_impossible_system_values_name_the_field(system, argv, message, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"system": system}), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(path), *argv, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out_dir.exists()


def test_simulate_rejects_a_buffer_that_splits_the_frame_too_finely(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"display": {"resolution": "4k"}, "system": {"dc_buffer_bytes": 256}}',
                    encoding="utf-8")
    assert main(["simulate", "--config", str(path)]) == 2
    assert "violation\tDC_BUFFER_TOO_SMALL\tsystem.dc_buffer_bytes\t" in capsys.readouterr().err


def test_simulate_accepts_5k_deep_color_in_small_chunks(tmp_path, capsys):
    # 5120 x 2880 x 4 B in 4 KiB chunks is 14,400 fills per frame.
    path = tmp_path / "config.json"
    path.write_text('{"display": {"resolution": "5k", "bits_per_pixel": 32, '
                    '"refresh_hz": 30}, "system": {"dc_buffer_bytes": 4096}, '
                    '"workload": {"video_fps": 30}}', encoding="utf-8")
    assert main(["simulate", "--config", str(path), "--scheme", "burstlink"]) == 0
    assert "traffic          reads=921600 B" in capsys.readouterr().out


def test_simulate_missing_config_file_is_a_runtime_error(capsys):
    assert main(["simulate", "--config", "/does/not/exist.json"]) == 1


def test_workload_overrides_reach_the_report(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["simulate", "--preset", "fhd30", "--scheme", "bypass_only",
                 "--fps", "60", "--out", str(out_dir)]) == 0
    doc = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert doc["config"]["workload"]["scheme"] == "bypass_only"
    assert doc["config"]["workload"]["video_fps"] == 60
    assert doc["manifest"]["overrides"]["scheme"] == "bypass_only"


# -- compare ------------------------------------------------------------------


def test_compare_two_schemes_side_by_side(tmp_path, capsys):
    out_dir = tmp_path / "cmp"
    assert main(["compare", "--preset", "4k60", "--scheme-b", "burstlink",
                 "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "average_power_mw" in out
    doc = json.loads((out_dir / "compare.json").read_text(encoding="utf-8"))
    assert doc["a"]["report"]["average_power_mw"] > doc["b"]["report"]["average_power_mw"]
    assert doc["delta"]["average_power_pct"] < 0
    assert (out_dir / "compare.csv").exists()


def test_compare_warns_on_unlike_panels(capsys):
    assert main(["compare", "--preset", "4k60", "--preset-b", "fhd30"]) == 0
    assert "different display configurations" in capsys.readouterr().err


def test_compare_side_b_inherits_side_a_overlays(tmp_path, capsys):
    out_dir = tmp_path / "cmp"
    assert main(["compare", "--preset", "4k60", "--fbc-ratio", "0.5",
                 "--scheme-b", "baseline", "--fbc-ratio-b", "1.0",
                 "--out", str(out_dir)]) == 0
    doc = json.loads((out_dir / "compare.json").read_text(encoding="utf-8"))
    # A runs compressed, B explicitly uncompressed: B must cost more
    assert doc["delta"]["average_power_pct"] > 0


def _result(tmp_path, argv):
    """The JSON document ``argv`` writes under a fresh --out directory."""
    out_dir = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    assert main([*argv, "--out", str(out_dir), "--format", "json"]) == 0
    (path,) = out_dir.glob("*.json")
    return json.loads(path.read_text(encoding="utf-8"))


def test_manifest_records_side_a_overlays_only_off_their_defaults(tmp_path, capsys):
    doc = _result(tmp_path, ["compare", "--preset", "4k60", "--fbc-ratio", "1.0",
                             "--batch-every", "1", "--fbc-ratio-b", "1.0"])
    assert doc["manifest"]["overrides"] == {}
    # side B has no defaults: any value it is given is recorded
    assert doc["manifest"]["side_b"]["overrides"] == {"fbc_ratio": 1.0}
    doc = _result(tmp_path, ["simulate", "--preset", "4k60", "--fbc-ratio", "1.0",
                             "--batch-every", "1"])
    assert doc["manifest"]["overrides"] == {}


def test_compare_side_b_with_its_own_preset_starts_pristine(tmp_path, capsys):
    doc = _result(tmp_path, ["compare", "--preset", "4k60", "--scheme", "burstlink",
                             "--fbc-ratio", "0.5", "--calibration", "latency-demo",
                             "--preset-b", "4k60"])
    alone = _result(tmp_path, ["simulate", "--preset", "4k60"])
    assert doc["b"] == {"config": alone["config"], "report": alone["report"]}
    assert doc["manifest"]["side_b"] == {"preset": "4k60", "config_paths": [],
                                         "calibration": "default", "overrides": {}}


def test_compare_side_b_without_a_source_inherits_side_a(tmp_path, capsys):
    side_a = ["--preset", "4k60", "--scheme", "baseline", "--fbc-ratio", "0.5",
              "--batch-every", "2", "--cached-fraction", "0.5",
              "--calibration", "latency-demo"]
    doc = _result(tmp_path, ["compare", *side_a, "--fps-b", "30"])
    alone = _result(tmp_path, ["simulate", *side_a, "--fps", "30"])
    assert doc["b"] == {"config": alone["config"], "report": alone["report"]}
    assert doc["manifest"]["side_b"] == {"preset": None, "config_paths": [],
                                         "calibration": "latency-demo",
                                         "overrides": {"fps": 30}}


def test_compare_trace_b_drives_side_b_only(tmp_path, capsys):
    from importlib import resources

    run = ["--preset", "fhd60", "--kind", "single_plane", "--scheme",
           "bursting_only", "--windows", "12"]
    traces = resources.files("framewatt").joinpath("data", "traces")
    with resources.as_file(traces / "gaming.csv") as gaming, \
            resources.as_file(traces / "productivity.csv") as productivity:
        doc = _result(tmp_path, ["compare", *run, "--trace", str(gaming),
                                 "--trace-b", str(productivity)])
        a = _result(tmp_path, ["simulate", *run, "--trace", str(gaming)])
        b = _result(tmp_path, ["simulate", *run, "--trace", str(productivity)])
    assert doc["a"]["report"] == a["report"]
    assert doc["b"]["report"] == b["report"]
    assert a["report"] != b["report"]


@pytest.mark.parametrize("argv, code, message", [
    (["--preset", "4k60", "--config-b", "CONFIG", "--preset-b", "fhd30"], 2,
     "error: --config-b and --preset-b are mutually exclusive"),
    (["--preset-b", "fhd30"], 2, "error: one of --config or --preset is required"),
    # errors come in order: A's source, A's trace, B's source, B's trace
    (["--config", "CONFIG", "--preset", "4k60", "--trace", "MISSING",
      "--config-b", "CONFIG", "--preset-b", "fhd30"], 2,
     "error: --config and --preset are mutually exclusive"),
    (["--preset", "fhd60", "--trace", "MISSING", "--config-b", "CONFIG",
      "--preset-b", "fhd30"], 1, "error: [Errno 2] No such file or directory"),
    (["--preset", "fhd60", "--config-b", "CONFIG", "--preset-b", "fhd30",
      "--trace-b", "MISSING"], 2,
     "error: --config-b and --preset-b are mutually exclusive"),
])
def test_compare_side_errors_name_the_side(argv, code, message, config_file, tmp_path,
                                           capsys):
    subs = {"CONFIG": str(config_file), "MISSING": str(tmp_path / "missing.csv")}
    assert main(["compare", *(subs.get(a, a) for a in argv)]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(message)


def test_every_side_a_flag_has_a_side_b_twin_without_a_default():
    from framewatt.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command").choices
    shared = {"help", "windows", "seed", "out", "format"}
    side_a = {a.dest: a for a in sub["simulate"]._actions if a.dest not in shared}
    side_b = {a.dest: a for a in sub["compare"]._actions if a.dest.endswith("_b")}
    assert len(side_a) == 11
    assert set(side_b) == {dest + "_b" for dest in side_a}
    for dest, a in side_a.items():
        b = side_b[dest + "_b"]
        assert b.option_strings == [s + "-b" for s in a.option_strings]
        assert (type(b), b.type, b.choices, b.default) == (type(a), a.type, a.choices, None)


@pytest.mark.parametrize("command", ["simulate", "compare", "sweep", "calibrate",
                                     "validate", "presets"])
def test_every_subcommand_prints_its_help(command, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: framewatt {command}")


@pytest.mark.parametrize("value", ["inf", "nan", "-5", "1.5"])
@pytest.mark.parametrize("command", [["simulate"], ["validate"],
                                     ["compare", "--preset-b", "fhd30"]])
def test_out_of_range_cached_fraction_is_a_usage_error(command, value, capsys):
    argv = [command[0], "--preset", "fhd30", *command[1:], "--batch-every", "2",
            "--cached-fraction", value]
    assert main(argv) == 2
    assert "cached_traffic_fraction must be in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("batch, code", [("14", "BATCH_WINDOW_OVERRUN"),
                                         ("200", "BATCH_EXCEEDS_DRAM")])
@pytest.mark.parametrize("command", ["simulate", "validate", "compare"])
def test_infeasible_decode_batches_are_usage_errors(command, batch, code, capsys):
    assert main([command, "--preset", "4k60", "--batch-every", batch]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {code}: ")


@pytest.mark.parametrize("argv, doc", [
    (["simulate", "--preset", "fhd30", "--fps", "0"], None),
    (["simulate", "--preset", "fhd30", "--fps", "-5"], None),
    (["compare", "--preset", "fhd30", "--fps-b", "0"], None),
    (["simulate", "--preset", "fhd60", "--kind", "single_plane", "--scheme",
      "bursting_only", "--trace", "TRACE", "--fbc-ratio", "0.5"], None),
    (["calibrate", "--runs", "JSON"], {"runs": [5]}),
    (["calibrate", "--runs", "JSON"],
     {"runs": [{"residency": 5, "average_power_mw": 1}]}),
    (["simulate", "--preset", "fhd30", "--calibration", "JSON"],
     {"profiles": {"conventional": {"state_power_mw": 5}, "burst": {}}}),
])
def test_inputs_that_cannot_apply_are_usage_errors(argv, doc, tmp_path, capsys):
    from importlib import resources

    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    ref = resources.files("framewatt").joinpath("data", "traces", "gaming.csv")
    with resources.as_file(ref) as trace:
        subs = {"TRACE": str(trace), "JSON": str(path)}
        assert main([subs.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ")


@pytest.mark.parametrize("argv, doc, message", [
    (["calibrate", "--runs", "JSON"], {"runs": 5}, "runs must be an array, got 5"),
    (["calibrate", "--runs", "JSON"],
     [{"residency": {"C0": 1.0}, "average_power_mw": 1.0}],
     "measured-runs file must be an object, got ["),
    (["simulate", "--preset", "fhd30", "--calibration", "JSON"], {"profiles": 5},
     "profiles must be an object, got 5"),
    (["simulate", "--preset", "fhd30", "--calibration", "JSON"],
     {"profiles": {"conventional": 5, "burst": {}}},
     "profiles.conventional must be an object, got 5"),
    (["simulate", "--preset", "fhd30", "--calibration", "CALIBRATION"],
     {"vd_gate_delta_mw": [1]}, "vd_gate_delta_mw must be a number, got [1]"),
    (["simulate", "--preset", "fhd30", "--calibration", "CALIBRATION"],
     {"drfb_power_mw": "x"}, 'drfb_power_mw must be a number, got "x"'),
    (["simulate", "--preset", "fhd30", "--calibration", "CALIBRATION"],
     {"name": {"a": 1}}, 'name must be a string, got {"a": 1}'),
    (["simulate", "--preset", "fhd30", "--calibration", "CALIBRATION"],
     {"description": 5}, "description must be a string, got 5"),
    # a str doc is written as is: arrays nested deeper than the decoder goes
    pytest.param(["simulate", "--config", "JSON"], "[" * 100_000 + "]" * 100_000,
                 "PATH: JSON nested too deeply to read", id="deep-config"),
    pytest.param(["simulate", "--config", "JSON"], "[" * 990 + "]" * 990,
                 "PATH: JSON nested too deeply to read", id="deep-990-config"),
    pytest.param(["simulate", "--preset", "fhd30", "--calibration", "JSON"],
                 "[" * 100_000 + "]" * 100_000, "PATH: JSON nested too deeply to read",
                 id="deep-calibration"),
    pytest.param(["calibrate", "--runs", "JSON"],
                 '{"runs": ' + "[" * 100_000 + "]" * 100_000 + "}",
                 "PATH: JSON nested too deeply to read", id="deep-runs"),
    # values the decoder reads (under the test runner's deeper stack too) but of
    # the wrong type: the line quotes only their start
    pytest.param(["simulate", "--preset", "fhd30", "--calibration", "JSON"],
                 "[" * 500 + "]" * 500,
                 "calibration must be an object, got " + "[" * 60 + "...",
                 id="deep-calibration-value"),
    pytest.param(["simulate", "--config", "JSON"],
                 '{"display": {"refresh_hz": ' + "[" * 500 + "]" * 500 + "}}",
                 "config key 'display.refresh_hz' must be an integer, got "
                 + "[" * 60 + "...", id="deep-refresh-hz-value"),
    pytest.param(["calibrate", "--runs", "JSON"],
                 '{"runs": [' + "[" * 500 + "]" * 500 + "]}",
                 "run 0 must be an object, got " + "[" * 60 + "...", id="deep-run-value"),
])
def test_json_of_the_wrong_shape_names_the_key(argv, doc, message, tmp_path, capsys):
    if "CALIBRATION" in argv:  # one key of the default calibration replaced
        from importlib import resources

        text = resources.files("framewatt").joinpath(
            "data", "default_calibration.json").read_text(encoding="utf-8")
        doc = {**json.loads(text), **doc}
    path = tmp_path / "input.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    assert main([str(path) if a in ("JSON", "CALIBRATION") else a for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert len(err[0]) < 200  # short however large the value
    assert err[0].startswith(f"error: {message.replace('PATH', str(path))}")


@pytest.mark.parametrize("name, text, field", [
    ("runs.json", '{"runs": [{"residency": {"C0": 1.0}, "average_power_mw": NaN}]}',
     "runs[0].average_power_mw"),
    ("runs.json", '{"runs": [{"residency": {"C0": Infinity}, "average_power_mw": 1}]}',
     "runs[0].residency.C0"),
    ("runs.csv", "label,C0,power_mw\nidle,1.0,nan\n", "PATH:2.power_mw"),
    ("runs.csv", "label,C0,C8,power_mw\nidle,1.0,0,5\nbusy,inf,0,5\n", "PATH:3.C0"),
], ids=["json-power", "json-residency", "csv-power", "csv-residency"])
def test_calibrate_names_non_finite_measured_values(name, text, field, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert main(["calibrate", "--runs", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"violation\tNON_FINITE\t{field.replace('PATH', str(path))}\t")
    assert len(err.splitlines()) == 1


# -- sweep --------------------------------------------------------------------


def test_sweep_reports_reductions_against_the_plain_scheme(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--resolutions", "fhd,4k", "--fps", "60",
                 "--schemes", "baseline,burstlink", "--out", str(out_dir)]) == 0
    doc = json.loads((out_dir / "sweep.json").read_text(encoding="utf-8"))
    rows = {(r["resolution"], r["scheme"]): r for r in doc["rows"]}
    assert rows[("1920x1080", "baseline")]["reduction_vs_baseline_pct"] == 0.0
    assert rows[("3840x2160", "burstlink")]["reduction_vs_baseline_pct"] == pytest.approx(
        43.4739, abs=5e-4
    )
    assert (out_dir / "sweep.csv").read_text(encoding="utf-8").startswith(
        "resolution,"
    )


def test_sweep_marks_impossible_points_as_skipped(capsys):
    assert main(["sweep", "--resolutions", "fhd", "--fps", "45",
                 "--schemes", "baseline"]) == 0
    out = capsys.readouterr().out
    assert "skipped" in out
    assert "FPS_NOT_DIVISOR" in out


def test_sweep_skips_infeasible_decode_batches(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--resolutions", "4k", "--fps", "60", "--schemes",
                 "baseline", "--batch-sizes", "1,14", "--out", str(out_dir)]) == 0
    rows = json.loads((out_dir / "sweep.json").read_text(encoding="utf-8"))["rows"]
    assert [r["status"] for r in rows] == ["ok", "skipped"]
    assert rows[1]["violations"].startswith("BATCH_WINDOW_OVERRUN: ")
    assert rows[1]["reduction_vs_baseline_pct"] is None


def test_sweep_runs_each_distinct_point_once(monkeypatch, capsys):
    calls = []

    def counting(cfg, calibration, windows, **run):
        calls.append((str(cfg.display.resolution), cfg.workload.video_fps,
                      cfg.workload.scheme, run["fbc_ratio"], run["batch_every"]))
        return streaming_report(cfg, calibration, windows, **run)

    monkeypatch.setattr(cli, "streaming_report", counting)
    assert main(["sweep", "--resolutions", "fhd,4k", "--fps", "30,60",
                 "--schemes", "baseline,burstlink"]) == 0
    assert len(calls) == len(set(calls)) == 8


def test_sweep_output_is_deterministic(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--resolutions", "fhd,qhd", "--fps", "30,60",
                 "--out", str(out)]) == 0
    first_csv = (out / "sweep.csv").read_bytes()
    first_json = (out / "sweep.json").read_bytes()
    assert main(["sweep", "--resolutions", "fhd,qhd", "--fps", "30,60",
                 "--out", str(out)]) == 0
    assert (out / "sweep.csv").read_bytes() == first_csv
    assert (out / "sweep.json").read_bytes() == first_json


# -- calibrate ------------------------------------------------------------------


@pytest.fixture()
def runs_file(tmp_path):
    import random

    from framewatt.cstates import PackageCState

    profile = load_calibration("default").conventional
    rng = random.Random(5)
    states = list(PackageCState)
    lines = ["label," + ",".join(s.value for s in states) + ",power_mw"]
    for i in range(24):
        weights = [rng.random() + 0.05 for _ in states]
        total = sum(weights)
        residency = [w / total for w in weights]
        power = sum(
            profile.state_power_mw[s] * r for s, r in zip(states, residency)
        )
        lines.append(
            f"run{i}," + ",".join(f"{r:.9f}" for r in residency) + f",{power:.6f}"
        )
    path = tmp_path / "runs.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_calibrate_fits_and_emits_a_loadable_calibration(runs_file, tmp_path, capsys):
    out_dir = tmp_path / "fit"
    assert main(["calibrate", "--runs", str(runs_file), "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "model accuracy" in out
    fit_doc = json.loads((out_dir / "calibration_fit.json").read_text(encoding="utf-8"))
    assert fit_doc["fit"]["rank"] == 9
    assert fit_doc["accuracy"]["accuracy_pct"] == pytest.approx(100.0, abs=1e-6)
    assert len(fit_doc["residuals"]) == 24
    fitted = load_calibration(out_dir / "calibration_fitted.json")
    assert fitted.name == "fitted"
    default = load_calibration("default").conventional.state_power_mw
    for state, power in fitted.conventional.state_power_mw.items():
        assert power == pytest.approx(default[state], abs=1e-3)


def test_calibrate_under_determined_runs_exit_with_usage_error(tmp_path, capsys):
    path = tmp_path / "thin.csv"
    path.write_text(
        "label,C0,C8,power_mw\nonly,0.5,0.5,3612.5\n", encoding="utf-8"
    )
    assert main(["calibrate", "--runs", str(path)]) == 2
    assert "under-determined" in capsys.readouterr().err


# -- validate -------------------------------------------------------------------


def test_validate_accepts_a_good_configuration(capsys):
    assert main(["validate", "--preset", "4k60", "--scheme", "burstlink"]) == 0
    out = capsys.readouterr().out
    assert "configuration OK" in out
    assert "OK" in out.splitlines()[-1]


def test_validate_reports_violations_with_usage_exit(broken_config_file, capsys):
    assert main(["validate", "--config", str(broken_config_file)]) == 2
    assert "BURST_NEEDS_DRFB" in capsys.readouterr().err


def test_validate_says_ok_only_once_the_run_builds(capsys):
    assert main(["validate", "--preset", "4k60", "--batch-every", "14"]) == 2
    captured = capsys.readouterr()
    assert "configuration OK" not in captured.out
    assert captured.err.startswith("error: BATCH_WINDOW_OVERRUN: ")


def test_validate_grid_cross_checks_every_point(tmp_path, capsys):
    out_dir = tmp_path / "val"
    assert main(["validate", "--grid", "--out", str(out_dir)]) == 0
    doc = json.loads((out_dir / "validate.json").read_text(encoding="utf-8"))
    assert doc["ok"] is True
    assert len(doc["points"]) == 50
    assert doc["max_energy_deviation_pct"] < 0.1
    assert doc["max_residency_deviation_pp"] < 0.1


def test_validate_grid_loads_each_calibration_once(monkeypatch, capsys):
    loads = []

    def counting(name):
        loads.append(name)
        return load_calibration(name)

    monkeypatch.setattr(cli, "load_calibration", counting)
    assert main(["validate", "--grid"]) == 0
    assert sorted(loads) == ["default", "reference-fhd30"]


# -- presets / entry points --------------------------------------------------------


def test_presets_listing_names_every_builtin(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("fhd30", "4k60", "4k60-vr", "fhd30-ref-baseline"):
        assert name in out


def test_module_entry_point_reports_its_version():
    proc = subprocess.run(
        [sys.executable, "-m", "framewatt", "--version"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert "framewatt" in proc.stdout


@pytest.mark.parametrize("statement, loaded", [
    ("import framewatt.cli", False),
    ("from framewatt import fit_state_powers", True),
])
def test_scipy_loads_only_with_the_calibration_fitter(statement, loaded):
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; {statement}; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.split() == [str(loaded)]


@pytest.mark.parametrize("argv", [
    ["presets"],
    ["simulate", "--preset", "fhd30", "--windows", "4", "--out", "run"],
])
def test_presets_and_simulate_load_neither_numpy_nor_scipy(argv, tmp_path):
    script = ("import sys; from framewatt.cli import main; rc = main(sys.argv[1:]); "
              "print([m for m in ('numpy', 'scipy') if m in sys.modules]); sys.exit(rc)")
    env = {**os.environ, "PYTHONPATH": str(Path(main.__code__.co_filename).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"
    if argv[0] == "simulate":
        assert (tmp_path / "run" / "timeline.svg").is_file()


def test_outputs_do_not_depend_on_the_order_of_a_set_of_states(tmp_path):
    # States hash by identity, so a set of states iterates in an order that
    # differs between interpreters.  Run the command in fresh interpreters
    # until two of them order the states differently, then compare every
    # output file.  Each run writes to the same relative path because
    # report.json records --out.
    script = ("import sys; from framewatt.cli import main; "
              "from framewatt.cstates import PackageCState; "
              "print(*set(PackageCState), file=sys.stderr); sys.exit(main(sys.argv[1:]))")
    argv = ["simulate", "--preset", "4k60-vr", "--scheme", "burstlink",
            "--calibration", "latency-demo", "--out", "run"]
    env = {**os.environ, "PYTHONPATH": str(Path(main.__code__.co_filename).parents[1])}
    outputs: dict[str, dict[str, bytes]] = {}
    for i in range(10):
        cwd = tmp_path / str(i)
        cwd.mkdir()
        proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, check=True)
        order = proc.stderr.splitlines()[0]
        outputs.setdefault(order, {p.name: p.read_bytes() for p in (cwd / "run").iterdir()})
        if len(outputs) == 2:
            break
    assert len(outputs) == 2, "ten interpreters all ordered the states alike"
    first, second = outputs.values()
    assert sorted(first) == ["report.csv", "report.json", "timeline.csv", "timeline.svg"]
    assert first == second
