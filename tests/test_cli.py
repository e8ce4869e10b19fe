"""Command-line interface: subcommands, exit codes, files, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from framewatt import cli, cstates
from framewatt.cli import main
from framewatt.cstates import load_calibration
from conftest import make_config
from framewatt.core import Scheme, read_json
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


def test_simulate_reports_each_written_file_in_order(tmp_path, capsys):
    assert main(["simulate", "--preset", "fhd30", "--out", str(tmp_path)]) == 0
    wrote = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote")]
    assert wrote == [f"wrote {tmp_path / name}" for name in
                     ("report.json", "timeline.csv", "report.csv", "timeline.svg")]


def test_simulate_writes_every_file_through_a_large_buffer(tmp_path, monkeypatch, capsys):
    opened = {}
    path_open = Path.open

    def spy(self, mode="r", buffering=-1, *args, **kwargs):
        if "w" in mode:
            opened[self] = buffering
        return path_open(self, mode, buffering, *args, **kwargs)

    monkeypatch.setattr(Path, "open", spy)
    assert main(["simulate", "--preset", "4k60", "--out", str(tmp_path)]) == 0
    wrote = [Path(line.split(maxsplit=1)[1]) for line in capsys.readouterr().out.splitlines()
             if line.startswith("wrote")]
    assert len(wrote) == 4
    assert list(opened) == wrote
    assert all(buffering >= 1 << 16 for buffering in opened.values()), opened


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


_WINDOW = "leaving no room in the 16.667 ms window"

#: One config per cross-field rule of ``validate_config``, with the
#: ``violation`` lines it prints; every run of these configs is refused.
CROSS_FIELD_RULES = [
    pytest.param({"display": {"resolution": "4k", "edp_max_bits_per_s": 1e9}},
                 ["LINK_TOO_SLOW\tdisplay.edp_max_bits_per_s\tpanel needs 11.944 Gb/s to "
                  "stream 3840x2160@60 but the link caps at 1.000 Gb/s"], id="link-too-slow"),
    pytest.param({"workload": {"video_fps": 120}},
                 ["FPS_ABOVE_REFRESH\tworkload.video_fps\tvideo at 120 fps cannot be shown "
                  "on a 60 Hz panel"], id="fps-above-refresh"),
    pytest.param({"workload": {"video_fps": 7}},
                 ["FPS_NOT_DIVISOR\tworkload.video_fps\trefresh 60 Hz must be an integer "
                  "multiple of video fps 7 (repeat-window cadence would drift)"],
                 id="fps-not-divisor"),
    pytest.param({"display": {"panel_has_drfb": False},
                  "workload": {"scheme": "bursting_only"}},
                 ["BURST_NEEDS_DRFB\tdisplay.panel_has_drfb\tscheme 'bursting_only' parks "
                  "the panel on its remote frame buffer; this panel has none"],
                 id="burst-needs-drfb"),
    pytest.param({"display": {"panel_psr_capable": False, "panel_has_drfb": False},
                  "workload": {"scheme": "burstlink"}},
                 ["BURST_NEEDS_DRFB\tdisplay.panel_has_drfb\tscheme 'burstlink' parks the "
                  "panel on its remote frame buffer; this panel has none",
                  "BURST_NEEDS_PSR\tdisplay.panel_psr_capable\tscheme 'burstlink' requires "
                  "a self-refresh-capable panel"], id="burst-needs-psr"),
    pytest.param({"display": {"panel_psr_capable": False}},
                 ["DRFB_NEEDS_PSR\tdisplay.panel_has_drfb\ta remote frame buffer is only "
                  "usable on a self-refresh-capable panel"], id="drfb-needs-psr"),
    pytest.param({"display": {"panel_psr_capable": False, "panel_has_drfb": False},
                  "workload": {"psr_alternate_windows": True}},
                 ["PSR_NOT_CAPABLE\tworkload.psr_alternate_windows\trepeat windows cannot "
                  "self-refresh on a panel without PSR"], id="psr-not-capable"),
    pytest.param({"display": {"resolution": "4k"}, "system": {"dc_buffer_bytes": 256}},
                 ["DC_BUFFER_TOO_SMALL\tsystem.dc_buffer_bytes\ta 256 B buffer takes 97200 "
                  "fills per frame, above the 16384 supported"], id="dc-buffer-too-small"),
    pytest.param({"display": {"edp_max_bits_per_s": 2e9},
                  "workload": {"scheme": "bursting_only"}},
                 ["LINK_TOO_SLOW\tdisplay.edp_max_bits_per_s\tpanel needs 2.986 Gb/s to "
                  "stream 1920x1080@60 but the link caps at 2.000 Gb/s",
                  "BURST_EXCEEDS_WINDOW\tdisplay.edp_max_bits_per_s\tbursting one frame "
                  "takes 24.883 ms, longer than the 16.667 ms refresh window",
                  "WINDOW_OVERRUN\tsystem.decode_rate\twake-up + decode + burst takes "
                  f"25.493 ms, {_WINDOW}"], id="burst-exceeds-window"),
    pytest.param({"system": {"decode_rate": 1e8}},
                 [f"WINDOW_OVERRUN\tsystem.decode_rate\twake-up + decode takes 64.108 ms, "
                  f"{_WINDOW}"], id="overrun-decode"),
    pytest.param({"system": {"decode_rate": 2e8}, "workload": {"scheme": "bursting_only"}},
                 ["WINDOW_OVERRUN\tsystem.decode_rate\twake-up + decode + burst takes "
                  f"33.357 ms, {_WINDOW}"], id="overrun-decode-burst"),
    pytest.param({"system": {"decode_rate": 1e8}, "workload": {"scheme": "bypass_only"}},
                 ["WINDOW_OVERRUN\tsystem.decode_rate\twake-up + direct-feed transfer takes "
                  f"64.108 ms, {_WINDOW}"], id="overrun-direct-feed"),
    pytest.param({"system": {"vd_paced_rate": 1e8}, "workload": {"scheme": "burstlink"}},
                 ["WINDOW_OVERRUN\tsystem.vd_paced_rate\twake-up + direct-feed transfer "
                  f"takes 62.541 ms, {_WINDOW}"], id="overrun-direct-feed-paced"),
    # VR under burstlink decodes into DRAM, then the GPU feeds the DC buffer.
    pytest.param({"display": {"resolution": "4k", "refresh_hz": 120},
                  "workload": {"kind": "vr360", "scheme": "burstlink", "video_fps": 60}},
                 ["WINDOW_OVERRUN\tsystem.gpu_pt_rate\twake-up + decode + projection feed "
                  "takes 8.953 ms, leaving no room in the 8.333 ms window"],
                 id="overrun-vr-projection-feed"),
    # VR under the plain scheme projects the decoded frame back into DRAM.
    pytest.param({"display": {"resolution": "4k", "refresh_hz": 240,
                              "edp_max_bits_per_s": 1e11},
                  "workload": {"kind": "vr360", "scheme": "baseline", "video_fps": 60}},
                 ["WINDOW_OVERRUN\tsystem.gpu_pt_rate\twake-up + decode + projection takes "
                  "4.250 ms, leaving no room in the 4.167 ms window"],
                 id="overrun-vr-projection"),
    pytest.param({"workload": {"kind": "vr360", "scheme": "bypass_only"}},
                 ["VR_SCHEME_UNSUPPORTED\tworkload.scheme\t360-degree playback is modeled "
                  "for 'baseline' and 'burstlink' only"], id="vr-scheme-unsupported"),
]


@pytest.mark.parametrize("doc, lines", CROSS_FIELD_RULES)
def test_each_cross_field_rule_prints_its_violation_line(doc, lines, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"violation\t{line}" for line in lines]


_DRAM_MODES = {"active": 450.0, "fast_powerdown": 150.0, "self_refresh": 25.0, "off": 0.0}


def _default_calibration_with(keys: tuple[str, ...], value: object) -> dict:
    """The default calibration's JSON with the value at ``keys`` replaced,
    or removed when ``value`` is None."""
    from importlib import resources

    doc = json.loads(resources.files("framewatt").joinpath(
        "data", "default_calibration.json").read_text(encoding="utf-8"))
    node = doc
    for key in keys[:-1]:
        node = node[key]
    if value is None:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    return doc


_CONV = ("profiles", "conventional")
_C7P = "must equal C7 - 50.0 mW (expected"


@pytest.mark.parametrize("config, calibration, argv, lines", [
    ({"display": {"refresh_hz": 0}}, None, [],
     ["OUT_OF_RANGE\tdisplay.refresh_hz\trefresh_hz must be positive, got 0"]),
    ({"display": {"bits_per_pixel": 12}}, None, [],
     ["OUT_OF_RANGE\tdisplay.bits_per_pixel\tbits_per_pixel must be one of 16/24/30/32, "
      "got 12"]),
    ({"display": {"edp_max_bits_per_s": 0}}, None, [],
     ["OUT_OF_RANGE\tdisplay.edp_max_bits_per_s\tedp_max_bits_per_s must be positive, got 0"]),
    *[({"system": {name: 0}}, None, [],
       [f"OUT_OF_RANGE\tsystem.{name}\t{name} must be positive, got 0"])
      for name in ("dc_buffer_bytes", "dram_fetch_rate", "decode_rate", "vd_paced_rate",
                   "gpu_pt_rate", "encoded_bits_per_pixel", "dram_capacity_bytes")],
    ({"system": {"dram_capacity_bytes": -1}}, None, [],
     ["OUT_OF_RANGE\tsystem.dram_capacity_bytes\tdram_capacity_bytes must be positive, "
      "got -1"]),
    *[({"system": {name: -1e-3}}, None, [],
       [f"OUT_OF_RANGE\tsystem.{name}\t{name} must be non-negative (>= 0), got -0.001"])
      for name in ("orchestration_time", "burst_orchestration_time", "dram_coeff_read",
                   "dram_coeff_write")],
    ({"system": {"gpu_active_mw": -5}}, None, ["--kind", "vr360"],
     ["OUT_OF_RANGE\tsystem.gpu_active_mw\tgpu_active_mw must be non-negative (>= 0), "
      "got -5"]),
    ({"system": {"fbc_compute_mw": -1e9}}, None, ["--fbc-ratio", "0.5"],
     ["OUT_OF_RANGE\tsystem.fbc_compute_mw\tfbc_compute_mw must be non-negative (>= 0), "
      "got -1000000000.0"]),
    ({"system": {"dram_background_mw": {**_DRAM_MODES, "active": -100}}}, None, [],
     ["OUT_OF_RANGE\tsystem.dram_background_mw.active\tactive must be non-negative (>= 0), "
      "got -100"]),
    ({"system": {"dram_background_mw": {**_DRAM_MODES, "extra": 5}}}, None, [],
     ["DRAM_MODES\tsystem.dram_background_mw\tdram_background_mw has unknown modes: "
      "['extra']"]),
    ({"system": {"dram_background_mw": {"active": 450.0, "off": 0.0}}}, None, [],
     ["DRAM_MODES\tsystem.dram_background_mw\tdram_background_mw missing modes: "
      "['fast_powerdown', 'self_refresh']"]),
    ({"system": {"dram_background_mw": {**_DRAM_MODES, "off": 1000.0}}}, None, [],
     ["SPLIT_EXCEEDS_TOTAL\tprofiles.conventional.state_power_mw.C10\tprofile "
      "'conventional': DRAM background 1000.0 mW + display 0.0 mW exceeds C10 total "
      "350.0 mW"]),
    ({"workload": {"video_fps": 0}}, None, [],
     ["OUT_OF_RANGE\tworkload.video_fps\tvideo_fps must be positive, got 0"]),
    (None, ((*_CONV, "state_power_mw", "C6"), None), [],
     ["MISSING_STATE_POWER\tprofiles.conventional.state_power_mw\tprofile 'conventional' "
      "lacks powers for ['C6']"]),
    (None, ((*_CONV, "state_power_mw", "C10"), -1), [],
     ["OUT_OF_RANGE\tprofiles.conventional.state_power_mw.C10\tC10 must be non-negative "
      "(>= 0), got -1.0",
      "DISPLAY_SPLIT_OUTSIDE_TOTAL\tprofiles.conventional.display_power_mw.C10\tprofile "
      "'conventional': display split for C10 outside [0, total]"]),
    (None, ((*_CONV, "state_power_mw", "C9"), 1300), [],
     ["DEEPER_STATE_DRAWS_MORE\tprofiles.conventional.state_power_mw.C9\tprofile "
      "'conventional': C9 draws more than shallower C8"]),
    (None, ((*_CONV, "display_power_mw", "C10"), 400), [],
     ["DISPLAY_SPLIT_OUTSIDE_TOTAL\tprofiles.conventional.display_power_mw.C10\tprofile "
      "'conventional': display split for C10 outside [0, total]"]),
    (None, (("vd_gate_delta_mw",), 50), [],
     [f"C7P_GATE_DELTA\tprofiles.conventional.state_power_mw.C7P\tprofile 'conventional': "
      f"C7P {_C7P} 1335.0, got 1290.0)",
      f"C7P_GATE_DELTA\tprofiles.burst.state_power_mw.C7P\tprofile 'burst': "
      f"C7P {_C7P} 1480.0, got 1435.0)"]),
    (None, (("drfb_power_mw",), -1), [],
     ["OUT_OF_RANGE\tdrfb_power_mw\tdrfb_power_mw must be non-negative (>= 0), got -1.0"]),
    (None, ((*_CONV, "entry_latency_us"), {"C8": -50, "C9": 150}), ["--windows", "4"],
     ["OUT_OF_RANGE\tprofiles.conventional.entry_latency_us.C8\tC8 must be non-negative "
      "(>= 0), got -50.0"]),
    (None, ((*_CONV, "exit_power_mw"), {"C9": -1}), [],
     ["OUT_OF_RANGE\tprofiles.conventional.exit_power_mw.C9\tC9 must be non-negative "
      "(>= 0), got -1.0"]),
], ids=["refresh", "bpp", "link", "dc-buffer", "fetch-rate", "decode-rate", "paced-rate",
        "gpu-rate", "encoded-bpp", "zero-capacity", "negative-capacity", "orchestration",
        "burst-orchestration", "coeff-read", "coeff-write", "gpu", "fbc", "negative-mode",
        "unknown-mode", "missing-mode", "split-exceeds-total", "fps", "missing-state-power",
        "negative-state-power", "deeper-draws-more", "display-split", "c7p-delta",
        "negative-drfb", "negative-latency", "negative-transition-power"])
def test_impossible_values_name_the_rule_and_key_path(config, calibration, argv, lines,
                                                       tmp_path, capsys):
    path = tmp_path / "input.json"
    if config is not None:
        path.write_text(json.dumps(config), encoding="utf-8")
        source = ["--config", str(path)]
    else:
        path.write_text(json.dumps(_default_calibration_with(*calibration)), encoding="utf-8")
        source = ["--preset", "fhd30", "--calibration", str(path)]
    out_dir = tmp_path / "out"
    assert main(["simulate", *source, *argv, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"violation\t{line}" for line in lines]
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


def test_simulate_missing_calibration_file_is_a_runtime_error(tmp_path, capsys):
    # A missing calibration path exits as a missing config file does.
    missing = tmp_path / "nope.json"
    assert main(["simulate", "--preset", "fhd30", "--calibration", str(missing)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: no calibration file {str(missing)!r}")
    assert "['default', 'latency-demo', 'reference-fhd30']" in err[0]


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


#: For each flag the manifest records, a run that sets it away from side A's
#: default (on a config it applies to) and the value recorded.
_SET_AWAY = {
    "scheme": (["--scheme", "burstlink"], "burstlink"),
    "kind": (["--kind", "vr360"], "vr360"),
    "fps": (["--fps", "60"], 60),
    "psr_alternate": (["--psr-alternate"], True),
    "fbc_ratio": (["--fbc-ratio", "0.5"], 0.5),
    "batch_every": (["--batch-every", "2"], 2),
    "cached_fraction": (["--batch-every", "2", "--cached-fraction", "0.5"], 0.5),
    "trace": (["--preset", "fhd60", "--kind", "single_plane", "--scheme", "bursting_only",
               "--trace", "TRACE"], "TRACE"),
}


def test_every_run_flag_has_a_set_away_case():
    assert {flag[2:].replace("-", "_") for title, flag, *_ in cli._SIDE_FLAGS
            if title != "configuration source"} == set(_SET_AWAY)


@pytest.mark.parametrize("name", sorted(_SET_AWAY))
def test_manifest_records_each_run_flag_set_away_from_its_default(name, tmp_path, capsys):
    from importlib import resources

    argv, value = _SET_AWAY[name]
    ref = resources.files("framewatt").joinpath("data", "traces", "gaming.csv")
    with resources.as_file(ref) as trace:
        subs = {"TRACE": str(trace)}
        source = [] if "--preset" in argv else ["--preset", "fhd30"]
        doc = _result(tmp_path, ["simulate", *source, *(subs.get(a, a) for a in argv)])
    assert doc["manifest"]["overrides"][name] == subs.get(value, value)


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

    run = ["--preset", "fhd60", "--kind", "single_plane", "--scheme", "bursting_only"]
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


#: The exit code, stdout and stderr of each help and one usage error, printed
#: at 80 columns.  Re-record with ``PYTHONPATH=src python tests/test_cli.py``.
_HELP_TEXTS = Path(__file__).resolve().parent / "data" / "cli_help.json"
_HELP_ARGV = [["--help"], *([command, "--help"] for command in
              ("simulate", "compare", "sweep", "calibrate", "validate", "presets")),
              ["simulate", "--scheme", "nope"]]


def _help_text(argv):
    out, err = io.StringIO(), io.StringIO()
    with (pytest.raises(SystemExit) as exit_, contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        main(argv)
    return {"exit": exit_.value.code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("argv", _HELP_ARGV, ids=" ".join)
def test_help_and_usage_errors_keep_their_text(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    pinned = json.loads(_HELP_TEXTS.read_text(encoding="utf-8"))[" ".join(argv)]
    assert _help_text(argv) == pinned
    assert _help_text(argv) == pinned  # the same on a second call


def test_two_main_calls_build_the_parser_once(monkeypatch, capsys):
    calls = []
    add_side_args = cli._add_side_args
    monkeypatch.setattr(cli, "_add_side_args", lambda *a: calls.append(a) or add_side_args(*a))
    cli.build_parser.cache_clear()
    assert main(["presets"]) == 0
    assert main(["validate", "--preset", "fhd30"]) == 0
    assert len(calls) == 4  # simulate, compare's two sides and validate, once each


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("command", [["simulate", "--preset", "fhd30"],
                                     ["compare", "--preset", "fhd30", "--preset-b", "4k60"],
                                     ["validate", "--preset", "fhd30"], ["sweep"]],
                         ids=lambda argv: argv[0])
def test_windows_below_one_is_a_usage_error_naming_the_flag(command, value, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([*command, "--windows", value])
    assert exit_.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"usage: framewatt {command[0]} ")
    assert err[-1] == (f"framewatt {command[0]}: error: argument --windows: "
                       f"must be >= 1, got {value}")


def test_a_windows_count_that_is_no_int_is_a_usage_error_naming_the_flag(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["simulate", "--preset", "fhd30", "--windows", "x"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: framewatt simulate ")
    assert [line for line in err if "error:" in line] == [
        "framewatt simulate: error: argument --windows: invalid int value: 'x'"]


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


_FPS = "violation\tOUT_OF_RANGE\tworkload.video_fps\tvideo_fps must be positive, got "


@pytest.mark.parametrize("argv, doc, start", [
    (["simulate", "--preset", "fhd30", "--fps", "0"], None, _FPS + "0"),
    (["simulate", "--preset", "fhd30", "--fps", "-5"], None, _FPS + "-5"),
    (["compare", "--preset", "fhd30", "--fps-b", "0"], None, _FPS + "0"),
    (["simulate", "--preset", "fhd60", "--kind", "single_plane", "--scheme",
      "bursting_only", "--trace", "TRACE", "--fbc-ratio", "0.5"], None, "error: "),
    (["simulate", "--preset", "fhd60", "--kind", "single_plane", "--scheme",
      "bursting_only", "--trace", "TRACE", "--windows", "5"], None,
     "error: n_windows must be the dirty trace's length 600, got 5"),
    (["calibrate", "--runs", "JSON"], {"runs": [5]}, "error: "),
    (["calibrate", "--runs", "JSON"],
     {"runs": [{"residency": 5, "average_power_mw": 1}]}, "error: "),
    (["simulate", "--preset", "fhd30", "--calibration", "JSON"],
     {"profiles": {"conventional": {"state_power_mw": 5}, "burst": {}}}, "error: "),
    (["calibrate", "--runs", "JSON"],
     {"runs": [{"residency": {"C0": 1.5, "C8": -0.5}, "average_power_mw": 3000}]},
     "error: run 'run0': residencies of C0, C8 outside [0, 1]"),
], ids=["argv0-None", "argv1-None", "argv2-None", "argv3-None", "trace-windows",
        "argv4-doc4", "argv5-doc5", "argv6-doc6", "argv7-doc7"])
def test_inputs_that_cannot_apply_are_usage_errors(argv, doc, start, tmp_path, capsys):
    from importlib import resources

    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    ref = resources.files("framewatt").joinpath("data", "traces", "gaming.csv")
    with resources.as_file(ref) as trace:
        subs = {"TRACE": str(trace), "JSON": str(path)}
        assert main([subs.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(start)


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


_NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position"


@pytest.mark.parametrize("name, data, argv, position", [
    ("config.json", b'{"display": \xff}', ["simulate", "--config", "PATH"], 12),
    ("calibration.json", b"\xff", ["simulate", "--preset", "fhd30", "--calibration", "PATH"],
     0),
    ("trace.csv", b"window,dirty_fraction\n0,\xff\n",
     ["simulate", "--preset", "fhd60", "--kind", "single_plane", "--scheme", "burstlink",
      "--trace", "PATH"], 24),
    ("runs.csv", b"label,C0,power_mw\nidle,1.0,\xff\n", ["calibrate", "--runs", "PATH"], 27),
    ("runs.json", b'{"runs": \xff}', ["calibrate", "--runs", "PATH"], 9),
], ids=["config", "calibration", "trace", "runs-csv", "runs-json"])
def test_undecodable_input_files_name_the_path(name, data, argv, position, tmp_path,
                                               capsys):
    path = tmp_path / name
    path.write_bytes(data)
    assert main([str(path) if a == "PATH" else a for a in argv]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: {_NOT_UTF8} {position}: invalid start byte"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "PATH"],
    ["simulate", "--preset", "fhd30", "--calibration", "PATH"],
    ["calibrate", "--runs", "PATH"],
], ids=["config", "calibration", "runs"])
def test_json_syntax_errors_name_the_path(argv, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text('{"display": }', encoding="utf-8")
    assert main([str(path) if a == "PATH" else a for a in argv]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: Expecting value: line 1 column 13 (char 12)"]


def test_a_resolution_out_of_range_prints_its_violation(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"display": {"resolution": "0x5"}}', encoding="utf-8")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "violation\tOUT_OF_RANGE\tdisplay.resolution\tresolution must be positive, got 0x5"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, text", [
    (["simulate", "--config", "PATH"],
     '{"display": {"refresh_hz": ' + "[" * 984 + "]" * 984 + "}}"),
    (["simulate", "--preset", "fhd30", "--calibration", "PATH"], "[" * 986 + "]" * 986),
], ids=["config", "calibration"])
def test_json_nested_just_below_the_decoder_limit_is_a_usage_error(argv, text, tmp_path):
    # Under the test runner's deeper stack the decoder refuses these depths
    # first, so the command runs in a fresh interpreter, as from a shell.
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(main.__code__.co_filename).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "framewatt",
                           *[str(path) if a == "PATH" else a for a in argv]],
                          cwd=tmp_path, env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


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


@pytest.mark.parametrize("flag, value, message", [
    ("--fps", "30,x", "--fps: invalid literal for int() with base 10: 'x'"),
    ("--fbc-ratios", "1.0,abc", "--fbc-ratios: could not convert string to float: 'abc'"),
    ("--batch-sizes", "1,2.5", "--batch-sizes: invalid literal for int() with base 10: '2.5'"),
    ("--schemes", "burstlink,nope", "--schemes: 'nope' is not a valid Scheme"),
    ("--fps", ",", "empty sweep grid: no values for --fps"),
])
def test_a_bad_sweep_axis_names_its_flag(flag, value, message, capsys):
    assert main(["sweep", "--resolutions", "fhd", flag, value]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_sweep_skips_a_point_whose_config_is_rejected(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--resolutions", "fhd", "--fps", "30,0", "--schemes", "baseline",
                 "--out", str(out_dir)]) == 0
    rows = json.loads((out_dir / "sweep.json").read_text(encoding="utf-8"))["rows"]
    assert [(r["fps"], r["status"], r["violations"], r["reduction_vs_baseline_pct"])
            for r in rows] == [(30, "ok", "", 0.0), (0, "skipped", "OUT_OF_RANGE", None)]
    assert capsys.readouterr().err == ""


def test_a_sweep_resolution_that_does_not_parse_is_a_usage_error(capsys):
    assert main(["sweep", "--resolutions", "fhd,8k", "--fps", "30"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: unknown resolution '8k'; use one of ['4k', '5k', 'fhd', 'qhd'] or 'WIDTHxHEIGHT'"]


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


def test_calibrate_grades_dominant_states_and_writes_nothing_without_out(tmp_path, capsys):
    path = tmp_path / "runs.csv"
    path.write_text("label,C0,C8,C9,power_mw\nbusy,1.0,0,0,5940\ndrain,0,1.0,0,1285\n"
                    "sleep,0,0,1.0,1090\nmix,0.5,0.3,0.2,3573.5\n", encoding="utf-8")
    assert main(["calibrate", "--runs", str(path), "--states", "C0,C8,C9"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[1] == "states fitted    C0, C8, C9 (rank 3)"
    assert lines[-3:] == [f"  {s:<5}    100.00% (runs dominated by this state)"
                          for s in ("C0", "C8", "C9")]
    assert captured.err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.csv"]


def test_calibrate_warns_and_skips_a_fit_that_is_no_calibration(tmp_path, capsys):
    # C9 fits above the base table's C8, so deeper would draw more.
    path = tmp_path / "runs.csv"
    path.write_text("label,C0,C9,power_mw\nbusy,1.0,0,5940\nsleep,0,1.0,2000\n",
                    encoding="utf-8")
    out_dir = tmp_path / "fit"
    assert main(["calibrate", "--runs", str(path), "--out", str(out_dir)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: fitted powers do not form a loadable calibration "
                             "(DEEPER_STATE_DRAWS_MORE [profiles.conventional.state_power_mw.C9]")
    assert err[0].endswith("; skipping calibration file")
    assert sorted(p.name for p in out_dir.iterdir()) == ["calibration_fit.json"]


@pytest.mark.parametrize("argv, name, text, line", [
    (["calibrate", "--runs", "PATH", "--states", "C0,Q"], "runs.csv",
     "label,C0,power_mw\nx,1.0,5940\n", "error: 'Q' is not a valid PackageCState"),
    (["calibrate", "--runs", "PATH"], "runs.csv", "", "error: PATH: empty runs file"),
    (["calibrate", "--runs", "PATH"], "runs.json", '{"runs": [{"residency": {"C0": 1.0}}]}',
     "error: run 0: missing field 'average_power_mw'"),
    (["simulate", "--preset", "fhd60", "--kind", "single_plane", "--scheme", "bursting_only",
      "--trace", "PATH"], "trace.csv", "window,dirty_fraction\n0,half\n",
     "error: PATH:2: bad trace row ['0', 'half']"),
], ids=["unknown-state", "empty-runs-csv", "run-missing-power", "bad-trace-row"])
def test_rejected_inputs_end_in_one_error_line(argv, name, text, line, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert main([str(path) if a == "PATH" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [line.replace("PATH", str(path))]


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


@pytest.mark.parametrize("flags, named", [
    (["--preset", "4k60", "--scheme", "burstlink", "--fbc-ratio", "0.5"],
     "--preset, --scheme, --fbc-ratio"),
    (["--windows", "4"], "--windows"),
    (["--calibration", "latency-demo", "--psr-alternate", "--cached-fraction", "0.5"],
     "--calibration, --psr-alternate, --cached-fraction"),
])
def test_validate_grid_rejects_the_run_flags_it_would_ignore(flags, named, tmp_path,
                                                              capsys):
    out_dir = tmp_path / "val"
    assert main(["validate", "--grid", *flags, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --grid runs the fixed validation grid and takes no run flags; got {named}"]
    assert not out_dir.exists()


def test_each_builtin_calibration_file_is_read_once_per_process(monkeypatch, capsys):
    reads = []

    def counting(path):
        reads.append(Path(path).name)
        return read_json(path)

    cstates._load_builtin.cache_clear()
    monkeypatch.setattr(cstates, "read_json", counting)
    assert main(["validate", "--grid"]) == 0
    assert main(["sweep", "--resolutions", "fhd"]) == 0
    assert main(["sweep", "--resolutions", "fhd", "--calibration", "latency-demo"]) == 0
    assert main(["simulate", "--preset", "fhd30-ref-burstlink", "--windows", "2"]) == 0
    assert main(["validate", "--preset", "fhd30", "--windows", "2"]) == 0
    assert sorted(reads) == ["default_calibration.json", "latency_demo.json",
                             "reference_fhd30.json"]


def test_a_sweep_prices_each_state_change_once_per_profile(monkeypatch, capsys):
    priced = Counter()
    formula = cstates._transition_cost

    def counting(profile, frm, to):
        priced[id(profile)] += 1
        return formula(profile, frm, to)

    cstates._load_builtin.cache_clear()
    monkeypatch.setattr(cstates, "_transition_cost", counting)
    assert main(["sweep", "--calibration", "latency-demo", "--fbc-ratios", "1.0,0.5",
                 "--batch-sizes", "1,2"]) == 0
    assert priced and max(priced.values()) <= 81


# -- presets / entry points --------------------------------------------------------


def test_presets_listing_names_every_builtin(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("fhd30", "4k60", "4k60-vr", "fhd30-ref-baseline"):
        assert name in out


def test_an_unknown_preset_name_lists_the_builtins():
    # The CLI's --preset takes only listed choices; the lookup itself names them too.
    from framewatt.presets import PRESETS, get_preset

    with pytest.raises(ValueError) as err:
        get_preset("nope")
    assert str(err.value) == f"unknown preset 'nope'; available: {', '.join(sorted(PRESETS))}"


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
    ("from framewatt.calibrate import fit_state_powers", True),
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
    # Nor html: the SVG export's words hold no markup, so nothing is escaped.
    script = ("import sys; from framewatt.cli import main; rc = main(sys.argv[1:]); "
              "print([m for m in ('numpy', 'scipy', 'html') if m in sys.modules]); "
              "sys.exit(rc)")
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


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    texts = {" ".join(argv): _help_text(argv) for argv in _HELP_ARGV}
    _HELP_TEXTS.write_text(json.dumps(texts, indent=2) + "\n", encoding="utf-8")
