"""Idle-state lattice, power profiles, and calibrations."""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import pytest

from framewatt import cstates
from framewatt.core import ConfigurationError, Scheme, Violation
from framewatt.cstates import (
    STATE_DRAM_MODE,
    STATES_BY_DEPTH,
    CalibrationSet,
    PackageCState,
    PowerProfile,
    calibration_from_dict,
    check_dram_split_consistency,
    load_calibration,
)


# -- lattice ---------------------------------------------------------------


def test_states_are_ordered_shallow_to_deep():
    names = [s.value for s in STATES_BY_DEPTH]
    assert names == ["C0", "C2", "C3", "C6", "C7", "C7P", "C8", "C9", "C10"]
    depths = [s.depth for s in STATES_BY_DEPTH]
    assert depths == sorted(depths)
    assert len(set(depths)) == len(depths)


def test_state_dram_modes():
    assert STATE_DRAM_MODE[PackageCState.C0] == "active"
    assert STATE_DRAM_MODE[PackageCState.C2] == "active"
    assert STATE_DRAM_MODE[PackageCState.C10] == "off"
    for s in (PackageCState.C3, PackageCState.C6, PackageCState.C7,
              PackageCState.C7P, PackageCState.C8, PackageCState.C9):
        assert STATE_DRAM_MODE[s] == "self_refresh"


# -- power profiles -----------------------------------------------------------


def _powers(**overrides) -> dict[PackageCState, float]:
    base = {
        PackageCState.C0: 5940.0, PackageCState.C2: 5445.0,
        PackageCState.C3: 2200.0, PackageCState.C6: 1600.0,
        PackageCState.C7: 1385.0, PackageCState.C7P: 1290.0,
        PackageCState.C8: 1285.0, PackageCState.C9: 1090.0,
        PackageCState.C10: 350.0,
    }
    base.update({PackageCState(k): v for k, v in overrides.items()})
    return base


def test_profile_requires_a_power_for_every_state():
    powers = _powers()
    del powers[PackageCState.C6]
    with pytest.raises(ValueError, match="lacks powers"):
        PowerProfile("p", powers, {})


def test_profile_rejects_negative_powers():
    with pytest.raises(ValueError, match="negative"):
        PowerProfile("p", _powers(C9=-1.0), {})


def test_profile_rejects_deeper_state_drawing_more_than_shallower():
    with pytest.raises(ValueError, match="draws more"):
        PowerProfile("p", _powers(C9=1286.0), {})


def test_profile_rejects_display_split_exceeding_state_total():
    with pytest.raises(ValueError, match="outside"):
        PowerProfile("p", _powers(), {PackageCState.C10: 351.0})


def test_shipped_profiles_are_monotone_in_depth(default_cal, latency_cal):
    for cal in (default_cal, latency_cal):
        for prof in (cal.conventional, cal.burst):
            for shallow, deep in zip(STATES_BY_DEPTH, STATES_BY_DEPTH[1:]):
                assert prof.state_power_mw[deep] <= prof.state_power_mw[shallow]


def test_gated_decoder_state_sits_a_fixed_delta_below_the_decoder_state(default_cal):
    for prof in (default_cal.conventional, default_cal.burst):
        c7 = prof.state_power_mw[PackageCState.C7]
        c7p = prof.state_power_mw[PackageCState.C7P]
        assert c7 - c7p == pytest.approx(default_cal.vd_gate_delta_mw)
        assert default_cal.vd_gate_delta_mw == 95.0


def test_dram_split_consistency_check_accepts_shipped_tables(default_cal):
    dram_bg = {"active": 450.0, "fast_powerdown": 150.0,
               "self_refresh": 25.0, "off": 0.0}
    check_dram_split_consistency(default_cal.conventional, dram_bg)
    check_dram_split_consistency(default_cal.burst, dram_bg)


def test_dram_split_consistency_check_rejects_oversized_background(default_cal):
    bad = {"active": 450.0, "fast_powerdown": 150.0,
           "self_refresh": 25.0, "off": 10_000.0}
    with pytest.raises(ValueError, match="exceeds"):
        check_dram_split_consistency(default_cal.conventional, bad)


# -- transitions -----------------------------------------------------------------


def test_staying_in_a_state_costs_nothing(default_cal):
    assert default_cal.conventional.transition_costs[PackageCState.C8, PackageCState.C8] == 0.0


def test_default_calibration_has_instant_transitions(default_cal):
    for frm in PackageCState:
        for to in PackageCState:
            assert default_cal.conventional.transition_costs[frm, to] == 0.0


def test_demo_calibration_charges_deep_sleep_entry(latency_cal):
    energy_uj = latency_cal.conventional.transition_costs[PackageCState.C8, PackageCState.C9]
    assert energy_uj == 1200.0 * 150_000 * 1e-6
    assert energy_uj == pytest.approx(180.0)  # 150 us at 1200 mW


def test_demo_calibration_charges_deep_sleep_exit(latency_cal):
    energy_uj = latency_cal.conventional.transition_costs[PackageCState.C9, PackageCState.C8]
    assert energy_uj == 1200.0 * 300_000 * 1e-6
    assert energy_uj == pytest.approx(360.0)


def test_descents_pay_the_target_entry_and_ascents_the_source_exit(latency_cal):
    prof = latency_cal.conventional
    down = prof.transition_costs[PackageCState.C0, PackageCState.C8]
    assert down == 1300.0 * 75_000 * 1e-6  # C8's entry cost, wherever it starts from
    up = prof.transition_costs[PackageCState.C8, PackageCState.C0]
    assert up == 1300.0 * 150_000 * 1e-6  # C8's exit cost


# -- calibration sets ---------------------------------------------------------------


def test_calibration_enforces_the_decoder_gating_delta():
    prof = PowerProfile("p", _powers(), {})
    with pytest.raises(ValueError, match="C7P"):
        CalibrationSet("c", prof, prof, vd_gate_delta_mw=50.0)


def test_calibration_rejects_negative_adders():
    prof = PowerProfile("p", _powers(), {})
    with pytest.raises(ValueError, match=">= 0"):
        CalibrationSet("c", prof, prof, vd_gate_delta_mw=95.0,
                       drfb_power_mw=-1.0)


def test_profile_selection_by_scheme(default_cal):
    assert default_cal.profile_for(Scheme.BURSTLINK) is default_cal.burst
    for scheme in (Scheme.BASELINE, Scheme.BYPASS_ONLY, Scheme.BURSTING_ONLY):
        assert default_cal.profile_for(scheme) is default_cal.conventional


def test_builtin_calibrations_load_by_name():
    for name in ("default", "reference-fhd30", "latency-demo"):
        cal = load_calibration(name)
        assert cal.name == name


def test_default_calibration_state_powers():
    cal = load_calibration("default")
    conv = cal.conventional.state_power_mw
    assert conv[PackageCState.C0] == 5940.0
    assert conv[PackageCState.C8] == 1285.0
    assert conv[PackageCState.C9] == 1090.0
    assert conv[PackageCState.C10] == 350.0
    burst = cal.burst.state_power_mw
    assert burst[PackageCState.C0] == 6090.0
    assert burst[PackageCState.C9] == 1090.0
    assert cal.drfb_power_mw == 58.0


def test_load_calibration_from_a_file_path(tmp_path, default_cal):
    doc = {
        "name": "copy",
        "description": "round trip",
        "vd_gate_delta_mw": default_cal.vd_gate_delta_mw,
        "drfb_power_mw": default_cal.drfb_power_mw,
        "profiles": {
            side: {
                "state_power_mw": {
                    s.value: p
                    for s, p in getattr(default_cal, side).state_power_mw.items()
                },
                "display_power_mw": {
                    s.value: p
                    for s, p in getattr(default_cal, side).display_power_mw.items()
                },
            }
            for side in ("conventional", "burst")
        },
    }
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cal = load_calibration(path)
    assert cal.name == "copy"
    assert cal.conventional.state_power_mw == default_cal.conventional.state_power_mw


def _direct_cost(profile, frm, to):
    """Reference: a state change's energy by the formula."""
    if frm is to:
        return 0.0
    if to.depth > frm.depth:
        lat = round(profile.entry_latency_us.get(to, 0) * 1_000)
        return float(profile.entry_power_mw.get(to, 0.0)) * lat * 1e-6
    lat = round(profile.exit_latency_us.get(frm, 0) * 1_000)
    return float(profile.exit_power_mw.get(frm, 0.0)) * lat * 1e-6


@pytest.mark.parametrize("name", ["default", "reference-fhd30", "latency-demo"])
def test_transition_table_equals_the_formula_for_every_state_pair(name):
    cal = load_calibration(name)
    for prof in (cal.conventional, cal.burst):
        table = prof.transition_costs
        assert len(table) == 81
        for frm in STATES_BY_DEPTH:
            for to in STATES_BY_DEPTH:
                assert table[frm, to] == _direct_cost(prof, frm, to)


def test_a_builtin_calibration_is_parsed_once_and_shared():
    cstates._load_builtin.cache_clear()
    cal = load_calibration("latency-demo")
    assert load_calibration("latency-demo") is cal
    assert load_calibration("default") is not cal


def test_loaded_calibration_maps_cannot_be_assigned_to(tmp_path):
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(_calibration_doc("copy")), encoding="utf-8")
    for cal in (load_calibration("default"), load_calibration(path)):
        for prof in (cal.conventional, cal.burst):
            for key in ("state_power_mw", "display_power_mw", "entry_latency_us",
                        "exit_latency_us", "entry_power_mw", "exit_power_mw"):
                with pytest.raises(TypeError):
                    getattr(prof, key)[PackageCState.C0] = 1.0
    assert load_calibration("default").conventional.state_power_mw[PackageCState.C0] == 5940.0


def test_a_calibration_path_is_read_again_after_it_is_rewritten(tmp_path):
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(_calibration_doc("first")), encoding="utf-8")
    assert load_calibration(path).name == "first"
    path.write_text(json.dumps(_calibration_doc("second")), encoding="utf-8")
    assert load_calibration(path).name == "second"
    assert load_calibration(str(path)).name == "second"


def _calibration_doc(name):
    """The default calibration's file with another name."""
    doc = json.loads((Path(cstates.__file__).parent / "data" / "default_calibration.json")
                     .read_text(encoding="utf-8"))
    return {**doc, "name": name}


def test_load_calibration_rejects_unknown_names():
    # A name that is not a built-in is read as a path; the error lists the built-ins.
    with pytest.raises(FileNotFoundError, match=r"'does-not-exist'; built-ins are \['default'"):
        load_calibration("does-not-exist")


def _violation(doc):
    with pytest.raises(ConfigurationError) as err:
        calibration_from_dict(doc)
    (violation,) = err.value.violations
    return violation


def test_calibration_dict_rejects_unknown_top_level_keys():
    assert _violation({"name": "x", "extra": 1}) == Violation(
        "UNKNOWN_KEY", "extra", "unknown key 'extra'; expected one of name, description, "
        "vd_gate_delta_mw, drfb_power_mw, profiles")


def test_calibration_dict_requires_both_profiles():
    assert _violation({"name": "x", "profiles": {}}) == Violation(
        "MISSING_KEY", "profiles.conventional", "missing required key 'conventional'")


def test_calibration_dict_rejects_unknown_states():
    doc = {"profiles": {"conventional": {"state_power_mw": {"C1": 1.0}},
                        "burst": {"state_power_mw": {}}}}
    assert _violation(doc) == Violation(
        "UNKNOWN_KEY", "profiles.conventional.state_power_mw.C1",
        "unknown key 'C1'; expected one of C0, C2, C3, C6, C7, C7P, C8, C9, C10")


@pytest.mark.parametrize("profiles, violation", [
    ({"conventional": {"state_power_mw": {}, "idle_mw": {}}, "burst": {}},
     ("UNKNOWN_KEY", "profiles.conventional.idle_mw", "unknown key 'idle_mw'; expected one of "
      "state_power_mw, display_power_mw, entry_latency_us, exit_latency_us, entry_power_mw, "
      "exit_power_mw")),
    ({"conventional": {"display_power_mw": {}}, "burst": {}},
     ("MISSING_KEY", "profiles.conventional.state_power_mw",
      "missing required key 'state_power_mw'")),
    ({"conventional": {}, "burst": {}, "turbo": {}},
     ("UNKNOWN_KEY", "profiles.turbo", "unknown key 'turbo'; expected one of conventional, "
      "burst")),
], ids=["unknown-key", "no-state-powers", "unknown-profile"])
def test_calibration_profiles_of_the_wrong_shape_are_rejected(profiles, violation):
    assert _violation({"profiles": profiles}) == Violation(*violation)


@pytest.mark.parametrize("state_power, violation", [
    (5, ("WRONG_TYPE", "profiles.conventional.state_power_mw", "expected an object, got 5")),
    ({"C0": "big"}, ("WRONG_TYPE", "profiles.conventional.state_power_mw.C0",
                     'expected a number, got "big"')),
    ({"C0": True}, ("WRONG_TYPE", "profiles.conventional.state_power_mw.C0",
                    "expected a number, got true")),
])
def test_calibration_state_maps_must_hold_json_numbers(state_power, violation):
    doc = {"profiles": {"conventional": {"state_power_mw": state_power},
                        "burst": {"state_power_mw": {}}}}
    assert _violation(doc) == Violation(*violation)


@pytest.mark.parametrize("name", ["default", "reference-fhd30", "latency-demo"])
def test_builtin_calibrations_hold_only_floats(name):
    cal = load_calibration(name)
    assert type(cal.vd_gate_delta_mw) is float and type(cal.drfb_power_mw) is float
    for profile in (cal.conventional, cal.burst):
        for key in ("state_power_mw", "display_power_mw", "entry_latency_us",
                    "exit_latency_us", "entry_power_mw", "exit_power_mw"):
            assert all(type(v) is float for v in getattr(profile, key).values())


def test_demo_calibration_latencies_are_kept_in_microseconds(latency_cal):
    prof = latency_cal.conventional
    assert prof.entry_latency_us[PackageCState.C8] == 75.0
    assert prof.entry_latency_us[PackageCState.C9] == 150.0
    assert prof.exit_latency_us[PackageCState.C9] == 300.0
    C0, C8, C9 = PackageCState.C0, PackageCState.C8, PackageCState.C9
    assert prof.transition_costs[C0, C8] == 1300.0 * 75_000 * 1e-6
    assert prof.transition_costs[C8, C9] == 1200.0 * 150_000 * 1e-6
    assert prof.transition_costs[C9, C8] == 1200.0 * 300_000 * 1e-6


@pytest.mark.parametrize("us, ns", [
    (0.0005, 0), (0.0015, 2), (0.0025, 2),  # half-ns ties go to the even ns
    (0.0004, 0), (0.0006, 1), (1.2345, 1234), (12.3456, 12346),
])
def test_fractional_latencies_round_to_integer_ns_half_to_even(us, ns):
    """A latency is kept in the calibration's us and rounded once per cost,
    as the loader rounded it when profiles held integer ns."""
    doc = json.loads(resources.files("framewatt").joinpath("data", "latency_demo.json")
                     .read_text())
    doc["profiles"]["conventional"]["entry_latency_us"]["C9"] = us
    doc["profiles"]["conventional"]["exit_latency_us"]["C9"] = us
    prof = calibration_from_dict(doc).conventional
    down = prof.transition_costs[PackageCState.C8, PackageCState.C9]
    up = prof.transition_costs[PackageCState.C9, PackageCState.C8]
    assert ns == int(round(us * 1_000))
    # C9's entry and exit power are both 1200 mW; mW x ns -> uJ
    assert down == up == 1200.0 * ns * 1e-6
