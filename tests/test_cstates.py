"""Idle-state lattice, power profiles, and calibrations."""

from __future__ import annotations

import json

import pytest

from framewatt.core import Scheme
from framewatt.cstates import (
    STATE_DRAM_MODE,
    STATES_BY_DEPTH,
    CalibrationSet,
    PackageCState,
    PowerProfile,
    calibration_from_dict,
    check_dram_split_consistency,
    load_calibration,
    transition_cost,
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
    tc = transition_cost(default_cal.conventional, PackageCState.C8, PackageCState.C8)
    assert (tc.latency_ns, tc.energy_uj) == (0, 0.0)


def test_default_calibration_has_instant_transitions(default_cal):
    for frm in PackageCState:
        for to in PackageCState:
            tc = transition_cost(default_cal.conventional, frm, to)
            assert tc.latency_ns == 0
            assert tc.energy_uj == 0.0


def test_demo_calibration_charges_deep_sleep_entry(latency_cal):
    tc = transition_cost(latency_cal.conventional, PackageCState.C8, PackageCState.C9)
    assert tc.latency_ns == 150_000
    assert tc.energy_uj == pytest.approx(180.0)  # 150 us at 1200 mW


def test_demo_calibration_charges_deep_sleep_exit(latency_cal):
    tc = transition_cost(latency_cal.conventional, PackageCState.C9, PackageCState.C8)
    assert tc.latency_ns == 300_000
    assert tc.energy_uj == pytest.approx(360.0)


def test_descents_pay_the_target_entry_and_ascents_the_source_exit(latency_cal):
    prof = latency_cal.conventional
    down = transition_cost(prof, PackageCState.C0, PackageCState.C8)
    assert down.latency_ns == 75_000  # C8's entry cost, wherever it starts from
    up = transition_cost(prof, PackageCState.C8, PackageCState.C0)
    assert up.latency_ns == 150_000  # C8's exit cost


# -- calibration sets ---------------------------------------------------------------


def test_calibration_enforces_the_decoder_gating_delta():
    prof = PowerProfile("p", _powers(), {})
    with pytest.raises(ValueError, match="C7P"):
        CalibrationSet("c", "", prof, prof, vd_gate_delta_mw=50.0)


def test_calibration_rejects_negative_adders():
    prof = PowerProfile("p", _powers(), {})
    with pytest.raises(ValueError, match=">= 0"):
        CalibrationSet("c", "", prof, prof, vd_gate_delta_mw=95.0,
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


def test_load_calibration_rejects_unknown_names():
    # A name that is not a built-in is read as a path; the error lists the built-ins.
    with pytest.raises(FileNotFoundError, match=r"'does-not-exist'; built-ins are \['default'"):
        load_calibration("does-not-exist")


def test_calibration_dict_rejects_unknown_top_level_keys():
    with pytest.raises(ValueError, match="unknown keys"):
        calibration_from_dict({"name": "x", "extra": 1})


def test_calibration_dict_requires_both_profiles():
    with pytest.raises(ValueError, match="missing profiles"):
        calibration_from_dict({"name": "x", "profiles": {}})


def test_calibration_dict_rejects_unknown_states():
    doc = {"profiles": {"conventional": {"state_power_mw": {"C1": 1.0}},
                        "burst": {"state_power_mw": {}}}}
    with pytest.raises(ValueError, match="unknown state"):
        calibration_from_dict(doc)


@pytest.mark.parametrize("state_power, message", [
    (5, "conventional.state_power_mw must be an object, got 5"),
    ({"C0": "big"}, 'conventional.state_power_mw.C0 must be a number, got "big"'),
    ({"C0": True}, "conventional.state_power_mw.C0 must be a number, got true"),
])
def test_calibration_state_maps_must_hold_json_numbers(state_power, message):
    doc = {"profiles": {"conventional": {"state_power_mw": state_power},
                        "burst": {"state_power_mw": {}}}}
    with pytest.raises(ValueError) as err:
        calibration_from_dict(doc)
    assert str(err.value) == message


def test_demo_calibration_latencies_parse_to_nanoseconds(latency_cal):
    prof = latency_cal.conventional
    assert prof.entry_latency_ns[PackageCState.C8] == 75_000
    assert prof.entry_latency_ns[PackageCState.C9] == 150_000
    assert prof.exit_latency_ns[PackageCState.C9] == 300_000
