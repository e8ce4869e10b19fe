"""Frame arithmetic, configuration records, and cross-field validation."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from framewatt.core import (
    NS_PER_S,
    RESOLUTIONS,
    ConfigurationError,
    DisplayConfig,
    Record,
    Resolution,
    Scheme,
    SimConfig,
    SystemConfig,
    Violation,
    WorkloadKind,
    WorkloadSpec,
    burst_transfer_time,
    dc_fetch_count,
    encoded_frame_bytes,
    frame_bytes,
    frame_window_ns,
    json_array,
    json_excerpt,
    json_form,
    json_keys,
    json_map,
    json_number,
    panel_stream_rate,
    parse_resolution,
    replace,
    validate_config,
    windows_per_frame,
)
from conftest import make_config


# -- frame arithmetic --------------------------------------------------------


def test_frame_bytes_uhd_frame():
    assert frame_bytes(RESOLUTIONS["4k"]) == 24_883_200


def test_frame_bytes_full_hd_frame():
    assert frame_bytes(RESOLUTIONS["fhd"]) == 6_220_800


def test_frame_bytes_scales_with_bit_depth():
    assert frame_bytes(RESOLUTIONS["fhd"], 16) == 1920 * 1080 * 2
    assert frame_bytes(RESOLUTIONS["fhd"], 32) == 1920 * 1080 * 4


def test_frame_bytes_rejects_unaligned_bit_depth():
    # 1 pixel at 30 bpp is not a whole number of bytes.
    with pytest.raises(ValueError, match="byte-aligned"):
        frame_bytes(Resolution(1, 1), 30)


def test_display_rejects_a_frame_that_is_not_byte_aligned():
    with pytest.raises(ConfigurationError) as exc:
        DisplayConfig(resolution=Resolution(1, 1), bits_per_pixel=30)
    assert exc.value.violations == (Violation(
        "OUT_OF_RANGE", "display.bits_per_pixel", "1x1 at 30 bpp is not byte-aligned"),)
    assert DisplayConfig(resolution=Resolution(2, 2), bits_per_pixel=30).bits_per_pixel == 30


def test_zero_width_resolution_is_rejected():
    with pytest.raises(ValueError):
        DisplayConfig(resolution=Resolution(0, 1080))


def test_negative_height_resolution_is_rejected():
    with pytest.raises(ValueError):
        DisplayConfig(resolution=Resolution(1920, -1))


def test_encoded_frame_bytes_uhd_half_bit_per_pixel():
    assert encoded_frame_bytes(RESOLUTIONS["4k"], 0.5) == 518_400
    assert encoded_frame_bytes(RESOLUTIONS["fhd"], 0.5) == 129_600


def test_encoded_frame_bytes_rounds_up_to_whole_bytes():
    # 1 pixel at 0.5 bpp is half a bit; it still occupies one byte.
    assert encoded_frame_bytes(Resolution(1, 1), 0.5) == 1


def frame_window(refresh_hz: int) -> Fraction:
    """Refresh window period in seconds, exact: the reference that the
    integer window length and the float window period are pinned against."""
    return Fraction(1, refresh_hz)


def test_window_length_and_period_equal_their_fraction_form():
    # Integer divmod with ties to even, and 1 / hz (correctly rounded), for
    # every refresh rate up to 10 kHz; 1024 and 5120 Hz are exact half-ns ties.
    assert [hz for hz in range(1, 10_001)
            if frame_window_ns(hz) != round(NS_PER_S * frame_window(hz))
            or 1 / hz != float(frame_window(hz))] == []


def test_frame_window_ns_rounds_to_integer_nanoseconds():
    assert frame_window_ns(60) == 16_666_667
    assert frame_window_ns(120) == 8_333_333


@pytest.mark.parametrize("refresh, fps, windows", [(60, 30, 2), (60, 24, 2), (30, 60, 1),
                                                    (60, 60, 1)])
def test_windows_per_frame_by_hand(refresh, fps, windows):
    # Whole windows per frame, at least one: 60/24 = 2.5 shows 2, and 30/60 shows 1.
    assert windows_per_frame(make_config(fps=fps, refresh=refresh)) == windows


def test_frame_window_rejects_zero_refresh():
    with pytest.raises((ValueError, ZeroDivisionError)):
        frame_window_ns(0)


def test_panel_stream_rate_uhd_60hz():
    assert panel_stream_rate(RESOLUTIONS["4k"], 60) == 11_943_936_000


def test_panel_stream_rate_full_hd_60hz():
    assert panel_stream_rate(RESOLUTIONS["fhd"], 60) == 2_985_984_000


def test_conventional_stream_rates_fit_under_link_peak():
    peak = DisplayConfig().edp_max_bits_per_s
    for name in ("fhd", "qhd", "4k"):
        assert panel_stream_rate(RESOLUTIONS[name], 60) < peak


def test_burst_transfer_time_uhd_frame_at_link_peak():
    t = burst_transfer_time(frame_bytes(RESOLUTIONS["4k"]), 25.92e9)
    assert t == pytest.approx(7.68e-3)


def test_burst_transfer_time_full_hd_frame_at_link_peak():
    t = burst_transfer_time(frame_bytes(RESOLUTIONS["fhd"]), 25.92e9)
    assert t == pytest.approx(1.92e-3)


def test_burst_transfer_time_rejects_negative_bytes():
    with pytest.raises(ValueError, match=">= 0"):
        burst_transfer_time(-1, 25.92e9)


def test_burst_round_trip_is_lossless_to_within_one_bit_time():
    # time -> bytes -> time must agree to less than one bit of slack
    n = frame_bytes(RESOLUTIONS["4k"])
    rate = 25.92e9
    t = burst_transfer_time(n, rate)
    assert abs(t * rate - n * 8) < 1.0


def test_dc_fetch_count_is_ceiling_division():
    assert dc_fetch_count(24_883_200, 524_288) == 48
    assert dc_fetch_count(1, 524_288) == 1
    assert dc_fetch_count(524_288, 524_288) == 1
    assert dc_fetch_count(524_289, 524_288) == 2


# -- resolution parsing -------------------------------------------------------


@pytest.mark.parametrize(
    "name,width,height",
    [("fhd", 1920, 1080), ("qhd", 2560, 1440), ("4k", 3840, 2160), ("5k", 5120, 2880)],
)
def test_parse_resolution_named_sizes(name, width, height):
    r = parse_resolution(name)
    assert (r.width, r.height) == (width, height)


def test_parse_resolution_accepts_width_x_height():
    assert parse_resolution("1280x720") == Resolution(1280, 720)


def test_parse_resolution_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown resolution"):
        parse_resolution("8k")


def test_parse_resolution_raises_the_coded_violation_for_a_size_out_of_range():
    with pytest.raises(ConfigurationError) as exc:
        DisplayConfig(resolution=parse_resolution("0x5"))
    assert exc.value.violations == (Violation(
        "OUT_OF_RANGE", "display.resolution", "resolution must be positive, got 0x5"),)
    with pytest.raises(ValueError, match='unknown resolution "wxh"'):
        parse_resolution("wxh")


def test_resolution_renders_as_width_x_height():
    assert str(Resolution(1920, 1080)) == "1920x1080"


def test_resolution_pixel_count():
    assert RESOLUTIONS["4k"].pixels == 3840 * 2160


# -- records ---------------------------------------------------------------------


#: The package's records: each validates in ``__post_init__``, is rebuilt by
#: ``replace`` and read field by field (``SimConfig``), or caches a property
#: (``PowerProfile``, ``WindowTimeline``).  Plain records are named tuples.
_RECORDS = {
    "core.Resolution", "core.DisplayConfig", "core.SystemConfig", "core.WorkloadSpec",
    "core.SimConfig", "cstates.PowerProfile", "cstates.CalibrationSet",
    "timeline.WindowTimeline", "calibrate.MeasuredRun",
}


def _record_classes() -> dict[str, type]:
    import importlib
    import pkgutil

    import framewatt

    found = {}
    for info in pkgutil.iter_modules(framewatt.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"framewatt.{info.name}")
        found |= {f"{info.name}.{name}": obj for name, obj in vars(module).items()
                  if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record
                  and obj.__module__ == module.__name__}
    return found


def test_only_validating_replaced_or_caching_classes_are_records():
    found = set(_record_classes())
    assert not found - _RECORDS, f"plain records should be NamedTuples: {sorted(found - _RECORDS)}"
    assert found == _RECORDS


def test_a_record_field_is_no_class_attribute():
    # A class attribute named like a field would stop CPython specialising
    # that field's reads; defaults live in the generated __init__ alone.
    for name, cls in _record_classes().items():
        assert cls._fields == tuple(cls.__annotations__), name
        shadowed = [f for f in cls._fields for base in cls.__mro__ if f in vars(base)]
        assert shadowed == [], name


class _Pair(Record):
    a: int
    b: tuple = ()

    def __post_init__(self):
        if self.a < 0:
            raise ValueError(f"a must be >= 0, got {self.a}")


class _Other(Record):
    a: int
    b: tuple = ()


def test_a_record_takes_its_fields_in_order_with_class_body_defaults():
    assert _Pair._fields == ("a", "b")
    assert (_Pair(1).a, _Pair(1).b) == (1, ())
    assert _Pair(1, (2,)) == _Pair(b=(2,), a=1)
    assert repr(_Pair(1, (2,))) == "_Pair(a=1, b=(2,))"
    with pytest.raises(TypeError, match=r"_Pair.__init__\(\) missing 1 required"):
        _Pair()
    with pytest.raises(TypeError, match="unexpected keyword argument 'c'"):
        replace(_Pair(1), c=2)


@pytest.mark.parametrize("build", [
    lambda: _Pair(-1), lambda: _Pair(a=-1), lambda: replace(_Pair(1), a=-1),
], ids=["positional", "keyword", "replace"])
def test_every_way_of_building_a_record_validates(build):
    with pytest.raises(ValueError, match="a must be >= 0, got -1"):
        build()


def test_a_record_refuses_assignment_and_deletion():
    pair = _Pair(1)
    with pytest.raises(AttributeError, match="a _Pair is frozen"):
        pair.a = 2
    with pytest.raises(AttributeError, match="a _Pair is frozen"):
        pair.c = 2
    with pytest.raises(AttributeError, match="a _Pair is frozen"):
        del pair.a
    assert pair.a == 1


def test_records_compare_and_hash_by_fields_within_one_class():
    assert _Pair(1, (2,)) == _Pair(1, (2,)) and hash(_Pair(1, (2,))) == hash(_Pair(1, (2,)))
    assert _Pair(1) != _Pair(2)
    assert _Pair(1) != _Other(1)
    assert Resolution(1, 2) != (1, 2) and (1, 2) != Resolution(1, 2)
    assert len({Resolution(1, 2), Resolution(1, 2), Resolution(2, 1)}) == 2


def test_replace_changes_only_the_named_fields():
    cfg = SimConfig()
    changed = replace(cfg, workload=replace(cfg.workload, video_fps=60))
    assert changed.workload.video_fps == 60 and cfg.workload.video_fps == 30
    assert (changed.display, changed.system) == (cfg.display, cfg.system)


def test_a_cached_property_is_computed_once_per_record(default_cal):
    profile = replace(default_cal.conventional)
    assert profile.transition_costs is profile.transition_costs
    assert profile == default_cal.conventional


def test_no_record_shares_a_mutable_default_with_another():
    # A dict default is copied for each record, as a dataclass's
    # default_factory made one; every other default is immutable and shared.
    from framewatt.cstates import PackageCState, PowerProfile

    powers = {s: 0.0 for s in PackageCState}
    one, two = PowerProfile("p", powers, powers), PowerProfile("q", powers, powers)
    assert one.entry_latency_us == two.entry_latency_us == {}
    assert one.entry_latency_us is not two.entry_latency_us
    first, second = SystemConfig(), SystemConfig()
    first.dram_background_mw["active"] = 1.0
    assert second.dram_background_mw["active"] == 450.0
    assert SystemConfig().dram_background_mw["active"] == 450.0
    mine = dict(second.dram_background_mw)
    assert SystemConfig(dram_background_mw=mine).dram_background_mw is mine
    assert _Pair(1).b is _Pair(2).b
    for name, cls in _record_classes().items():
        for value in cls.__init__.__defaults__ or ():
            assert isinstance(value, (Record, dict)) or hash(value) is not None, name


def test_a_record_pickles_and_copies(default_cal):
    import copy
    import pickle

    from framewatt.presets import get_preset

    cfg = get_preset("4k60").config
    assert pickle.loads(pickle.dumps(cfg)) == cfg == copy.deepcopy(cfg)
    assert copy.copy(default_cal) == default_cal


def test_display_config_rejects_nonpositive_refresh():
    with pytest.raises(ValueError, match="refresh_hz"):
        DisplayConfig(refresh_hz=0)


def test_display_config_rejects_odd_bit_depths():
    with pytest.raises(ValueError, match="bits_per_pixel"):
        DisplayConfig(bits_per_pixel=12)


def test_display_config_rejects_nonpositive_link_rate():
    with pytest.raises(ValueError, match="edp_max_bits_per_s"):
        DisplayConfig(edp_max_bits_per_s=0)


def test_system_config_rejects_zero_chunk_buffer():
    with pytest.raises(ValueError, match="dc_buffer_bytes"):
        SystemConfig(dc_buffer_bytes=0)


@pytest.mark.parametrize("field", ["dram_fetch_rate", "decode_rate", "gpu_pt_rate"])
def test_system_config_rejects_nonpositive_rates(field):
    with pytest.raises(ValueError, match=field):
        SystemConfig(**{field: 0})


def test_system_config_rejects_negative_orchestration():
    with pytest.raises(ValueError, match="orchestration_time"):
        SystemConfig(orchestration_time=-1e-3)


def test_system_config_rejects_negative_dram_coefficients():
    with pytest.raises(ConfigurationError) as exc:
        SystemConfig(dram_coeff_read=-1e-12)
    assert exc.value.violations == (Violation(
        "OUT_OF_RANGE", "system.dram_coeff_read",
        "dram_coeff_read must be non-negative (>= 0), got -1e-12"),)


@pytest.mark.parametrize("build, violation", [
    (lambda: replace(SystemConfig(), dc_buffer_bytes=0),
     ("OUT_OF_RANGE", "system.dc_buffer_bytes", "dc_buffer_bytes must be positive, got 0")),
    (lambda: DisplayConfig(resolution=Resolution(0, 5)),
     ("OUT_OF_RANGE", "display.resolution", "resolution must be positive, got 0x5")),
], ids=["replace", "resolution"])
def test_constructors_and_replace_raise_coded_violations(build, violation):
    with pytest.raises(ConfigurationError) as exc:
        build()
    assert exc.value.violations == (Violation(*violation),)


def test_every_failing_range_rule_is_reported_at_once():
    with pytest.raises(ConfigurationError) as exc:
        SystemConfig(decode_rate=0, gpu_active_mw=-1, dram_background_mw={"active": -1})
    assert [(v.code, v.field) for v in exc.value.violations] == [
        ("OUT_OF_RANGE", "system.decode_rate"),
        ("OUT_OF_RANGE", "system.gpu_active_mw"),
        ("DRAM_MODES", "system.dram_background_mw"),
        ("OUT_OF_RANGE", "system.dram_background_mw.active"),
    ]


def test_system_config_requires_all_dram_modes():
    with pytest.raises(ValueError, match="missing modes"):
        SystemConfig(dram_background_mw={"active": 450.0})


def test_workload_spec_rejects_nonpositive_fps():
    with pytest.raises(ValueError, match="video_fps"):
        WorkloadSpec(video_fps=0)


# -- serialization ---------------------------------------------------------------


def test_config_dict_round_trip_preserves_everything():
    cfg = make_config("qhd", 30, Scheme.BURSTLINK, refresh=60, psr_alternate=False)
    assert SimConfig.from_dict(cfg.to_dict()) == cfg


def test_config_dict_round_trip_with_overridden_system_knobs():
    cfg = SimConfig(
        display=DisplayConfig(
            resolution=RESOLUTIONS["qhd"], refresh_hz=120, bits_per_pixel=30,
            edp_max_bits_per_s=32.4e9, panel_psr_capable=False, panel_has_drfb=False,
        ),
        system=SystemConfig(
            dc_buffer_bytes=256 * 1024, dram_fetch_rate=12e9, decode_rate=9e9,
            vd_paced_rate=1e9, gpu_pt_rate=15e9, orchestration_time=1.5e-3,
            burst_orchestration_time=2e-4, encoded_bits_per_pixel=0.75,
            dram_coeff_read=0.0, dram_coeff_write=21e-12,
            dram_background_mw={"active": 400.0, "fast_powerdown": 120.0,
                                "self_refresh": 20.0, "off": 1.0},
            dram_capacity_bytes=2 * 1024**3, fbc_compute_mw=35.0, gpu_active_mw=900.0,
        ),
        workload=WorkloadSpec(kind=WorkloadKind.VR360, scheme=Scheme.BURSTLINK,
                              video_fps=60, psr_alternate_windows=True),
    )
    default = SimConfig()
    for section in ("display", "system", "workload"):
        for name in getattr(cfg, section)._fields:
            assert (getattr(getattr(cfg, section), name)
                    != getattr(getattr(default, section), name)), f"{section}.{name}"
    assert SimConfig.from_dict(cfg.to_dict()) == cfg
    assert SimConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_config_json_is_deterministic():
    cfg = make_config()
    a = json.dumps(cfg.to_dict(), sort_keys=True)
    b = json.dumps(make_config().to_dict(), sort_keys=True)
    assert a == b


def test_json_form_writes_each_kind_of_value_one_way():
    from framewatt.cstates import PackageCState as C

    assert json_form({(C.C0, C.C8): 2, C.C7P: (1, Scheme.BURSTLINK, "x")}) == {
        "C0->C8": 2, "C7P": [1, "burstlink", "x"]}
    assert json_form(RESOLUTIONS["4k"]) == "3840x2160"
    assert json_form(Violation("CODE", "a.b", "m")) == {"code": "CODE", "field": "a.b",
                                                         "message": "m"}
    assert json_form(WorkloadSpec()) == {"kind": "video", "scheme": "baseline",
                                         "video_fps": 30, "psr_alternate_windows": False}
    assert json_form(SimConfig()) == SimConfig().to_dict()
    assert json.loads(json.dumps(json_form(SimConfig()))) == json_form(SimConfig())


def _violations(data):
    with pytest.raises(ConfigurationError) as err:
        SimConfig.from_dict(data)
    return err.value.violations


def _unknown(field, key, cls):
    return (Violation("UNKNOWN_KEY", field, f"unknown key {key!r}; expected one of "
                      + ", ".join(cls._fields)),)


def test_from_dict_rejects_a_document_that_is_no_object():
    assert _violations([{"display": {}}]) == (
        Violation("WRONG_TYPE", "<root>", 'expected an object, got [{"display": {}}]'),)


def test_from_dict_rejects_unknown_sections():
    assert _violations({"display": {}, "panel": {}}) == _unknown("panel", "panel", SimConfig)


def test_from_dict_rejects_unknown_display_keys():
    assert _violations({"display": {"gamma": 2.2}}) == _unknown(
        "display.gamma", "gamma", DisplayConfig)


def test_from_dict_rejects_unknown_system_keys():
    assert _violations({"system": {"dc_buffer": 1}}) == _unknown(
        "system.dc_buffer", "dc_buffer", SystemConfig)


def test_from_dict_rejects_unknown_workload_keys():
    assert _violations({"workload": {"loop": True}}) == _unknown(
        "workload.loop", "loop", WorkloadSpec)


def test_from_dict_parses_resolution_strings():
    cfg = SimConfig.from_dict({"display": {"resolution": "4k"}})
    assert cfg.display.resolution == RESOLUTIONS["4k"]
    cfg = SimConfig.from_dict({"display": {"resolution": "1280x720"}})
    assert cfg.display.resolution == Resolution(1280, 720)


def test_from_dict_keeps_json_number_types_and_key_order():
    modes = {"off": 0, "active": 450, "fast_powerdown": 150.0, "self_refresh": 25}
    cfg = SimConfig.from_dict({"system": {"dram_fetch_rate": 31104000000,
                                          "dram_background_mw": modes}})
    system = cfg.to_dict()["system"]
    assert type(system["dram_fetch_rate"]) is int
    assert list(system["dram_background_mw"].items()) == list(modes.items())
    assert [type(v) for v in system["dram_background_mw"].values()] == [int, int, float, int]


def test_from_json_reads_files(tmp_path):
    path = tmp_path / "cfg.json"
    cfg = make_config("5k", 30, Scheme.BYPASS_ONLY)
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    assert SimConfig.from_json(path) == cfg


# -- scheme traits ---------------------------------------------------------------


def test_scheme_bypass_trait():
    assert Scheme.BYPASS_ONLY.uses_bypass
    assert Scheme.BURSTLINK.uses_bypass
    assert not Scheme.BASELINE.uses_bypass
    assert not Scheme.BURSTING_ONLY.uses_bypass


def test_scheme_bursting_trait():
    assert Scheme.BURSTING_ONLY.uses_bursting
    assert Scheme.BURSTLINK.uses_bursting
    assert not Scheme.BASELINE.uses_bursting
    assert not Scheme.BYPASS_ONLY.uses_bursting


# -- cross-field validation --------------------------------------------------------


def codes(cfg):
    return {v.code for v in validate_config(cfg)}


def test_default_video_configs_validate_clean():
    for res in ("fhd", "qhd", "4k", "5k"):
        for fps in (30, 60):
            for scheme in Scheme:
                assert validate_config(make_config(res, fps, scheme)) == []


def test_link_too_slow_is_flagged():
    display = DisplayConfig(resolution=RESOLUTIONS["4k"], refresh_hz=60,
                            edp_max_bits_per_s=1e9)
    assert "LINK_TOO_SLOW" in codes(make_config(display=display))


def test_fps_above_refresh_is_flagged():
    assert "FPS_ABOVE_REFRESH" in codes(make_config(fps=120, refresh=60))


def test_non_divisor_fps_is_flagged():
    bad = codes(make_config(fps=25, refresh=60))
    assert "FPS_NOT_DIVISOR" in bad
    assert "FPS_ABOVE_REFRESH" not in bad


def test_divisor_fps_is_clean():
    assert "FPS_NOT_DIVISOR" not in codes(make_config(fps=20, refresh=60))


def test_bursting_requires_panel_frame_buffer():
    display = DisplayConfig(resolution=RESOLUTIONS["4k"], panel_has_drfb=False)
    assert "BURST_NEEDS_DRFB" in codes(
        make_config(scheme=Scheme.BURSTLINK, display=display)
    )


def test_bursting_requires_self_refresh_panel():
    display = DisplayConfig(resolution=RESOLUTIONS["4k"], panel_psr_capable=False)
    found = codes(make_config(scheme=Scheme.BURSTING_ONLY, display=display))
    assert "BURST_NEEDS_PSR" in found
    # a frame buffer on a non-self-refreshing panel is itself contradictory
    assert "DRFB_NEEDS_PSR" in found


def test_self_refresh_alternation_requires_capable_panel():
    display = DisplayConfig(
        resolution=RESOLUTIONS["fhd"], panel_psr_capable=False, panel_has_drfb=False
    )
    assert "PSR_NOT_CAPABLE" in codes(
        make_config("fhd", 30, psr_alternate=True, display=display)
    )


def test_burst_span_must_fit_the_refresh_window():
    # a link slower than the conventional stream rate cannot finish a burst
    # inside one window either, so both violations surface together
    display = DisplayConfig(resolution=RESOLUTIONS["4k"], refresh_hz=60,
                            edp_max_bits_per_s=10e9)
    found = codes(make_config(scheme=Scheme.BURSTLINK, display=display))
    assert "BURST_EXCEEDS_WINDOW" in found
    assert "LINK_TOO_SLOW" in found


def test_slow_decode_overruns_the_window():
    system = SystemConfig(decode_rate=1e8)
    assert "WINDOW_OVERRUN" in codes(make_config("4k", 60, system=system))


def test_slow_paced_feed_overruns_the_window_for_direct_feed_schemes():
    system = SystemConfig(vd_paced_rate=1e8)
    found = {
        v.code: v.field
        for v in validate_config(
            make_config("4k", 60, Scheme.BYPASS_ONLY, system=system)
        )
    }
    assert found.get("WINDOW_OVERRUN") == "system.vd_paced_rate"


def test_vr_under_burstlink_is_budgeted_by_the_gpu_feed_not_the_paced_decoder():
    # The VR recipe decodes at the full rate and feeds the projection at the
    # GPU's, so the decoder's direct-feed pacing does not enter its budget.
    vr = {"scheme": Scheme.BURSTLINK, "kind": WorkloadKind.VR360}
    assert validate_config(make_config(system=SystemConfig(vd_paced_rate=1e8), **vr)) == []
    found = {v.code: v.field
             for v in validate_config(make_config(system=SystemConfig(gpu_pt_rate=1e9), **vr))}
    assert found == {"WINDOW_OVERRUN": "system.gpu_pt_rate"}


def test_long_orchestration_overruns_the_window():
    system = SystemConfig(orchestration_time=20e-3)
    assert "WINDOW_OVERRUN" in codes(make_config("fhd", 60, system=system))


def test_long_burst_wake_up_overruns_the_window():
    # Only the burst schemes take the hardware-assisted wake-up.
    system = SystemConfig(burst_orchestration_time=20e-3)
    for scheme in (Scheme.BURSTING_ONLY, Scheme.BURSTLINK):
        assert "WINDOW_OVERRUN" in codes(make_config("fhd", 60, scheme, system=system))
    for scheme in (Scheme.BASELINE, Scheme.BYPASS_ONLY):
        assert codes(make_config("fhd", 60, scheme, system=system)) == set()


def test_vr_only_supports_plain_and_combined_schemes():
    for scheme in (Scheme.BYPASS_ONLY, Scheme.BURSTING_ONLY):
        assert "VR_SCHEME_UNSUPPORTED" in codes(
            make_config(scheme=scheme, kind=WorkloadKind.VR360)
        )
    for scheme in (Scheme.BASELINE, Scheme.BURSTLINK):
        assert validate_config(
            make_config(scheme=scheme, kind=WorkloadKind.VR360)
        ) == []


def test_violations_render_with_code_field_and_message():
    display = DisplayConfig(resolution=RESOLUTIONS["4k"], refresh_hz=60,
                            edp_max_bits_per_s=1e9)
    v = validate_config(make_config(display=display))[0]
    text = str(v)
    assert "LINK_TOO_SLOW" in text
    assert "display.edp_max_bits_per_s" in text


def _nested(depth: int, leaf: object) -> list:
    value = leaf
    for _ in range(depth):
        value = [value]
    return value


def test_finite_check_and_excerpt_take_any_depth_without_recursing():
    deep = {"a": _nested(100_000, float("nan"))}
    with pytest.raises(ConfigurationError) as exc:
        json_keys(deep, "", {"a": json_array(json_number)})
    (violation,) = exc.value.violations
    assert violation == ("WRONG_TYPE", "a[0]", "expected a number, got " + "[" * 60 + "...")
    assert json_excerpt(deep) == '{"a": ' + "[" * 54 + "..."


@pytest.mark.parametrize("value", [
    5, "x", None, [1, 2], {"a": [1, {"b": "c"}]}, _nested(29, 1), list(range(14)),
    list(range(40)), _nested(70, 1), {str(i): i for i in range(30)}, "y" * 100,
])
def test_excerpt_quotes_the_start_of_the_full_json(value):
    text = json.dumps(value)
    assert json_excerpt(value) == (text if len(text) <= 60 else text[:60] + "...")


def test_finite_check_names_non_finite_values_in_document_order():
    with pytest.raises(ConfigurationError) as exc:
        json_keys({"b": [1.0, float("inf")], "a": {"x": float("nan"), "y": -float("inf")}}, "",
                  {"b": json_array(json_number), "a": json_map(json_number)})
    assert [v.field for v in exc.value.violations] == ["b[1]"]
