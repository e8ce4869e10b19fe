"""Deterministic simulator and analytical power model for mobile video-display pipelines.

The package models how a mobile SoC drives a panel while playing video: which
package power states the system moves through inside each display refresh
window, how much data moves over DRAM and the display link, and what the
resulting energy bill looks like.  Four display schemes are modeled:

* ``baseline``       -- decode into DRAM, then stream the frame to the panel
                        at the panel rate for the whole window.
* ``bypass_only``    -- the video decoder feeds the display controller buffer
                        directly, skipping the decoded-frame DRAM round trip.
* ``bursting_only``  -- decode into DRAM, then push the frame over the display
                        link at its maximum rate and idle for the rest of the
                        window.
* ``burstlink``      -- both techniques combined: decode straight into the
                        display controller buffer and burst it to a panel-side
                        frame buffer, then drop into deep idle.

Timelines are exact (integer nanoseconds), energy accounting is closed over
per-state powers plus DRAM traffic coefficients, and an independent
discrete-event oracle cross-checks every analytic timeline builder.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Every public name by the module that defines it.  A name loads its module
#: on first access (PEP 562), so ``import framewatt.core`` loads no other
#: module and numpy and scipy load only with the calibration fitter.
_NAMES = {name: module for module, names in {
    "core": ("ConfigurationError", "DisplayConfig", "Resolution", "Scheme", "SimConfig",
             "SystemConfig", "Violation", "WorkloadKind", "WorkloadSpec",
             "burst_transfer_time", "frame_bytes", "frame_window_ns",
             "panel_stream_rate", "validate_config"),
    "cstates": ("CalibrationSet", "PackageCState", "PowerProfile"),
    "timeline": ("Interval", "WindowTimeline", "build_timeline", "timeline_to_csv",
                 "timeline_to_svg"),
    "power": ("EnergyReport", "average_power", "report_from_timeline", "streaming_report",
              "window_energy_breakdown"),
    "oracle": ("OracleResult", "oracle_simulate"),
    "presets": ("PRESETS", "Preset", "get_preset", "validation_grid"),
    "scenarios": ("apply_batching", "apply_fbc", "energy_reduction", "read_dirty_trace",
                  "single_plane_burst", "write_dirty_trace"),
    "calibrate": ("AccuracyReport", "FitResult", "MeasuredRun", "UnderDeterminedError",
                  "fit_state_powers", "load_runs", "model_accuracy"),
}.items() for name in names}


def __getattr__(name: str):
    module = _NAMES.get(name)
    if module is not None:
        return getattr(import_module(f".{module}", __name__), name)
    if name in _NAMES.values():  # a submodule not imported yet
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_NAMES})
