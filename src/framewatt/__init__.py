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

from .core import (
    ConfigurationError,
    DisplayConfig,
    Resolution,
    Scheme,
    SimConfig,
    SystemConfig,
    Violation,
    WorkloadKind,
    WorkloadSpec,
    burst_transfer_time,
    frame_bytes,
    frame_window,
    frame_window_ns,
    panel_stream_rate,
    validate_config,
)
from .cstates import (
    CalibrationSet,
    PackageCState,
    PowerProfile,
    transition_cost,
)
from .timeline import (
    Interval,
    WindowTimeline,
    build_timeline,
    residencies,
    timeline_to_csv,
    timeline_to_svg,
)
from .power import (
    EnergyReport,
    average_power,
    report_from_timeline,
    streaming_report,
    window_energy_breakdown,
)
from .oracle import OracleResult, oracle_simulate
from .presets import PRESETS, Preset, get_preset, validation_grid
from .scenarios import (
    apply_batching,
    apply_fbc,
    energy_reduction,
    read_dirty_trace,
    single_plane_burst,
    write_dirty_trace,
)

__version__ = "0.1.0"

# Calibration fitting pulls in numpy and scipy, which no other command needs,
# so its names load on first access (PEP 562).
_CALIBRATE_NAMES = frozenset({
    "AccuracyReport",
    "FitResult",
    "MeasuredRun",
    "UnderDeterminedError",
    "fit_state_powers",
    "load_runs",
    "model_accuracy",
})


def __getattr__(name: str):
    if name in _CALIBRATE_NAMES:
        from . import calibrate

        return getattr(calibrate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
