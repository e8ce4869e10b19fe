"""Named ready-to-run configurations.

The ``fhd30-ref-*`` pair reproduces a measured full-HD 30 fps playback table
when priced with the ``reference-fhd30`` calibration: the system rates are
chosen so the window residencies land exactly on the measured ones (9/11/80
for conventional playback, 2/19/79 for the combined scheme), and the traffic
coefficients are zeroed because the measured row powers already include all
DRAM and panel activity.  Every other preset uses the stock system model and
the ``default`` calibration.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    DisplayConfig,
    Scheme,
    SimConfig,
    SystemConfig,
    WorkloadKind,
    WorkloadSpec,
    parse_resolution,
    replace,
)


class Preset(NamedTuple):
    config: SimConfig
    calibration: str
    note: str


# System whose rates pin the measured residencies: a 1.0 ms wake-up plus a
# 1.0 ms full-HD decode puts blended C0 at 9%; the fetch rate spreads the
# frame's DC fetches over 11% of each window; the paced direct feed puts the
# combined scheme's decoder-active share at 19%.
_REF_SYSTEM = SystemConfig(
    dram_fetch_rate=6_220_800 * 60 / 0.11,
    decode_rate=6.2208e9,
    vd_paced_rate=982e6,
    orchestration_time=1.0e-3,
    burst_orchestration_time=None,  # BURST_WAKE_SHARE of the window
    dram_coeff_read=0.0,
    dram_coeff_write=0.0,
)


def video_config(res: str, refresh: int, fps: int, scheme: Scheme = Scheme.BASELINE,
                 kind: WorkloadKind = WorkloadKind.VIDEO) -> SimConfig:
    """Playback on the stock system model; ``res`` is a named size or ``WxH``."""
    return SimConfig(
        display=DisplayConfig(resolution=parse_resolution(res), refresh_hz=refresh),
        system=SystemConfig(),
        workload=WorkloadSpec(kind=kind, scheme=scheme, video_fps=fps),
    )


PRESETS: dict[str, Preset] = {
    "fhd30": Preset(video_config("fhd", 60, 30), "default", "full-HD video, 30 fps on 60 Hz"),
    "fhd60": Preset(video_config("fhd", 60, 60), "default", "full-HD video, 60 fps"),
    "qhd30": Preset(video_config("qhd", 60, 30), "default", "QHD video, 30 fps on 60 Hz"),
    "qhd60": Preset(video_config("qhd", 60, 60), "default", "QHD video, 60 fps"),
    "4k30": Preset(video_config("4k", 60, 30), "default", "4K video, 30 fps on 60 Hz"),
    "4k60": Preset(video_config("4k", 60, 60), "default", "4K video, 60 fps"),
    "5k30": Preset(video_config("5k", 60, 30), "default", "5K video, 30 fps on 60 Hz"),
    "5k60": Preset(video_config("5k", 60, 60), "default", "5K video, 60 fps"),
    "4k60-vr": Preset(
        video_config("4k", 60, 60, kind=WorkloadKind.VR360),
        "default",
        "4K 360-degree video, 60 fps",
    ),
    "fhd30-ref-baseline": Preset(
        replace(video_config("fhd", 60, 30, Scheme.BASELINE), system=_REF_SYSTEM),
        "reference-fhd30",
        "measured-table reproduction, conventional row",
    ),
    "fhd30-ref-burstlink": Preset(
        replace(video_config("fhd", 60, 30, Scheme.BURSTLINK), system=_REF_SYSTEM),
        "reference-fhd30",
        "measured-table reproduction, combined-scheme row",
    ),
}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None


def validation_grid() -> list[tuple[str, SimConfig, str]]:
    """The 50-point cross-check grid: (label, config, calibration name).

    Every analytic timeline must agree with the event-driven reference
    executor on each of these points: 32 plain-video combinations (four
    panels x two frame rates x all four schemes), 16 projected-video ones
    (the two schemes that support projection), and the two measured-table
    reproduction presets.
    """
    grid: list[tuple[str, SimConfig, str]] = []
    for res in ("fhd", "qhd", "4k", "5k"):
        for fps in (30, 60):
            for scheme in Scheme:
                grid.append(
                    (f"{res}-{fps}-{scheme.value}", video_config(res, 60, fps, scheme),
                     "default")
                )
            for scheme in (Scheme.BASELINE, Scheme.BURSTLINK):
                grid.append(
                    (f"{res}-{fps}-vr-{scheme.value}",
                     video_config(res, 60, fps, scheme, kind=WorkloadKind.VR360),
                     "default")
                )
    for name in ("fhd30-ref-baseline", "fhd30-ref-burstlink"):
        preset = PRESETS[name]
        grid.append((name, preset.config, preset.calibration))
    return grid
