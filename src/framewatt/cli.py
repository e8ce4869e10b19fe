"""Command-line front end.

Subcommands
-----------
``simulate``
    Build the interval timeline for one configuration, price it, and write
    ``report.json`` / ``report.csv`` / ``timeline.csv`` / ``timeline.svg``.
``compare``
    Price two configurations (side A vs side B) and report side-by-side
    residencies, powers, component breakdowns, and percentage deltas.  Each
    of side A's flags has a ``-b`` twin for side B, which starts untouched from
    its own source when it names one, else from side A's resolved run
    (configuration, calibration, run shape); its own twins apply last.
``sweep``
    Grid of resolution x frame-rate x scheme x overlay axes into one
    ``sweep.csv`` / ``sweep.json``; every row carries its energy reduction
    against the plain scheme at the same panel and frame rate.
``calibrate``
    Fit per-state package powers from measured residency/power runs; emits a
    loadable calibration file plus per-run residuals.
``validate``
    Check a configuration, then cross-check the analytic timeline against the
    event-driven reference executor (``--grid`` covers the 50-point grid and
    takes no run flags).
``presets``
    List the built-in named configurations.

Exit codes: 0 on success, 1 on a file that is missing or cannot be opened or
written and on a cross-check deviation, 2 on usage or input problems (bad
flags, files that are not UTF-8 or not JSON, failed validation,
under-determined fits).  All file output is deterministic: reports embed a
run manifest with the resolved inputs and the tool version, never
timestamps, so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path
from typing import Any, Callable, Sequence, TextIO

from . import __version__
from .core import (CACHED_TRAFFIC_FRACTION, ConfigurationError, Scheme, SimConfig, WorkloadKind,
                   json_excerpt, json_form, parse_resolution, rejection, replace)
from .cstates import STATES_BY_DEPTH, PackageCState, calibration_from_dict, load_calibration
from .oracle import oracle_simulate
from .power import (EnergyReport, WindowEnergy, report_from_timeline, streaming_report,
                    window_energy_breakdown)
from .presets import PRESETS, get_preset, validation_grid, video_config
from .scenarios import energy_reduction, read_dirty_trace
from .timeline import build_timeline, timeline_to_csv, timeline_to_svg

_SCHEME_NAMES = [s.value for s in Scheme]

#: Cross-check tolerance: analytic vs event-driven executor.
_ENERGY_TOL_PCT = 0.1
_RESIDENCY_TOL_PP = 0.1


# -- argument plumbing -----------------------------------------------------------


#: The flags of one run side, one row each: (group, flag, argparse keywords,
#: side A's default).  ``compare`` declares every row again for side B as
#: ``<flag>-b``, with no help and no default, so None there means "not given".
_SIDE_FLAGS: tuple[tuple[str, str, dict[str, Any], Any], ...] = (
    ("configuration source", "--config",
     dict(metavar="PATH", help="configuration JSON file"), None),
    ("configuration source", "--preset",
     dict(metavar="NAME", choices=sorted(PRESETS),
          help="built-in configuration (see the 'presets' subcommand)"), None),
    ("configuration source", "--calibration",
     dict(metavar="NAME_OR_PATH",
          help="power calibration: built-in name or JSON path "
               "(default: the preset's, else 'default')"), None),
    ("workload overrides", "--scheme", dict(choices=_SCHEME_NAMES), None),
    ("workload overrides", "--kind", dict(choices=[k.value for k in WorkloadKind]), None),
    ("workload overrides", "--fps",
     dict(type=int, metavar="N", help="video frame rate"), None),
    ("workload overrides", "--psr-alternate",
     dict(action="store_true",
          help="let the plain scheme self-refresh on repeated windows"), False),
    ("run shape", "--fbc-ratio",
     dict(type=float, metavar="R",
          help="frame-buffer compression ratio in (0,1]; 1 disables (default)"), 1.0),
    ("run shape", "--batch-every",
     dict(type=int, metavar="B",
          help="decode B frames ahead in one window; 1 disables (default)"), 1),
    ("run shape", "--cached-fraction",
     dict(type=float, metavar="F",
          help="buffer-traffic fraction saved by batching (default %(default)s)"),
     CACHED_TRAFFIC_FRACTION),
    ("run shape", "--trace",
     dict(metavar="PATH", help="dirty-fraction CSV driving single-plane workloads"), None),
)

#: Side A's default of each per-side flag, by argparse dest.
_SIDE_DEFAULTS = {flag[2:].replace("-", "_"): default
                  for _, flag, _, default in _SIDE_FLAGS}

#: The flags a side's manifest records under "overrides" when set away from
#: the side's default (side B has none, so every value it is given counts):
#: all but the configuration source.
_RECORDED = tuple(name for (title, *_), name in zip(_SIDE_FLAGS, _SIDE_DEFAULTS)
                  if title != "configuration source")


def _window_count(text: str) -> int:
    """The ``--windows`` type: an int of at least 1 (else a usage error)."""
    try:
        if (n := int(text)) >= 1:
            return n
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")


def _add_side_args(p: argparse.ArgumentParser, suffix: str = "") -> None:
    """Declare one run side's flags: side A's as tabled, with the ``--windows``
    and ``--seed`` both sides share, or ``<flag><suffix>`` twins in one group."""
    groups: dict[str, Any] = {}
    for title, flag, kwargs, default in _SIDE_FLAGS:
        if suffix:
            title, kwargs, default = (
                f"side B (side A's flags with a {suffix} suffix; defaults: side A's "
                "resolved run, unless side B names its own source)",
                {**kwargs, "help": None}, None)
        if title not in groups:
            groups[title] = p.add_argument_group(title)
        groups[title].add_argument(flag + suffix, default=default, **kwargs)
    if not suffix:
        run = groups["run shape"]
        run.add_argument("--windows", type=_window_count, metavar="N",
                         help="refresh windows to simulate (default: one frame "
                              "group, or one full batch cycle when batching)")
        run.add_argument("--seed", type=int, metavar="N",
                         help="recorded in the manifest for downstream tooling")


def _add_out_args(p: argparse.ArgumentParser) -> None:
    out = p.add_argument_group("output")
    out.add_argument("--out", metavar="DIR", help="directory for result files")
    out.add_argument(
        "--format",
        choices=["json", "csv", "both"],
        default="both",
        help="which result files to write under --out (default: both)",
    )


def _side(args: argparse.Namespace, suffix: str) -> dict[str, Any]:
    """One side's flag values by side A's dest; None where the command lacks one."""
    tail = suffix.replace("-", "_")
    return {name: getattr(args, name + tail, None) for name in _SIDE_DEFAULTS}


def _resolve_side(
    args: argparse.Namespace, suffix: str = "",
    base: tuple[SimConfig, str, dict[str, Any]] | None = None,
) -> tuple[SimConfig, str, dict[str, Any]]:
    """One side's config, calibration name and :func:`build_timeline` keywords.

    A side naming its own ``--config``/``--preset`` starts from that source,
    untouched, with the builder's defaults; side B without one starts from
    ``base``, side A's result.  The side's own flags apply last."""
    side = _side(args, suffix)
    if side["config"] and side["preset"]:
        raise ValueError(f"--config{suffix} and --preset{suffix} are mutually exclusive")
    if side["config"]:
        cfg, calibration, run = SimConfig.from_json(side["config"]), "default", {}
    elif side["preset"]:
        found = get_preset(side["preset"])
        cfg, calibration, run = found.config, found.calibration, {}
    elif base is not None:
        cfg, calibration, run = base[0], base[1], dict(base[2])
    else:
        raise ValueError("one of --config or --preset is required")
    wl = cfg.workload
    if side["scheme"]:
        wl = replace(wl, scheme=Scheme(side["scheme"]))
    if side["kind"]:
        wl = replace(wl, kind=WorkloadKind(side["kind"]))
    if side["fps"] is not None:
        wl = replace(wl, video_fps=side["fps"])
    if side["psr_alternate"]:
        wl = replace(wl, psr_alternate_windows=True)
    if wl is not cfg.workload:
        cfg = replace(cfg, workload=wl)
    for key, name in (("fbc_ratio", "fbc_ratio"), ("batch_every", "batch_every"),
                      ("cached_traffic_fraction", "cached_fraction")):
        if side[name] is not None:
            run[key] = side[name]
    if side["trace"]:
        run["dirty_trace"] = read_dirty_trace(side["trace"])
    return cfg, side["calibration"] or calibration, run


def _side_manifest(args: argparse.Namespace, calibration: str,
                   suffix: str = "") -> dict[str, Any]:
    """One side's manifest block: its source, calibration and overrides."""
    side = _side(args, suffix)
    defaults = {} if suffix else _SIDE_DEFAULTS
    return {
        "preset": side["preset"],
        "config_paths": [side["config"]] if side["config"] else [],
        "calibration": calibration,
        "overrides": {name: side[name] for name in _RECORDED
                      if side[name] is not None and side[name] != defaults.get(name)},
    }


def _manifest(command: str, args: argparse.Namespace, calibration: str,
              windows: int | None, **extra: Any) -> dict[str, Any]:
    return {
        "tool": "framewatt",
        "version": __version__,
        "command": command,
        **_side_manifest(args, calibration),
        "out": getattr(args, "out", None),
        "windows": windows,
        "seed": getattr(args, "seed", None),
        **extra,
    }


def _dump_json(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write(path: Path, content: str | Callable[[TextIO], object]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # A 256 KiB buffer gathers an export's per-window blocks into few writes.
    with path.open("w", encoding="utf-8", buffering=1 << 18) as f:
        if callable(content):
            content(f)
        else:
            f.write(content)
    print(f"wrote {path}")


def _pct_delta(a: float, b: float) -> float | None:
    """Percentage change from a to b; None when a is zero."""
    if a == 0:
        return None
    return 100.0 * (b - a) / a


def _fmt_delta(delta: float | None, unit: str = "%") -> str:
    return "n/a" if delta is None else f"{delta:+.2f}{unit}"


# -- simulate --------------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg, calibration_id, run = _resolve_side(args)
    calibration = load_calibration(calibration_id)
    timeline = build_timeline(cfg, args.windows, **run)
    report = report_from_timeline(timeline, cfg, calibration)

    total_s = report.total_ns * 1e-9
    print(f"scheme           {report.scheme.value}")
    print(f"calibration      {report.calibration} ({report.profile} profile)")
    print(f"windows          {report.n_windows} ({total_s * 1e3:.3f} ms)")
    print(f"average power    {report.average_power_mw:.2f} mW")
    print(f"analytic power   {report.analytic_average_power_mw:.2f} mW")
    print(f"total energy     {report.total_energy_uj:.1f} uJ")
    comp = report.component_energy_uj
    print(
        "components       "
        f"dram={comp['dram']:.1f} uJ, display={comp['display']:.1f} uJ, "
        f"others={comp['others']:.1f} uJ"
    )
    residency = ", ".join(
        f"{s.value}={r * 100:.2f}%" for s, r in report.residency.items() if r > 0
    )
    print(f"residency        {residency}")
    print(
        "traffic          "
        f"reads={report.dram_read_bytes} B, writes={report.dram_write_bytes} B, "
        f"link={report.edp_bytes} B"
    )

    if not args.out:
        return 0
    out = Path(args.out)
    manifest = _manifest("simulate", args, calibration.name, report.n_windows)
    if args.format in ("json", "both"):
        doc = {"manifest": manifest, "config": cfg.to_dict(), "report": report.to_dict()}
        _write(out / "report.json", _dump_json(doc))
    if args.format in ("csv", "both"):
        _write(out / "timeline.csv", lambda f: timeline_to_csv(timeline, f))
        text = [",".join([b.kind, *(f"{uj:.6f}" for uj in b[1:])])
                for b in window_energy_breakdown(timeline, cfg, calibration)]
        _write(out / "report.csv", ",".join(("window", *WindowEnergy._fields)) + "\n"
               + "".join(f"{w},{text[t]}\n" for w, t in enumerate(timeline.window_template)))
    _write(out / "timeline.svg", lambda f: timeline_to_svg(timeline, f))
    return 0


# -- compare ---------------------------------------------------------------------


#: Per-window compare rows: (report key, compare.json delta group, row label,
#: decimals).  The first three keys index ``component_energy_uj``.
_PER_WINDOW_ROWS = (
    ("dram", "component_pct", "component_dram_uj_per_window", 2),
    ("display", "component_pct", "component_display_uj_per_window", 2),
    ("others", "component_pct", "component_others_uj_per_window", 2),
    ("dram_read_bytes", "traffic_pct", "dram_reads_per_window_B", 0),
    ("dram_write_bytes", "traffic_pct", "dram_writes_per_window_B", 0),
    ("edp_bytes", "traffic_pct", "link_bytes_per_window_B", 0),
)


def _per_window(report: EnergyReport, key: str) -> float:
    """A component energy or traffic total of ``report``, per window."""
    total = report.component_energy_uj.get(key)
    return (getattr(report, key) if total is None else total) / report.n_windows


def _cmd_compare(args: argparse.Namespace) -> int:
    side_a = _resolve_side(args)
    cfg_a, calibration_id_a, run_a = side_a
    cfg_b, calibration_id_b, run_b = _resolve_side(args, "-b", side_a)
    cal_a = load_calibration(calibration_id_a)
    cal_b = load_calibration(calibration_id_b)

    mismatch = cfg_a.display != cfg_b.display
    if mismatch:
        print(
            "warning: the two sides drive different display configurations "
            f"({cfg_a.display.resolution}@{cfg_a.display.refresh_hz}Hz vs "
            f"{cfg_b.display.resolution}@{cfg_b.display.refresh_hz}Hz); "
            "deltas compare unlike panels",
            file=sys.stderr,
        )

    rep_a = streaming_report(cfg_a, cal_a, args.windows, **run_a)
    rep_b = streaming_report(cfg_b, cal_b, args.windows, **run_b)

    epw_a = rep_a.total_energy_uj / rep_a.n_windows
    epw_b = rep_b.total_energy_uj / rep_b.n_windows
    delta_power = _pct_delta(rep_a.average_power_mw, rep_b.average_power_mw)
    delta_epw = _pct_delta(epw_a, epw_b)
    residency_pp = {
        s: (rep_b.residency.get(s, 0.0) - rep_a.residency.get(s, 0.0)) * 100
        for s in PackageCState
        if rep_a.residency.get(s, 0.0) > 0 or rep_b.residency.get(s, 0.0) > 0
    }

    rows: list[tuple[str, str, str, str]] = [
        ("scheme", rep_a.scheme.value, rep_b.scheme.value, ""),
        ("calibration", rep_a.calibration, rep_b.calibration, ""),
        ("windows", str(rep_a.n_windows), str(rep_b.n_windows), ""),
        ("average_power_mw", f"{rep_a.average_power_mw:.2f}",
         f"{rep_b.average_power_mw:.2f}", _fmt_delta(delta_power)),
        ("energy_per_window_uj", f"{epw_a:.2f}", f"{epw_b:.2f}",
         _fmt_delta(delta_epw)),
    ]
    for s in residency_pp:  # states iterate shallow to deep
        rows.append((
            f"residency_{s.value}_pct",
            f"{rep_a.residency.get(s, 0.0) * 100:.2f}",
            f"{rep_b.residency.get(s, 0.0) * 100:.2f}",
            _fmt_delta(residency_pp[s], "pp"),
        ))
    per_window_pct: dict[str, dict[str, float | None]] = {"component_pct": {}, "traffic_pct": {}}
    for key, group, label, digits in _PER_WINDOW_ROWS:
        a, b = _per_window(rep_a, key), _per_window(rep_b, key)
        per_window_pct[group][key] = _pct_delta(a, b)
        rows.append((label, f"{a:.{digits}f}", f"{b:.{digits}f}",
                     _fmt_delta(per_window_pct[group][key])))

    print(f"{'metric':<32} {'A':>16} {'B':>16} {'delta':>10}")
    for name, a, b, d in rows:
        print(f"{name:<32} {a:>16} {b:>16} {d:>10}")
    if mismatch:
        print("note: display configurations differ between the sides")

    if not args.out:
        return 0
    out = Path(args.out)
    manifest = _manifest("compare", args, cal_a.name, args.windows,
                         side_b=_side_manifest(args, cal_b.name, "-b"))
    if args.format in ("json", "both"):
        doc = {
            "manifest": manifest,
            "display_mismatch": mismatch,
            "a": {"config": cfg_a.to_dict(), "report": rep_a.to_dict()},
            "b": {"config": cfg_b.to_dict(), "report": rep_b.to_dict()},
            "delta": {
                "average_power_pct": delta_power,
                "energy_per_window_pct": delta_epw,
                "residency_pp": json_form(residency_pp),
                **per_window_pct,
            },
        }
        _write(out / "compare.json", _dump_json(doc))
    if args.format in ("csv", "both"):
        _write(out / "compare.csv", lambda f: csv.writer(f, lineterminator="\n").writerows(
            [["metric", "a", "b", "delta"], *rows]))
    return 0


# -- sweep -----------------------------------------------------------------------


def _axis(raw: str | None, default: str, label: str,
          convert: Callable[[str], Any] = str) -> list[Any]:
    """One grid flag's comma-separated values, each through ``convert``."""
    items = [s.strip() for s in (raw if raw is not None else default).split(",")
             if s.strip()]
    if not items:
        raise ValueError(f"empty sweep grid: no values for {label}")
    values = []
    try:
        for v in items:
            values.append(convert(v))
    except ValueError:
        raise ValueError(f"{label}: {json_excerpt(v)} is not a valid {convert.__name__}") from None
    return values


_SWEEP_COLUMNS = [
    "resolution", "refresh_hz", "fps", "kind", "scheme", "fbc_ratio",
    "batch_every", "calibration", "status", "violations", "n_windows",
    "average_power_mw", "energy_per_window_uj", "reduction_vs_baseline_pct",
]


def _sweep_point(
    res: str, refresh: int, fps: int, kind: WorkloadKind, scheme: Scheme,
    fbc: float, batch: int, calibration: Any, windows: int | None,
) -> tuple[dict[str, Any], Any]:
    """Evaluate one grid point; returns (row, report-or-None).  A value that
    the config or the build rejects makes a skipped row."""
    row: dict[str, Any] = dict.fromkeys(_SWEEP_COLUMNS)
    row.update(resolution=str(parse_resolution(res)), refresh_hz=refresh, fps=fps,
               kind=kind.value, scheme=scheme.value, fbc_ratio=fbc, batch_every=batch,
               calibration=calibration.name, status="ok", violations="")
    try:
        cfg = video_config(res, refresh, fps, scheme, kind)
        report = streaming_report(cfg, calibration, windows, fbc_ratio=fbc,
                                  batch_every=batch)
    except ValueError as exc:
        row["status"] = "skipped"
        row["violations"] = (";".join(v.code for v in exc.violations)
                             if isinstance(exc, ConfigurationError) else str(exc))
        return row, None
    row["n_windows"] = report.n_windows
    row["average_power_mw"] = round(report.average_power_mw, 4)
    row["energy_per_window_uj"] = round(report.total_energy_uj / report.n_windows, 4)
    return row, report


def _cmd_sweep(args: argparse.Namespace) -> int:
    resolutions = _axis(args.resolutions, "fhd,qhd,4k,5k", "--resolutions")
    fps_axis = _axis(args.fps, "30,60", "--fps", int)
    schemes = _axis(args.schemes, ",".join(_SCHEME_NAMES), "--schemes", Scheme)
    fbc_axis = _axis(args.fbc_ratios, "1.0", "--fbc-ratios", float)
    batch_axis = _axis(args.batch_sizes, "1", "--batch-sizes", int)
    kind = WorkloadKind(args.kind)
    calibration = load_calibration(args.calibration or "default")

    points = [
        (res, args.refresh, fps, kind, scheme, fbc, batch)
        for res in resolutions
        for fps in fps_axis
        for scheme in schemes
        for fbc in fbc_axis
        for batch in batch_axis
    ]
    # Each baseline reference is a no-overlay plain-scheme run at the same
    # panel and frame rate.  Each distinct point runs once, so a reference
    # that is also a grid point shares its row's report.  The work is pure
    # Python, so points run in order.
    run = functools.cache(lambda point: _sweep_point(*point, calibration, args.windows))
    refs = {key: run((*key, kind, Scheme.BASELINE, 1.0, 1))[1]
            for key in sorted({point[:3] for point in points})}
    rows = []
    for point in points:
        res, refresh, fps, _, scheme, fbc, batch = point
        row, report = run(point)
        base = refs[res, refresh, fps]
        if report is not None and base is not None:
            row["reduction_vs_baseline_pct"] = round(energy_reduction(base, report), 4)
        rows.append(row)

    print(" ".join(f"{h:>{max(len(h), 10)}}" for h in _SWEEP_COLUMNS))
    for r in rows:
        cells = ["" if r[h] is None else str(r[h]) for h in _SWEEP_COLUMNS]
        print(" ".join(f"{c:>{max(len(h), 10)}}" for c, h in zip(cells,
                                                                 _SWEEP_COLUMNS)))

    if args.out:
        out = Path(args.out)
        if args.format in ("csv", "both"):
            _write(out / "sweep.csv", lambda f: csv.writer(f, lineterminator="\n").writerows(
                [_SWEEP_COLUMNS, *([r[h] for h in _SWEEP_COLUMNS] for r in rows)]))
        if args.format in ("json", "both"):
            doc = {
                "manifest": _manifest("sweep", args, calibration.name, args.windows),
                "rows": rows,
            }
            _write(out / "sweep.json", _dump_json(doc))
    return 0


# -- calibrate -------------------------------------------------------------------


def _fitted_calibration_doc(
    fit: Any, base: Any, name: str
) -> dict[str, Any]:
    """Loadable calibration document built around the fitted state powers.

    Both profiles carry the fitted powers (unfitted states inherit the base
    profile's row); the decoder gating delta is re-derived so the document
    stays self-consistent.
    """
    powers = dict(base.conventional.state_power_mw)
    powers.update(fit.state_power_mw)
    delta = powers[PackageCState.C7] - powers[PackageCState.C7P]
    profile = {
        "state_power_mw": {s: round(powers[s], 6) for s in PackageCState},
        "display_power_mw": base.conventional.display_power_mw,
    }
    return json_form({
        "name": name,
        "description": "fitted from measured residency/power runs",
        "vd_gate_delta_mw": round(delta, 6),
        "drfb_power_mw": base.drfb_power_mw,
        "profiles": {"conventional": profile, "burst": profile},
    })


def _cmd_calibrate(args: argparse.Namespace) -> int:
    # Imported here because it pulls in numpy and scipy.
    from .calibrate import UnderDeterminedError, fit_state_powers, load_runs, model_accuracy

    runs = load_runs(args.runs)
    names = {s.value: s for s in PackageCState}
    states = args.states.split(",") if args.states else []
    for name in states:
        if name not in names:
            raise rejection("UNKNOWN_VALUE", "--states",
                            f"unknown state {json_excerpt(name)}; use one of {', '.join(names)}")
    try:
        fit = fit_state_powers(runs, [names[name] for name in states] or None)
    except UnderDeterminedError as exc:
        print(f"under-determined: {exc}", file=sys.stderr)
        return 2
    accuracy = model_accuracy(fit.state_power_mw, runs)

    print(f"runs             {len(runs)}")
    print(f"states fitted    {', '.join(s.value for s in fit.states)} "
          f"(rank {fit.rank})")
    for s in fit.states:
        print(f"  {s.value:<5} {fit.state_power_mw[s]:>10.2f} mW")
    print(f"residual rms     {fit.residual_rms_mw:.3f} mW")
    print(f"model accuracy   {accuracy.accuracy_pct:.2f}% "
          f"(max abs error {accuracy.max_abs_error_mw:.2f} mW)")
    for s, acc in accuracy.per_state_accuracy_pct.items():
        print(f"  {s.value:<5} {acc:>9.2f}% (runs dominated by this state)")

    if not args.out:
        return 0
    out = Path(args.out)
    base = load_calibration(args.base)
    residuals = [
        {"label": run.label, "measured_mw": m, "predicted_mw": round(p, 6),
         "error_mw": round(p - m, 6)}
        for run, p, m in zip(runs, accuracy.predicted_mw, accuracy.measured_mw)
    ]
    doc = {
        "manifest": _manifest("calibrate", args, base.name, None,
                              runs_path=str(args.runs)),
        "fit": fit.to_dict(),
        "accuracy": accuracy.to_dict(),
        "residuals": residuals,
    }
    _write(out / "calibration_fit.json", _dump_json(doc))
    fitted = _fitted_calibration_doc(fit, base, args.name)
    try:
        calibration_from_dict(fitted)
    except ValueError as exc:
        print(f"warning: fitted powers do not form a loadable calibration "
              f"({exc}); skipping calibration file", file=sys.stderr)
    else:
        _write(out / "calibration_fitted.json", _dump_json(fitted))
    return 0


# -- validate --------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.grid:
        side = _side(args, "")
        given = [f"--{name.replace('_', '-')}" for name, default in _SIDE_DEFAULTS.items()
                 if side[name] != default] + ["--windows"] * (args.windows is not None)
        if given:
            raise ValueError(f"--grid runs the fixed validation grid and takes no run "
                             f"flags; got {', '.join(given)}")
        points = [(label, cfg, load_calibration(calibration_id), None, {})
                  for label, cfg, calibration_id in validation_grid()]
    else:
        cfg, calibration_id, run = _resolve_side(args)
        points = [("config", cfg, load_calibration(calibration_id), args.windows, run)]

    results = []
    for label, cfg, calibration, windows, run in points:
        # An invalid configuration or run shape raises here, before any
        # verdict is printed.
        report = streaming_report(cfg, calibration, windows, **run)
        if not args.grid:
            print("configuration OK")
        oracle = oracle_simulate(cfg, report.n_windows, **run)
        energy_dev = (100.0 * abs(oracle.energy_uj(cfg, calibration)
                                  - report.total_energy_uj) / report.total_energy_uj)
        o_res = oracle.residency()
        res_dev = max(abs(o_res.get(s, 0.0) - report.residency.get(s, 0.0)) * 100
                      for s in STATES_BY_DEPTH)
        results.append({"label": label, "energy_deviation_pct": energy_dev,
                        "residency_deviation_pp": res_dev})
        print(f"{label:<28} energy {energy_dev:9.6f}%   "
              f"residency {res_dev:9.6f}pp")

    max_energy = max(r["energy_deviation_pct"] for r in results)
    max_res = max(r["residency_deviation_pp"] for r in results)
    ok = max_energy < _ENERGY_TOL_PCT and max_res < _RESIDENCY_TOL_PP
    print(f"max deviation over {len(results)} point(s): "
          f"energy {max_energy:.6f}% (tol {_ENERGY_TOL_PCT}%), "
          f"residency {max_res:.6f}pp (tol {_RESIDENCY_TOL_PP}pp): "
          f"{'OK' if ok else 'DEVIATION'}")

    if args.out:
        out = Path(args.out)
        doc = {
            "manifest": _manifest("validate", args, "per-point", None,
                                  grid=bool(args.grid)),
            "points": results,
            "max_energy_deviation_pct": max_energy,
            "max_residency_deviation_pp": max_res,
            "energy_tolerance_pct": _ENERGY_TOL_PCT,
            "residency_tolerance_pp": _RESIDENCY_TOL_PP,
            "ok": ok,
        }
        _write(out / "validate.json", _dump_json(doc))
    return 0 if ok else 1


def _cmd_presets(args: argparse.Namespace) -> int:
    for name in sorted(PRESETS):
        preset = PRESETS[name]
        print(f"{name:<22} calibration={preset.calibration:<17} {preset.note}")
    return 0


# -- entry point -----------------------------------------------------------------


@functools.cache  # parsing leaves the parser as it was, so every main call reuses it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framewatt",
        description="Deterministic package-power simulator for display pipelines.",
    )
    parser.add_argument("--version", action="version",
                        version=f"framewatt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one configuration and price it")
    _add_side_args(p)
    _add_out_args(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="price two configurations side by side")
    _add_side_args(p)
    _add_side_args(p, "-b")
    _add_out_args(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "sweep", help="grid of resolution x fps x scheme x overlay axes"
    )
    ax = p.add_argument_group("grid axes (comma-separated)")
    ax.add_argument("--resolutions", metavar="A,B,...",
                    help="named sizes or WxH (default: fhd,qhd,4k,5k)")
    ax.add_argument("--fps", metavar="A,B,...", help="frame rates (default: 30,60)")
    ax.add_argument("--schemes", metavar="A,B,...",
                    help=f"subset of {','.join(_SCHEME_NAMES)} (default: all)")
    ax.add_argument("--fbc-ratios", metavar="A,B,...",
                    help="frame-buffer compression ratios (default: 1.0)")
    ax.add_argument("--batch-sizes", metavar="A,B,...",
                    help="decode-batch sizes (default: 1)")
    ax.add_argument("--refresh", type=int, default=60, metavar="HZ",
                    help="panel refresh rate (default: 60)")
    ax.add_argument("--kind", choices=["video", "vr360"], default="video")
    p.add_argument("--calibration", metavar="NAME_OR_PATH",
                   help="power calibration for every point (default: default)")
    p.add_argument("--windows", type=_window_count, metavar="N")
    p.add_argument("--seed", type=int, metavar="N")
    _add_out_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("calibrate", help="fit per-state powers from measured runs")
    p.add_argument("--runs", required=True, metavar="PATH",
                   help="measured runs: CSV (state columns + power_mw) or JSON "
                        '{"runs": [{label, residency, average_power_mw}]}')
    p.add_argument("--states", metavar="A,B,...",
                   help="restrict the fit to these states")
    p.add_argument("--base", default="default", metavar="NAME_OR_PATH",
                   help="calibration supplying structure for the emitted file")
    p.add_argument("--name", default="fitted", metavar="NAME",
                   help="name embedded in the emitted calibration file")
    p.add_argument("--seed", type=int, metavar="N")
    p.add_argument("--out", metavar="DIR", help="directory for the fit and fitted calibration")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser(
        "validate",
        help="check a configuration and cross-check analytic vs event timelines",
    )
    _add_side_args(p)
    p.add_argument("--grid", action="store_true",
                   help="cross-check the whole 50-point validation grid")
    p.add_argument("--out", metavar="DIR", help="directory for validate.json")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("presets", help="list built-in configurations")
    p.set_defaults(func=_cmd_presets)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        for v in exc.violations:
            print(f"violation\t{v.code}\t{v.field}\t{v.message}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
