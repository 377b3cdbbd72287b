"""Command-line entry point.

Every subcommand writes its artifacts into ``--out DIR`` together with a
``manifest.json`` that echoes the configuration, records the seed and the
sha256 of every artifact. Timestamps live in a separate manifest field so
that reruns with the same config and seed are byte-identical elsewhere.
``fit`` also writes a ``diagnostics`` field (model evaluations, convergence,
multistart spread, Fisher conditioning, merges), deterministic like the rest.

Exit codes: 0 success, 1 runtime error inside a module, 2 invalid
configuration or arguments.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import presets
from .config import load_config, validate_config
from .errors import ConfigurationError, DomainError, EpstreakError
from .events import (CH_HBT_R, CH_HBT_T, CH_HERALD, CH_SIGNAL, RunConfig,
                     simulate_channels, simulate_stream)
from .eventfile import read_event_file, write_event_file
from .fitting import fit_decay, format_fit_report
from .spdc import tuning_curve
from .tcspc import (build_histogram, read_histogram_csv, start_stop_histogram, tag_g2,
                    write_g2_csv, write_histogram_csv)
from .twins import TwinsCalibration, acquire_cube, reconstruct_map, save_cube, write_map_csv


def _sha256(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _collect_artifacts(out: Path, names):
    hashes = {}
    for name in names:
        p = out / name
        if p.is_dir():
            for child in sorted(p.rglob("*")):
                if child.is_file():
                    hashes[str(child.relative_to(out))] = _sha256(child)
        elif p.is_file():
            hashes[name] = _sha256(p)
    return hashes


def _write_manifest(out: Path, command, config_echo, seed, artifact_names,
                    summary=None, diagnostics=None):
    manifest = {
        "command": command,
        "config": config_echo,
        "seed": seed,
        "artifacts": _collect_artifacts(out, artifact_names),
        "summary": summary or {},
        "timestamps": {"written_utc": datetime.now(timezone.utc).isoformat()},
    }
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=float) + "\n")


def _load_cfg(args):
    if args.config:
        return load_config(args.config)
    cfg, _ = validate_config({})
    return cfg


def _apply_overrides(cfg, args):
    """cfg with --seed and --duration applied; a value RunConfig rejects is a usage error."""
    from dataclasses import replace
    flags = {"seed": getattr(args, "seed", None), "duration_s": getattr(args, "duration", None)}
    try:
        cfg.run = replace(cfg.run, **{k: v for k, v in flags.items() if v is not None})
    except DomainError as exc:
        raise ConfigurationError(f"command-line override: {exc}") from None
    return cfg


def _simulate(cfg):
    return simulate_stream(cfg.source, cfg.sample, cfg.herald_det,
                           cfg.signal_det, cfg.twins, cfg.run)


def _simulate_channels(cfg):
    return simulate_channels(cfg.source, cfg.sample, cfg.herald_det,
                             cfg.signal_det, cfg.twins, cfg.run)


def cmd_simulate(args):
    cfg = _apply_overrides(_load_cfg(args), args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stream = _simulate(cfg)
    write_event_file(out / "events.bin", stream,
                     {"seed": cfg.run.seed, "topology": cfg.run.topology,
                      "config": cfg.raw})
    _write_manifest(out, "simulate", cfg.raw, cfg.run.seed,
                    ["events.bin", "events.bin.meta.json"],
                    {"n_events": len(stream), "warnings": stream.warnings})
    return 0


def _histogram_from_args(cfg, args):
    an = cfg.analysis
    binning = dict(bin_width_ps=an.histogram.bin_width_ps, window_ps=an.histogram.window_ps,
                   t0_ps=an.histogram.t0_ps, mode=an.histogram.mode)
    if args.events:
        return build_histogram(read_event_file(args.events), CH_HERALD, CH_SIGNAL,
                               **binning)
    tags = _simulate_channels(cfg)
    return start_stop_histogram(tags[CH_HERALD], tags[CH_SIGNAL], **binning)


def cmd_histogram(args):
    cfg = _apply_overrides(_load_cfg(args), args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    hist = _histogram_from_args(cfg, args)
    write_histogram_csv(out / "histogram.csv", hist)
    _write_manifest(out, "histogram", cfg.raw, cfg.run.seed, ["histogram.csv"],
                    {"counts": int(hist.counts.sum()), "fwhm_ps": hist.fwhm_ps(),
                     "peak_ps": hist.peak_ps(), "flags": hist.flags})
    return 0


def cmd_irf(args):
    cfg = _apply_overrides(_load_cfg(args), args)
    if cfg.run.topology != "irf":
        from dataclasses import replace
        cfg.run = replace(cfg.run, topology="irf")
        cfg.sample = None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    args.events = None
    hist = _histogram_from_args(cfg, args)
    write_histogram_csv(out / "irf.csv", hist)
    report = (f"coincidences: {int(hist.counts.sum())}\n"
              f"fwhm_ps: {hist.fwhm_ps():.2f}\n"
              f"peak_ps: {hist.peak_ps():.2f}\n")
    (out / "irf_report.txt").write_text(report)
    _write_manifest(out, "irf", cfg.raw, cfg.run.seed,
                    ["irf.csv", "irf_report.txt"],
                    {"fwhm_ps": hist.fwhm_ps()})
    return 0


def cmd_g2(args):
    cfg = _apply_overrides(_load_cfg(args), args)
    if cfg.run.topology != "hbt":
        raise ConfigurationError("g2 requires run.topology = hbt")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tags = _simulate_channels(cfg)
    g2 = cfg.analysis.g2
    curve = tag_g2(tags[CH_HERALD], tags[CH_HBT_T], tags[CH_HBT_R],
                   g2.coincidence_window_ps, g2.delay_axis_ps())
    write_g2_csv(out / "g2.csv", curve)
    _write_manifest(out, "g2", cfg.raw, cfg.run.seed, ["g2.csv"],
                    {"g2_zero": curve.at_zero()})
    return 0


def cmd_ft_map(args):
    cfg = _apply_overrides(_load_cfg(args), args)
    if cfg.twins is None or cfg.sample is None:
        raise ConfigurationError(
            "ft-map requires both a twins section and a sample section")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    an = cfg.analysis
    cube = acquire_cube(cfg.source, cfg.sample, cfg.herald_det, cfg.signal_det,
                        cfg.twins, cfg.twins_positions_um(), cfg.run,
                        bin_width_ps=an.histogram.bin_width_ps,
                        window_ps=an.histogram.window_ps, t0_ps=an.histogram.t0_ps)
    save_cube(out / "cube", cube)
    cal = TwinsCalibration(cfg.twins.delay_per_um_fs, cfg.twins.x_zero_um,
                           fringe_period_um=float("nan"))
    tf_map = reconstruct_map(cube, cal, apodization=an.ft.apodization,
                             dc_removal=an.ft.dc_removal)
    write_map_csv(out / "map.csv", tf_map)
    _write_manifest(out, "ft-map", cfg.raw, cfg.run.seed, ["cube", "map.csv"],
                    {"n_positions": len(cube.positions_um)})
    return 0


def cmd_fit(args):
    cfg = _load_cfg(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    hist = read_histogram_csv(args.hist)
    irf = read_histogram_csv(args.irf)
    from .fitting import FitOptions
    fit = cfg.analysis.fit
    n = args.n if args.n is not None else fit.n_components
    result = fit_decay(hist, irf, n_components=n,
                       options=FitOptions(seed=fit.seed, fit_shift=fit.fit_shift))
    report = format_fit_report(result, irf_source=str(args.irf))
    (out / "fit_report.txt").write_text(report)
    sys.stdout.write(report)
    taus = [tau for _, tau in result.model.components]
    _write_manifest(out, "fit", cfg.raw, fit.seed, ["fit_report.txt"],
                    {"lifetimes_ns": taus,
                     "reduced_chi2": result.reduced_chi2},
                    diagnostics=result.diagnostics())
    return 0


def cmd_tuning_curve(args):
    cfg = _load_cfg(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    temps = np.arange(args.tmin, args.tmax + 1e-9, args.step)
    if len(temps) == 0:
        raise ConfigurationError("empty temperature range")
    points = tuning_curve(cfg.source.pump, cfg.source.crystal, temps)
    presets._write_tuning_csv(out / "tuning_curve.csv", points)
    matched = [p for p in points if p.phase_matched]
    summary = {"n_phase_matched": len(matched)}
    if matched:
        wl = [w for p in matched for w in (p.lambda_signal_nm, p.lambda_idler_nm)]
        summary["coverage_min_nm"] = min(wl)
        summary["coverage_max_nm"] = max(wl)
    _write_manifest(out, "tuning-curve", cfg.raw, cfg.run.seed,
                    ["tuning_curve.csv"], summary)
    return 0


def cmd_preset(args):
    if args.name not in presets.PRESETS:
        sys.stderr.write(f"unknown preset {args.name!r}; available: "
                         f"{', '.join(sorted(presets.PRESETS))}\n")
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else 1
    summary = presets.run_preset(args.name, out, seed=seed)
    artifacts = summary.pop("artifacts", [])
    _write_manifest(out, f"preset {args.name}", {"preset": args.name}, seed,
                    artifacts, summary)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="epstreak",
        description="entangled-photon time and frequency resolved "
                    "fluorescence: simulation and analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        p.add_argument("--out", required=True, help="output directory")
        if config:
            p.add_argument("--config", help="YAML configuration file")
            p.add_argument("--seed", type=int, help="override run.seed")

    p = sub.add_parser("simulate", help="write a raw event file")
    common(p)
    p.add_argument("--duration", type=float, help="override run.duration_s")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("histogram", help="start-stop delay histogram")
    common(p)
    p.add_argument("--events", help="read an existing event file instead of simulating")
    p.add_argument("--duration", type=float, help="override run.duration_s")
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("g2", help="heralded HBT correlation curve")
    common(p)
    p.add_argument("--duration", type=float, help="override run.duration_s")
    p.set_defaults(func=cmd_g2)

    p = sub.add_parser("irf", help="timing-response histogram and FWHM report")
    common(p)
    p.add_argument("--duration", type=float, help="override run.duration_s")
    p.set_defaults(func=cmd_irf)

    p = sub.add_parser("ft-map", help="interferogram cube and reconstructed map")
    common(p)
    p.set_defaults(func=cmd_ft_map)

    p = sub.add_parser("fit", help="reconvolution lifetime fit of a histogram")
    common(p)
    p.add_argument("--hist", required=True, help="decay histogram CSV")
    p.add_argument("--irf", required=True, help="response histogram CSV")
    p.add_argument("--n", type=int, help="number of exponential components")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("tuning-curve", help="phase-matched wavelengths vs temperature")
    common(p)
    p.add_argument("--tmin", type=float, default=40.0)
    p.add_argument("--tmax", type=float, default=200.0)
    p.add_argument("--step", type=float, default=2.0)
    p.set_defaults(func=cmd_tuning_curve)

    p = sub.add_parser("preset", help="run a baked experiment end to end")
    p.add_argument("name", help="preset name")
    common(p, config=False)
    p.add_argument("--seed", type=int, help="base seed for the preset")
    p.set_defaults(func=cmd_preset)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except EpstreakError as exc:
        sys.stderr.write(f"{type(exc).__module__}.{type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
