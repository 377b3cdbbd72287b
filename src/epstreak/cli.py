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
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import experiment, presets
from .checks import violations
from .config import load_config, merge, validate_config
from .errors import ConfigurationError, DomainError, EpstreakError
from .eventfile import open_event_file, write_events
from .events import CH_HERALD, CH_SIGNAL, split_records
from .fitting import format_fit_report
from .spdc import CrystalSpec, write_tuning_csv
from .tcspc import read_histogram_csv, write_g2_csv, write_histogram_csv
from .twins import save_cube, write_map_csv


_HASH_BLOCK = 1 << 20  # bytes per read when hashing an artifact
MAX_TEMPERATURES = 2**16  # per tuning curve


def _sha256(path: Path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(_HASH_BLOCK), b""):
            digest.update(block)
    return digest.hexdigest()


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
    """cfg with --seed, --duration and --n applied and merged into its YAML echo.

    ``--seed`` sets ``analysis.fit.seed`` for ``fit`` and ``run.seed`` for the others;
    ``--n`` sets ``analysis.fit.n_components``. The echo then reproduces the run
    without the flags; a value the models reject is a usage error.
    """
    def given(**values):
        return {k: v for k, v in values.items() if v not in (None, {})}

    seed = getattr(args, "seed", None)
    fit_seed, run_seed = (seed, None) if args.command == "fit" else (None, seed)
    run = given(seed=run_seed, duration_s=getattr(args, "duration", None))
    fit = given(seed=fit_seed, n_components=getattr(args, "n", None))
    try:
        return replace(cfg, run=replace(cfg.run, **run),
                       analysis=replace(cfg.analysis, fit=replace(cfg.analysis.fit, **fit)),
                       raw=merge(cfg.raw, given(run=run, analysis=given(fit=fit))))
    except DomainError as exc:
        raise ConfigurationError(f"command-line override: {exc}") from None


# Each command runs its step on the loaded config, writes its artifacts into
# ``out`` and returns its summary; "artifacts" names them for the manifest.

def cmd_simulate(cfg, args, out):
    meta = {"seed": cfg.run.seed, "topology": cfg.run.topology, "config": cfg.raw,
            **experiment.stream_metadata(cfg)}
    n_events = sum(len(t_ps) for _, t_ps in
                   write_events(out / "events.bin", experiment.records(cfg), meta))
    return {"artifacts": ["events.bin", "events.bin.meta.json"],
            "n_events": n_events, "warnings": meta.get("warnings", [])}


def cmd_histogram(cfg, args, out):
    chunks = None
    if args.events:
        n_channels, _, blocks = open_event_file(args.events)
        if n_channels <= CH_SIGNAL:
            raise ConfigurationError(f"{args.events}: {n_channels} channel(s), but a "
                                     f"histogram needs channels {CH_HERALD} and {CH_SIGNAL}")
        chunks = split_records(blocks, n_channels)
    hist = experiment.histogram(cfg, chunks)
    write_histogram_csv(out / "histogram.csv", hist)
    return {"artifacts": ["histogram.csv"], "counts": int(hist.counts.sum()),
            "fwhm_ps": hist.fwhm_ps(), "peak_ps": hist.peak_ps(), "flags": hist.flags}


def cmd_irf(cfg, args, out):
    hist = experiment.irf(cfg)
    write_histogram_csv(out / "irf.csv", hist)
    (out / "irf_report.txt").write_text(f"coincidences: {int(hist.counts.sum())}\n"
                                        f"fwhm_ps: {hist.fwhm_ps():.2f}\n"
                                        f"peak_ps: {hist.peak_ps():.2f}\n")
    return {"artifacts": ["irf.csv", "irf_report.txt"], "fwhm_ps": hist.fwhm_ps()}


def cmd_g2(cfg, args, out):
    curve = experiment.g2(cfg)
    write_g2_csv(out / "g2.csv", curve)
    return {"artifacts": ["g2.csv"], "g2_zero": curve.at_zero()}


def cmd_ft_map(cfg, args, out):
    cube, calibration, tf_map = experiment.ft_map(
        cfg, experiment.derive_seed(cfg.run.seed, 0))
    save_cube(out / "cube", cube)
    write_map_csv(out / "map.csv", tf_map)
    return {"artifacts": ["cube", "map.csv"], "n_positions": len(cube.positions_um),
            "delay_per_um_fs": calibration.delay_per_um_fs}


def cmd_fit(cfg, args, out):
    result = experiment.fit(cfg, read_histogram_csv(args.hist), read_histogram_csv(args.irf))
    report = format_fit_report(result, irf_source=str(args.irf))
    (out / "fit_report.txt").write_text(report)
    sys.stdout.write(report)
    return {"artifacts": ["fit_report.txt"],
            "lifetimes_ns": [tau for _, tau in result.model.components],
            "reduced_chi2": result.reduced_chi2, "diagnostics": result.diagnostics()}


def cmd_tuning_curve(cfg, args, out):
    found = [v.replace("temperature_C", f"--{flag}") for flag in ("tmin", "tmax")
             for v in violations(CrystalSpec, {"temperature_C": getattr(args, flag),
                                               "sellmeier_id": cfg.source.crystal.sellmeier_id})]
    if not 0 < args.step < np.inf:
        found.append(f"--step: must be finite and > 0 (got {args.step})")
    elif (args.tmax + 1e-9 - args.tmin) / args.step > MAX_TEMPERATURES:
        found.append(f"--step: must give at most {MAX_TEMPERATURES} temperatures "
                     f"from --tmin to --tmax (got {args.step})")
    if found:
        raise ConfigurationError("command-line override: " + "; ".join(found))
    temps = np.arange(args.tmin, args.tmax + 1e-9, args.step)
    if len(temps) == 0:
        raise ConfigurationError("empty temperature range")
    points = experiment.tuning(cfg, temps)
    write_tuning_csv(out / "tuning_curve.csv", points)
    return {"artifacts": ["tuning_curve.csv"], **experiment.tuning_summary(points)}


def _run(args):
    """Run one command and write its manifest.

    A preset's config echo is its name, the configs it ran and their seeds.
    """
    out = Path(args.out)
    blocker = next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)
    if blocker is not None:
        raise ConfigurationError(f"--out {out}: {blocker} is not a directory")
    if args.command == "preset":
        seed = 1 if args.seed is None else args.seed
        summary = presets.run_preset(args.name, out, seed=seed)
        command = f"preset {args.name}"
        echo = {"preset": args.name, "configs": summary.pop("configs"),
                "seeds": summary.pop("seeds")}
    else:
        cfg = _apply_overrides(_load_cfg(args), args)
        out.mkdir(parents=True, exist_ok=True)
        summary = args.func(cfg, args, out)
        command, echo = args.command, cfg.raw
        seed = cfg.analysis.fit.seed if args.command == "fit" else cfg.run.seed
    artifacts = summary.pop("artifacts")
    diagnostics = summary.pop("diagnostics", None)
    _write_manifest(out, command, echo, seed, artifacts, summary, diagnostics)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="epstreak",
        description="entangled-photon time and frequency resolved "
                    "fluorescence: simulation and analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True, seed_help="override run.seed"):
        p.add_argument("--out", required=True, help="output directory")
        if config:
            p.add_argument("--config", help="YAML configuration file")
            p.add_argument("--seed", type=int, help=seed_help)

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
    common(p, seed_help="override analysis.fit.seed")
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

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ConfigurationError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except EpstreakError as exc:
        sys.stderr.write(f"{type(exc).__module__}.{type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
