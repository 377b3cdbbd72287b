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
from inspect import signature
from pathlib import Path

import numpy as np

from . import experiment, presets
from .checks import violations
from .config import load_config, override
from .errors import ConfigurationError, EpstreakError
from .eventfile import open_event_file, write_events
from .events import CH_HERALD, CH_SIGNAL
from .fitting import format_fit_report
from .spdc import CrystalSpec, write_tuning_csv
from .tcspc import read_histogram_csv, write_g2_csv, write_histogram_csv
from .twins import save_cube, write_map_csv


_HASH_BLOCK = 1 << 20  # bytes per read when hashing an artifact


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


# override flag -> (the YAML path it sets, its type)
OVERRIDES = {"seed": ("run.seed", int), "duration": ("run.duration_s", float),
             "n": ("analysis.fit.n_components", int)}


def _overrides(args):
    """The value of each of the command's override flags by the YAML path it sets.

    ``histogram --events`` reads a stream back instead of simulating one, so
    a flag under ``run.`` given with it would be echoed but not used: that is
    refused.
    """
    flags = COMMANDS[args.command][2]
    if getattr(args, "events", None):
        unused = [f"--{flag}" for flag in flags
                  if OVERRIDES[flag][0].startswith("run.") and getattr(args, flag) is not None]
        if unused:
            raise ConfigurationError(f"{' and '.join(unused)} cannot be used with --events: "
                                     f"the event file is read back, not simulated")
    return {OVERRIDES[flag][0]: getattr(args, flag) for flag in flags}


# Each command runs its step on the loaded config, writes its artifacts into
# ``out`` and returns its summary; "artifacts" names them for the manifest.

def cmd_simulate(cfg, args, out):
    meta = {"seed": cfg.run.seed, "topology": cfg.run.topology, "config": cfg.raw,
            **experiment.stream_metadata(cfg)}
    n_events = 0
    for tags, _ in write_events(out / "events.bin", experiment.stream(cfg), meta):
        n_events += sum(map(len, tags))
        del tags  # before the next chunk is drawn
    return {"artifacts": ["events.bin", "events.bin.meta.json"],
            "n_events": n_events, "warnings": meta.get("warnings", [])}


def _shape(hist):
    """(FWHM, peak) of a histogram in ps; both None when it holds no counts to measure."""
    if not hist.counts.any():
        return None, None
    return hist.fwhm_ps(), hist.peak_ps()


def cmd_histogram(cfg, args, out):
    chunks = None
    if args.events:
        n_channels, _, chunks = open_event_file(args.events)
        if n_channels <= CH_SIGNAL:
            raise ConfigurationError(f"{args.events}: {n_channels} channel(s), but a "
                                     f"histogram needs channels {CH_HERALD} and {CH_SIGNAL}")
    hist = experiment.histogram(cfg, chunks)
    write_histogram_csv(out / "histogram.csv", hist)
    fwhm_ps, peak_ps = _shape(hist)
    return {"artifacts": ["histogram.csv"], "counts": int(hist.counts.sum()),
            "fwhm_ps": fwhm_ps, "peak_ps": peak_ps, "flags": hist.flags}


def cmd_irf(cfg, args, out):
    hist = experiment.irf(cfg)
    write_histogram_csv(out / "irf.csv", hist)
    fwhm_ps, peak_ps = _shape(hist)
    fwhm, peak = ("none" if v is None else f"{v:.2f}" for v in (fwhm_ps, peak_ps))
    (out / "irf_report.txt").write_text(f"coincidences: {int(hist.counts.sum())}\n"
                                        f"fwhm_ps: {fwhm}\n"
                                        f"peak_ps: {peak}\n")
    return {"artifacts": ["irf.csv", "irf_report.txt"], "fwhm_ps": fwhm_ps}


def cmd_g2(cfg, args, out):
    curve = experiment.g2(cfg)
    write_g2_csv(out / "g2.csv", curve)
    return {"artifacts": ["g2.csv"], "g2_zero": curve.at_zero()}


def cmd_ft_map(cfg, args, out):
    cube, delay_per_um_fs, tf_map = experiment.ft_map(cfg)
    save_cube(out / "cube", cube)
    write_map_csv(out / "map.csv", tf_map)
    return {"artifacts": ["cube", "map.csv"], "n_positions": len(cube.positions_um),
            "delay_per_um_fs": delay_per_um_fs}


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
    elif (temps := experiment.tuning_temperatures(args.tmin, args.tmax, args.step)) is None:
        found.append(f"--step: must give at most {experiment.MAX_TEMPERATURES} temperatures "
                     f"from --tmin to --tmax (got {args.step})")
    if found:
        raise ConfigurationError("command-line override: " + "; ".join(found))
    if len(temps) == 0:
        raise ConfigurationError("empty temperature range")
    points = experiment.tuning(cfg, temps)
    write_tuning_csv(out / "tuning_curve.csv", points)
    return {"artifacts": ["tuning_curve.csv"], **experiment.tuning_summary(points)}


# subcommand -> (its step, help, override flags, its other options: flag -> add_argument keywords)
COMMANDS = {
    "simulate": (cmd_simulate, "write a raw event file", ("seed", "duration"), {}),
    "histogram": (cmd_histogram, "start-stop delay histogram", ("seed", "duration"),
                  {"--events": {"help": "read an existing event file instead of simulating"}}),
    "g2": (cmd_g2, "heralded HBT correlation curve", ("seed", "duration"), {}),
    "irf": (cmd_irf, "timing-response histogram and FWHM report", ("seed", "duration"), {}),
    "ft-map": (cmd_ft_map, "interferogram cube and reconstructed map", ("seed",), {}),
    # a fit draws no random numbers
    "fit": (cmd_fit, "reconvolution lifetime fit of a histogram", ("n",),
            {"--hist": {"required": True, "help": "decay histogram CSV"},
             "--irf": {"required": True, "help": "response histogram CSV"}}),
    "tuning-curve": (cmd_tuning_curve, "phase-matched wavelengths vs temperature", ("seed",),
                     {f"--{name}": {"type": float, "default": p.default} for name, p
                      in signature(experiment.tuning_temperatures).parameters.items()}),
}


def _run(args):
    """Run one command and write its manifest.

    A preset's config echo is its name and the configs it ran, each with its
    ``run.seed``.
    """
    out = Path(args.out)
    blocker = next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)
    if blocker is not None:
        raise ConfigurationError(f"--out {out}: {blocker} is not a directory")
    if args.command == "preset":
        seed = 1 if args.seed is None else args.seed
        summary = presets.run_preset(args.name, out, seed=seed)
        command = f"preset {args.name}"
        echo = {"preset": args.name, "configs": summary.pop("configs")}
    else:
        cfg = override(load_config(args.config or None), _overrides(args))
        out.mkdir(parents=True, exist_ok=True)
        summary = COMMANDS[args.command][0](cfg, args, out)
        command, echo, seed = args.command, cfg.raw, cfg.run.seed
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
    for name, (_, help_text, flags, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="YAML configuration file")
        for flag in flags:
            path, kind = OVERRIDES[flag]
            p.add_argument(f"--{flag}", type=kind, help=f"override {path}")
        for option, keywords in options.items():
            p.add_argument(option, **keywords)
    p = sub.add_parser("preset", help="run a baked experiment end to end")
    p.add_argument("name", help="preset name")
    p.add_argument("--out", required=True, help="output directory")
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
