"""Baked experiment presets.

A preset runs shipped config files (``epstreak/configs/<file>.yaml``, listed
in ``PRESETS``) through the same steps as the CLI subcommands
(``epstreak.experiment``), writes its artifacts into an output directory and
returns a summary dict. Each run's ``run.seed`` derives from the preset's
base seed; it is set, with a lifetime run's duration, by ``config.override``
as the CLI's ``--seed`` and ``--duration`` flags are. Every other seed of a
run, its TWINS calibration's included, derives from its ``run.seed``. A rerun
with the same base seed reproduces the outputs byte for byte. Each file's own
seed is the one its preset derives from base seed 1, so the file run through
its subcommand reproduces that run.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .checks import refuse, violations
from .config import load_config, override
from .errors import ConfigurationError
from .eventfile import write_events
from .events import RunConfig
from .experiment import (derive_seed, fit, ft_map, g2, histogram, irf, stream,
                         stream_metadata, tuning, tuning_summary, tuning_temperatures)
from .fitting import format_fit_report
from .spdc import write_tuning_csv
from .tcspc import write_g2_csv, write_histogram_csv
from .twins import save_cube, write_map_csv

CONFIGS = Path(__file__).with_name("configs")
RESPONSE_DURATION_S = 10.0  # of the lifetime presets' simulated detector response


def _seeded(cfg, seed, duration_s=None):
    """cfg with a derived run seed and duration, set as ``--seed`` and ``--duration`` are."""
    return override(cfg, {"run.seed": seed, "run.duration_s": duration_s})


def _record(summary, configs):
    """``summary`` with the YAML-shaped mapping of each config a preset ran, by label."""
    summary.setdefault("configs", {}).update(
        (label, cfg.raw) for label, cfg in configs.items())
    return summary


def run_fig2b_tuning(out_dir, seed):
    """Temperature sweep of the quasi-phase-matched pair on the default source."""
    cfg = load_config()
    points = tuning(cfg, tuning_temperatures())
    write_tuning_csv(Path(out_dir) / "tuning_curve.csv", points)
    return _record({"artifacts": ["tuning_curve.csv"], "n_temperatures": len(points),
                    **tuning_summary(points)}, {"tuning": cfg})


def run_fig2c_g2(out_dir, seed, cfg):
    """Heralded HBT correlation of the signal arm."""
    cfg = _seeded(cfg, derive_seed(seed, 0))
    curve = g2(cfg)
    write_g2_csv(Path(out_dir) / "g2.csv", curve)
    plateau = curve.g2_values[np.abs(curve.delay_axis_ps) >= 10_000]
    return _record({
        "artifacts": ["g2.csv"],
        "g2_zero": curve.at_zero(),
        "plateau_mean": float(plateau.mean()),
        "pair_rate_hz": cfg.source.pump.pair_rate_hz,
        "coincidence_window_ps": cfg.analysis.g2.coincidence_window_ps,
    }, {"g2": cfg})


IRF_PAIRINGS = ("mpd_mpd", "mpd_excelitas")  # herald/signal detectors


def run_fig2d_irf(out_dir, seed, *pairings):
    """Start-stop response of each detector pairing at >= 1e6 coincidences.

    The mpd/mpd run is also written as an event file, and its histogram is
    counted from the chunks as they are written.
    """
    out = Path(out_dir)
    summary, configs = {"artifacts": []}, {}
    for i, (name, cfg) in enumerate(zip(IRF_PAIRINGS, pairings)):
        cfg = configs[name] = _seeded(cfg, derive_seed(seed, i))
        chunks = None
        if name == "mpd_mpd":
            meta = {"preset": "fig2d-irf", "seed": cfg.run.seed, "topology": "irf",
                    **stream_metadata(cfg)}
            chunks = write_events(out / f"events_{name}.bin", stream(cfg), meta)
        hist = histogram(cfg, chunks)
        write_histogram_csv(out / f"irf_{name}.csv", hist)
        summary["artifacts"].append(f"irf_{name}.csv")
        if chunks is not None:
            summary["artifacts"] += [f"events_{name}.bin", f"events_{name}.bin.meta.json"]
        summary[f"fwhm_ps_{name}"] = hist.fwhm_ps()
        summary[f"coincidences_{name}"] = int(hist.counts.sum())
    return _record(summary, configs)


def run_fig3_two_dyes(out_dir, seed, cfg):
    """Interferogram cube and reconstructed map of the two-dye mixture."""
    out = Path(out_dir)
    cfg = _seeded(cfg, derive_seed(seed, 1))
    cube, delay_per_um_fs, tf_map = ft_map(cfg)
    save_cube(out / "cube", cube)
    write_map_csv(out / "map.csv", tf_map)
    band = (tf_map.wavelength_axis_nm >= 740) & (tf_map.wavelength_axis_nm <= 980)
    spectrum_band = tf_map.intensity[band].sum(axis=1)
    return _record({
        "artifacts": ["cube", "map.csv"],
        "delay_per_um_fs": delay_per_um_fs,
        "spectrum_peak_nm": float(tf_map.wavelength_axis_nm[band][np.argmax(spectrum_band)]),
    }, {"map": cfg})


def run_lifetime(out_dir, seed, cfg):
    """Single-species decay at the config's duration, a response run, and a one-component fit."""
    out = Path(out_dir)
    cfg = _seeded(cfg, derive_seed(seed, 0))
    irf_cfg = _seeded(cfg, derive_seed(seed, 1), RESPONSE_DURATION_S)
    decay = histogram(cfg)
    response = irf(irf_cfg)
    write_histogram_csv(out / "decay.csv", decay)
    write_histogram_csv(out / "irf.csv", response)
    result = fit(cfg, decay, response)
    (out / "fit_report.txt").write_text(
        format_fit_report(result, irf_source="simulated detector pair response"))
    return _record({
        "artifacts": ["decay.csv", "irf.csv", "fit_report.txt"],
        "tau_ns": result.model.components[0][1],
        "tau_err_ns": result.lifetime_errors_ns()[0],
        "generator_tau_ns": cfg.sample.species[0].lifetime_ns,
        "coincidences": int(decay.counts.sum()),
    }, {"decay": cfg, "irf": irf_cfg})


def run_membrane(out_dir, seed, cfg, spectrum_cfg):
    """Lifetime fit plus the time-integrated emission centroid of a short scan."""
    out = Path(out_dir)
    summary = run_lifetime(out, seed, cfg)
    cfg = _seeded(spectrum_cfg, derive_seed(seed, 3))
    _, _, tf_map = ft_map(cfg)
    write_map_csv(out / "spectrum_map.csv", tf_map)
    band = (tf_map.wavelength_axis_nm >= 750) & (tf_map.wavelength_axis_nm <= 1000)
    lam = tf_map.wavelength_axis_nm[band]
    weight = tf_map.intensity[band].sum(axis=1)
    summary["spectrum_centroid_nm"] = float(np.sum(lam * weight) / np.sum(weight))
    summary["artifacts"].append("spectrum_map.csv")
    return _record(summary, {"spectrum": cfg})


FIG5_DURATIONS_S = (50.0, 10.0, 2.0, 0.6)


def run_fig5_integration_sweep(out_dir, seed, cfg):
    """Lifetime fit stability versus integration time for a fixed sample."""
    out = Path(out_dir)
    configs = {"irf": _seeded(cfg, derive_seed(seed, 99), RESPONSE_DURATION_S)}
    response = irf(configs["irf"])
    write_histogram_csv(out / "irf.csv", response)
    rows = ["duration_s,tau_ns,tau_err_ns,coincidences"]
    taus, errs = [], []
    for i, duration_s in enumerate(FIG5_DURATIONS_S):
        run = configs[f"decay_{duration_s:g}s"] = _seeded(cfg, derive_seed(seed, i), duration_s)
        decay = histogram(run)
        write_histogram_csv(out / f"decay_{duration_s:g}s.csv", decay)
        result = fit(run, decay, response)
        tau, err = result.model.components[0][1], result.lifetime_errors_ns()[0]
        taus.append(tau)
        errs.append(err)
        rows.append(f"{duration_s:g},{tau:.6f},{err:.6f},{int(decay.counts.sum())}")
    (out / "sweep.csv").write_text("\n".join(rows) + "\n")
    return _record({
        "artifacts": ["irf.csv", "sweep.csv"]
                     + [f"decay_{d:g}s.csv" for d in FIG5_DURATIONS_S],
        "durations_s": list(FIG5_DURATIONS_S),
        "tau_ns": taus,
        "tau_err_ns": errs,
        "generator_tau_ns": cfg.sample.species[0].lifetime_ns,
    }, configs)


# name -> (runner(out_dir, seed, *configs), the shipped files loaded as its configs);
# the README's Presets section describes each
PRESETS = {
    "fig2b-tuning": (run_fig2b_tuning, ()),
    "fig2c-g2": (run_fig2c_g2, ("fig2c-g2",)),
    "fig2d-irf": (run_fig2d_irf, tuple(f"fig2d-irf-{name}" for name in IRF_PAIRINGS)),
    "fig3-two-dyes": (run_fig3_two_dyes, ("fig3-two-dyes",)),
    "fig4-lh2": (run_lifetime, ("fig4-lh2",)),
    "fig4-membrane-open": (run_membrane, ("fig4-membrane-open",
                                          "fig4-membrane-open-spectrum")),
    "fig4-membrane-closed": (run_membrane, ("fig4-membrane-closed",
                                            "fig4-membrane-closed-spectrum")),
    "fig5-integration-sweep": (run_fig5_integration_sweep, ("fig5-integration-sweep",)),
}


def run_preset(name, out_dir, seed=1):
    """Run preset ``name`` into ``out_dir`` and return its summary.

    The summary's "artifacts" names what it wrote, and "configs" holds the
    YAML-shaped mapping of every config it ran, by label, each with the
    ``run.seed`` it derived from ``seed``.
    """
    if name not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    refuse(violations(RunConfig, {"seed": seed}, "preset base "))
    runner, files = PRESETS[name]
    configs = [load_config(CONFIGS / f"{file}.yaml") for file in files]
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    return runner(out_dir, seed, *configs)
