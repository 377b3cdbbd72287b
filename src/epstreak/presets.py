"""Baked experiment presets.

Each preset is a few YAML-shaped mappings, built into ExperimentConfigs by
``config.validate_config`` and run through the same steps as the CLI
subcommands (``epstreak.experiment``). It writes its artifacts into an
output directory and returns a summary dict. Every run seed derives from the
preset's base seed, so a rerun with the same seed reproduces its outputs
byte for byte.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

import numpy as np

from .checks import violations
from .config import merge, validate_config
from .errors import ConfigurationError
from .eventfile import write_events
from .events import RunConfig, split_records
from .experiment import (derive_seed, fit, ft_map, g2, histogram, irf, records,
                         stream_metadata, tuning, tuning_summary)
from .fitting import format_fit_report
from .spdc import write_tuning_csv
from .tcspc import write_g2_csv, write_histogram_csv
from .twins import save_cube, write_map_csv

# Photon-budget source of the counting presets. The pump is set so the
# conjugate of the 860 nm herald filter is exactly 800 nm, and a short
# effective interaction length gives a smooth broadband joint spectrum for
# herald conditioning. Phase-matching work (fig2b) keeps the default 413 nm
# pump and 30 mm crystal.
HERALDED = {"source": {"pump": {"wavelength_nm": 414.46, "pair_rate_hz": 2.0e5},
                       "crystal": {"length_mm": 0.3, "temperature_C": 56.0}}}


def _detectors(herald, signal):
    return {"detectors": {"herald": {"preset": herald}, "signal": {"preset": signal}}}


def _run(topology, duration_s, seed):
    return {"run": {"topology": topology, "duration_s": duration_s, "seed": seed}}


def _bins(bin_width_ps, window_ps, t0_ps):
    return {"analysis": {"histogram": {"bin_width_ps": bin_width_ps, "window_ps": window_ps,
                                       "t0_ps": t0_ps}}}


def _species(lifetime_ns, emission_center_nm, emission_fwhm_nm):
    return {"weight": 1.0, "lifetime_ns": lifetime_ns,
            "emission_center_nm": emission_center_nm, "emission_fwhm_nm": emission_fwhm_nm}


def _record(summary, configs, **calibration_seeds):
    """``summary`` with the configs a preset ran, by label, and every run seed it derived.

    The manifest echoes both: each config as the YAML-shaped mapping it was
    built from, and the seed of each run and of each TWINS calibration.
    """
    summary.setdefault("configs", {}).update(
        (label, cfg.raw) for label, cfg in configs.items())
    summary.setdefault("seeds", {}).update(
        (label, cfg.run.seed) for label, cfg in configs.items()
        if "seed" in cfg.raw.get("run", {}))
    summary["seeds"].update(calibration_seeds)
    return summary


def config(*mappings):
    """ExperimentConfig from YAML-shaped mappings, each later one merged over the earlier."""
    data = {}
    for mapping in mappings:
        data = merge(data, mapping)
    cfg, found = validate_config(data)
    if found:
        raise ConfigurationError("invalid preset configuration:\n  " + "\n  ".join(found))
    return cfg


def heralded_source(pair_rate_hz=2.0e5, filter_center_nm=860.0):
    """The counting presets' source at another pair rate or herald filter centre."""
    return config(HERALDED, {"source": {"pump": {"pair_rate_hz": pair_rate_hz},
                                        "herald_filter": {"center_nm": filter_center_nm}}}).source


def run_fig2b_tuning(out_dir, seed=1):
    """Temperature sweep of the quasi-phase-matched signal/idler pair."""
    cfg = config()
    points = tuning(cfg, np.arange(40.0, 200.0 + 1e-9, 2.0))
    write_tuning_csv(Path(out_dir) / "tuning_curve.csv", points)
    return _record({"artifacts": ["tuning_curve.csv"], "n_temperatures": len(points),
                    **tuning_summary(points)}, {"tuning": cfg})


def run_fig2c_g2(out_dir, seed=1):
    """Heralded HBT correlation of the signal arm."""
    cfg = config(HERALDED, {"source": {"pump": {"pair_rate_hz": 1.0e6}}},
                 _detectors("ideal", "ideal"), _run("hbt", 10.0, derive_seed(seed, 0)),
                 {"analysis": {"g2": {"coincidence_window_ps": 1000, "delay_min_ps": -50_000,
                                      "delay_max_ps": 50_000, "delay_step_ps": 2000}}})
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


# detector pairing -> (signal detector, seconds); the herald is an mpd
IRF_PAIRINGS = {"mpd_mpd": ("mpd", 42.0), "mpd_excelitas": ("excelitas", 25.0)}


def run_fig2d_irf(out_dir, seed=1):
    """Start-stop response of two detector pairings at >= 1e6 coincidences.

    The mpd/mpd run is also written as an event file, and its histogram is
    counted from the record blocks as they are written.
    """
    out = Path(out_dir)
    summary, configs = {"artifacts": []}, {}
    for i, (name, (signal, duration_s)) in enumerate(IRF_PAIRINGS.items()):
        cfg = configs[name] = config(HERALDED, _detectors("mpd", signal),
                                     _run("irf", duration_s, derive_seed(seed, i)),
                                     _bins(4, 8000, -4000))
        chunks = None
        if name == "mpd_mpd":
            meta = {"preset": "fig2d-irf", "seed": cfg.run.seed, "topology": "irf",
                    **stream_metadata(cfg)}
            chunks = split_records(write_events(out / f"events_{name}.bin", records(cfg), meta),
                                   meta["n_channels"])
        hist = histogram(cfg, chunks)
        write_histogram_csv(out / f"irf_{name}.csv", hist)
        summary["artifacts"].append(f"irf_{name}.csv")
        if chunks is not None:
            summary["artifacts"] += [f"events_{name}.bin", f"events_{name}.bin.meta.json"]
        summary[f"fwhm_ps_{name}"] = hist.fwhm_ps()
        summary[f"coincidences_{name}"] = int(hist.counts.sum())
    return _record(summary, configs)


def spectrum(sample, twins, duration_s, seed):
    """Interferometer scan of ``sample`` on ideal detectors; ft_map calibrates it."""
    return config(HERALDED, _detectors("ideal", "ideal"), {"sample": sample, "twins": twins},
                  _run("fluorescence", duration_s, seed), _bins(16, 12_800, 0))


TWO_DYES = {"species": [_species(1.51, 810.0, 40.0), _species(0.79, 900.0, 40.0)]}
TWO_DYE_TWINS = {"delay_per_um_fs": 1.0, "position_min_um": 0.0, "position_max_um": 320.0,
                 "n_positions": 256, "x_zero_um": 160.0, "visibility": 0.9,
                 "insertion_loss": 0.5}


def run_fig3_two_dyes(out_dir, seed=1):
    """Interferogram cube and reconstructed map of the two-dye mixture."""
    out = Path(out_dir)
    cfg = spectrum(TWO_DYES, TWO_DYE_TWINS, 0.5, derive_seed(seed, 1))
    cube, calibration, tf_map = ft_map(cfg, derive_seed(seed, 0))
    save_cube(out / "cube", cube)
    write_map_csv(out / "map.csv", tf_map)
    band = (tf_map.wavelength_axis_nm >= 740) & (tf_map.wavelength_axis_nm <= 980)
    spectrum_band = tf_map.intensity[band].sum(axis=1)
    return _record({
        "artifacts": ["cube", "map.csv"],
        "delay_per_um_fs": calibration.delay_per_um_fs,
        "spectrum_peak_nm": float(tf_map.wavelength_axis_nm[band][np.argmax(spectrum_band)]),
    }, {"map": cfg}, calibration=derive_seed(seed, 0))


def lifetime(species, duration_s, seed):
    """Fluorescence decay of one species on mpd detectors, on the lifetime presets' bins."""
    return config(HERALDED, _detectors("mpd", "mpd"), {"sample": {"species": [species]}},
                  _run("fluorescence", duration_s, seed), _bins(4, 14_000, -2_000))


def run_lifetime_species(out_dir, seed, species):
    """Single-species decay (30 s) and response (10 s) histograms, and a one-component fit."""
    out = Path(out_dir)
    cfg = lifetime(species, 30.0, derive_seed(seed, 0))
    irf_cfg = lifetime(species, 10.0, derive_seed(seed, 1))
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


MEMBRANE_TWINS = {"delay_per_um_fs": 1.0, "position_min_um": 0.0, "position_max_um": 160.0,
                  "n_positions": 128, "x_zero_um": 80.0, "visibility": 0.9,
                  "insertion_loss": 0.5}


def _membrane(out_dir, seed, species):
    """Lifetime fit plus the time-integrated emission centroid of a short scan."""
    out = Path(out_dir)
    summary = run_lifetime_species(out, seed, species)
    cfg = spectrum({"species": [species]}, MEMBRANE_TWINS, 0.1, derive_seed(seed, 3))
    _, _, tf_map = ft_map(cfg, derive_seed(seed, 2))
    write_map_csv(out / "spectrum_map.csv", tf_map)
    band = (tf_map.wavelength_axis_nm >= 750) & (tf_map.wavelength_axis_nm <= 1000)
    lam = tf_map.wavelength_axis_nm[band]
    weight = tf_map.intensity[band].sum(axis=1)
    summary["spectrum_centroid_nm"] = float(np.sum(lam * weight) / np.sum(weight))
    summary["artifacts"].append("spectrum_map.csv")
    return _record(summary, {"spectrum": cfg}, calibration=derive_seed(seed, 2))


LH2_SPECIES = _species(1.13, 870.0, 30.0)
MEMBRANE_OPEN_SPECIES = _species(0.101, 860.0, 40.0)
MEMBRANE_CLOSED_SPECIES = _species(0.248, 875.0, 40.0)
FIG5_SPECIES = _species(1.14, 870.0, 30.0)
FIG5_DURATIONS_S = (50.0, 10.0, 2.0, 0.6)


def run_fig5_integration_sweep(out_dir, seed=1):
    """Lifetime fit stability versus integration time for a fixed sample."""
    out = Path(out_dir)
    configs = {"irf": lifetime(FIG5_SPECIES, 10.0, derive_seed(seed, 99))}
    response = irf(configs["irf"])
    write_histogram_csv(out / "irf.csv", response)
    rows = ["duration_s,tau_ns,tau_err_ns,coincidences"]
    taus, errs = [], []
    for i, duration_s in enumerate(FIG5_DURATIONS_S):
        cfg = configs[f"decay_{duration_s:g}s"] = lifetime(FIG5_SPECIES, duration_s,
                                                           derive_seed(seed, i))
        decay = histogram(cfg)
        write_histogram_csv(out / f"decay_{duration_s:g}s.csv", decay)
        result = fit(cfg, decay, response)
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
        "generator_tau_ns": FIG5_SPECIES["lifetime_ns"],
    }, configs)


# name -> runner(out_dir, seed); the README's Presets table describes each
PRESETS = {
    "fig2b-tuning": run_fig2b_tuning,
    "fig2c-g2": run_fig2c_g2,
    "fig2d-irf": run_fig2d_irf,
    "fig3-two-dyes": run_fig3_two_dyes,
    "fig4-lh2": partial(run_lifetime_species, species=LH2_SPECIES),
    "fig4-membrane-open": partial(_membrane, species=MEMBRANE_OPEN_SPECIES),
    "fig4-membrane-closed": partial(_membrane, species=MEMBRANE_CLOSED_SPECIES),
    "fig5-integration-sweep": run_fig5_integration_sweep,
}


def run_preset(name, out_dir, seed=1):
    """Run preset ``name`` into ``out_dir`` and return its summary.

    The summary's "artifacts" names what it wrote, "configs" holds the
    YAML-shaped mapping of every config it ran, by label, and "seeds" the
    seed of every run and TWINS calibration it derived from ``seed``.
    """
    if name not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    found = violations(RunConfig, {"seed": seed}, "preset base ")
    if found:
        raise ConfigurationError("; ".join(found))
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    return PRESETS[name](out_dir, seed=seed)
