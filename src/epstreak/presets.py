"""Baked experiment presets.

Each preset bundles a source, sample, detector and analysis configuration and
runs end to end, writing its artifacts into an output directory and
returning a summary dict. Everything is seeded, so a preset rerun with the
same seed reproduces its outputs byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .events import (CH_HBT_R, CH_HBT_T, CH_HERALD, CH_SIGNAL, DETECTOR_PRESETS,
                     EmitterSpecies, RunConfig, SampleModel, simulate_channels,
                     simulate_stream)
from .eventfile import write_event_file
from .fitting import fit_decay, format_fit_report
from .spdc import CrystalSpec, FilterSpec, PumpSpec, SourceModel, tuning_curve
from .tcspc import (build_histogram, start_stop_histogram, tag_g2, write_g2_csv,
                    write_histogram_csv)
from .twins import (TwinsSpec, acquire_cube, calibrate_delay, reconstruct_map,
                    save_cube, write_map_csv)

# Full-length crystal for phase-matching work (tuning curves, joint spectra).
TUNING_CRYSTAL = CrystalSpec(poling_period_um=3.675, length_mm=30.0,
                             temperature_C=56.0)
TUNING_PUMP_NM = 413.0

# Photon-budget source used by the counting presets. The pump is set so the
# conjugate of the 860 nm herald filter is exactly 800 nm, and a short
# effective interaction length gives a smooth broadband joint spectrum for
# herald conditioning (bulk-crystal tuning work uses TUNING_CRYSTAL instead).
HERALDED_PUMP_NM = 414.46
HERALDED_LENGTH_MM = 0.3
HERALDED_TEMPERATURE_C = 56.0
PAIR_RATE_HZ = 2.0e5  # detected-coincidence budget at unit efficiency


def heralded_source(pair_rate_hz=PAIR_RATE_HZ, filter_center_nm=860.0,
                    filter_fwhm_nm=10.0, temperature_C=HERALDED_TEMPERATURE_C):
    return SourceModel(
        pump=PumpSpec(HERALDED_PUMP_NM, pair_rate_hz),
        crystal=CrystalSpec(3.675, HERALDED_LENGTH_MM, temperature_C),
        herald_filter=FilterSpec(filter_center_nm, filter_fwhm_nm, "gaussian"),
    )


def _seed(base, *tags):
    return int(np.random.SeedSequence((int(base),) + tags).generate_state(1)[0])


def _write_tuning_csv(path, points):
    lines = ["temperature_C,signal_nm,idler_nm,phase_matched"]
    for p in points:
        if p.phase_matched:
            lines.append(f"{p.temperature_C:g},{p.lambda_signal_nm:.4f},"
                         f"{p.lambda_idler_nm:.4f},1")
        else:
            lines.append(f"{p.temperature_C:g},,,0")
    Path(path).write_text("\n".join(lines) + "\n")


def run_fig2b_tuning(out_dir, seed=1):
    """Temperature sweep of the quasi-phase-matched signal/idler pair."""
    out = Path(out_dir)
    temps = np.arange(40.0, 200.0 + 1e-9, 2.0)
    points = tuning_curve(PumpSpec(TUNING_PUMP_NM, PAIR_RATE_HZ),
                          TUNING_CRYSTAL, temps)
    _write_tuning_csv(out / "tuning_curve.csv", points)
    matched = [p for p in points if p.phase_matched]
    wavelengths = [w for p in matched
                   for w in (p.lambda_signal_nm, p.lambda_idler_nm)]
    return {
        "artifacts": ["tuning_curve.csv"],
        "n_temperatures": len(points),
        "n_phase_matched": len(matched),
        "coverage_min_nm": min(wavelengths),
        "coverage_max_nm": max(wavelengths),
    }


def run_fig2c_g2(out_dir, seed=1):
    """Heralded HBT correlation of the signal arm."""
    out = Path(out_dir)
    source = heralded_source(pair_rate_hz=1.0e6)
    det = DETECTOR_PRESETS["ideal"]
    run = RunConfig(duration_s=10.0, seed=_seed(seed, 0), topology="hbt")
    tags = simulate_channels(source, None, det, det, None, run)
    delays = np.arange(-50_000, 50_001, 2000, dtype=float)
    curve = tag_g2(tags[CH_HERALD], tags[CH_HBT_T], tags[CH_HBT_R],
                   coincidence_window_ps=1000, delay_axis_ps=delays)
    write_g2_csv(out / "g2.csv", curve)
    plateau = curve.g2_values[np.abs(curve.delay_axis_ps) >= 10_000]
    return {
        "artifacts": ["g2.csv"],
        "g2_zero": curve.at_zero(),
        "plateau_mean": float(plateau.mean()),
        "pair_rate_hz": source.pump.pair_rate_hz,
        "coincidence_window_ps": 1000,
    }


def run_fig2d_irf(out_dir, seed=1):
    """Start-stop response of two detector pairings at >= 1e6 coincidences."""
    out = Path(out_dir)
    source = heralded_source()
    pairings = {
        "mpd_mpd": (DETECTOR_PRESETS["mpd"], DETECTOR_PRESETS["mpd"], 42.0),
        "mpd_excelitas": (DETECTOR_PRESETS["mpd"], DETECTOR_PRESETS["excelitas"], 25.0),
    }
    summary = {"artifacts": []}
    for i, (name, (det_h, det_s, duration)) in enumerate(pairings.items()):
        run = RunConfig(duration_s=duration, seed=_seed(seed, i), topology="irf")
        stream = simulate_stream(source, None, det_h, det_s, None, run)
        hist = build_histogram(stream, CH_HERALD, CH_SIGNAL, bin_width_ps=4,
                               window_ps=8000, t0_ps=-4000)
        write_histogram_csv(out / f"irf_{name}.csv", hist)
        summary["artifacts"].append(f"irf_{name}.csv")
        if i == 0:
            write_event_file(out / "events_mpd_mpd.bin", stream,
                             {"preset": "fig2d-irf", "seed": run.seed,
                              "topology": "irf"})
            summary["artifacts"] += ["events_mpd_mpd.bin",
                                     "events_mpd_mpd.bin.meta.json"]
        summary[f"fwhm_ps_{name}"] = hist.fwhm_ps()
        summary[f"coincidences_{name}"] = int(hist.counts.sum())
    return summary


TWO_DYE_SAMPLE = SampleModel((
    EmitterSpecies(weight=1.0, lifetime_ns=1.51, emission_center_nm=810.0,
                   emission_fwhm_nm=40.0),
    EmitterSpecies(weight=1.0, lifetime_ns=0.79, emission_center_nm=900.0,
                   emission_fwhm_nm=40.0),
))

FIG3_TWINS = TwinsSpec(delay_per_um_fs=1.0, position_min_um=0.0,
                       position_max_um=320.0, visibility=0.9,
                       insertion_loss=0.5, x_zero_um=160.0)
FIG3_POSITIONS = np.linspace(0.0, 320.0, 256)
CAL_WAVELENGTH_NM = 850.0


def _calibration_cube(source, det, twins, positions, seed, duration_s=0.05):
    """Quasi-monochromatic reference scan used to calibrate the delay slope."""
    line = SampleModel((EmitterSpecies(1.0, 0.1, CAL_WAVELENGTH_NM, 0.5),))
    run = RunConfig(duration_s=duration_s, seed=seed, topology="fluorescence")
    return acquire_cube(source, line, det, det, twins, positions, run,
                        bin_width_ps=16, window_ps=12_800, t0_ps=0)


def run_fig3_two_dyes(out_dir, seed=1):
    """Interferogram cube and reconstructed map of the two-dye mixture."""
    out = Path(out_dir)
    source = heralded_source()
    det = DETECTOR_PRESETS["ideal"]
    ref = _calibration_cube(source, det, FIG3_TWINS, FIG3_POSITIONS,
                            _seed(seed, 0))
    cal = calibrate_delay(ref, CAL_WAVELENGTH_NM)
    run = RunConfig(duration_s=0.5, seed=_seed(seed, 1), topology="fluorescence")
    cube = acquire_cube(source, TWO_DYE_SAMPLE, det, det, FIG3_TWINS,
                        FIG3_POSITIONS, run, bin_width_ps=16, window_ps=12_800,
                        t0_ps=0)
    save_cube(out / "cube", cube)
    tf_map = reconstruct_map(cube, cal, apodization="hann")
    write_map_csv(out / "map.csv", tf_map)
    band = (tf_map.wavelength_axis_nm >= 740) & (tf_map.wavelength_axis_nm <= 980)
    spectrum = tf_map.intensity[band].sum(axis=1)
    return {
        "artifacts": ["cube", "map.csv"],
        "delay_per_um_fs": cal.delay_per_um_fs,
        "spectrum_peak_nm": float(tf_map.wavelength_axis_nm[band][np.argmax(spectrum)]),
    }


def _decay_and_irf(source, sample, det_h, det_s, duration_s, seed,
                   bin_width_ps=4, window_ps=14_000, t0_ps=-2_000,
                   irf_duration_s=10.0):
    """Fluorescence decay histogram plus a matched-grid response histogram."""
    run = RunConfig(duration_s=duration_s, seed=_seed(seed, 0),
                    topology="fluorescence")
    tags = simulate_channels(source, sample, det_h, det_s, None, run)
    decay = start_stop_histogram(tags[CH_HERALD], tags[CH_SIGNAL], bin_width_ps,
                                 window_ps, t0_ps)
    irf_run = RunConfig(duration_s=irf_duration_s, seed=_seed(seed, 1),
                        topology="irf")
    tags = simulate_channels(source, None, det_h, det_s, None, irf_run)
    irf = start_stop_histogram(tags[CH_HERALD], tags[CH_SIGNAL], bin_width_ps,
                               window_ps, t0_ps)
    return decay, irf


def run_lifetime_species(out_dir, seed, species, duration_s=30.0):
    """Single-species decay and response histograms, and a one-component fit."""
    out = Path(out_dir)
    source = heralded_source()
    det = DETECTOR_PRESETS["mpd"]
    sample = SampleModel((species,))
    decay, irf = _decay_and_irf(source, sample, det, det, duration_s, seed)
    write_histogram_csv(out / "decay.csv", decay)
    write_histogram_csv(out / "irf.csv", irf)
    result = fit_decay(decay, irf, n_components=1)
    (out / "fit_report.txt").write_text(
        format_fit_report(result, irf_source="simulated detector pair response"))
    return {
        "artifacts": ["decay.csv", "irf.csv", "fit_report.txt"],
        "tau_ns": result.model.components[0][1],
        "tau_err_ns": result.lifetime_errors_ns()[0],
        "generator_tau_ns": species.lifetime_ns,
        "coincidences": int(decay.counts.sum()),
    }


MEMBRANE_TWINS = TwinsSpec(delay_per_um_fs=1.0, position_min_um=0.0,
                           position_max_um=160.0, visibility=0.9,
                           insertion_loss=0.5, x_zero_um=80.0)
MEMBRANE_POSITIONS = np.linspace(0.0, 160.0, 128)


def _spectrum_centroid(out, source, species, seed):
    """Time-integrated emission centroid from a small interferometer scan."""
    det = DETECTOR_PRESETS["ideal"]
    ref = _calibration_cube(source, det, MEMBRANE_TWINS, MEMBRANE_POSITIONS,
                            _seed(seed, 2))
    cal = calibrate_delay(ref, CAL_WAVELENGTH_NM)
    run = RunConfig(duration_s=0.1, seed=_seed(seed, 3), topology="fluorescence")
    cube = acquire_cube(source, SampleModel((species,)), det, det,
                        MEMBRANE_TWINS, MEMBRANE_POSITIONS, run,
                        bin_width_ps=16, window_ps=12_800, t0_ps=0)
    tf_map = reconstruct_map(cube, cal, apodization="hann")
    write_map_csv(out / "spectrum_map.csv", tf_map)
    band = (tf_map.wavelength_axis_nm >= 750) & (tf_map.wavelength_axis_nm <= 1000)
    lam = tf_map.wavelength_axis_nm[band]
    weight = tf_map.intensity[band].sum(axis=1)
    return float(np.sum(lam * weight) / np.sum(weight))


LH2_SPECIES = EmitterSpecies(1.0, 1.13, 870.0, 30.0)
MEMBRANE_OPEN_SPECIES = EmitterSpecies(1.0, 0.101, 860.0, 40.0)
MEMBRANE_CLOSED_SPECIES = EmitterSpecies(1.0, 0.248, 875.0, 40.0)


def run_fig4_lh2(out_dir, seed=1):
    return run_lifetime_species(out_dir, seed, LH2_SPECIES)


def _membrane(out_dir, seed, species):
    out = Path(out_dir)
    summary = run_lifetime_species(out, seed, species)
    summary["spectrum_centroid_nm"] = _spectrum_centroid(
        out, heralded_source(), species, seed)
    summary["artifacts"].append("spectrum_map.csv")
    return summary


def run_fig4_membrane_open(out_dir, seed=1):
    return _membrane(out_dir, seed, MEMBRANE_OPEN_SPECIES)


def run_fig4_membrane_closed(out_dir, seed=1):
    return _membrane(out_dir, seed, MEMBRANE_CLOSED_SPECIES)


FIG5_SPECIES = EmitterSpecies(1.0, 1.14, 870.0, 30.0)
FIG5_DURATIONS_S = (50.0, 10.0, 2.0, 0.6)


def run_fig5_integration_sweep(out_dir, seed=1):
    """Lifetime fit stability versus integration time for a fixed sample."""
    out = Path(out_dir)
    source = heralded_source()
    det = DETECTOR_PRESETS["mpd"]
    sample = SampleModel((FIG5_SPECIES,))
    irf_run = RunConfig(duration_s=10.0, seed=_seed(seed, 99), topology="irf")
    tags = simulate_channels(source, None, det, det, None, irf_run)
    irf = start_stop_histogram(tags[CH_HERALD], tags[CH_SIGNAL], 4, 14_000, -2_000)
    write_histogram_csv(out / "irf.csv", irf)

    rows = ["duration_s,tau_ns,tau_err_ns,coincidences"]
    taus, errs = [], []
    for i, duration in enumerate(FIG5_DURATIONS_S):
        run = RunConfig(duration_s=duration, seed=_seed(seed, i),
                        topology="fluorescence")
        tags = simulate_channels(source, sample, det, det, None, run)
        decay = start_stop_histogram(tags[CH_HERALD], tags[CH_SIGNAL], 4, 14_000, -2_000)
        write_histogram_csv(out / f"decay_{duration:g}s.csv", decay)
        result = fit_decay(decay, irf, n_components=1)
        tau = result.model.components[0][1]
        err = result.lifetime_errors_ns()[0]
        taus.append(tau)
        errs.append(err)
        rows.append(f"{duration:g},{tau:.6f},{err:.6f},{int(decay.counts.sum())}")
    (out / "sweep.csv").write_text("\n".join(rows) + "\n")
    return {
        "artifacts": ["irf.csv", "sweep.csv"]
                     + [f"decay_{d:g}s.csv" for d in FIG5_DURATIONS_S],
        "durations_s": list(FIG5_DURATIONS_S),
        "tau_ns": taus,
        "tau_err_ns": errs,
        "generator_tau_ns": FIG5_SPECIES.lifetime_ns,
    }


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    runner: callable


PRESETS = {p.name: p for p in (
    Preset("fig2b-tuning", "temperature tuning curve of the pair source",
           run_fig2b_tuning),
    Preset("fig2c-g2", "heralded HBT correlation of the signal arm",
           run_fig2c_g2),
    Preset("fig2d-irf", "start-stop timing response for two detector pairings",
           run_fig2d_irf),
    Preset("fig3-two-dyes", "two-dye interferogram cube and reconstructed map",
           run_fig3_two_dyes),
    Preset("fig4-lh2", "light-harvesting complex effective lifetime",
           run_fig4_lh2),
    Preset("fig4-membrane-open", "open-trap membrane lifetime and spectrum",
           run_fig4_membrane_open),
    Preset("fig4-membrane-closed", "closed-trap membrane lifetime and spectrum",
           run_fig4_membrane_closed),
    Preset("fig5-integration-sweep", "fit stability versus integration time",
           run_fig5_integration_sweep),
)}


def run_preset(name, out_dir, seed=1):
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r} (available: {sorted(PRESETS)})")
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    return PRESETS[name].runner(out_dir, seed=seed)
