"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single PASS line on success; a failed assertion reports
the offending measurement in its message.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from epstreak import cli, experiment, presets
from epstreak.config import validate_config
from epstreak.events import (CH_HBT_R, CH_HBT_T, CH_HERALD, CH_SIGNAL, DETECTOR_PRESETS,
                             RunConfig, simulate_channels)
from epstreak.fitting import (DecayModel, FitOptions, convolve_model, fit_decay,
                              slice_map)
from epstreak.spdc import conjugate_wavelength
from epstreak.tcspc import Histogram, rebin, start_stop_histogram, tag_g2
from epstreak.twins import TwinsSpec, load_cube, reconstruct_map, transmission
from epstreak.units import FWHM_PER_SIGMA


def _report(n, detail):
    print(f"criterion {n}: PASS ({detail})")


def _preset(tmp_path_factory, name):
    """(output directory, summary, seconds) of one preset run at seed 1."""
    out = tmp_path_factory.mktemp(name)
    t0 = time.perf_counter()
    summary = presets.run_preset(name, out, seed=1)
    return out, summary, time.perf_counter() - t0


@pytest.fixture(scope="session")
def fig2b(tmp_path_factory):
    return _preset(tmp_path_factory, "fig2b-tuning")


@pytest.fixture(scope="session")
def fig2c(tmp_path_factory):
    return _preset(tmp_path_factory, "fig2c-g2")


@pytest.fixture(scope="session")
def fig2d(tmp_path_factory):
    return _preset(tmp_path_factory, "fig2d-irf")


@pytest.fixture(scope="session")
def fig3(tmp_path_factory):
    return _preset(tmp_path_factory, "fig3-two-dyes")


@pytest.fixture(scope="session")
def fig4(tmp_path_factory):
    return {name: _preset(tmp_path_factory, f"fig4-{name}")
            for name in ("lh2", "membrane-open", "membrane-closed")}


@pytest.fixture(scope="session")
def fig5(tmp_path_factory):
    return _preset(tmp_path_factory, "fig5-integration-sweep")


GOLDEN_PRESETS = Path(__file__).with_name("golden_presets.json")


def test_preset_artifacts_match_golden_hashes(fig2b, fig2c, fig2d, fig3, fig4, fig5):
    """sha256 of every artifact each preset writes at seed 1."""
    runs = {"fig2b-tuning": fig2b, "fig2c-g2": fig2c, "fig2d-irf": fig2d, "fig3-two-dyes": fig3,
            "fig5-integration-sweep": fig5,
            **{f"fig4-{name}": run for name, run in fig4.items()}}
    golden = json.loads(GOLDEN_PRESETS.read_text())
    for name, (out, _, _) in runs.items():
        got = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.rglob("*")) if p.is_file()}
        changed = sorted(k for k in got.keys() | golden[name].keys()
                         if got.get(k) != golden[name].get(k))
        assert not changed, f"{name}: {changed[:5]}"


def test_preset_run_reproduced_from_its_config_echo(fig2c, fig3, tmp_path):
    """A preset's summary (the manifest's config echo) holds each config it ran and its seeds."""
    out, summary, _ = fig2c
    assert summary["seeds"] == {"g2": experiment.derive_seed(1, 0)}
    echo = tmp_path / "g2.yaml"
    echo.write_text(json.dumps(summary["configs"]["g2"]))  # JSON is YAML
    assert cli.main(["g2", "--config", str(echo), "--out", str(tmp_path / "g2")]) == 0
    assert (tmp_path / "g2" / "g2.csv").read_bytes() == (out / "g2.csv").read_bytes()
    _, summary, _ = fig3
    assert summary["seeds"] == {"map": experiment.derive_seed(1, 1),
                                "calibration": experiment.derive_seed(1, 0)}
    assert summary["configs"]["map"]["run"]["seed"] == summary["seeds"]["map"]


def test_criterion_1_tuning_trend(fig2b):
    out, summary, elapsed = fig2b
    assert elapsed < 5.0, f"tuning sweep took {elapsed:.1f} s"
    assert summary["coverage_min_nm"] <= 685.0
    assert summary["coverage_max_nm"] >= 1085.0
    rows = [r.split(",") for r in
            (out / "tuning_curve.csv").read_text().strip().splitlines()[1:]]
    matched = [(float(s), float(i)) for _, s, i, flag in rows if flag == "1"]
    signal_at_860 = min(matched, key=lambda p: abs(p[1] - 860.0))[0]
    assert abs(signal_at_860 - 800.0) <= 15.0, f"signal root {signal_at_860:.1f}"
    _report(1, f"coverage [{summary['coverage_min_nm']:.0f}, "
               f"{summary['coverage_max_nm']:.0f}] nm, signal "
               f"{signal_at_860:.1f} nm at idler ~860 nm, {elapsed:.1f} s")


def test_criterion_2_herald_conditioning():
    cond = presets.heralded_source().conditioned_jsd()
    peak, fwhm = cond.peak_nm(), cond.fwhm_nm()
    assert abs(peak - 800.0) <= 5.0, f"peak {peak:.2f} nm"
    assert abs(fwhm - 10.0) <= 3.0, f"fwhm {fwhm:.2f} nm"
    pump = presets.heralded_source().pump.wavelength_nm
    for shift in (+10.0, -10.0):
        moved = presets.heralded_source(
            filter_center_nm=860.0 + shift).conditioned_jsd().peak_nm()
        expected = (conjugate_wavelength(pump, 860.0 + shift)
                    - conjugate_wavelength(pump, 860.0))
        assert abs((moved - peak) - expected) <= 2.0, (
            f"shift {shift:+.0f} nm moved peak by {moved - peak:.2f}, "
            f"conjugate amount {expected:.2f}")
    _report(2, f"peak {peak:.2f} nm, fwhm {fwhm:.2f} nm, "
               "conjugate tracking within 2 nm")


def test_criterion_3_irf(fig2d):
    _, summary, elapsed = fig2d
    assert elapsed < 60.0, f"preset took {elapsed:.1f} s"
    assert summary["coincidences_mpd_mpd"] >= 1_000_000
    assert summary["coincidences_mpd_excelitas"] >= 1_000_000
    f1 = summary["fwhm_ps_mpd_mpd"]
    f2 = summary["fwhm_ps_mpd_excelitas"]
    assert abs(f1 - 260.0) <= 13.0, f"mpd/mpd fwhm {f1:.1f} ps"
    assert abs(f2 - 600.0) <= 30.0, f"mpd/excelitas fwhm {f2:.1f} ps"
    _report(3, f"fwhm {f1:.1f} ps (mpd/mpd), {f2:.1f} ps (mpd/excelitas), "
               f"{elapsed:.1f} s")


def test_criterion_4_g2_dip():
    det = DETECTOR_PRESETS["ideal"]
    window_ps = 1000
    delays = np.arange(-50_000, 50_001, 5000, dtype=float)
    zeros, plateau = [], None
    for rate, dur in ((1e5, 20.0), (5e5, 8.0), (1e6, 10.0)):
        src = presets.heralded_source(pair_rate_hz=rate)
        run = RunConfig(duration_s=dur, seed=41, topology="hbt")
        tags = simulate_channels(src, None, det, det, None, run)
        curve = tag_g2(tags[CH_HERALD], tags[CH_HBT_T], tags[CH_HBT_R], window_ps, delays)
        zeros.append(curve.at_zero())
        if rate == 1e6:
            mask = np.abs(curve.delay_axis_ps) >= 20_000
            plateau = float(curve.g2_values[mask].mean())
    assert 1e5 * window_ps * 1e-12 <= 1e-3
    assert zeros[0] < 0.1, f"g2(0) = {zeros[0]:.4f} at the lowest rate"
    assert zeros[0] < zeros[1] < zeros[2], f"not strictly increasing: {zeros}"
    assert abs(plateau - 1.0) <= 0.05, f"plateau {plateau:.3f}"
    _report(4, "g2(0) = " + ", ".join(f"{z:.4f}" for z in zeros)
               + f" across rates, plateau {plateau:.3f}")


@pytest.mark.parametrize("tau_ns,center_nm", [(1.51, 810.0), (0.79, 900.0)])
def test_criterion_5_single_dye_lifetimes(tmp_path, tau_ns, center_nm):
    species = {"weight": 1.0, "lifetime_ns": tau_ns, "emission_center_nm": center_nm,
               "emission_fwhm_nm": 40.0}
    t0 = time.perf_counter()
    summary = presets.run_lifetime_species(tmp_path, 1, species)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"run took {elapsed:.1f} s"
    tau_hat = summary["tau_ns"]
    assert abs(tau_hat - tau_ns) <= 0.02, f"refit {tau_hat:.4f} ns"
    _report(5, f"generator {tau_ns} ns refit {tau_hat:.4f} ns, {elapsed:.0f} s")


def test_criterion_6_two_dye_map(fig3):
    out, _, _ = fig3
    cube = load_cube(out / "cube")
    cfg = presets.spectrum(presets.TWO_DYES, presets.TWO_DYE_TWINS, 0.5,
                           experiment.derive_seed(1, 1))
    cal = experiment.calibrate(cfg, experiment.derive_seed(1, 0))
    tf = reconstruct_map(cube, cal, apodization="hann")
    lam = tf.wavelength_axis_nm
    spectrum = tf.intensity.sum(axis=1)
    peaks = {}
    for lo, hi in ((800.0, 820.0), (890.0, 910.0)):
        band = (lam >= lo) & (lam <= hi)
        peaks[(lo, hi)] = float(lam[band][np.argmax(spectrum[band])])
    p1, p2 = peaks[(800.0, 820.0)], peaks[(890.0, 910.0)]
    assert abs(p1 - 810.0) <= 10.0 and abs(p2 - 900.0) <= 10.0, (p1, p2)

    # lifetime at each spectral peak, fitted against a delta response on the
    # map's own bin grid (ideal jitterless detectors)
    bw = int(tf.time_axis_ps[1] - tf.time_axis_ps[0])
    delta = np.zeros(len(tf.time_axis_ps))
    delta[0] = 1e6
    irf = Histogram(bw, 0, delta, n_starts=1_000_000)
    for peak_nm, tau_true in ((p1, 1.51), (p2, 0.79)):
        _, decay = slice_map(tf, "wavelength", peak_nm, width=20.0)
        scale = 2e5 / decay.sum()
        hist = Histogram(bw, 0, decay * scale, n_starts=int(2e5))
        res = fit_decay(hist, irf, 1, FitOptions(seed=0, n_multistart=6))
        tau_hat = res.model.components[0][1]
        assert abs(tau_hat - tau_true) / tau_true <= 0.05, (
            f"{peak_nm:.0f} nm slice: {tau_hat:.3f} vs {tau_true} ns")

    def centroid(at_ps):
        axis, spec = slice_map(tf, "time", at_ps, width=200.0)
        band = (axis >= 750.0) & (axis <= 1000.0)
        return float(np.sum(axis[band] * spec[band]) / np.sum(spec[band]))

    c_early, c_late = centroid(500.0), centroid(2000.0)
    assert c_late < c_early, f"centroid 0.5 ns {c_early:.1f} -> 2 ns {c_late:.1f}"
    _report(6, f"peaks {p1:.1f}/{p2:.1f} nm, centroid {c_early:.1f} -> "
               f"{c_late:.1f} nm between 0.5 and 2 ns")


def test_criterion_7_light_harvesting(fig4):
    tol_ns = {"lh2": 0.050, "membrane-open": 0.010, "membrane-closed": 0.015}
    summaries = {name: summary for name, (_, summary, _) in fig4.items()}
    for name, summary in summaries.items():
        tau_hat, tau_true = summary["tau_ns"], summary["generator_tau_ns"]
        assert abs(tau_hat - tau_true) <= tol_ns[name], (
            f"{name}: {tau_hat:.4f} vs {tau_true} ns")
    c_open = summaries["membrane-open"]["spectrum_centroid_nm"]
    c_closed = summaries["membrane-closed"]["spectrum_centroid_nm"]
    assert c_closed > c_open, f"closed {c_closed:.1f} <= open {c_open:.1f} nm"
    _report(7, ", ".join(f"{n} {summaries[n]['tau_ns'] * 1000:.0f} ps"
                         for n in ("lh2", "membrane-open", "membrane-closed"))
               + f"; centroid open {c_open:.1f} -> closed {c_closed:.1f} nm")


def test_criterion_8_integration_sweep(fig5):
    _, summary, _ = fig5
    taus = np.asarray(summary["tau_ns"])
    errs = np.asarray(summary["tau_err_ns"])
    assert np.all((taus >= 1.08) & (taus <= 1.20)), f"lifetimes {taus}"
    assert np.all(np.diff(errs) > 0), f"errors not monotone: {errs}"
    _report(8, "taus " + ", ".join(f"{t:.3f}" for t in taus)
               + " ns over 50/10/2/0.6 s budgets, errors monotone")


def test_criterion_9_property_suite(tmp_path):
    from scipy.special import erfc
    # energy conservation across the full tuning sweep
    points = experiment.tuning(validate_config({})[0], np.arange(40.0, 201.0, 5.0))
    resid = max(abs(1 / p.lambda_signal_nm + 1 / p.lambda_idler_nm - 1 / 413.0)
                * 413.0 for p in points if p.phase_matched)
    assert resid < 1e-12

    # rebinning equivalence on simulated data
    src = presets.heralded_source()
    run = RunConfig(duration_s=1.0, seed=7, topology="irf")
    det = DETECTOR_PRESETS["mpd"]
    tags = simulate_channels(src, None, det, det, None, run)
    fine = start_stop_histogram(tags[CH_HERALD], tags[CH_SIGNAL], 4, 8000, -4000)
    coarse = start_stop_histogram(tags[CH_HERALD], tags[CH_SIGNAL], 16, 8000, -4000)
    assert np.array_equal(rebin(fine, 4).counts, coarse.counts)

    # Parseval consistency of the interferogram transform
    positions = np.linspace(0.0, 320.0, 256)
    twins = TwinsSpec(delay_per_um_fs=1.0, position_min_um=0.0, position_max_um=320.0,
                      visibility=0.9, insertion_loss=0.5, x_zero_um=160.0)
    inter = np.array([transmission(850.0, x, twins) for x in positions])
    hists = [Histogram(16, 0, np.array([1e5 * p]), n_starts=100_000)
             for p in inter]
    from epstreak.twins import InterferogramCube, TwinsCalibration
    cube = InterferogramCube(positions, hists)
    tf = reconstruct_map(cube, TwinsCalibration(1.0, 160.0, 2.8),
                         apodization="none", dc_removal=True)
    ac = 1e5 * (inter - inter.mean())
    weights = np.full(tf.intensity.shape[0], 2.0)
    weights[0] = 1.0  # Nyquist row
    spectral = float((weights[:, None] * tf.intensity ** 2).sum()) / len(positions)
    assert abs(spectral - (ac ** 2).sum()) / (ac ** 2).sum() < 0.01

    # convolution versus closed-form exponentially modified Gaussian
    sigma = 260.0 / FWHM_PER_SIGMA
    t0, bw, n = -1000, 4, 3500
    t = t0 + (np.arange(n) + 0.5) * bw
    g = np.exp(-0.5 * (t / sigma) ** 2)
    irf = Histogram(bw, t0, 1e6 * g / g.sum(), n_starts=1_000_000)
    mu = convolve_model(DecayModel([(1.0, 1.13)]), irf)
    tau = 1130.0
    h = np.exp(sigma ** 2 / (2 * tau ** 2) - t / tau) * erfc(
        (sigma / tau - t / sigma) / np.sqrt(2)) / (2 * tau)
    assert np.max(np.abs(mu / mu.sum() - h / h.sum())) / (mu / mu.sum()).max() < 1e-3

    # noiseless fit self-consistency to 1e-6
    model = DecayModel([(40.0, 1.13)])
    mu = convolve_model(model, irf)
    hist = Histogram(bw, t0, 2e6 * mu / mu.sum(), n_starts=2_000_000)
    res = fit_decay(hist, irf, 1, FitOptions(seed=0))
    assert res.model.components[0][1] == pytest.approx(1.13, rel=1e-6)
    assert res.reduced_chi2 < 1e-6

    # byte-identical reruns through the command line
    from epstreak import cli
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("run:\n  topology: hbt\n  duration_s: 0.05\n  seed: 12\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--out", str(a), "--config", str(cfg)]) == 0
    assert cli.main(["simulate", "--out", str(b), "--config", str(cfg)]) == 0
    assert (a / "events.bin").read_bytes() == (b / "events.bin").read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    ma.pop("timestamps"), mb.pop("timestamps")
    assert ma == mb

    _report(9, "energy conservation, rebinning, Parseval, closed-form "
               "convolution, noiseless fit, byte-identical reruns")
