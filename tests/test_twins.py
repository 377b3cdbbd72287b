import hashlib
import re
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from epstreak import experiment
from epstreak.config import validate_config
from epstreak.errors import CalibrationError, ConfigurationError, DomainError
from epstreak.events import (DETECTOR_PRESETS, DetectorModel, EmitterSpecies, RunConfig,
                             SampleModel)
from epstreak.experiment import Detectors, _max_workers
from epstreak.spdc import density_fwhm
from epstreak.tcspc import Histogram, HistogramOptions, rebin
from epstreak.twins import (InterferogramCube, TwinsSpec, _golden_section, calibrate_delay,
                            load_cube, nyquist_spacing_um, nyquist_violation, reconstruct_map,
                            save_cube, transmission, write_map_csv)
from epstreak.units import C_NM_PER_FS

from conftest import heralded_source, shipped
from reference import fringe_period_um

IDEAL = DetectorModel()


def _spec(**kw):
    base = dict(delay_per_um_fs=1.0, position_min_um=0.0, position_max_um=320.0,
                visibility=0.9, insertion_loss=0.5, x_zero_um=160.0)
    base.update(kw)
    return TwinsSpec(**base)


def _scan_config(sample, spec, run, source=None, **binning):
    """A config of ``sample`` behind ``spec`` on ideal detectors, counted with ``binning``."""
    cfg, _ = validate_config({})
    return replace(cfg, source=source or heralded_source(), sample=sample,
                   detectors=Detectors(IDEAL, IDEAL), twins=spec, run=run,
                   analysis=replace(cfg.analysis, histogram=HistogramOptions(**binning)))


def _analytic_cube(lines, positions, spec, n_t=48, bin_width_ps=16,
                   envelope_sigma_um=None, total=1e6):
    """Noiseless expected-counts cube for a list of (wavelength, weight, tau_ns)."""
    t = (np.arange(n_t) + 0.5) * bin_width_ps
    hists = []
    for x in positions:
        counts = np.zeros(n_t)
        for lam, w, tau_ns in lines:
            p = transmission(lam, x, spec)
            if envelope_sigma_um is not None:
                ac = p - spec.insertion_loss / 2.0
                env = np.exp(-0.5 * ((x - spec.x_zero_um) / envelope_sigma_um) ** 2)
                p = spec.insertion_loss / 2.0 + ac * env
            decay = np.exp(-t / (tau_ns * 1000.0))
            counts += total * w * p * decay / decay.sum()
        hists.append(Histogram(bin_width_ps, 0, counts))
    return InterferogramCube(np.asarray(positions, dtype=float), hists)


def test_transmission_no_interference():
    spec = _spec(visibility=0.0)
    lam = np.linspace(700, 1000, 7)
    p = transmission(lam, 100.0, spec)
    assert np.allclose(p, spec.insertion_loss / 2.0)


def test_transmission_constructive_at_zero_delay():
    spec = _spec(visibility=1.0)
    assert transmission(800.0, spec.x_zero_um, spec) == pytest.approx(
        spec.insertion_loss, abs=1e-12)


def test_transmission_range_check():
    with pytest.raises(DomainError):
        transmission(800.0, 500.0, _spec())


@pytest.mark.parametrize("position_um", [0.0, 37.5, 159.0, 160.0, 160.01, 290.0, 320.0])
def test_transmission_matches_one_expression(position_um):
    """Bit-equal to the one-expression form; the input is left as it was; scalar in, float out."""
    spec = _spec(visibility=0.83, insertion_loss=0.61)
    lam = np.random.default_rng(int(position_um * 100)).uniform(650.0, 1050.0, 10_000)
    before = lam.copy()
    tau_fs = spec.delay_per_um_fs * (position_um - spec.x_zero_um)
    want = spec.insertion_loss * 0.5 * (
        1.0 + spec.visibility * np.cos(2.0 * np.pi * C_NM_PER_FS * tau_fs / lam))
    got = transmission(lam, position_um, spec)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert lam.tobytes() == before.tobytes()
    scalar = transmission(float(lam[0]), position_um, spec)
    assert type(scalar) is float and scalar == want[0]


def test_fringe_period_analytic():
    spec = _spec()
    period = fringe_period_um(800.0, spec)
    assert period == pytest.approx(800.0 / C_NM_PER_FS, rel=1e-9)
    x0 = 120.0
    assert transmission(800.0, x0 + period, spec) == pytest.approx(
        transmission(800.0, x0, spec), rel=1e-6)
    assert transmission(800.0, x0 + period / 2, spec) == pytest.approx(
        spec.insertion_loss - transmission(800.0, x0, spec), rel=1e-6)


def test_nyquist_guard():
    spec = _spec()
    sample = SampleModel((EmitterSpecies(1.0, 1.0, 810.0, 40.0),))
    run = RunConfig(duration_s=0.01, seed=1, topology="fluorescence")
    coarse = np.linspace(0.0, 320.0, 40)  # spacing 8.2 um, limit ~1.28 um
    with pytest.raises(ConfigurationError, match="required spacing"):
        experiment.cube(_scan_config(sample, spec, run), coarse)
    assert nyquist_spacing_um(770.0, spec) == pytest.approx(
        770.0 / (2 * C_NM_PER_FS), rel=1e-12)
    limit = nyquist_spacing_um(770.0, spec)
    assert nyquist_violation(limit, 770.0, spec) is None
    assert "violates Nyquist" in nyquist_violation(1.01 * limit, 770.0, spec)


def test_calibration_recovers_generator():
    d0 = 1.3
    spec = _spec(delay_per_um_fs=d0)
    positions = np.linspace(0.0, 320.0, 512)
    cube = _analytic_cube([(850.0, 1.0, 0.5)], positions, spec,
                          envelope_sigma_um=60.0)
    assert calibrate_delay(cube, 850.0) == pytest.approx(d0, rel=1e-3)
    # a reference line of twice the wavelength has half the fringe frequency
    # and calibrates to the same slope
    cube2 = _analytic_cube([(1700.0, 1.0, 0.5)], positions, spec,
                           envelope_sigma_um=60.0)
    assert calibrate_delay(cube2, 1700.0) == pytest.approx(d0, rel=1e-3)


def test_calibration_rejects_flat_input():
    # a constant scan and an empty one (a signal detector of efficiency 0)
    # have a zero spectrum, whose peak is not 3x its zero median
    positions = np.linspace(0.0, 320.0, 128)
    for counts in (100.0, 0.0):
        hists = [Histogram(16, 0, np.full(8, counts)) for _ in positions]
        cube = InterferogramCube(positions, hists)
        with pytest.raises(CalibrationError, match="SNR"):
            calibrate_delay(cube, 850.0)


def test_calibration_rejects_short_scan():
    spec = _spec()
    positions = np.linspace(158.0, 162.0, 64)  # ~1.5 fringes at 850 nm
    cube = _analytic_cube([(850.0, 1.0, 0.5)], positions, spec)
    with pytest.raises(CalibrationError):
        calibrate_delay(cube, 850.0)


def _calibration_objective(seed):
    """Objective, bracket and tolerance of a noisy reference scan, as calibrate_delay forms them.

    Seeds 1 and 2 mod 4 narrow the fringe packet, which widens the
    periodogram peak, and move the bracket half a frequency step past that
    peak, below or above it, so the minimum lies at a bracket edge.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(48, 400))
    dx = rng.uniform(0.3, 2.0)
    x = rng.uniform(0.0, 50.0) + dx * np.arange(n)
    f_true = rng.uniform(12.0, 0.4 * n) / (n * dx)
    width = rng.uniform(0.15, 0.6) if seed % 4 in (0, 3) else 0.1
    envelope = np.exp(-0.5 * ((x - x[n // 2]) / (width * n * dx)) ** 2)
    mean = 1e4 * (1.0 + 0.8 * envelope * np.cos(2 * np.pi * f_true * (x - x[n // 2])
                                                 + rng.uniform(-0.3, 0.3)))
    counts = rng.poisson(mean).astype(float)
    ac = counts - counts.mean()
    df = 1.0 / (n * dx)
    f0 = (1 + int(np.argmax(np.abs(np.fft.rfft(ac))[1:]))) * df
    f0 += {1: -1.5, 2: 1.5}.get(seed % 4, 0.0) * df

    def neg_power(f):
        return -np.abs(np.dot(ac, np.exp(-2j * np.pi * f * x))) ** 2

    return neg_power, (max(f0 - df, 0.5 * df), f0 + df), df * 1e-7


def test_golden_section_matches_scipy_bounded():
    at_edge = 0
    for seed in range(120):
        func, (lo, hi), xatol = _calibration_objective(seed)
        x = _golden_section(func, lo, hi, xatol)
        res = minimize_scalar(func, bounds=(lo, hi), method="bounded",
                              options={"xatol": xatol})
        # scipy stops within sqrt(eps)|x| + xatol/3 of the minimum; this search within xatol
        assert abs(x - res.x) <= 4 * (np.sqrt(np.finfo(float).eps) * abs(x) + xatol), seed
        at_edge += min(x - lo, hi - x) < 1e-4 * (hi - lo)
    assert at_edge == 60  # the shifted brackets really put the minimum at an edge


def test_monochromatic_reconstruction_peak():
    spec = _spec()
    positions = np.linspace(0.0, 320.0, 256)
    cube = _analytic_cube([(810.0, 1.0, 0.8)], positions, spec)
    tf = reconstruct_map(cube, 1.0, apodization="hann")
    spectrum = tf.intensity.sum(axis=1)
    peak = tf.wavelength_axis_nm[np.argmax(spectrum)]
    k = np.argmin(np.abs(tf.wavelength_axis_nm - 810.0))
    bin_width = abs(tf.wavelength_axis_nm[min(k + 1, len(spectrum) - 1)]
                    - tf.wavelength_axis_nm[max(k - 1, 0)]) / 2
    assert abs(peak - 810.0) <= bin_width


def test_all_zero_cube():
    positions = np.linspace(0.0, 320.0, 64)
    hists = [Histogram(16, 0, np.zeros(16)) for _ in positions]
    cube = InterferogramCube(positions, hists)
    tf = reconstruct_map(cube, 1.0)
    assert np.all(tf.intensity == 0)


@pytest.mark.parametrize("options, message", [
    pytest.param({"apodization": "box"}, "apodization: must be one of none, hann (got 'box')",
                 id="unknown-apodization"),
    pytest.param({"dc_removal": "no"}, "dc_removal: expected a boolean (got 'no')",
                 id="dc-removal-not-bool"),
])
def test_reconstruct_map_rejects_bad_options(options, message):
    positions = np.linspace(0.0, 320.0, 64)
    cube = InterferogramCube(positions, [Histogram(16, 0, np.zeros(16)) for _ in positions])
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        reconstruct_map(cube, 1.0, **options)


def test_two_peak_round_trip():
    spec = _spec()
    positions = np.linspace(0.0, 320.0, 512)
    lines = [(810.0, 2.0, 1.51), (900.0, 1.0, 0.79)]
    cube = _analytic_cube(lines, positions, spec, envelope_sigma_um=45.0)
    tf = reconstruct_map(cube, 1.0, apodization="none")
    spectrum = tf.intensity.sum(axis=1)
    lam = tf.wavelength_axis_nm
    areas = {}
    for center, weight, _ in lines:
        k = np.argmin(np.abs(lam - center))
        window = slice(max(k - 4, 0), k + 5)
        peak = lam[window][np.argmax(spectrum[window])]
        spacing = abs(lam[k + 1] - lam[k - 1]) / 2
        assert abs(peak - center) <= spacing
        areas[center] = spectrum[window].sum()
    assert areas[810.0] / areas[900.0] == pytest.approx(2.0, rel=0.05)


def test_parseval_consistency():
    spec = _spec()
    positions = np.linspace(0.0, 320.0, 256)
    cube = _analytic_cube([(850.0, 1.0, 0.6)], positions, spec,
                          envelope_sigma_um=50.0)
    data = cube.counts_matrix()
    ac = data - data.mean(axis=0, keepdims=True)
    tf = reconstruct_map(cube, 1.0, apodization="none", dc_removal=True)
    n = data.shape[0]
    # rfft magnitude rows exclude DC; double the two-sided bins, Nyquist once
    power = tf.intensity ** 2
    weights = np.full(power.shape[0], 2.0)
    weights[0] = 1.0  # shortest wavelength row is the Nyquist bin (even n)
    spectral = (weights[:, None] * power).sum() / n
    direct = (ac ** 2).sum()
    assert spectral == pytest.approx(direct, rel=0.01)


def test_resolution_scales_with_scan_range():
    widths = {}
    for n, xmax in ((256, 320.0), (512, 640.0)):
        spec = _spec(position_max_um=xmax, x_zero_um=xmax / 2)
        positions = np.linspace(0.0, xmax, n)
        cube = _analytic_cube([(817.3, 1.0, 0.6)], positions, spec)
        tf = reconstruct_map(cube, 1.0, apodization="none")
        freq = C_NM_PER_FS / tf.wavelength_axis_nm  # fringe frequency axis
        spectrum = tf.intensity.sum(axis=1)
        order = np.argsort(freq)
        widths[xmax] = density_fwhm(freq[order], spectrum[order])
    assert widths[320.0] / widths[640.0] == pytest.approx(2.0, rel=0.10)


def test_reconstruction_commutes_with_time_rebin():
    spec = _spec()
    positions = np.linspace(0.0, 320.0, 128)
    cube = _analytic_cube([(850.0, 1.0, 0.7)], positions, spec, n_t=48)
    rebinned = InterferogramCube(positions, [rebin(h, 4) for h in cube.histograms])
    a = reconstruct_map(rebinned, 1.0, apodization="none")
    b = reconstruct_map(cube, 1.0, apodization="none")
    b_rebinned = b.intensity.reshape(b.intensity.shape[0], -1, 4).sum(axis=2)
    assert np.allclose(a.intensity, b_rebinned, rtol=1e-9, atol=1e-6)


def test_acquired_interferogram_matches_transmission():
    spec = _spec()
    positions = np.linspace(140.0, 180.0, 32)
    sample = SampleModel((EmitterSpecies(1.0, 0.3, 850.0, 1.0),))
    run = RunConfig(duration_s=0.05, seed=17, topology="fluorescence")
    cube = experiment.cube(_scan_config(sample, spec, run, bin_width_ps=16, window_ps=4000,
                                        t0_ps=0), positions)
    measured = cube.counts_matrix().sum(axis=1)
    expected = np.array([transmission(850.0, x, spec) for x in positions])
    r = np.corrcoef(measured, expected)[0, 1]
    assert r > 0.98


def test_zero_quantum_yield_gives_empty_cube():
    spec = _spec()
    positions = np.linspace(150.0, 170.0, 16)
    sample = SampleModel((EmitterSpecies(1.0, 0.3, 850.0, 1.0, quantum_yield=0.0),))
    run = RunConfig(duration_s=0.01, seed=18, topology="fluorescence")
    cube = experiment.cube(_scan_config(sample, spec, run, bin_width_ps=16, window_ps=2000,
                                        t0_ps=0), positions)
    assert cube.counts_matrix().sum() == 0


def test_cube_positions_are_histogram_runs():
    """Position i is ``histogram`` of the run at x_i on seed derive_seed(seed, 2, i), in mode all."""
    sample = SampleModel((EmitterSpecies(1.0, 0.3, 850.0, 1.0),))
    run = RunConfig(duration_s=0.01, seed=19, topology="fluorescence")
    cfg = _scan_config(sample, _spec(), run, source=heralded_source(pair_rate_hz=2.0e6),
                       bin_width_ps=16, window_ps=20_000, t0_ps=0, mode="all")
    positions = np.linspace(159.0, 160.5, 4)
    cube = experiment.cube(cfg, positions)
    first = replace(cfg, analysis=replace(cfg.analysis, histogram=replace(
        cfg.analysis.histogram, mode="first")))
    for i, (x, hist) in enumerate(zip(positions, cube.histograms)):
        run_i = replace(run, seed=experiment.derive_seed(run.seed, 2, i),
                        twins_position_um=float(x))
        want = experiment.histogram(replace(cfg, run=run_i))
        assert np.array_equal(hist.counts, want.counts) and hist.flags == want.flags
        # a second stop inside the window is counted, so the mode shows
        assert hist.counts.sum() > experiment.histogram(replace(first, run=run_i)).counts.sum()


def test_cube_save_load_roundtrip(tmp_path):
    spec = _spec()
    positions = np.linspace(0.0, 320.0, 32)
    cube = _analytic_cube([(850.0, 1.0, 0.5)], positions, spec, n_t=8)
    save_cube(tmp_path / "cube", cube)
    back = load_cube(tmp_path / "cube")
    assert np.allclose(back.positions_um, cube.positions_um)
    assert np.allclose(back.counts_matrix(), cube.counts_matrix(), atol=1e-6)


def test_cube_validation():
    h = Histogram(16, 0, np.zeros(8))
    with pytest.raises(ConfigurationError):
        InterferogramCube(np.array([0.0, 1.0, 1.0]), [h, h, h])
    with pytest.raises(ConfigurationError):
        InterferogramCube(np.array([0.0, 1.0, 5.0]), [h, h, h])
    h2 = Histogram(32, 0, np.zeros(8))
    with pytest.raises(ConfigurationError):
        InterferogramCube(np.array([0.0, 1.0]), [h, h2])


@pytest.mark.parametrize("value, workers", [(None, 1), ("", 1), (" ", 1),
                                            ("1", 1), ("3", 3), (" 2 ", 2)])
def test_max_workers_from_env(monkeypatch, value, workers):
    if value is None:
        monkeypatch.delenv("EPPS_THREADS", raising=False)
    else:
        monkeypatch.setenv("EPPS_THREADS", value)
    assert _max_workers() == workers


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_max_workers_rejects_bad_env(monkeypatch, value):
    monkeypatch.setenv("EPPS_THREADS", value)
    with pytest.raises(ConfigurationError, match="EPPS_THREADS"):
        _max_workers()


@pytest.mark.parametrize("threads", [None, "2"], ids=["unset", "2"])
def test_cube_and_map_bytes_pinned(tmp_path, monkeypatch, threads):
    """32 fig3 positions around zero delay: save_cube files plus map.csv, the same bytes
    whatever the number of workers."""
    if threads is None:
        monkeypatch.delenv("EPPS_THREADS", raising=False)
    else:
        monkeypatch.setenv("EPPS_THREADS", threads)
    fig3 = shipped("fig3-two-dyes", {"run.duration_s": 0.02, "run.seed": 7})
    assert _cube_and_map_digest(tmp_path, fig3) == (
        "232916b845737417371611adc3ac031fd83049c52c5418b1a65252c7a77de353")


@pytest.mark.parametrize("threads", [None, "2"], ids=["unset", "2"])
def test_one_worker_runs_the_cube_on_the_calling_thread(monkeypatch, threads):
    """One worker runs every position in the calling thread; more run them in a pool."""
    if threads is None:
        monkeypatch.delenv("EPPS_THREADS", raising=False)
    else:
        monkeypatch.setenv("EPPS_THREADS", threads)
    ran_on = set()
    run_histogram = experiment.histogram

    def histogram(cfg):
        ran_on.add(threading.get_ident())
        return run_histogram(cfg)

    monkeypatch.setattr(experiment, "histogram", histogram)
    fig3 = shipped("fig3-two-dyes", {"run.duration_s": 0.001, "run.seed": 7})
    experiment.cube(fig3, fig3.twins.positions_um()[:4])
    assert (ran_on == {threading.get_ident()}) == (threads is None)


def _cube_and_map_digest(tmp_path, cfg):
    """sha256 over the save_cube files and map.csv of 32 positions around zero delay."""
    cube = experiment.cube(cfg, cfg.twins.positions_um()[100:132])
    save_cube(tmp_path / "cube", cube)
    write_map_csv(tmp_path / "map.csv", reconstruct_map(cube, 1.0))
    digest = hashlib.sha256()
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        digest.update(path.relative_to(tmp_path).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_lossy_cube_and_map_bytes_pinned(tmp_path):
    """A lossy fig3 run: mpd signal detector (efficiency 0.35, jitter, dead time, darks),
    absorption_prob 0.6 and one species of quantum_yield 0.7, so the absorption, yield and
    detector uniforms all decide photons' fates behind the TWINS transmission."""
    lossy = shipped("fig3-two-dyes", {
        "run.duration_s": 0.05, "run.seed": 5, "detectors.signal": {"preset": "mpd"},
        "sample": {"absorption_prob": 0.6,
                   "species": [{"weight": 1.0, "lifetime_ns": 1.2, "emission_center_nm": 850.0,
                                "emission_fwhm_nm": 40.0, "quantum_yield": 0.7}]}})
    assert lossy.detectors.signal == DETECTOR_PRESETS["mpd"]
    assert lossy.sample.absorption_prob == 0.6
    assert [s.quantum_yield for s in lossy.sample.species] == [0.7]
    assert _cube_and_map_digest(tmp_path, lossy) == (
        "c387a42e097370d9645115f3824926111b5579c613e2e43a3c4f9829439e226f")
