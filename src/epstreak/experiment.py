"""One experiment as data, and the steps that run it.

``config.validate_config`` builds an ExperimentConfig from YAML, and its
attribute paths are the YAML paths: ``detectors`` is a Detectors pair,
``analysis`` an AnalysisOptions whose sections below have the fields of the
YAML sections of the same names. ``ExperimentConfig.raw`` is not a key: it
holds the YAML mapping the config was built from, which manifests echo.
Each step takes an ExperimentConfig and returns its result without writing
anything; the CLI subcommands and the presets both run through them.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .checks import Checked, relation, rule
from .errors import ConfigurationError
from .events import (CH_HBT_R, CH_HBT_T, CH_HERALD, CH_SIGNAL, DetectorModel,
                     EmitterSpecies, RunConfig, SampleModel, channel_count, merge_chunks,
                     simulate_chunks, stream_warnings)
from .fitting import FitOptions, fit_decay
from .spdc import SourceModel, tuning_curve
from .tcspc import (DEFAULT_BIN_WIDTH_PS, DEFAULT_WINDOW_PS, HISTOGRAM_MODES, G2Counter,
                    StartStopCounter, window_violation)
from .twins import (APODIZATIONS, InterferogramCube, TwinsSpec, calibrate_delay,
                    nyquist_violation, reconstruct_map)

# The TWINS calibration scans a quasi-monochromatic line of known wavelength
# with the experiment's own positions, detectors and binning.
REFERENCE_LINE = EmitterSpecies(weight=1.0, lifetime_ns=0.1, emission_center_nm=850.0,
                                emission_fwhm_nm=0.5)
REFERENCE_DURATION_S = 0.05  # per wedge position

# Caps on the arrays a config sizes, checked before any is allocated.
MAX_HISTOGRAM_BINS = 2**24
MAX_G2_DELAYS = 2**20


@dataclass(frozen=True)
class HistogramOptions(Checked):
    bin_width_ps: int = rule(DEFAULT_BIN_WIDTH_PS, lo=1)
    window_ps: int = rule(DEFAULT_WINDOW_PS, lo=1)
    t0_ps: int = -5_000
    mode: str = rule(HISTOGRAM_MODES[0], choices=HISTOGRAM_MODES)

    @relation("window_ps", "bin_width_ps")
    def _window_whole_bins(window_ps, bin_width_ps):
        return window_violation(window_ps, bin_width_ps)

    @relation("window_ps", "bin_width_ps")
    def _bins_bounded(window_ps, bin_width_ps):
        n = window_ps // bin_width_ps
        return (f"must hold at most {MAX_HISTOGRAM_BINS} bins of bin_width_ps (got {n})"
                if n > MAX_HISTOGRAM_BINS else None)


@dataclass(frozen=True)
class G2Options(Checked):
    coincidence_window_ps: int = rule(1000, lo=1)
    delay_min_ps: int = -50_000
    delay_max_ps: int = 50_000
    delay_step_ps: int = rule(1000, lo=1)

    @relation("delay_min_ps", "delay_max_ps")
    def _delays_ordered(delay_min_ps, delay_max_ps):
        return "must not exceed delay_max_ps" if delay_min_ps > delay_max_ps else None

    @relation("delay_step_ps", "delay_min_ps", "delay_max_ps")
    def _delays_bounded(delay_step_ps, delay_min_ps, delay_max_ps):
        n = (delay_max_ps - delay_min_ps) // delay_step_ps + 1
        return (f"must give at most {MAX_G2_DELAYS} delays from delay_min_ps to "
                f"delay_max_ps (got {n})" if n > MAX_G2_DELAYS else None)

    def delay_axis_ps(self):
        return np.arange(self.delay_min_ps, self.delay_max_ps + 1, self.delay_step_ps,
                         dtype=float)


@dataclass(frozen=True)
class FTOptions(Checked):
    apodization: str = rule("hann", choices=APODIZATIONS)
    dc_removal: bool = True


@dataclass(frozen=True)
class AnalysisOptions:
    histogram: HistogramOptions
    g2: G2Options
    fit: FitOptions
    ft: FTOptions


@dataclass(frozen=True)
class Detectors:
    herald: DetectorModel
    signal: DetectorModel


@dataclass(frozen=True)
class ExperimentConfig:
    source: SourceModel
    sample: SampleModel | None
    detectors: Detectors
    twins: TwinsSpec | None
    run: RunConfig
    analysis: AnalysisOptions
    raw: dict = field(default_factory=dict, metadata={"yaml": False})  # the YAML echo


def derive_seed(base, *tags):
    """The seed of one run among several that share a base seed."""
    return int(np.random.SeedSequence((int(base),) + tags).generate_state(1)[0])


def tuning(cfg, temperatures_C):
    """Phase-matched signal and idler wavelengths of the source over a temperature sweep."""
    return tuning_curve(cfg.source.pump, cfg.source.crystal, temperatures_C)


def tuning_summary(points):
    """How many temperatures phase-match, and the wavelength span their pairs cover."""
    matched = [p for p in points if p.phase_matched]
    summary = {"n_phase_matched": len(matched)}
    if matched:
        wavelengths = [w for p in matched for w in (p.lambda_signal_nm, p.lambda_idler_nm)]
        summary.update(coverage_min_nm=min(wavelengths), coverage_max_nm=max(wavelengths))
    return summary


def _chunks(cfg):
    return simulate_chunks(cfg.source, cfg.sample, cfg.detectors.herald, cfg.detectors.signal,
                           cfg.twins, cfg.run)


def records(cfg):
    """The run's detections as (channel, t_ps) record blocks in (time, channel) order."""
    return merge_chunks(_chunks(cfg))


def stream_metadata(cfg):
    """What an event file of the run records beside its events: duration, channels, warnings."""
    meta = {"duration_s": cfg.run.duration_s, "n_channels": channel_count(cfg.run.topology)}
    warnings = stream_warnings(cfg.source, cfg.detectors.herald, cfg.detectors.signal, cfg.run)
    if warnings:
        meta["warnings"] = warnings
    return meta


def histogram(cfg, chunks=None):
    """Herald-signal start-stop histogram of a (tags, horizon) chunk stream, or of a fresh run."""
    counter = StartStopCounter(**asdict(cfg.analysis.histogram))
    counter.feed_chunks(_chunks(cfg) if chunks is None else chunks, CH_HERALD, CH_SIGNAL)
    return counter.histogram()


def irf(cfg):
    """Timing response of the detector pair: the run in irf topology, without sample or TWINS."""
    return histogram(replace(cfg, run=replace(cfg.run, topology="irf"), sample=None,
                             twins=None))


def g2(cfg):
    """Heralded HBT correlation of the signal arm; the run must be in hbt topology."""
    if cfg.run.topology != "hbt":
        raise ConfigurationError("g2 requires run.topology = hbt")
    options = cfg.analysis.g2
    counter = G2Counter(options.coincidence_window_ps, options.delay_axis_ps())
    counter.feed_chunks(_chunks(cfg), CH_HERALD, CH_HBT_T, CH_HBT_R)
    return counter.curve()


def _max_workers():
    """Worker count from EPPS_THREADS: unset or empty means 1."""
    env = os.environ.get("EPPS_THREADS", "").strip()
    try:
        workers = int(env or 1)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigurationError(f"EPPS_THREADS must be a positive integer, got {env!r}")
    return workers


def cube(cfg, positions_um):
    """Interferogram cube: the ``histogram`` of the run at each wedge position.

    The positions must sample the sample's shortest emission wavelength at
    Nyquist. Position i runs on the seed ``derive_seed(run.seed, 2, i)``, so
    the cube is reproducible whatever the number of positions run at once
    (EPPS_THREADS caps the workers).
    """
    positions_um = np.asarray(positions_um, dtype=float)
    if len(positions_um) < 2:
        raise ConfigurationError("need at least two wedge positions")
    reason = nyquist_violation(positions_um[1] - positions_um[0], cfg.sample.min_emission_nm(),
                               cfg.twins)
    if reason:
        raise ConfigurationError(f"wedge position {reason}")

    def one(i):
        return histogram(replace(cfg, run=replace(cfg.run, seed=derive_seed(cfg.run.seed, 2, i),
                                                  twins_position_um=float(positions_um[i]))))

    with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
        hists = list(pool.map(one, range(len(positions_um))))
    binning = cfg.analysis.histogram
    meta = {"duration_s_per_position": cfg.run.duration_s,
            "total_duration_s": cfg.run.duration_s * len(positions_um), "seed": cfg.run.seed,
            "bin_width_ps": binning.bin_width_ps, "window_ps": binning.window_ps,
            "t0_ps": binning.t0_ps}
    return InterferogramCube(positions_um, hists, meta)


def calibrate(cfg, reference_seed):
    """TWINS calibration from a scan of REFERENCE_LINE seeded with ``reference_seed``."""
    run = RunConfig(duration_s=REFERENCE_DURATION_S, seed=reference_seed,
                    topology="fluorescence")
    reference = cube(replace(cfg, sample=SampleModel((REFERENCE_LINE,)), run=run),
                     cfg.twins.positions_um())
    return calibrate_delay(reference, REFERENCE_LINE.emission_center_nm)


def ft_map(cfg, reference_seed):
    """(interferogram cube, calibration, wavelength-time map) of the sample.

    The map's wavelength axis comes from the calibration, not from the
    nominal delay slope of the twins section.
    """
    if cfg.twins is None or cfg.sample is None:
        raise ConfigurationError("ft-map requires both a twins section and a sample section")
    calibration = calibrate(cfg, reference_seed)
    scan = cube(cfg, cfg.twins.positions_um())
    ft = cfg.analysis.ft
    return scan, calibration, reconstruct_map(scan, calibration, ft.apodization, ft.dc_removal)


def fit(cfg, hist, irf_hist):
    """Reconvolution lifetime fit of ``hist`` against ``irf_hist`` with the config's fit options."""
    return fit_decay(hist, irf_hist, cfg.analysis.fit)
