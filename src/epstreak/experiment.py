"""One experiment as data, and the steps that run it.

``config.validate_config`` builds an ExperimentConfig from YAML, and its
attribute paths are the YAML paths: ``detectors`` is a Detectors pair,
``analysis`` an AnalysisOptions whose sections, each defined in the module
that applies it, have the fields of the YAML sections of the same names.
``ExperimentConfig.raw`` is not a key: it holds the YAML mapping the config
was built from, which manifests echo.
Each step takes an ExperimentConfig and returns its result without writing
anything; the CLI subcommands and the presets both run through them.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ConfigurationError
from .events import (CH_HBT_R, CH_HBT_T, CH_HERALD, CH_SIGNAL, DetectorModel,
                     EmitterSpecies, RunConfig, SampleModel, channel_count, simulate_chunks,
                     stream_warnings)
from .fitting import FitOptions, fit_decay
from .spdc import SourceModel, tuning_curve
from .tcspc import G2Counter, G2Options, HistogramOptions, StartStopCounter
from .twins import (FTOptions, InterferogramCube, TwinsSpec, calibrate_delay,
                    nyquist_violation, reconstruct_map)

# The TWINS calibration scans a quasi-monochromatic line of known wavelength
# with the experiment's own positions, detectors and binning.
REFERENCE_LINE = EmitterSpecies(weight=1.0, lifetime_ns=0.1, emission_center_nm=850.0,
                                emission_fwhm_nm=0.5)
REFERENCE_DURATION_S = 0.05  # per wedge position
MAX_TEMPERATURES = 2**16  # per tuning sweep


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


def tuning_temperatures(tmin=40.0, tmax=200.0, step=2.0):
    """A tuning sweep's temperatures in deg C: tmin, tmin + step, ... up to tmax + 1e-9.

    ``step`` must be finite and > 0. None, with nothing allocated, when the
    sweep would hold more than MAX_TEMPERATURES; empty when it holds none.
    """
    stop = tmax + 1e-9
    n = (stop - tmin) / step
    if n > MAX_TEMPERATURES:
        return None
    return np.arange(tmin, stop, step) if n > 0 else np.empty(0)


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


def stream(cfg):
    """The run's detections as simulate_chunks' (tags, horizon) chunk stream."""
    return simulate_chunks(cfg.source, cfg.sample, cfg.detectors.herald, cfg.detectors.signal,
                           cfg.twins, cfg.run)


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
    counter.feed_chunks(stream(cfg) if chunks is None else chunks, CH_HERALD, CH_SIGNAL)
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
    counter.feed_chunks(stream(cfg), CH_HERALD, CH_HBT_T, CH_HBT_R)
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
    (EPPS_THREADS caps the workers; one worker runs them in the calling
    thread, with no pool). The cube's metadata records the run's
    duration per position and in total, its seed, and the fields of
    ``analysis.histogram`` (bin_width_ps, window_ps, t0_ps, mode).
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

    workers = _max_workers()
    if workers == 1:
        hists = [one(i) for i in range(len(positions_um))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hists = list(pool.map(one, range(len(positions_um))))
    meta = {"duration_s_per_position": cfg.run.duration_s,
            "total_duration_s": cfg.run.duration_s * len(positions_um), "seed": cfg.run.seed,
            **asdict(cfg.analysis.histogram)}
    return InterferogramCube(positions_um, hists, meta)


def calibrate(cfg):
    """TWINS delay slope in fs/um from a scan of REFERENCE_LINE on ``derive_seed(run.seed, 0)``."""
    run = RunConfig(duration_s=REFERENCE_DURATION_S, seed=derive_seed(cfg.run.seed, 0),
                    topology="fluorescence")
    reference = cube(replace(cfg, sample=SampleModel((REFERENCE_LINE,)), run=run),
                     cfg.twins.positions_um())
    return calibrate_delay(reference, REFERENCE_LINE.emission_center_nm)


def ft_map(cfg):
    """(interferogram cube, calibrated delay slope, wavelength-time map) of the sample.

    ``run.seed`` seeds both scans: the calibration as ``calibrate`` says and
    the sample's cube as ``cube`` says. The map's wavelength axis comes from
    the calibration, not from the nominal delay slope of the twins section.
    """
    if cfg.twins is None or cfg.sample is None:
        raise ConfigurationError("ft-map requires both a twins section and a sample section")
    delay_per_um_fs = calibrate(cfg)
    scan = cube(cfg, cfg.twins.positions_um())
    ft = cfg.analysis.ft
    return scan, delay_per_um_fs, reconstruct_map(scan, delay_per_um_fs, ft.apodization,
                                                  ft.dc_removal)


def fit(cfg, hist, irf_hist):
    """Reconvolution lifetime fit of ``hist`` against ``irf_hist`` with the config's fit options."""
    return fit_decay(hist, irf_hist, cfg.analysis.fit)
