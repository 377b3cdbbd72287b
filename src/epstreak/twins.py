"""Common-path birefringent interferometer model and Fourier reconstruction.

The interferometer is modeled as a wavelength-dependent photon-transmission
modulator: translating the wedge by x changes the replica delay linearly,
tau(x) = delay_per_um * (x - x_zero). Scanning x while histogramming arrival
times yields an interferogram cube whose Fourier transform along x is the
time-resolved emission spectrum.

Wedge dispersion is ignored (the delay slope is taken wavelength
independent); the calibration step absorbs the overall scale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.signal import hilbert

from .checks import Checked, relation, rule
from .errors import CalibrationError, ConfigurationError, DomainError
from .tcspc import read_histogram_csv, write_histogram_csv
from .units import C_NM_PER_FS


APODIZATIONS = ("none", "hann")


@dataclass(frozen=True)
class TwinsSpec(Checked):
    delay_per_um_fs: float = 1.0
    position_min_um: float = 0.0
    position_max_um: float = 320.0
    n_positions: int = rule(256, lo=2)
    visibility: float = rule(0.9, lo=0.0, hi=1.0)
    insertion_loss: float = rule(0.5, lo=1e-12, hi=1.0)
    x_zero_um: float = 160.0  # zero delay mid-scan so apodization keeps the fringe packet

    @relation("delay_per_um_fs")
    def _delay_nonzero(delay_per_um_fs):
        return "must be nonzero" if delay_per_um_fs == 0 else None

    @relation("position_max_um", "position_min_um")
    def _positions_ordered(position_max_um, position_min_um):
        return "must exceed position_min_um" if position_max_um <= position_min_um else None

    def positions_um(self):
        """The scan's wedge positions, evenly spaced over its range."""
        return np.linspace(self.position_min_um, self.position_max_um, self.n_positions)


def transmission(emission_nm, position_um, spec: TwinsSpec):
    """Photon-survival probability through the interferometer at wedge position x.

    p = insertion_loss * 0.5 * (1 + visibility * cos(2 pi c tau(x) / lambda)).
    """
    if not spec.position_min_um <= position_um <= spec.position_max_um:
        raise DomainError(
            f"position {position_um} um outside scan range "
            f"[{spec.position_min_um}, {spec.position_max_um}] um")
    lam = np.asarray(emission_nm, dtype=float)
    tau_fs = spec.delay_per_um_fs * (position_um - spec.x_zero_um)
    p = np.divide(2.0 * np.pi * C_NM_PER_FS * tau_fs, lam, out=np.empty_like(lam))
    np.cos(p, out=p)  # the docstring expression, in place, in its order of operations
    p *= spec.visibility
    p += 1.0
    p *= spec.insertion_loss * 0.5
    return p if p.ndim else float(p)


def fringe_period_um(wavelength_nm, spec: TwinsSpec):
    """Interferogram period in wedge position for a monochromatic input."""
    return wavelength_nm / (C_NM_PER_FS * abs(spec.delay_per_um_fs))


def nyquist_spacing_um(min_wavelength_nm, spec: TwinsSpec):
    return min_wavelength_nm / (2.0 * C_NM_PER_FS * abs(spec.delay_per_um_fs))


def nyquist_violation(spacing_um, min_wavelength_nm, spec: TwinsSpec):
    """Why a scan of ``spacing_um`` undersamples light down to ``min_wavelength_nm``, or None."""
    limit = nyquist_spacing_um(min_wavelength_nm, spec)
    if spacing_um > limit * (1 + 1e-9):
        return (f"spacing {spacing_um:.4g} um violates Nyquist; required spacing <= "
                f"{limit:.4g} um for the shortest emission wavelength {min_wavelength_nm:.4g} nm")
    return None


@dataclass
class InterferogramCube:
    positions_um: np.ndarray
    histograms: list  # one Histogram per position, shared bin axis
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        pos = np.asarray(self.positions_um, dtype=float)
        if len(pos) != len(self.histograms):
            raise ConfigurationError("one histogram per position required")
        if len(pos) >= 2:
            d = np.diff(pos)
            if np.any(d <= 0):
                raise ConfigurationError("positions must be strictly increasing")
            if not np.allclose(d, d[0], rtol=1e-9, atol=1e-9):
                raise ConfigurationError("positions must be uniformly spaced")
        bw = {h.bin_width_ps for h in self.histograms}
        nb = {len(h.counts) for h in self.histograms}
        t0 = {h.t0_ps for h in self.histograms}
        if len(bw) > 1 or len(nb) > 1 or len(t0) > 1:
            raise ConfigurationError("histograms must share their bin axis")
        self.positions_um = pos

    def spacing_um(self):
        return float(self.positions_um[1] - self.positions_um[0])

    def counts_matrix(self):
        return np.stack([h.counts.astype(float) for h in self.histograms])

    def time_axis_ps(self):
        return self.histograms[0].bin_centers_ps()


@dataclass
class TimeFrequencyMap:
    wavelength_axis_nm: np.ndarray
    time_axis_ps: np.ndarray
    intensity: np.ndarray  # [wavelength, time], >= 0

    def __post_init__(self):
        if np.any(np.diff(self.wavelength_axis_nm) <= 0) or np.any(np.diff(self.time_axis_ps) <= 0):
            raise ConfigurationError("map axes must be strictly increasing")
        if np.any(self.intensity < 0):
            raise ConfigurationError("map intensity must be >= 0")


@dataclass(frozen=True)
class TwinsCalibration:
    delay_per_um_fs: float
    x_zero_um: float
    fringe_period_um: float


def calibrate_delay(reference_cube: InterferogramCube, known_wavelength_nm) -> TwinsCalibration:
    """Delay slope and zero-delay position from a monochromatic reference scan.

    Fits the fringe frequency in the position domain (FFT peak refined by
    maximizing the periodogram) and locates the envelope maximum via the
    analytic signal.
    """
    x = reference_cube.positions_um
    interferogram = reference_cube.counts_matrix().sum(axis=1)
    ac = interferogram - interferogram.mean()
    n = len(x)
    dx = reference_cube.spacing_um()
    spectrum = np.abs(np.fft.rfft(ac))
    if len(spectrum) < 3:
        raise CalibrationError("reference scan too short")
    k_peak = 1 + int(np.argmax(spectrum[1:]))
    noise = np.median(spectrum[1:])
    if noise > 0 and spectrum[k_peak] / noise < 3.0:
        raise CalibrationError("reference interferogram SNR < 3")

    df = 1.0 / (n * dx)
    f0 = k_peak * df

    def neg_power(f):
        ph = np.exp(-2j * np.pi * f * x)
        return -np.abs(np.dot(ac, ph)) ** 2

    res = minimize_scalar(neg_power, bounds=(max(f0 - df, 0.5 * df), f0 + df),
                          method="bounded", options={"xatol": df * 1e-7})
    f_hat = float(res.x)
    n_fringes = f_hat * (x[-1] - x[0])
    if n_fringes < 10:
        raise CalibrationError(
            f"only {n_fringes:.1f} fringes in the reference scan; need >= 10")

    envelope = np.abs(hilbert(ac))
    i = int(np.argmax(envelope))
    x_zero = x[i]
    if 0 < i < n - 1:  # parabolic vertex refine
        y0, y1, y2 = envelope[i - 1], envelope[i], envelope[i + 1]
        denom = y0 - 2 * y1 + y2
        if denom != 0:
            x_zero = x[i] + 0.5 * dx * (y0 - y2) / denom
    delay = f_hat * known_wavelength_nm / C_NM_PER_FS
    return TwinsCalibration(delay_per_um_fs=delay, x_zero_um=float(x_zero),
                            fringe_period_um=1.0 / f_hat)


def reconstruct_map(cube: InterferogramCube, calibration: TwinsCalibration,
                    apodization="hann", dc_removal=True) -> TimeFrequencyMap:
    """Magnitude Fourier transform of the cube along wedge position.

    Per time bin: optional DC removal, apodization, real FFT along x; the
    position-frequency axis maps to wavelength via the calibrated delay
    slope. The k=0 (DC) component is discarded.
    """
    if apodization not in APODIZATIONS:
        raise ConfigurationError(f"unknown apodization {apodization!r}")
    data = cube.counts_matrix()  # [position, time]
    n = data.shape[0]
    dx = cube.spacing_um()
    if dc_removal:
        data = data - data.mean(axis=0, keepdims=True)
    if apodization == "hann":
        data = data * np.hanning(n)[:, None]
    spectrum = np.abs(np.fft.rfft(data, axis=0))  # [k, time]
    k = np.arange(1, spectrum.shape[0])
    freq_per_um = k / (n * dx)
    wavelength_nm = C_NM_PER_FS * abs(calibration.delay_per_um_fs) / freq_per_um
    # k ascending means wavelength descending; flip for increasing axes
    intensity = spectrum[1:][::-1]
    return TimeFrequencyMap(wavelength_nm[::-1], cube.time_axis_ps().astype(float),
                            intensity)


def save_cube(directory, cube: InterferogramCube):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "positions_um": [float(p) for p in cube.positions_um],
        "files": [],
        "metadata": cube.metadata,
    }
    for i, hist in enumerate(cube.histograms):
        name = f"position_{i:04d}.csv"
        write_histogram_csv(directory / name, hist)
        manifest["files"].append(name)
    (directory / "cube_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_cube(directory) -> InterferogramCube:
    directory = Path(directory)
    manifest = json.loads((directory / "cube_manifest.json").read_text())
    hists = [read_histogram_csv(directory / name) for name in manifest["files"]]
    return InterferogramCube(np.asarray(manifest["positions_um"]), hists,
                             manifest.get("metadata", {}))


def write_map_csv(path, tf_map: TimeFrequencyMap):
    lines = ["wavelength_nm,time_ps,intensity"]
    times = [f"{t:g}" for t in tf_map.time_axis_ps.tolist()]
    # one row at a time: the whole matrix as Python floats would raise peak memory
    for lam, row in zip(tf_map.wavelength_axis_nm.tolist(), tf_map.intensity):
        lam_text = f"{lam:.4f}"
        lines.extend(f"{lam_text},{t},{v:.6g}" for t, v in zip(times, row.tolist()))
    Path(path).write_text("\n".join(lines) + "\n")
