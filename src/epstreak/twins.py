"""Common-path birefringent interferometer model and Fourier reconstruction.

The interferometer is modeled as a wavelength-dependent photon-transmission
modulator: translating the wedge by x changes the replica delay linearly,
tau(x) = delay_per_um * (x - x_zero). Scanning x while histogramming arrival
times yields an interferogram cube whose Fourier transform along x is the
time-resolved emission spectrum.

Wedge dispersion is ignored (the delay slope is taken wavelength
independent); the calibration step absorbs the overall scale. The
calibration yields only that slope, the one value the magnitude transform
needs. It refines the fringe frequency by golden-section search in numpy,
so a map run loads no scipy module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import sqrt
from pathlib import Path

import numpy as np

from .checks import Checked, refuse, relation, rule, violations
from .errors import CalibrationError, ConfigurationError, DomainError
from .tcspc import read_histogram_csv, write_histogram_csv
from .units import C_NM_PER_FS

MAX_POSITIONS = 2**14  # per scan: each position is one histogram run and one cube row


@dataclass(frozen=True)
class TwinsSpec(Checked):
    delay_per_um_fs: float = 1.0
    position_min_um: float = 0.0
    position_max_um: float = 320.0
    n_positions: int = rule(256, lo=2, hi=MAX_POSITIONS)
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


def _phase(emission_nm, position_um, spec: TwinsSpec, dtype=float):
    """The float64 phase 2 pi c tau(x) / lambda, in a new array of dtype; x must lie in the scan."""
    if not spec.position_min_um <= position_um <= spec.position_max_um:
        raise DomainError(
            f"position {position_um} um outside scan range "
            f"[{spec.position_min_um}, {spec.position_max_um}] um")
    lam = np.asarray(emission_nm, dtype=float)
    tau_fs = spec.delay_per_um_fs * (position_um - spec.x_zero_um)
    return np.divide(2.0 * np.pi * C_NM_PER_FS * tau_fs, lam, out=np.empty(lam.shape, dtype))


def transmission(emission_nm, position_um, spec: TwinsSpec):
    """Photon-survival probability through the interferometer at wedge position x.

    p = insertion_loss * 0.5 * (1 + visibility * cos(2 pi c tau(x) / lambda)).
    """
    p = _phase(emission_nm, position_um, spec)
    np.cos(p, out=p)  # the docstring expression, in place, in its order of operations
    p *= spec.visibility
    p += 1.0
    p *= spec.insertion_loss * 0.5
    return p if p.ndim else float(p)


# The float32 cosine of a float64 phase phi lies within 2^-24 (|phi| + 1.5) of its
# float64 cosine: rounding phi to float32 moves it by at most 2^-24 |phi|, and numpy's
# float32 cosine is within 1.5 units of 2^-24 (measured with AVX-512 on x86-64: at most
# 0.998 of that bound over |phi| <= 1e6). transmission_estimate's band is 2^8 times its
# error bound: ESTIMATE_BAND = 2^8 2^-24.
ESTIMATE_BAND = 2.0**-16


def transmission_estimate(emission_nm, position_um, spec: TwinsSpec):
    """``transmission`` from a float32 cosine, and a band around it: (float32 estimate, band).

    The estimate is the expression of ``transmission`` in float32, with the
    float32 cosine of the same float64 phase phi (rounded to float32 as it
    is computed). Its error is the cosine's, scaled by s = visibility *
    insertion_loss / 2 <= 1/2, plus at most 3.5 units of 2^-24 from the
    float32 expression. So the estimate, also times a float32 efficiency of
    at most 1 and moved to float32 band edges, lies within 2^-24 (s (|phi|
    + 2) + 8) of the transmission times that efficiency. The band,
    ESTIMATE_BAND (s (max |phi| + 2) + 8), is 2^8 times that bound at the
    largest phase. A phase beyond float32 gives a nan estimate, and a
    non-finite phase a band of inf or nan.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a phase beyond float32 is inf
        p = _phase(emission_nm, position_um, spec, np.float32)
        reach = float(np.maximum(p.max(initial=0.0), -p.min(initial=0.0)))  # nan if any is
        np.cos(p, out=p)
    p *= spec.visibility
    p += 1.0
    p *= spec.insertion_loss * 0.5
    scale = spec.visibility * (spec.insertion_loss * 0.5)
    return p, ESTIMATE_BAND * (scale * (reach + 2.0) + 8.0)


def transmission_bound(spec: TwinsSpec):
    """The largest value ``transmission`` can return at any wavelength and position.

    It is the transmission at cos = 1, in the same float operations, so it
    bounds every computed transmission exactly: cos <= 1, and rounding is
    monotone in each operation.
    """
    return (1.0 + spec.visibility) * (spec.insertion_loss * 0.5)


@dataclass(frozen=True)
class FTOptions(Checked):
    apodization: str = rule("hann", choices=("none", "hann"))
    dc_removal: bool = True


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


_INV_PHI = (sqrt(5.0) - 1.0) / 2.0


def _golden_section(func, lo, hi, xatol):
    """The probe with the lowest ``func`` once golden-section search narrows [lo, hi] to xatol."""
    a, b = lo, hi
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = func(c), func(d)
    while b - a > xatol:
        if fc <= fd:  # the minimum lies in [a, d]
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = func(c)
        else:  # the minimum lies in [c, b]
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = func(d)
    return c if fc <= fd else d


def calibrate_delay(reference_cube: InterferogramCube, known_wavelength_nm) -> float:
    """Delay slope in fs/um from a monochromatic reference scan.

    Fits the fringe frequency in the position domain: the FFT peak, refined
    by maximizing the periodogram within one frequency step of it. No
    zero-delay position is fitted: ``reconstruct_map`` keeps the magnitude
    of the transform along position, and a shift of zero delay changes only
    its phase, so that position never enters the map.
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
    if not spectrum[k_peak] > 3.0 * noise:  # a flat scan has peak = noise = 0
        raise CalibrationError("reference interferogram SNR < 3")

    df = 1.0 / (n * dx)
    f0 = k_peak * df

    def neg_power(f):
        ph = np.exp(-2j * np.pi * f * x)
        return -np.abs(np.dot(ac, ph)) ** 2

    # k_peak <= n/2 puts xatol = 1e-7 df above 2e-7/(n+2) of f, far above float
    # resolution for any cube that fits in memory, so the search needs no cap
    f_hat = float(_golden_section(neg_power, max(f0 - df, 0.5 * df), f0 + df, df * 1e-7))
    n_fringes = f_hat * (x[-1] - x[0])
    if n_fringes < 10:
        raise CalibrationError(
            f"only {n_fringes:.1f} fringes in the reference scan; need >= 10")
    return f_hat * known_wavelength_nm / C_NM_PER_FS


def reconstruct_map(cube: InterferogramCube, delay_per_um_fs,
                    apodization=FTOptions.apodization,
                    dc_removal=FTOptions.dc_removal) -> TimeFrequencyMap:
    """Magnitude Fourier transform of the cube along wedge position.

    Per time bin: optional DC removal, apodization, real FFT along x; the
    position-frequency axis maps to wavelength via the calibrated delay
    slope ``delay_per_um_fs``. The k=0 (DC) component is discarded.
    """
    refuse(violations(FTOptions, {"apodization": apodization, "dc_removal": dc_removal}))
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
    wavelength_nm = C_NM_PER_FS * abs(delay_per_um_fs) / freq_per_um
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
    times = [f"{t:g}" for t in tf_map.time_axis_ps.tolist()]
    # one row at a time: the whole map as Python floats or as text would raise peak memory
    with open(path, "w") as fh:
        fh.write("wavelength_nm,time_ps,intensity\n")
        for lam, row in zip(tf_map.wavelength_axis_nm.tolist(), tf_map.intensity):
            lam_text = f"{lam:.4f}"
            fh.writelines(f"{lam_text},{t},{v:.6g}\n" for t, v in zip(times, row.tolist()))
