"""Quasi-phase-matched SPDC kinematics for a CW-pumped periodically poled crystal.

With a single-frequency pump the idler wavelength is a deterministic function
of the signal wavelength, so every spectral density here is one-dimensional
along the signal axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checks import Checked, relation, rule
from .errors import DomainError, EmptySupportError
from .sellmeier import TABLES, get_table, refractive_index

TWO_PI = 2.0 * np.pi

# bracket scan / bisection resolution for tuning-curve roots (nm)
ROOT_SCAN_STEP_NM = 1.0
ROOT_BISECT_TOL_NM = 1e-6


@dataclass(frozen=True)
class CrystalSpec(Checked):
    poling_period_um: float = rule(3.675, lo=1e-6)
    length_mm: float = rule(30.0, lo=1e-6)
    temperature_C: float = 56.0
    sellmeier_id: str = rule("ktp-z", choices=tuple(TABLES))

    @relation("temperature_C", "sellmeier_id")
    def _in_sellmeier_window(temperature_C, sellmeier_id):
        tab = get_table(sellmeier_id)
        if not (tab.temperature_min_C <= temperature_C <= tab.temperature_max_C):
            return (f"{temperature_C} outside validity window "
                    f"[{tab.temperature_min_C}, {tab.temperature_max_C}] of {sellmeier_id!r}")
        return None


@dataclass(frozen=True)
class PumpSpec(Checked):
    wavelength_nm: float = rule(413.0, lo=1.0)
    pair_rate_hz: float = rule(2.0e5, lo=0.0)


@dataclass(frozen=True)
class FilterSpec(Checked):
    center_nm: float = rule(860.0, lo=1.0)
    fwhm_nm: float = rule(10.0, lo=1e-9)
    shape: str = rule("gaussian", choices=("gaussian", "tophat"))

    def transmission(self, wavelength_nm):
        lam = np.asarray(wavelength_nm, dtype=float)
        if self.shape == "gaussian":
            sigma = self.fwhm_nm / 2.3548200450309493
            t = np.exp(-0.5 * ((lam - self.center_nm) / sigma) ** 2)
        else:
            t = (np.abs(lam - self.center_nm) <= 0.5 * self.fwhm_nm).astype(float)
        return t if t.ndim else float(t)


@dataclass
class JointSpectralDensity:
    """1-D spectral density of the signal photon; idler fixed by the pump."""

    signal_axis_nm: np.ndarray
    density: np.ndarray
    pump_wavelength_nm: float

    def conjugate_axis_nm(self):
        return conjugate_wavelength(self.pump_wavelength_nm, self.signal_axis_nm)

    def peak_nm(self):
        return float(self.signal_axis_nm[np.argmax(self.density)])

    def fwhm_nm(self):
        return density_fwhm(self.signal_axis_nm, self.density)


def conjugate_wavelength(pump_nm, signal_nm):
    """Idler wavelength enforcing 1/lam_s + 1/lam_i = 1/lam_p exactly."""
    signal_nm = np.asarray(signal_nm, dtype=float)
    if np.any(signal_nm <= pump_nm):
        raise DomainError("signal wavelength must exceed the pump wavelength")
    out = 1.0 / (1.0 / pump_nm - 1.0 / signal_nm)
    return out if out.ndim else float(out)


def phase_mismatch(pump: PumpSpec, signal_nm, crystal: CrystalSpec):
    """Collinear type-0 QPM mismatch dk = k_p - k_s - k_i - 2*pi/Lambda (rad/um).

    All three waves propagate on the same crystal axis; the idler is the
    energy-conservation conjugate of the signal. Scalar or array signal input.
    """
    idler_nm = conjugate_wavelength(pump.wavelength_nm, signal_nm)
    T = crystal.temperature_C
    sid = crystal.sellmeier_id
    n_p = refractive_index(pump.wavelength_nm, T, sid)
    n_s = refractive_index(signal_nm, T, sid)
    n_i = refractive_index(idler_nm, T, sid)
    # wavelengths in um for rad/um output
    lam_p = pump.wavelength_nm * 1e-3
    lam_s = np.asarray(signal_nm, dtype=float) * 1e-3
    lam_i = np.asarray(idler_nm, dtype=float) * 1e-3
    dk = TWO_PI * (n_p / lam_p - n_s / lam_s - n_i / lam_i - 1.0 / crystal.poling_period_um)
    return dk if dk.ndim else float(dk)


@dataclass(frozen=True)
class TuningPoint:
    temperature_C: float
    lambda_signal_nm: float | None
    lambda_idler_nm: float | None
    phase_matched: bool


def _root_bracket_bounds(pump: PumpSpec, crystal: CrystalSpec):
    tab = get_table(crystal.sellmeier_id)
    lam_deg = 2.0 * pump.wavelength_nm
    # lower signal bound: both signal and conjugate idler inside the table window
    lo = max(tab.wavelength_min_nm, pump.wavelength_nm + 1.0)
    # conjugate idler must stay inside the table window too
    lo = max(lo, conjugate_wavelength(pump.wavelength_nm, tab.wavelength_max_nm))
    return lo + 1e-6, lam_deg


def _find_root(pump: PumpSpec, crystal: CrystalSpec):
    """Signal-branch root of the mismatch below degeneracy, or None."""
    lo, hi = _root_bracket_bounds(pump, crystal)
    grid = np.arange(lo, hi + ROOT_SCAN_STEP_NM, ROOT_SCAN_STEP_NM)
    grid = grid[grid < hi]
    grid = np.append(grid, hi - 1e-9)
    dk = phase_mismatch(pump, grid, crystal)
    sign_change = np.where(np.sign(dk[:-1]) * np.sign(dk[1:]) < 0)[0]
    if len(sign_change) == 0:
        return None
    i = sign_change[-1]  # root closest to degeneracy
    a, b = grid[i], grid[i + 1]
    fa = dk[i]
    while b - a > ROOT_BISECT_TOL_NM:
        m = 0.5 * (a + b)
        fm = phase_mismatch(pump, m, crystal)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def tuning_curve(pump: PumpSpec, crystal_template: CrystalSpec, temperatures):
    """Phase-matched (T, lambda_signal, lambda_idler) triples over a sweep.

    Temperatures with no root inside the bracket are flagged rather than
    raising. By convention lambda_signal <= lambda_idler; the pair satisfies
    energy conservation exactly.
    """
    temperatures = list(temperatures)
    if not temperatures:
        raise DomainError("temperature list must be nonempty")
    points = []
    for T in temperatures:
        crystal = CrystalSpec(
            poling_period_um=crystal_template.poling_period_um,
            length_mm=crystal_template.length_mm,
            temperature_C=T,
            sellmeier_id=crystal_template.sellmeier_id,
        )
        root = _find_root(pump, crystal)
        if root is None:
            points.append(TuningPoint(T, None, None, False))
        else:
            idler = conjugate_wavelength(pump.wavelength_nm, root)
            lam_s, lam_i = sorted((root, idler))
            points.append(TuningPoint(T, lam_s, lam_i, True))
    return points


def write_tuning_csv(path, points):
    """One row per temperature; the wavelengths of an unmatched one are empty."""
    lines = ["temperature_C,signal_nm,idler_nm,phase_matched"]
    for p in points:
        if p.phase_matched:
            lines.append(f"{p.temperature_C:g},{p.lambda_signal_nm:.4f},"
                         f"{p.lambda_idler_nm:.4f},1")
        else:
            lines.append(f"{p.temperature_C:g},,,0")
    Path(path).write_text("\n".join(lines) + "\n")


def joint_spectral_density(pump: PumpSpec, crystal: CrystalSpec, grid_nm) -> JointSpectralDensity:
    """sinc^2 phase-matching density along the signal axis, unit sum."""
    grid = np.asarray(grid_nm, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise DomainError("grid must be a 1-D array with at least two points")
    dk = phase_mismatch(pump, grid, crystal)
    L_um = crystal.length_mm * 1e3
    arg = 0.5 * dk * L_um
    density = np.sinc(arg / np.pi) ** 2
    if np.all(density < 1e-12):
        raise EmptySupportError(
            "grid excludes all phase-matching support (all weights < 1e-12 of peak)"
        )
    density = density / density.sum()
    return JointSpectralDensity(grid, density, pump.wavelength_nm)


def herald_conditioned_spectrum(jsd: JointSpectralDensity, herald_filter: FilterSpec) -> JointSpectralDensity:
    """Reweight the signal density by the filter seen by the conjugate idler."""
    t = herald_filter.transmission(jsd.conjugate_axis_nm())
    density = jsd.density * t
    total = density.sum()
    if total <= 0 or np.all(density < 1e-300):
        raise EmptySupportError(
            f"herald filter ({herald_filter.center_nm}/{herald_filter.fwhm_nm} nm) "
            "does not overlap the idler image of the density"
        )
    return JointSpectralDensity(jsd.signal_axis_nm.copy(), density / total, jsd.pump_wavelength_nm)


def density_fwhm(axis_nm, density):
    """FWHM of a sampled density via linear interpolation of the half crossings."""
    density = np.asarray(density, dtype=float)
    axis_nm = np.asarray(axis_nm, dtype=float)
    peak = density.max()
    if peak <= 0:
        return 0.0
    half = 0.5 * peak
    above = density >= half
    idx = np.where(above)[0]
    i0, i1 = idx[0], idx[-1]
    left = axis_nm[i0]
    if i0 > 0:
        f = (half - density[i0 - 1]) / (density[i0] - density[i0 - 1])
        left = axis_nm[i0 - 1] + f * (axis_nm[i0] - axis_nm[i0 - 1])
    right = axis_nm[i1]
    if i1 < len(axis_nm) - 1:
        f = (density[i1] - half) / (density[i1] - density[i1 + 1])
        right = axis_nm[i1] + f * (axis_nm[i1 + 1] - axis_nm[i1])
    return float(right - left)


@dataclass(frozen=True)
class GridSpec(Checked):
    """Signal-wavelength axis on which the joint spectral density is sampled."""

    min_nm: float = rule(700.0, lo=1.0)
    max_nm: float = rule(1000.0, lo=1.0)
    step_nm: float = rule(0.05, lo=1e-6)

    @relation("max_nm", "min_nm")
    def _ordered(max_nm, min_nm):
        return "must exceed min_nm" if max_nm <= min_nm else None

    def axis_nm(self):
        return np.arange(self.min_nm, self.max_nm + self.step_nm / 2, self.step_nm)


@dataclass(frozen=True)
class SourceModel:
    """Pump + crystal + herald filter; the full photon-pair source."""

    pump: PumpSpec
    crystal: CrystalSpec
    herald_filter: FilterSpec
    grid: GridSpec = GridSpec()

    def unconditioned_jsd(self):
        return joint_spectral_density(self.pump, self.crystal, self.grid.axis_nm())

    def conditioned_jsd(self):
        return herald_conditioned_spectrum(self.unconditioned_jsd(), self.herald_filter)
