import numpy as np
import pytest
from hypothesis import given, strategies as st

from epstreak.errors import DomainError, EmptySupportError
from epstreak.spdc import (CrystalSpec, FilterSpec, PumpSpec, conjugate_wavelength,
                           density_fwhm, herald_conditioned_spectrum,
                           joint_spectral_density, phase_mismatch, tuning_curve)

from conftest import heralded_source

# the fig2b-tuning source: the default 413 nm pump and 30 mm crystal
PUMP = PumpSpec(413.0, 2e5)
TUNING_CRYSTAL = CrystalSpec(poling_period_um=3.675, length_mm=30.0, temperature_C=56.0)


def test_conjugate_identity_exact():
    lam_i = conjugate_wavelength(413.0, 800.0)
    assert abs(1.0 / 800.0 + 1.0 / lam_i - 1.0 / 413.0) < 1e-18


def test_conjugate_rejects_subpump():
    with pytest.raises(DomainError):
        conjugate_wavelength(413.0, 400.0)


def test_degenerate_point_symmetry():
    # at degeneracy signal and idler coincide at 2*pump
    dk = phase_mismatch(PUMP, 826.0, TUNING_CRYSTAL)
    assert np.isfinite(dk)
    assert conjugate_wavelength(413.0, 826.0) == pytest.approx(826.0, abs=1e-9)


@given(st.floats(min_value=700.0, max_value=824.0))
def test_signal_idler_exchange_symmetry(lam_s):
    lam_i = conjugate_wavelength(413.0, lam_s)
    dk_s = phase_mismatch(PUMP, lam_s, TUNING_CRYSTAL)
    dk_i = phase_mismatch(PUMP, lam_i, TUNING_CRYSTAL)
    assert dk_s == pytest.approx(dk_i, rel=1e-9, abs=1e-12)


def test_root_near_800_860_at_56C():
    points = tuning_curve(PUMP, TUNING_CRYSTAL, [56.0])
    (p,) = points
    assert p.phase_matched
    # which root lands near 800 depends on the dispersion data; tolerance wide
    assert p.lambda_signal_nm == pytest.approx(826.0, abs=30.0)
    assert p.lambda_idler_nm == pytest.approx(826.0, abs=30.0)
    pt = tuning_curve(PUMP, TUNING_CRYSTAL, [60.0])[0]
    assert pt.lambda_signal_nm == pytest.approx(800.0, abs=15.0)
    assert pt.lambda_idler_nm == pytest.approx(860.0, abs=15.0)


def test_tuning_curve_invariants():
    temps = np.arange(40.0, 201.0, 5.0)
    points = tuning_curve(PUMP, TUNING_CRYSTAL, temps)
    matched = [p for p in points if p.phase_matched]
    assert len(matched) > 10
    for p in matched:
        # energy conservation to machine precision
        resid = abs(1 / p.lambda_signal_nm + 1 / p.lambda_idler_nm - 1 / 413.0) * 413.0
        assert resid < 1e-12
        assert p.lambda_signal_nm <= p.lambda_idler_nm
        crystal = CrystalSpec(TUNING_CRYSTAL.poling_period_um,
                              TUNING_CRYSTAL.length_mm, p.temperature_C)
        assert abs(phase_mismatch(PUMP, p.lambda_signal_nm, crystal)) < 1e-8
    cover = [w for p in matched for w in (p.lambda_signal_nm, p.lambda_idler_nm)]
    assert min(cover) <= 685 and max(cover) >= 1085


def test_no_root_flagged_not_raised():
    points = tuning_curve(PUMP, TUNING_CRYSTAL, [0.5])
    assert len(points) == 1
    # either outcome is legitimate at the window edge, but never an exception
    assert points[0].phase_matched in (True, False)


def test_jsd_peak_and_null():
    grid = np.arange(700.0, 1000.0, 0.02)
    jsd = joint_spectral_density(PUMP, TUNING_CRYSTAL, grid)
    assert jsd.density.sum() == pytest.approx(1.0, abs=1e-9)
    root = tuning_curve(PUMP, TUNING_CRYSTAL, [TUNING_CRYSTAL.temperature_C])[0]
    peak = jsd.peak_nm()
    assert (abs(peak - root.lambda_signal_nm) < 0.5
            or abs(peak - root.lambda_idler_nm) < 0.5)
    # first sinc null: |dk| L/2 = pi away from the root
    half_l_um = TUNING_CRYSTAL.length_mm * 1000.0 / 2.0
    dk = phase_mismatch(PUMP, grid, TUNING_CRYSTAL)
    null_idx = np.argmin(np.abs(np.abs(dk) * half_l_um - np.pi))
    assert jsd.density[null_idx] < 1e-5 * jsd.density.max()


def test_jsd_56C_is_broadband():
    grid = np.arange(700.0, 1000.0, 0.05)
    jsd = joint_spectral_density(PUMP, TUNING_CRYSTAL, grid)
    assert 10.0 < jsd.fwhm_nm() < 120.0  # tens of nm


def test_conditioning_empty_support():
    src = heralded_source()
    jsd = src.unconditioned_jsd()
    # tophat far outside the conjugate image of the grid: zero overlap
    with pytest.raises(EmptySupportError):
        herald_conditioned_spectrum(jsd, FilterSpec(2500.0, 1.0, "tophat"))


def test_conditioned_spectrum_peak_and_width():
    src = heralded_source()
    cond = src.conditioned_jsd()
    assert cond.peak_nm() == pytest.approx(800.0, abs=5.0)
    assert cond.fwhm_nm() == pytest.approx(10.0, abs=3.0)
    assert cond.density.sum() == pytest.approx(1.0, abs=1e-9)


def test_allpass_filter_is_identity():
    src = heralded_source()
    jsd = src.unconditioned_jsd()
    wide = herald_conditioned_spectrum(jsd, FilterSpec(860.0, 1e9, "gaussian"))
    assert np.allclose(wide.density, jsd.density, atol=1e-12)


def test_filter_shift_moves_conjugate_amount():
    base = heralded_source(filter_center_nm=860.0).conditioned_jsd().peak_nm()
    shifted = heralded_source(filter_center_nm=865.0).conditioned_jsd().peak_nm()
    pump = heralded_source().pump.wavelength_nm
    expected = conjugate_wavelength(pump, 865.0) - conjugate_wavelength(pump, 860.0)
    assert (shifted - base) == pytest.approx(expected, abs=2.0)


def test_conditioning_narrows():
    src = heralded_source()
    assert src.conditioned_jsd().fwhm_nm() <= src.unconditioned_jsd().fwhm_nm()


def test_density_fwhm_triangle():
    x = np.linspace(0, 10, 1001)
    tri = np.clip(1 - np.abs(x - 5.0), 0, None)
    assert density_fwhm(x, tri) == pytest.approx(1.0, abs=1e-2)
