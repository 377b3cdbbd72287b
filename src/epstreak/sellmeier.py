"""Temperature-dependent refractive index of KTP from one in-code dispersion table.

``TABLES["ktp-z"]`` declares its own wavelength/temperature validity window,
which is enforced on every evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidityError


@dataclass(frozen=True)
class SellmeierTable:
    wavelength_min_nm: float
    wavelength_max_nm: float
    temperature_min_C: float
    temperature_max_C: float
    A: float
    B: float
    C: float
    D: float
    E: float
    F: float
    n1: tuple  # dn/dT polynomial coefficients, powers of 1/lambda_um
    n2: tuple  # d2n/dT2 polynomial coefficients


# KTiOPO4, z-axis (n_z), lambda in micrometers inside the formulas.
# Room-temperature dispersion: four-term Sellmeier fit for flux-grown KTP.
# Temperature dependence: cubic-in-1/lambda polynomial correction about 25 C,
#   n(lam, T) = n25(lam) + n1(lam)*(T-25) + n2(lam)*(T-25)^2
# The validity window is the one this package enforces; the blue edge
# extends slightly past the fitted range to admit a ~413 nm pump.
TABLES = {
    "ktp-z": SellmeierTable(
        wavelength_min_nm=400.0, wavelength_max_nm=3500.0,
        temperature_min_C=0.0, temperature_max_C=200.0,
        A=2.12725, B=1.18431, C=5.14852e-2, D=0.6603, E=100.00507, F=9.68956e-3,
        n1=(9.9587e-6, 9.9228e-6, -8.9603e-6, 4.1010e-6),
        n2=(-1.1882e-8, 10.459e-8, -9.8136e-8, 3.1481e-8),
    ),
}


def get_table(sellmeier_id: str) -> SellmeierTable:
    try:
        return TABLES[sellmeier_id]
    except KeyError:
        raise ValidityError(f"unknown sellmeier_id {sellmeier_id!r}; "
                            f"available: {sorted(TABLES)}") from None


def refractive_index(wavelength_nm, temperature_C, sellmeier_id="ktp-z"):
    """Refractive index n(lambda, T) for the named coefficient set.

    Accepts scalars or arrays for ``wavelength_nm``. Raises ValidityError if
    any wavelength (NaN included) or the temperature falls outside the
    table's declared window.
    """
    tab = get_table(sellmeier_id)
    lam_nm = np.asarray(wavelength_nm, dtype=float)
    if not np.all((lam_nm >= tab.wavelength_min_nm) & (lam_nm <= tab.wavelength_max_nm)):
        raise ValidityError(
            f"wavelength outside validity window "
            f"[{tab.wavelength_min_nm}, {tab.wavelength_max_nm}] nm of {sellmeier_id!r}"
        )
    if not (tab.temperature_min_C <= temperature_C <= tab.temperature_max_C):
        raise ValidityError(
            f"temperature {temperature_C} C outside validity window "
            f"[{tab.temperature_min_C}, {tab.temperature_max_C}] C of {sellmeier_id!r}"
        )
    lam = lam_nm * 1e-3  # um
    lam2 = lam * lam
    n2 = tab.A + tab.B / (1.0 - tab.C / lam2) + tab.D / (1.0 - tab.E / lam2) - tab.F * lam2
    n25 = np.sqrt(n2)
    inv = 1.0 / lam
    p1 = tab.n1[0] + tab.n1[1] * inv + tab.n1[2] * inv**2 + tab.n1[3] * inv**3
    p2 = tab.n2[0] + tab.n2[1] * inv + tab.n2[2] * inv**2 + tab.n2[3] * inv**3
    dT = temperature_C - 25.0
    n = n25 + p1 * dT + p2 * dT * dT
    return float(n) if n.ndim == 0 else n
