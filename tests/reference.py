"""Reference implementations that the package itself does not use.

Each function here has no caller in ``epstreak``; the tests use them as
known-answer helpers against the package's counting and map paths.
"""

import numpy as np

from epstreak.errors import ConfigurationError, DomainError
from epstreak.tcspc import _integer_window
from epstreak.units import PS_PER_S


def coincidence_rate(a, b, window_ps, duration_s):
    """(rate_hz, poisson_error_hz) of pairs of sorted int64 tags a, b with |b - a| <= window/2.

    The window is inclusive on the tags: ceil(-w/2) <= b - a <= floor(w/2).
    """
    lo, hi = _integer_window(0.0, window_ps)
    i0 = np.searchsorted(b, a + lo, side="left")
    i1 = np.searchsorted(b, a + hi, side="right")
    pairs = int((i1 - i0).sum())
    return pairs / duration_s, np.sqrt(pairs) / duration_s


def accidental_rate_hz(rate_a_hz, rate_b_hz, window_ps):
    """Analytic accidental-coincidence rate of two independent Poisson streams."""
    return rate_a_hz * rate_b_hz * (window_ps / PS_PER_S)


def slice_map(tf_map, axis, at_value, width):
    """Band-integrated 1-D profile of a time-frequency map.

    ``axis`` names the axis being sliced at (``wavelength`` or ``time``); the
    profile runs along the other axis. Width equal to the full axis range
    reproduces wavelength-integrated decays or time-integrated spectra.
    Returns (profile_axis, profile).
    """
    if axis == "wavelength":
        sel_axis, other_axis = tf_map.wavelength_axis_nm, tf_map.time_axis_ps
        data = tf_map.intensity
    elif axis == "time":
        sel_axis, other_axis = tf_map.time_axis_ps, tf_map.wavelength_axis_nm
        data = tf_map.intensity.T
    else:
        raise ConfigurationError(f"unknown axis {axis!r}")
    if not sel_axis[0] <= at_value <= sel_axis[-1]:
        raise DomainError(f"{axis} value {at_value} outside axis range "
                          f"[{sel_axis[0]:g}, {sel_axis[-1]:g}]")
    mask = np.abs(sel_axis - at_value) <= 0.5 * width
    if not np.any(mask):
        raise DomainError("integration band contains no axis samples")
    return other_axis.copy(), data[mask].sum(axis=0)
