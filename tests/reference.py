"""Reference implementations that the package itself does not use.

Each function here has no caller in ``epstreak``; the tests use them as
known-answer helpers against the package's counting and map paths, as
the plain forms of the detector chain's gathers and of the fit's multistart
ranking, and to write and read event files byte by byte from their layout.
"""

import struct

import numpy as np

from epstreak import fitting
from epstreak.errors import ConfigurationError, DomainError
from epstreak.tcspc import _integer_window
from epstreak.units import C_NM_PER_FS, FWHM_PER_SIGMA, PS_PER_S


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


def fringe_period_um(wavelength_nm, spec):
    """Interferogram period in wedge position for a monochromatic input to a TwinsSpec."""
    return wavelength_nm / (C_NM_PER_FS * abs(spec.delay_per_um_fs))


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


def dead_time_prune(times, dead_ps, last=None):
    """The per-event nonparalyzable dead-time loop over sorted times, from the kept time ``last``.

    An event is kept when it comes at least ``dead_ps`` after the last kept
    one; ``dead_ps <= 0`` keeps every event.
    """
    if dead_ps <= 0 or len(times) == 0:
        return times
    kept = np.empty(len(times))
    n = 0
    last = -np.inf if last is None else last
    for t in times.tolist():
        if t - last >= dead_ps:
            kept[n] = t
            n += 1
            last = t
    return kept[:n]


# The gathers of the streamed detector chain in their boolean-mask forms, as
# they were before np.compress and the stable merge replaced them. The
# package's forms must give the same elements in the same order.

def detector_draws(arrivals, det, rng, start_ps, span_ps):
    """events._detector_draws with ``t[keep]`` at every acceptance and an unconditional sort."""
    t, accept = arrivals
    t = np.asarray(t, dtype=float)
    keep = rng.random(len(t)) < np.asarray(accept, dtype=float) * det.efficiency
    t = t[keep]
    if det.jitter_fwhm_ps > 0 and len(t):
        t = t + rng.normal(0.0, det.jitter_fwhm_ps / FWHM_PER_SIGMA, len(t))
    n_dark = rng.poisson(det.dark_rate_hz * span_ps / PS_PER_S)
    if n_dark:
        t = np.concatenate([t, start_ps + rng.random(n_dark) * span_ps])
    t.sort(kind="stable")
    return t


def merge_channels(tags):
    """eventfile._merge_channels as a lexsort on (time, channel)."""
    channel = np.concatenate([np.full(len(t), ch, dtype=np.uint8) for ch, t in enumerate(tags)])
    t_ps = np.concatenate(tags)
    order = np.lexsort((channel, t_ps))
    return channel[order], t_ps[order]


def split_records(blocks, n_channels):
    """The (tags, horizon) chunks eventfile reads of record blocks, by ``t_ps[channel == ch]``."""
    for channel, t_ps in blocks:
        if len(t_ps):
            yield [t_ps[channel == ch] for ch in range(n_channels)], int(t_ps[-1])
    yield [np.empty(0, dtype=np.int64)] * n_channels, None


def first_stop_bins(starts, stops, t0_ps, window_ps, bin_width_ps):
    """StartStopCounter._bins in "first" mode with ``dt[ok]``."""
    lo = starts + t0_ps
    idx = np.searchsorted(stops, lo, side="left")
    dt = stops.take(idx, mode="clip") - lo
    ok = (idx < len(stops)) & (dt < window_ps)
    return dt[ok] // bin_width_ps


# An event file written and read byte by byte from its layout: the header
# (magic, u16 version 1, u16 channel count), then u8 channel and u64 t_ps
# records. It writes the malformed files that eventfile never writes.
RECORD = np.dtype([("channel", "<u1"), ("t_ps", "<u8")])


def write_records(path, channel, t_ps, n_channels):
    """An event file of the records (channel[i], t_ps[i]) as given; t_ps may reach 2^64 - 1."""
    records = np.empty(len(t_ps), dtype=RECORD)
    records["channel"] = np.asarray(channel, dtype=np.uint8)
    records["t_ps"] = np.asarray(t_ps, dtype=np.uint64)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sHH", b"EPPS", 1, n_channels))
        fh.write(records.tobytes())


def read_records(path):
    """(channel, t_ps) of every record of an event file, in file order."""
    with open(path, "rb") as fh:
        fh.seek(8)
        records = np.fromfile(fh, dtype=RECORD)
    return records["channel"], records["t_ps"].astype(np.int64)


def multistart_ranking(hist, irf, k):
    """fit_decay's multistart candidates, each profiled in full: (deviance, index, log lifetimes), best first.

    The fit range, the data and the lifetime box are the fit's own
    (``fitting._Problem``). Every candidate is taken at the lifetimes
    exp(log tau) of the fit's variables, its amplitudes and background come
    from ``fitting._poisson_linear``, and the order is by (deviance,
    candidate index): a stable sort on deviance over the candidate order.
    """
    problem = fitting._Problem(hist, irf, fit_shift=False)
    ranked = []
    for index, taus in enumerate(fitting._candidates(problem.lo, problem.hi, k)):
        log_taus = np.log(taus)
        resp = [fitting.convolve_model(fitting.DecayModel([(1.0, tau)]), irf,
                                       problem.n_bins, problem.t0)
                for tau in np.exp(log_taus)]
        mu = fitting._poisson_linear(resp, problem.y)[2]
        ranked.append((fitting._deviance(problem.y, mu, problem.y_safe), index, log_taus))
    return sorted(ranked, key=lambda r: r[:2])
