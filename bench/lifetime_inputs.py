"""Decay and IRF histograms for the lifetime-fit workload, numpy only.

The inputs are drawn here, not with the program's own ``convolve_model`` or
``simulate_stream``, so that they stay the same bytes for a given seed when
those layers change.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

BIN_PS = 4
N_BINS = 3500
T0_PS = -2000
IRF_FWHM_PS = 260.0
IRF_COUNTS = 240_000
BACKGROUND_FRAC = 0.01
LIFETIMES_NS = (0.101, 0.248, 0.79, 1.14, 1.51)
COUNTS = (15_000, 240_000, 1_200_000)
FWHM_PER_SIGMA = 2.3548200450309493


def _histogram(t_ps):
    idx = np.floor((t_ps - T0_PS) / BIN_PS).astype(np.int64)
    idx = idx[(idx >= 0) & (idx < N_BINS)]
    return np.bincount(idx, minlength=N_BINS)


def _write_csv(path, counts):
    left = T0_PS + BIN_PS * np.arange(N_BINS)
    lines = ["bin_left_ps,counts"]
    lines += [f"{l},{c}" for l, c in zip(left.tolist(), counts.tolist())]
    Path(path).write_text("\n".join(lines) + "\n")


def decays():
    """(name, lifetime_ns, counts) of every decay, in run order."""
    return [(f"decay_{tau:g}ns_{n:d}", tau, n)
            for tau in LIFETIMES_NS for n in COUNTS]


def write_inputs(directory, seed, replica=0):
    """Write irf.csv and one CSV per decay into ``directory``.

    Every histogram has its own stream, seeded by (seed, replica, index).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    sigma = IRF_FWHM_PS / FWHM_PER_SIGMA
    span = BIN_PS * N_BINS
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), int(replica), 0)))
    _write_csv(directory / "irf.csv", _histogram(rng.normal(0.0, sigma, IRF_COUNTS)))
    for k, (name, tau_ns, n) in enumerate(decays(), start=1):
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), int(replica), k)))
        n_bg = rng.binomial(n, BACKGROUND_FRAC)
        t = rng.normal(0.0, sigma, n - n_bg) + rng.exponential(tau_ns * 1000.0, n - n_bg)
        t = np.concatenate([t, T0_PS + rng.random(n_bg) * span])
        _write_csv(directory / f"{name}.csv", _histogram(t))
