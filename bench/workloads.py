"""The benchmark's workloads: inputs, CLI invocations and output checks.

A workload's ``setup`` writes its inputs into the current directory and
returns its timed units; a unit is a list of CLI argument lists run back to
back and timed together. ``check`` returns, per invocation in run order, the
list of ways its outputs are wrong (empty when they are right). The checks
reuse the acceptance-test criteria but compute every quantity from the
artifacts with the benchmark's own code.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

import lifetime_inputs


def _columns(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _fwhm_ps(csv_path):
    """Half-maximum width of a histogram CSV, linear interpolation at the edges.

    A 5-bin box smooths the counts; at 4 ps bins its own width adds under
    0.2% to a 260 ps response.
    """
    data = _columns(csv_path)
    bw = data[1, 0] - data[0, 0]
    centers = data[:, 0] + 0.5 * bw
    smooth = np.convolve(data[:, 1], np.ones(5) / 5.0, mode="same")
    peak = int(np.argmax(smooth))
    half = 0.5 * smooth[peak]
    lo = peak
    while lo > 0 and smooth[lo - 1] >= half:
        lo -= 1
    hi = peak
    while hi < len(smooth) - 1 and smooth[hi + 1] >= half:
        hi += 1
    if lo == 0 or hi == len(smooth) - 1:
        return float("nan")

    def cross(a, b):
        return centers[a] + (half - smooth[a]) * (centers[b] - centers[a]) / (smooth[b] - smooth[a])

    return float(cross(hi, hi + 1) - cross(lo - 1, lo))


class G2Hbt:
    name = "g2-hbt"

    def setup(self, seed, replica):
        return [[["preset", "fig2c-g2", "--out", "g2", "--seed", str(seed)]]]

    def check(self):
        data = _columns("g2/g2.csv")
        delay, g2 = data[:, 0], data[:, 1]
        fails = []
        g0 = g2[np.argmin(np.abs(delay))]
        if not g0 < 0.1:
            fails.append(f"g2(0) = {g0:.4f}, need < 0.1")
        plateau = g2[np.abs(delay) >= 10_000].mean()
        if not abs(plateau - 1.0) <= 0.05:
            fails.append(f"plateau {plateau:.4f}, need 1 +- 0.05")
        return [fails]


READBACK_CONFIG = """\
# the fig2d-irf preset's histogram, applied to the event file it wrote
analysis:
  histogram:
    bin_width_ps: 4
    window_ps: 8000
    t0_ps: -4000
    mode: first
"""


class IrfDeadtime:
    name = "irf-deadtime"

    def setup(self, seed, replica):
        Path("readback.yaml").write_text(READBACK_CONFIG)
        return [[["preset", "fig2d-irf", "--out", "irf", "--seed", str(seed)],
                 ["histogram", "--out", "readback", "--config", "readback.yaml",
                  "--events", "irf/events_mpd_mpd.bin"]]]

    def check(self):
        preset = []
        for name, target, tol in (("mpd_mpd", 260.0, 13.0),
                                  ("mpd_excelitas", 600.0, 30.0)):
            path = f"irf/irf_{name}.csv"
            fwhm = _fwhm_ps(path)
            if not abs(fwhm - target) <= tol:
                preset.append(f"{name} FWHM {fwhm:.1f} ps, need {target:g} +- {tol:g}")
            total = _columns(path)[:, 1].sum()
            if not total >= 1e6:
                preset.append(f"{name}: {total:.0f} coincidences, need >= 1e6")
        readback = []
        if Path("readback/histogram.csv").read_bytes() != Path("irf/irf_mpd_mpd.csv").read_bytes():
            readback.append("read-back histogram.csv differs from irf_mpd_mpd.csv")
        return [preset, readback]


class TwinsMap:
    name = "twins-map"

    def setup(self, seed, replica):
        return [[["preset", "fig3-two-dyes", "--out", "twins", "--seed", str(seed)]]]

    def check(self):
        data = _columns("twins/map.csv")
        lam, inverse = np.unique(data[:, 0], return_inverse=True)
        spectrum = np.bincount(inverse, weights=data[:, 2])
        band = (lam >= 740.0) & (lam <= 980.0)
        lam, spectrum = lam[band], spectrum[band]
        inner = np.arange(1, len(spectrum) - 1)
        local = inner[(spectrum[inner] > spectrum[inner - 1])
                      & (spectrum[inner] >= spectrum[inner + 1])]
        top = sorted(lam[local[np.argsort(spectrum[local])[::-1][:2]]])
        if len(top) < 2:
            return [[f"{len(top)} spectral peaks in 740-980 nm, need 2"]]
        fails = [f"peak {got:.1f} nm, need {want:g} +- 10 nm"
                 for got, want in zip(top, (810.0, 900.0))
                 if not abs(got - want) <= 10.0]
        return [fails]


# acceptance tolerance per generating lifetime (criteria 5, 7 and 8)
LIFETIME_TOL_NS = {0.101: 0.010, 0.248: 0.015, 0.79: 0.020, 1.14: 0.060, 1.51: 0.020}
_ERR = re.compile(r"tau_ns = \S+ \+- (\S+)")


class LifetimeFit:
    name = "lifetime-fit"

    def setup(self, seed, replica):
        lifetime_inputs.write_inputs("inputs", seed, replica)
        return [[["fit", "--out", f"fit/{name}", "--hist", f"inputs/{name}.csv",
                  "--irf", "inputs/irf.csv", "--n", "1"]]
                for name, _, _ in lifetime_inputs.decays()]

    def check(self):
        out = []
        for name, tau_true, _ in lifetime_inputs.decays():
            out_dir = Path("fit") / name
            tau = json.loads((out_dir / "manifest.json").read_text())["summary"]["lifetimes_ns"][0]
            err = float(_ERR.search((out_dir / "fit_report.txt").read_text()).group(1))
            allowed = max(5.0 * err, LIFETIME_TOL_NS[tau_true])
            out.append([] if abs(tau - tau_true) <= allowed else
                       [f"{name}: tau {tau:.5f} ns, need {tau_true} +- {allowed:.4f}"])
        return out


WORKLOADS = {w.name: w for w in (G2Hbt(), IrfDeadtime(), TwinsMap(), LifetimeFit())}
