"""Start-stop histograms, coincidence counting and heralded g2 curves."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DomainError, UndefinedG2Error
from .spdc import density_fwhm
from .units import FWHM_PER_SIGMA, PS_PER_S

DEFAULT_BIN_WIDTH_PS = 4
DEFAULT_WINDOW_PS = 50_000  # 5x the longest lifetime of interest plus IRF tails
HERALD_BLOCK = 1 << 16  # heralds per G2Counter block: 512 kB of tags
START_BLOCK = 1 << 16  # starts per StartStopCounter block
HISTOGRAM_MODES = ("first", "all")  # the first is the default


@dataclass
class Histogram:
    bin_width_ps: int
    t0_ps: int
    counts: np.ndarray  # int64 (or float for derived data)
    n_starts: int
    flags: list = field(default_factory=list)

    def __post_init__(self):
        if self.bin_width_ps <= 0:
            raise DomainError("bin_width_ps must be > 0")
        if len(self.counts) == 0:
            raise DomainError("histogram needs at least one bin")

    def bin_left_ps(self):
        return self.t0_ps + self.bin_width_ps * np.arange(len(self.counts))

    def bin_centers_ps(self):
        return self.bin_left_ps() + 0.5 * self.bin_width_ps

    def fwhm_ps(self):
        """Interpolated full width at half maximum, robust to count noise.

        The half-max level from the raw bin maximum is biased high on noisy
        data (max statistic), which shrinks the width. A box smoothing sized
        from a rough first-pass width suppresses that bias; the smoothing's
        own variance contribution is subtracted analytically.
        """
        centers = self.bin_centers_ps()
        counts = self.counts.astype(float)
        rough = density_fwhm(centers, counts)
        w = int(round(rough / self.bin_width_ps / 6.0))
        if w <= 1:
            return rough
        smoothed = np.convolve(counts, np.ones(w) / w, mode="same")
        fw = density_fwhm(centers, smoothed)
        corrected = fw ** 2 - (FWHM_PER_SIGMA ** 2 / 12.0) * (w * self.bin_width_ps) ** 2
        return float(np.sqrt(corrected)) if corrected > 0 else fw

    def peak_ps(self):
        return float(self.bin_centers_ps()[np.argmax(self.counts)])


def window_violation(window_ps, bin_width_ps):
    """Why a histogram window does not hold a whole number of bins, or None."""
    return "must be a multiple of bin_width_ps" if window_ps % bin_width_ps else None


def start_stop_histogram(starts, stops, bin_width_ps=DEFAULT_BIN_WIDTH_PS,
                         window_ps=DEFAULT_WINDOW_PS, t0_ps=0,
                         mode=HISTOGRAM_MODES[0]) -> Histogram:
    """Start-stop delay histogram of two sorted int64 timestamp arrays.

    For each start event the first stop with t0 <= dt < t0 + window
    contributes one count to bin floor((dt - t0)/bin_width); this first-stop
    behavior matches classic TCSPC hardware. ``mode="all"`` counts every stop
    in the window instead (pile-up diagnostics). StartStopCounter fed the
    whole arrays at once.
    """
    counter = StartStopCounter(bin_width_ps, window_ps, t0_ps, mode)
    counter.feed(starts, stops)
    return counter.histogram()


_NO_TAGS = np.empty(0, dtype=np.int64)


def _join(held, fresh):
    if len(held) == 0 or len(fresh) == 0:
        return fresh if len(held) == 0 else held
    return np.concatenate((held, fresh))


class _Reach:
    """Counts over sorted int64 tags fed in time order: lead tags against the follower tags.

    A lead tag x reaches the follower tags in [x + reach_lo, x + reach_hi].
    ``_count`` counts a slice of lead tags once every follower tag they reach
    has been fed: when x + reach_hi < ``horizon``, below which no tag fed
    later falls (None: none follows, so the last call counts everything).
    Lead tags are counted in disjoint slices, and follower tags that no lead
    tag held or still to come can reach are dropped, so memory is bounded
    by the tags fed between horizons. Fed the whole arrays at once, this is
    one ``_count`` over them.
    """

    def __init__(self, reach_lo, reach_hi, n_followers):
        self.reach_lo, self.reach_hi = reach_lo, reach_hi
        self.fed = [0] * (1 + n_followers)  # tags fed per stream, lead first
        self._lead = _NO_TAGS
        self._followers = [_NO_TAGS] * n_followers

    def feed(self, lead, *followers, horizon=None):
        for i, tags in enumerate((lead, *followers)):
            self.fed[i] += len(tags)
        self._lead = _join(self._lead, lead)
        self._followers = [_join(held, f) for held, f in zip(self._followers, followers)]
        n = len(self._lead)
        if horizon is not None:
            n = int(np.searchsorted(self._lead, horizon - self.reach_hi, side="left"))
        if n:
            self._count(self._lead[:n], *self._followers)
        if horizon is not None:  # copies, so the tags fed are freed
            self._lead = self._lead[n:].copy()
            first = min(self._lead[0], horizon) if len(self._lead) else horizon
            self._followers = [f[np.searchsorted(f, first + self.reach_lo, side="left"):].copy()
                               for f in self._followers]

    def feed_chunks(self, chunks, *channels):
        """Feed every (tags, horizon) of a chunk stream, lead channel first."""
        for tags, horizon in chunks:
            self.feed(*(tags[ch] for ch in channels), horizon=horizon)
            del tags  # before the next chunk is drawn

    def _count(self, lead, *followers):
        raise NotImplementedError


class StartStopCounter(_Reach):
    """start_stop_histogram's counts over starts and stops fed in time order (see _Reach)."""

    def __init__(self, bin_width_ps=DEFAULT_BIN_WIDTH_PS, window_ps=DEFAULT_WINDOW_PS,
                 t0_ps=0, mode=HISTOGRAM_MODES[0]):
        reason = window_violation(window_ps, bin_width_ps)
        if reason:
            raise ConfigurationError(f"window_ps {reason}")
        if mode not in HISTOGRAM_MODES:
            raise ConfigurationError(f"unknown histogram mode {mode!r}")
        super().__init__(t0_ps, t0_ps + window_ps - 1, 1)
        self.bin_width_ps, self.window_ps, self.t0_ps, self.mode = (
            bin_width_ps, window_ps, t0_ps, mode)
        self.counts = np.zeros(window_ps // bin_width_ps, dtype=np.int64)

    def _count(self, starts, stops):
        if len(stops) == 0:
            return
        for b0 in range(0, len(starts), START_BLOCK):
            self.counts += np.bincount(self._bins(starts[b0:b0 + START_BLOCK], stops),
                                       minlength=len(self.counts))

    def _bins(self, starts, stops):
        """Bin index of every count the starts make against the stops."""
        window_ps, bin_width_ps = self.window_ps, self.bin_width_ps
        lo = starts + self.t0_ps
        if self.mode == "first":
            idx = np.searchsorted(stops, lo, side="left")
            dt = stops.take(idx, mode="clip") - lo  # dt - t0 of the first stop at or after lo
            ok = (idx < len(stops)) & (dt < window_ps)
            return dt[ok] // bin_width_ps
        i0 = np.searchsorted(stops, lo, side="left")
        i1 = np.searchsorted(stops, lo + window_ps, side="left")
        dt = stops[_span_indices(i0, i1)] - np.repeat(starts, i1 - i0)
        return (dt - self.t0_ps) // bin_width_ps

    def histogram(self) -> Histogram:
        n_starts, n_stops = self.fed
        flags = [] if n_starts and n_stops else ["empty-stream"]
        return Histogram(self.bin_width_ps, self.t0_ps, self.counts, n_starts, flags)


def _span_indices(i0, i1):
    """Concatenated arange(i0[k], i1[k]) without a Python loop."""
    reps = i1 - i0
    total = int(reps.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    return np.repeat(i0 - (np.cumsum(reps) - reps), reps) + np.arange(total)


def rebin(hist: Histogram, factor: int) -> Histogram:
    """Merge groups of ``factor`` adjacent bins; count-preserving."""
    if len(hist.counts) % factor != 0:
        raise ConfigurationError("bin count not divisible by rebin factor")
    counts = hist.counts.reshape(-1, factor).sum(axis=1)
    return Histogram(hist.bin_width_ps * factor, hist.t0_ps, counts,
                     hist.n_starts, list(hist.flags))


@dataclass
class G2Curve:
    delay_axis_ps: np.ndarray
    g2_values: np.ndarray
    normalization: float  # mean accidental-product estimate N_ht*N_hr/N_h
    errors: np.ndarray | None = None

    def __post_init__(self):
        if np.any(self.g2_values < 0):
            raise DomainError("g2 values must be >= 0")
        if self.normalization <= 0:
            raise DomainError("normalization must be > 0")

    def at_zero(self):
        return float(self.g2_values[np.argmin(np.abs(self.delay_axis_ps))])


def _integer_window(center_ps, window_ps):
    """Inclusive int64 bounds of every integer dt with |dt - center| <= window/2."""
    half = 0.5 * window_ps
    return (np.ceil(center_ps - half).astype(np.int64),
            np.floor(center_ps + half).astype(np.int64))


def _arm_pairs(heralds, arm, dt_lo, dt_hi):
    """(herald index, dt = arm - herald) of every pair with dt_lo <= dt <= dt_hi.

    Searches from the arm side: each arm event locates its heralds in
    [arm - dt_hi, arm - dt_lo] with two exact int64 searches.
    """
    i0 = np.searchsorted(heralds, arm - dt_hi, side="left")
    i1 = np.searchsorted(heralds, arm - dt_lo, side="right")
    idx = _span_indices(i0, i1)
    return idx, np.repeat(arm, i1 - i0) - heralds[idx]


def _edge_bins(dt, weights, edges):
    """(#dt, sum of weights) per bin edges[i-1] <= dt < edges[i] of the sorted edges.

    Integer weights keep the float sums exact, so the bin sums of disjoint
    parts of ``dt`` add up to those of the whole, bit for bit.
    """
    j = np.searchsorted(edges, dt, side="right")
    n_bins = len(edges) + 1
    return (np.bincount(j, minlength=n_bins),
            np.bincount(j, weights=weights, minlength=n_bins))


def tag_g2(heralds, t_tags, r_tags, coincidence_window_ps, delay_axis_ps) -> G2Curve:
    """Heralded HBT correlation g2(delta) of sorted int64 herald, T and R tags.

    The normalization is accidental-based: g2(delta) = N_htr(delta) * N_h /
    (N_ht * N_hr(delta)) per delay bin, where the delta-shifted window is
    applied to one HBT arm while the other stays herald-centered; the two
    arm orientations are averaged so the estimate is invariant under
    relabeling the arms.

    Windows are inclusive and exact on the int64 tags: a pair with
    dt = arm - herald is central when ceil(-w/2) <= dt <= floor(w/2) and lies
    in the window of delay d when ceil(d - w/2) <= dt <= floor(d + w/2). Each
    arm's (herald, dt) pairs inside the union of all windows are enumerated
    once; the central counts per herald and every delay bin's pair and triple
    counts are then bincounts over those pairs, so delay windows may be
    unsorted, uneven or overlapping. G2Counter fed the whole arrays at once.
    """
    counter = G2Counter(coincidence_window_ps, delay_axis_ps)
    counter.feed(heralds, t_tags, r_tags)
    return counter.curve()


class G2Counter(_Reach):
    """tag_g2's integer counts over herald, T and R tags fed in time order (see _Reach).

    Heralds are counted ``HERALD_BLOCK`` at a time, each block with the
    slice of each arm that can reach it, so memory is bounded by one block's
    pairs and the herald searches stay in cache. Every count is an integer,
    so the result does not depend on how the heralds are sliced.
    """

    def __init__(self, coincidence_window_ps, delay_axis_ps):
        if coincidence_window_ps <= 0:
            raise ConfigurationError("coincidence window must be > 0")
        self.central = _integer_window(0.0, coincidence_window_ps)
        self.delay_axis_ps = np.asarray(delay_axis_ps, dtype=float)
        lo, hi = _integer_window(self.delay_axis_ps, coincidence_window_ps)
        super().__init__(min(self.central[0], lo.min()), max(self.central[1], hi.max()), 2)
        # delay window k covers the bins k0[k] .. k1[k] - 1 of the sorted edges
        self.edges = np.unique(np.concatenate((lo, hi + 1)))
        self.k0, self.k1 = np.searchsorted(self.edges, lo), np.searchsorted(self.edges, hi + 1)
        n_bins = len(self.edges) + 1
        self.pair_totals = {"t": 0, "r": 0}
        self.n_pair_bins = {k: np.zeros(n_bins, dtype=np.int64) for k in ("t", "r")}
        self.triple_bins = {k: np.zeros(n_bins) for k in ("t", "r")}

    def _count(self, heralds, t_tags, r_tags):
        c_lo, c_hi = self.central
        dt_lo, dt_hi = self.reach_lo, self.reach_hi
        arms = {"t": t_tags, "r": r_tags}
        for b0 in range(0, len(heralds), HERALD_BLOCK):
            block = heralds[b0:b0 + HERALD_BLOCK]
            pairs, central = {}, {}
            for k, arm in arms.items():
                reach = arm[np.searchsorted(arm, block[0] + dt_lo, side="left"):
                            np.searchsorted(arm, block[-1] + dt_hi, side="right")]
                idx, dt = _arm_pairs(block, reach, dt_lo, dt_hi)
                pairs[k] = (idx, dt)
                central[k] = np.bincount(idx[(dt >= c_lo) & (dt <= c_hi)],
                                         minlength=len(block))
                self.pair_totals[k] += int(central[k].sum())
            for fixed, shifted in (("t", "r"), ("r", "t")):
                idx, dt = pairs[shifted]
                n_pair, triples = _edge_bins(dt, central[fixed][idx], self.edges)
                self.n_pair_bins[shifted] += n_pair
                self.triple_bins[shifted] += triples

    def curve(self) -> G2Curve:
        n_h = self.fed[0]
        if n_h == 0:
            raise UndefinedG2Error("no herald events")
        for k in ("t", "r"):
            if self.pair_totals[k] == 0:
                raise UndefinedG2Error(f"zero herald-{k} coincidences; normalization undefined")
        delays = self.delay_axis_ps
        values = np.zeros(len(delays))
        triple_counts = np.zeros(len(delays))
        for fixed, shifted in (("t", "r"), ("r", "t")):
            below = np.cumsum(self.n_pair_bins[shifted])
            below_w = np.cumsum(self.triple_bins[shifted])
            n_pair_shift = below[self.k1] - below[self.k0]
            triples = below_w[self.k1] - below_w[self.k0]
            if np.any(n_pair_shift == 0):
                bad = delays[np.argmax(n_pair_shift == 0)]
                raise UndefinedG2Error(
                    f"zero herald-{shifted} coincidences at delay {bad:g} ps")
            values += 0.5 * triples * n_h / (self.pair_totals[fixed] * n_pair_shift)
            triple_counts += triples
        errors = np.where(triple_counts > 0,
                          values / np.sqrt(np.maximum(triple_counts, 1)), np.inf)
        norm = self.pair_totals["t"] * self.pair_totals["r"] / n_h
        return G2Curve(delays, values, norm, errors)


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


def write_histogram_csv(path, hist: Histogram):
    lines = ["bin_left_ps,counts"]
    for left, c in zip(hist.bin_left_ps().tolist(), hist.counts.tolist()):
        lines.append(f"{int(left)},{c}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_histogram_csv(path) -> Histogram:
    rows = Path(path).read_text().strip().splitlines()[1:]
    lefts, counts = [], []
    for line, row in enumerate(rows, start=2):
        try:
            l, c = row.split(",")
            lefts.append(int(l))
            counts.append(float(c))
        except ValueError:
            raise ConfigurationError(
                f"{path}: line {line}: expected 'bin_left_ps,counts', got {row!r}") from None
    if not lefts:
        raise ConfigurationError(f"{path}: histogram has no bins")
    lefts = np.asarray(lefts)
    widths = np.diff(lefts)
    if len(widths) and not np.all(widths == widths[0]):
        raise ConfigurationError(f"{path}: non-uniform bins")
    bw = int(widths[0]) if len(widths) else 1
    counts = np.asarray(counts)
    bad = np.flatnonzero(~((counts >= 0) & (counts < np.inf)))  # nan compares false
    if len(bad):
        raise ConfigurationError(f"{path}: line {bad[0] + 2}: counts must be finite and "
                                 f">= 0, got {rows[bad[0]]!r}")
    if np.all(counts == np.round(counts)) and counts.max() < 2.0 ** 63:  # fits int64
        counts = counts.astype(np.int64)
    return Histogram(bw, int(lefts[0]), counts, n_starts=int(counts.sum()))


def write_g2_csv(path, curve: G2Curve):
    lines = ["delay_ps,g2,err"]
    err = curve.errors if curve.errors is not None else np.zeros(len(curve.g2_values))
    for d, g, e in zip(curve.delay_axis_ps, curve.g2_values, err):
        lines.append(f"{d:g},{g:.6g},{e:.6g}")
    Path(path).write_text("\n".join(lines) + "\n")
