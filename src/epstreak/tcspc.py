"""Start-stop histograms, coincidence counting and heralded g2 curves."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checks import TAG_LIMIT_PS, Checked, refuse, relation, rule, sorted_tags, violations
from .errors import ConfigurationError, DomainError, UndefinedG2Error
from .spdc import density_fwhm
from .units import FWHM_PER_SIGMA

LEAD_BLOCK = 1 << 16  # lead tags per _Reach._count call: 512 kB of tags
WALK_PASSES = 8  # passes of _pairs' walk; the pairs left after them are searched
MAX_DELAY_TABLE = 1 << 20  # int32 entries (4 MB) of G2Counter's delay-bin table

# Caps on the arrays the options size, checked before any is allocated.
MAX_HISTOGRAM_BINS = 2**24
MAX_G2_DELAYS = 2**20


@dataclass(frozen=True)
class HistogramOptions(Checked):
    bin_width_ps: int = rule(4, lo=1)
    window_ps: int = rule(50_000, lo=1)  # 5x the longest lifetime of interest plus IRF tails
    t0_ps: int = -5_000
    mode: str = rule("first", choices=("first", "all"))

    @relation("window_ps", "bin_width_ps")
    def _window_whole_bins(window_ps, bin_width_ps):
        return "must be a multiple of bin_width_ps" if window_ps % bin_width_ps else None

    @relation("window_ps", "bin_width_ps")
    def _bins_bounded(window_ps, bin_width_ps):
        n = window_ps // bin_width_ps
        return (f"must hold at most {MAX_HISTOGRAM_BINS} bins of bin_width_ps (got {n})"
                if n > MAX_HISTOGRAM_BINS else None)

    @relation("t0_ps", "window_ps")
    def _reach_bounded(t0_ps, window_ps):
        reach = abs(t0_ps) + window_ps
        return (f"|t0_ps| + window_ps must be below {TAG_LIMIT_PS} ps (got {reach})"
                if reach >= TAG_LIMIT_PS else None)


@dataclass(frozen=True)
class G2Options(Checked):
    coincidence_window_ps: int = rule(1000, lo=1)
    delay_min_ps: int = -50_000
    delay_max_ps: int = 50_000
    delay_step_ps: int = rule(1000, lo=1)

    @relation("delay_min_ps", "delay_max_ps")
    def _delays_ordered(delay_min_ps, delay_max_ps):
        return "must not exceed delay_max_ps" if delay_min_ps > delay_max_ps else None

    @relation("delay_step_ps", "delay_min_ps", "delay_max_ps")
    def _delays_bounded(delay_step_ps, delay_min_ps, delay_max_ps):
        n = (delay_max_ps - delay_min_ps) // delay_step_ps + 1
        return (f"must give at most {MAX_G2_DELAYS} delays from delay_min_ps to "
                f"delay_max_ps (got {n})" if n > MAX_G2_DELAYS else None)

    def delay_axis_ps(self):
        return np.arange(self.delay_min_ps, self.delay_max_ps + 1, self.delay_step_ps,
                         dtype=float)


@dataclass
class Histogram(Checked):
    """Counts of bins bin_width_ps wide from t0_ps; a bad field raises a DomainError naming it."""

    bin_width_ps: int = rule(lo=1)
    t0_ps: int
    counts: np.ndarray  # int64 (or float for derived data)
    flags: list = field(default_factory=list)

    @relation("counts")
    def _has_bins(counts):
        return "must hold at least one bin" if len(counts) == 0 else None

    @relation("counts")
    def _counts_finite(counts):
        ok = np.all((np.asarray(counts) >= 0) & (np.asarray(counts) < np.inf))  # nan fails
        return None if ok else "must be finite and >= 0"

    @relation("flags")
    def _flags_are_strings(flags):
        return (None if isinstance(flags, list) and all(isinstance(f, str) for f in flags)
                else f"must be a list of strings (got {flags!r})")

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


def start_stop_histogram(starts, stops, bin_width_ps=HistogramOptions.bin_width_ps,
                         window_ps=HistogramOptions.window_ps, t0_ps=0,
                         mode=HistogramOptions.mode) -> Histogram:
    """Start-stop delay histogram of two sorted integer timestamp arrays.

    For each start event the first stop with t0 <= dt < t0 + window
    contributes one count to bin floor((dt - t0)/bin_width); this first-stop
    behavior matches classic TCSPC hardware. ``mode="all"`` counts every stop
    in the window instead (pile-up diagnostics). StartStopCounter fed the
    whole arrays at once, checked by ``sorted_tags``.
    """
    counter = StartStopCounter(bin_width_ps, window_ps, t0_ps, mode)
    counter.feed(*sorted_tags(starts=starts, stops=stops))
    return counter.histogram()


_NO_TAGS = np.empty(0, dtype=np.int64)


def _join(held, fresh):
    if len(held) == 0 or len(fresh) == 0:
        return fresh if len(held) == 0 else held
    return np.concatenate((held, fresh))


class _Reach:
    """Counts over sorted int64 tags fed in time order: lead tags against the follower tags.

    A lead tag x reaches the follower tags in [x + reach_lo, x + reach_hi].
    Lead tags are counted once every follower tag they reach has been fed:
    when x + reach_hi < ``horizon``, below which no tag fed later falls
    (None: none follows, so the last call counts everything). ``_count``
    counts one block of at most LEAD_BLOCK lead tags against the slice of
    each follower that the block reaches, so memory is bounded by one
    block's pairs and each merge of the block with a slice (_rank) stays in
    cache. Lead tags are counted in
    disjoint blocks, and follower tags that no lead tag held or still to
    come can reach are dropped, so memory is also bounded by the tags fed
    between horizons. Every count is an integer, so no result depends on
    how the lead tags are cut.
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
        for b0 in range(0, n, LEAD_BLOCK):
            block = self._lead[b0:min(b0 + LEAD_BLOCK, n)]
            self._count(block, *(f[np.searchsorted(f, block[0] + self.reach_lo, side="left"):
                                   np.searchsorted(f, block[-1] + self.reach_hi, side="right")]
                                 for f in self._followers))
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

    def __init__(self, bin_width_ps=HistogramOptions.bin_width_ps,
                 window_ps=HistogramOptions.window_ps, t0_ps=0, mode=HistogramOptions.mode):
        refuse(violations(HistogramOptions, {"bin_width_ps": bin_width_ps,
                                             "window_ps": window_ps, "t0_ps": t0_ps,
                                             "mode": mode}))
        super().__init__(t0_ps, t0_ps + window_ps - 1, 1)
        self.bin_width_ps, self.window_ps, self.t0_ps, self.mode = (
            bin_width_ps, window_ps, t0_ps, mode)
        self.counts = np.zeros(window_ps // bin_width_ps, dtype=np.int64)

    def _count(self, starts, stops):
        if len(stops):
            self.counts += np.bincount(self._bins(starts, stops), minlength=len(self.counts))

    def _bins(self, starts, stops):
        """Bin index of every count the starts make against the stops."""
        t0_ps, bin_width_ps = self.t0_ps, self.bin_width_ps
        if self.mode == "first":
            idx = _rank(stops, starts, "left", t0_ps)  # the first stop at or after start + t0
            dt = stops.take(idx, mode="clip")
            dt -= starts
            dt -= t0_ps  # dt - t0 of that stop, below 0 where there is none (idx clipped)
            # as uint64 a value below 0 is at least 2^63, so one compare keeps 0 <= dt - t0 < window
            return np.compress(dt.view(np.uint64) < self.window_ps, dt) // bin_width_ps
        _, dt = _pairs(starts, stops, self.reach_lo, self.reach_hi)
        return (dt - t0_ps) // bin_width_ps

    def histogram(self) -> Histogram:
        n_starts, n_stops = self.fed
        flags = [] if n_starts and n_stops else ["empty-stream"]
        return Histogram(self.bin_width_ps, self.t0_ps, self.counts, flags)


def _pairs(lead, follower, lo, hi):
    """(lead index, dt = follower - lead) of every pair of sorted int64 tags with lo <= dt <= hi.

    Each follower tag finds its first lead tag in reach by one merge (_rank). Pass
    s of a walk then pairs every follower tag still in reach with the s-th
    lead tag after that one, and a follower tag leaves the walk at its first
    lead tag beyond reach, so the common case of a few pairs per follower
    costs one merge and a few passes. A burst of lead tags would cost one
    pass per lead tag, so after WALK_PASSES passes the follower tags still
    in reach find the end of their span by a second merge and take the rest
    of it at once.
    """
    n = len(lead)
    idx = _rank(lead, follower, "left", -hi)  # lead[idx] >= follower - hi
    leads, dts = [], []
    for _ in range(WALK_PASSES):
        dt = follower - lead.take(idx, mode="clip")
        keep = (dt >= lo) & (idx < n)
        idx, follower, dt = idx[keep], follower[keep], dt[keep]
        leads.append(idx)
        dts.append(dt)
        if len(idx) == 0:
            break
        idx = idx + 1
    else:
        end = _rank(lead, follower, "right", -lo)
        span = _span_indices(idx, end)
        leads.append(span)
        dts.append(np.repeat(follower, end - idx) - lead[span])
    return np.concatenate(leads), np.concatenate(dts)


def _rank(a, keys, side, shift=0):
    """np.searchsorted(a, keys + shift, side) of sorted int64 a and keys, by one merge.

    Both runs are packed into one buffer as 2 (x - origin), with each key
    moved one half step to the side of a tag it ties with (-1 for "left",
    +1 for "right"), so the keys are the odd entries. A stable sort merges
    the two sorted runs in linear time, and a key's rank is its position in
    the merge minus its index among the keys. A span of 2^62 or more, which
    the packing would overflow, is searched instead.
    """
    if len(a) == 0 or len(keys) == 0:
        return np.zeros(len(keys), dtype=np.intp)
    shift = int(shift)
    origin = min(int(a[0]), int(keys[0]) + shift)
    if max(int(a[-1]), int(keys[-1]) + shift) - origin >= 2**62:
        return np.searchsorted(a, keys + shift, side)
    tie = 1 if side == "right" else -1
    merged = np.empty(len(a) + len(keys), dtype=np.int64)
    for out, run, offset in ((merged[:len(a)], a, -2 * origin),
                             (merged[len(a):], keys, 2 * (shift - origin) + tie)):
        # 2 run + offset in int64 arithmetic, which wraps: exact, as the result lies in
        # [-1, 2^63), whatever 2 run and the offset wrap to on the way
        np.left_shift(run, 1, out=out)
        out += (offset + 2**63) % 2**64 - 2**63
    merged.sort(kind="stable")
    rank = np.flatnonzero(np.bitwise_and(merged, 1, out=merged).astype(bool))
    rank -= np.arange(len(keys))
    return rank


def _span_indices(i0, i1):
    """Concatenated arange(i0[k], i1[k]) without a Python loop."""
    reps = i1 - i0
    total = int(reps.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    return np.repeat(i0 - (np.cumsum(reps) - reps), reps) + np.arange(total)


def rebin(hist: Histogram, factor: int) -> Histogram:
    """Merge groups of ``factor`` adjacent bins; count-preserving."""
    if isinstance(factor, bool) or not isinstance(factor, numbers.Integral) or factor < 1:
        raise ConfigurationError(f"factor: must be a positive integer (got {factor!r})")
    if len(hist.counts) % factor != 0:
        raise ConfigurationError("bin count not divisible by rebin factor")
    counts = hist.counts.reshape(-1, factor).sum(axis=1)
    return Histogram(hist.bin_width_ps * factor, hist.t0_ps, counts, list(hist.flags))


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


def tag_g2(heralds, t_tags, r_tags, coincidence_window_ps, delay_axis_ps) -> G2Curve:
    """Heralded HBT correlation g2(delta) of sorted integer herald, T and R tags.

    The normalization is accidental-based: g2(delta) = N_htr(delta) * N_h /
    (N_ht * N_hr(delta)) per delay bin, where the delta-shifted window is
    applied to one HBT arm while the other stays herald-centered; the two
    arm orientations are averaged so the estimate is invariant under
    relabeling the arms.

    Windows are inclusive and exact on the int64 tags: a pair with
    dt = arm - herald is central when ceil(-w/2) <= dt <= floor(w/2) and lies
    in the window of delay d when ceil(d - w/2) <= dt <= floor(d + w/2). Each
    arm's (herald, dt) pairs inside the union of all windows are enumerated
    once, from the arm side (_pairs: one merge of the sorted arm and herald
    tags gives every arm tag its first herald in reach); the central counts
    per herald and every delay bin's pair and triple counts are then
    bincounts over those pairs, so delay windows may be unsorted, uneven or
    overlapping. A pair's bin
    among the sorted window edges is read from a table over every integer dt
    of that union, or searched when the union spans MAX_DELAY_TABLE ps or
    more. G2Counter fed the whole arrays at once, checked by ``sorted_tags``.
    """
    counter = G2Counter(coincidence_window_ps, delay_axis_ps)
    counter.feed(*sorted_tags(heralds=heralds, t_tags=t_tags, r_tags=r_tags))
    return counter.curve()


class G2Counter(_Reach):
    """tag_g2's integer counts over herald, T and R tags fed in time order (see _Reach).

    The delay axis must hold 1 to MAX_G2_DELAYS finite delays, each with
    |delay| + coincidence_window_ps/2 below TAG_LIMIT_PS.
    """

    def __init__(self, coincidence_window_ps, delay_axis_ps):
        found = violations(G2Options, {"coincidence_window_ps": coincidence_window_ps})
        delays = np.asarray(delay_axis_ps, dtype=float)
        if not (delays.ndim == 1 and 0 < len(delays) <= MAX_G2_DELAYS
                and np.isfinite(delays).all()):
            found.append(f"delay_axis_ps: must be a list of 1 to {MAX_G2_DELAYS} finite delays")
        elif not found:
            reach = np.abs(delays).max() + 0.5 * coincidence_window_ps
            if reach >= TAG_LIMIT_PS:
                found.append(f"delay_axis_ps: |delay| + coincidence_window_ps/2 must be below "
                             f"{TAG_LIMIT_PS} ps (got {reach:g})")
        refuse(found)
        self.delay_axis_ps = delays
        self.central = _integer_window(0.0, coincidence_window_ps)
        lo, hi = _integer_window(delays, coincidence_window_ps)
        super().__init__(min(self.central[0], lo.min()), max(self.central[1], hi.max()), 2)
        # delay window k covers the bins k0[k] .. k1[k] - 1 of the sorted edges
        self.edges = np.unique(np.concatenate((lo, hi + 1)))
        self.k0, self.k1 = np.searchsorted(self.edges, lo), np.searchsorted(self.edges, hi + 1)
        n_bins = len(self.edges) + 1
        # the edge bin of every integer dt in the reach, unless that table is too large
        self.delay_table = None
        if int(self.reach_hi) - int(self.reach_lo) < MAX_DELAY_TABLE:
            reach = np.arange(self.reach_lo, self.reach_hi + 1)
            self.delay_table = np.searchsorted(self.edges, reach, side="right").astype(np.int32)
        self.pair_totals = {"t": 0, "r": 0}
        self.n_pair_bins = {k: np.zeros(n_bins, dtype=np.int64) for k in ("t", "r")}
        self.triple_bins = {k: np.zeros(n_bins) for k in ("t", "r")}

    def _count(self, heralds, t_tags, r_tags):
        c_lo, c_hi = self.central
        pairs, central = {}, {}
        for k, arm in (("t", t_tags), ("r", r_tags)):
            idx, dt = _pairs(heralds, arm, self.reach_lo, self.reach_hi)
            pairs[k] = (idx, dt)
            central[k] = np.bincount(idx[(dt >= c_lo) & (dt <= c_hi)], minlength=len(heralds))
            self.pair_totals[k] += int(central[k].sum())
        n_bins = len(self.edges) + 1
        for fixed, shifted in (("t", "r"), ("r", "t")):
            idx, dt = pairs[shifted]
            j = self._delay_bins(dt)
            self.n_pair_bins[shifted] += np.bincount(j, minlength=n_bins)
            # integer weights keep the float sums exact, whatever the pair order
            self.triple_bins[shifted] += np.bincount(j, weights=central[fixed][idx],
                                                     minlength=n_bins)

    def _delay_bins(self, dt):
        """Bin j, with edges[j - 1] <= dt < edges[j], of every dt in the reach."""
        if self.delay_table is None:
            return np.searchsorted(self.edges, dt, side="right")
        return self.delay_table.take(dt - self.reach_lo)

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


HISTOGRAM_CSV_HEADER = "bin_left_ps,counts"


def write_histogram_csv(path, hist: Histogram):
    lines = [HISTOGRAM_CSV_HEADER]
    for left, c in zip(hist.bin_left_ps().tolist(), hist.counts.tolist()):
        lines.append(f"{int(left)},{c}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_histogram_csv(path) -> Histogram:
    """The histogram of a CSV file written by ``write_histogram_csv``.

    An unreadable file, a first line other than HISTOGRAM_CSV_HEADER and a
    malformed row raise ConfigurationError naming the file (and the line).
    """
    try:
        head, *rows = Path(path).read_text(encoding="utf-8").strip().splitlines() or [""]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read histogram file {path}: "
                                 f"{getattr(exc, 'strerror', None) or exc}") from None
    if head.strip() != HISTOGRAM_CSV_HEADER:
        raise ConfigurationError(
            f"{path}: line 1: expected the header {HISTOGRAM_CSV_HEADER!r}, got {head!r}")
    lefts, counts = [], []
    for line, row in enumerate(rows, start=2):
        try:
            l, c = row.split(",")
            lefts.append(int(l))
            counts.append(float(c))
        except ValueError:
            raise ConfigurationError(
                f"{path}: line {line}: expected {HISTOGRAM_CSV_HEADER!r}, got {row!r}") from None
    if not lefts:
        raise ConfigurationError(f"{path}: histogram has no bins")
    lefts = np.asarray(lefts)
    widths = np.diff(lefts)
    bad = np.flatnonzero(widths <= 0)
    if len(bad):
        raise ConfigurationError(f"{path}: line {bad[0] + 3}: bin_left_ps must rise from row "
                                 f"to row, got {rows[bad[0] + 1]!r}")
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
    return Histogram(bw, int(lefts[0]), counts)


def write_g2_csv(path, curve: G2Curve):
    lines = ["delay_ps,g2,err"]
    err = curve.errors if curve.errors is not None else np.zeros(len(curve.g2_values))
    for d, g, e in zip(curve.delay_axis_ps, curve.g2_values, err):
        lines.append(f"{d:g},{g:.6g},{e:.6g}")
    Path(path).write_text("\n".join(lines) + "\n")
