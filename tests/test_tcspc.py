import hashlib
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epstreak import tcspc
from epstreak.errors import (ConfigurationError, DomainError, StreamOrderError,
                             UndefinedG2Error)
from epstreak.events import (CH_HBT_R, CH_HBT_T, CH_HERALD, CH_SIGNAL,
                             DetectorModel, RunConfig, simulate_channels)
from epstreak.tcspc import (Histogram, read_histogram_csv, rebin, start_stop_histogram,
                            tag_g2, write_g2_csv, write_histogram_csv)

from conftest import heralded_source
from reference import accidental_rate_hz, coincidence_rate

IDEAL = DetectorModel()


def _sorted_tags(values):
    return np.sort(np.asarray(values, dtype=np.int64))


LIMIT = 2**62  # checks.TAG_LIMIT_PS: every tag lies strictly between -LIMIT and LIMIT


def _offset(margin):
    """An offset that keeps tags within ``margin`` ps of 0 strictly inside the tag limits."""
    return st.one_of(st.just(0), st.sampled_from([-LIMIT + margin, LIMIT - margin]),
                     st.integers(-LIMIT + margin, LIMIT - margin))


def test_all_zero_delays_fill_bin_zero():
    starts = np.arange(0, 1_000_000, 1000, dtype=np.int64)
    hist = start_stop_histogram(starts, starts, bin_width_ps=4, window_ps=400)
    assert hist.counts[0] == len(starts)
    assert hist.counts[1:].sum() == 0


def test_exponential_log_slope(rng):
    tau_ps = 1000.0
    n = 1_000_000
    starts = np.sort(rng.integers(0, 10**12, n))
    delays = rng.exponential(tau_ps, n)
    stops = _sorted_tags(starts + delays)
    hist = start_stop_histogram(starts, stops, bin_width_ps=16, window_ps=8000)
    centers = hist.bin_centers_ps()
    mask = hist.counts > 50
    slope = np.polyfit(centers[mask], np.log(hist.counts[mask]), 1,
                       w=np.sqrt(hist.counts[mask]))[0]
    assert -1.0 / slope == pytest.approx(tau_ps, rel=0.01)


def test_count_conservation_across_bin_widths(rng):
    n = 20_000
    starts = np.sort(rng.integers(0, 10**10, n))
    stops = np.sort(starts + rng.integers(0, 4000, n))
    totals = {bw: start_stop_histogram(starts, stops, bw, 4800).counts.sum()
              for bw in (4, 16, 48)}
    assert len(set(totals.values())) == 1


def test_rebin_equals_direct_build(rng):
    n = 30_000
    starts = np.sort(rng.integers(0, 10**10, n))
    stops = np.sort(starts + rng.integers(0, 8000, n))
    fine = start_stop_histogram(starts, stops, 4, 8000)
    coarse = start_stop_histogram(starts, stops, 16, 8000)
    assert np.array_equal(rebin(fine, 4).counts, coarse.counts)


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=12, max_size=60),
       st.sampled_from([2, 3, 4]))
def test_rebin_preserves_counts(counts, factor):
    counts = counts[:len(counts) - len(counts) % factor]
    if not counts:
        return
    hist = Histogram(4, 0, np.asarray(counts, dtype=np.int64))
    assert rebin(hist, factor).counts.sum() == hist.counts.sum()


@pytest.mark.parametrize("factor", [0, -2, 1.5])
def test_rebin_refuses_a_factor_that_is_no_positive_integer(factor):
    with pytest.raises(ConfigurationError,
                       match=rf"^factor: must be a positive integer \(got {factor}\)$"):
        rebin(Histogram(4, 0, np.arange(8)), factor)


def test_first_stop_vs_all_stops(rng):
    # two stops per start: first-stop counts one, all-stops counts both
    starts = np.arange(0, 10**8, 100_000, dtype=np.int64)
    stops = np.sort(np.concatenate([starts + 100, starts + 200]))
    first = start_stop_histogram(starts, stops, 4, 400, mode="first")
    every = start_stop_histogram(starts, stops, 4, 400, mode="all")
    assert first.counts.sum() == len(starts)
    assert every.counts.sum() == 2 * len(starts)


def _histogram_reference(starts, stops, bin_width_ps, window_ps, t0_ps, mode):
    counts = np.zeros(window_ps // bin_width_ps, dtype=np.int64)
    for start in starts:
        dts = [stop - start for stop in stops if stop - start >= t0_ps]
        if mode == "first":
            dts = dts[:1]
        for dt in dts:
            if dt - t0_ps < window_ps:
                counts[(dt - t0_ps) // bin_width_ps] += 1
    return counts


@given(st.lists(st.integers(0, 400), max_size=30),
       st.lists(st.integers(0, 400), max_size=30),
       st.integers(1, 5), st.integers(1, 20), st.integers(-50, 50),
       st.sampled_from(["first", "all"]), st.integers(1, 25), st.integers(1, 10))
def test_histogram_matches_per_start_reference(starts, stops, bin_width_ps, n_bins, t0_ps,
                                               mode, lead_block, walk_passes):
    # starts split into blocks of every size from one start up; walks of one
    # or two passes leave most of mode="all"'s pairs to the searched tail
    window_ps = n_bins * bin_width_ps
    with mock.patch.multiple(tcspc, LEAD_BLOCK=lead_block, WALK_PASSES=walk_passes):
        hist = start_stop_histogram(_sorted_tags(starts), _sorted_tags(stops), bin_width_ps,
                                    window_ps, t0_ps, mode)
    expected = _histogram_reference(sorted(starts), sorted(stops), bin_width_ps,
                                    window_ps, t0_ps, mode)
    assert hist.counts.dtype == np.int64
    assert np.array_equal(hist.counts, expected)


_BAD_TAGS = "must be a 1-D array of integer tags"
_FAR_TAGS = "tags must lie strictly between -2^62 and 2^62 ps"


@pytest.mark.parametrize("options, error, message", [
    pytest.param({"bin_width_ps": 6, "window_ps": 50_000}, ConfigurationError,
                 "window_ps: must be a multiple of bin_width_ps", id="window-not-whole-bins"),
    pytest.param({"bin_width_ps": 0}, ConfigurationError,
                 "bin_width_ps: must be >= 1 (got 0)", id="bin-width-0"),
    pytest.param({"bin_width_ps": -4}, ConfigurationError,
                 "bin_width_ps: must be >= 1 (got -4)", id="bin-width-negative"),
    pytest.param({"window_ps": 0}, ConfigurationError,
                 "window_ps: must be >= 1 (got 0)", id="window-0"),
    pytest.param({"bin_width_ps": 1, "window_ps": 2**25}, ConfigurationError,
                 "window_ps: must hold at most 16777216 bins", id="too-many-bins"),
    pytest.param({"mode": "last"}, ConfigurationError,
                 "mode: must be one of first, all (got 'last')", id="unknown-mode"),
    pytest.param({"t0_ps": float("nan")}, ConfigurationError,
                 "t0_ps: must be finite (got nan)", id="t0-nan"),
    pytest.param({"bin_width_ps": 4.5, "window_ps": 9}, ConfigurationError,
                 "bin_width_ps: expected an integer (got 4.5)", id="bin-width-not-integer"),
    pytest.param({"t0_ps": 0.5}, ConfigurationError,
                 "t0_ps: expected an integer (got 0.5)", id="t0-not-integer"),
    pytest.param({"window_ps": 0, "mode": "last"}, ConfigurationError,
                 "window_ps: must be >= 1 (got 0); mode: must be one of first, all (got 'last')",
                 id="window-and-mode"),
    pytest.param({"starts": [0.0, 5.0]}, ConfigurationError,
                 f"starts: {_BAD_TAGS} (got 1-D float64)", id="float-starts"),
    pytest.param({"stops": np.array([[10, 20]])}, ConfigurationError,
                 f"stops: {_BAD_TAGS} (got 2-D int64)", id="2d-stops"),
    pytest.param({"stops": np.array([2**63], dtype=np.uint64)}, ConfigurationError,
                 f"stops: {_FAR_TAGS} (tag 0 is 9223372036854775808)", id="stops-beyond-int64"),
    pytest.param({"stops": [2**63 - 10]}, ConfigurationError,
                 f"stops: {_FAR_TAGS} (tag 0 is 9223372036854775798)", id="stops-near-int64"),
    pytest.param({"starts": [-2**62 + 1, -2**62]}, ConfigurationError,
                 f"starts: {_FAR_TAGS} (tag 1 is -4611686018427387904)", id="starts-at-limit"),
    pytest.param({"t0_ps": 2**63 - 1}, ConfigurationError,
                 "t0_ps: |t0_ps| + window_ps must be below 4611686018427387904 ps "
                 "(got 9223372036854825807)", id="t0-beyond-int64"),
    pytest.param({"t0_ps": -2**62 + 16, "window_ps": 16}, ConfigurationError,
                 "t0_ps: |t0_ps| + window_ps must be below 4611686018427387904 ps "
                 "(got 4611686018427387904)", id="reach-at-limit"),
    pytest.param({"starts": np.array([0, 50, 20, 30])}, StreamOrderError,
                 "starts: tags must be sorted (tag 2 is below the one before it)",
                 id="unsorted-starts"),
    pytest.param({"stops": np.array([40, 10])}, StreamOrderError,
                 "stops: tags must be sorted (tag 1 is below the one before it)",
                 id="unsorted-stops"),
])
def test_histogram_validation(options, error, message):
    options = {"starts": _sorted_tags([0]), "stops": _sorted_tags([10]), **options}
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        start_stop_histogram(**options)


@pytest.mark.parametrize("starts, stops, t0_ps, counted_bin", [
    ([2**62 - 10], [2**62 - 2], 4, 4),
    ([-2**62 + 5], [-2**62 + 8], -10, 13),
    # one block of starts spans 2^63 - 21 ps, so its stops are ranked by the fallback search
    ([-2**62 + 1, 2**62 - 20], [2**62 - 10], 0, 10),
])
def test_histogram_at_the_tag_limits(starts, stops, t0_ps, counted_bin):
    for mode in ("first", "all"):
        hist = start_stop_histogram(starts, stops, 1, 16, t0_ps, mode)
        assert hist.counts.tolist() == [int(i == counted_bin) for i in range(16)]


@pytest.mark.parametrize("args, message", [
    pytest.param((4.5, 0, np.arange(8)), "bin_width_ps: expected an integer (got 4.5)",
                 id="bin-width-fractional"),
    pytest.param((True, 0, np.arange(8)), "bin_width_ps: expected a number (got True)",
                 id="bin-width-bool"),
    pytest.param((4, 0.5, np.arange(8)), "t0_ps: expected an integer (got 0.5)",
                 id="t0-fractional"),
    pytest.param((4, False, np.arange(8)), "t0_ps: expected a number (got False)",
                 id="t0-bool"),
    pytest.param((4, 0, np.arange(8), 100), "flags: must be a list of strings (got 100)",
                 id="flags-int"),
    pytest.param((4, 0, np.arange(8), [1]), "flags: must be a list of strings (got [1])",
                 id="flags-not-strings"),
    pytest.param((4, 0, [np.nan, 1, 2]), "counts: must be finite and >= 0", id="counts-nan"),
    pytest.param((4, 0, np.array([1.0, np.inf])), "counts: must be finite and >= 0",
                 id="counts-inf"),
    pytest.param((4, 0, np.array([3, -1, 2])), "counts: must be finite and >= 0",
                 id="counts-negative"),
])
def test_histogram_refuses_bad_fields(args, message):
    with pytest.raises(DomainError, match=f"^Histogram: {re.escape(message)}$"):
        Histogram(*args)


def test_histogram_takes_numpy_integers():
    hist = Histogram(np.int64(4), np.int32(-8), np.arange(8), ["empty-stream"])
    assert np.array_equal(rebin(hist, 2).bin_left_ps(), [-8, 0, 8, 16])


def test_histogram_csv_roundtrip(tmp_path):
    hist = Histogram(4, -2000, np.arange(100, dtype=np.int64))
    path = tmp_path / "h.csv"
    write_histogram_csv(path, hist)
    back = read_histogram_csv(path)
    assert back.bin_width_ps == 4 and back.t0_ps == -2000
    assert np.array_equal(back.counts, hist.counts)


def test_histogram_csv_count_beyond_int64_stays_float(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("bin_left_ps,counts\n0,5\n4,1e30\n8,2\n")
    back = read_histogram_csv(path)
    assert back.counts.dtype == float
    assert back.counts.tolist() == [5.0, 1e30, 2.0]


def test_g2_perfect_heralded_single_photons(rng):
    # every herald has exactly one partner in exactly one arm, heralds spaced
    # far beyond the coincidence window: no triples at zero delay
    n = 200_000
    h = np.arange(n, dtype=np.int64) * 10**7
    arm = rng.random(n) < 0.5
    curve = tag_g2(h, h[arm], h[~arm], 1000, np.array([0.0]))
    assert curve.at_zero() == 0.0


def test_g2_independent_poisson_is_one(rng):
    dur_ps = 10**12
    heralds, t_tags, r_tags = (np.sort(rng.integers(0, dur_ps, n))
                               for n in (2_000_000, 1_000_000, 1_000_000))
    delays = np.arange(-100_000, 100_001, 10_000, dtype=float)
    curve = tag_g2(heralds, t_tags, r_tags, 20_000, delays)
    assert np.all(np.abs(curve.g2_values - 1.0) < 5 * curve.errors)
    assert curve.g2_values.mean() == pytest.approx(1.0, abs=0.05)


def test_g2_arm_relabel_invariance():
    src = heralded_source(pair_rate_hz=3e5)
    run = RunConfig(duration_s=2.0, seed=21, topology="hbt")
    tags = simulate_channels(src, None, IDEAL, IDEAL, None, run)
    delays = np.arange(-10_000, 10_001, 2000, dtype=float)
    a = tag_g2(tags[CH_HERALD], tags[CH_HBT_T], tags[CH_HBT_R], 1000, delays)
    b = tag_g2(tags[CH_HERALD], tags[CH_HBT_R], tags[CH_HBT_T], 1000, delays)
    assert np.allclose(a.g2_values, b.g2_values)


_BAD_AXIS = "delay_axis_ps: must be a list of 1 to 1048576 finite delays"


@pytest.mark.parametrize("window_ps, delays, tags, error, message", [
    pytest.param(0, [0.0], {}, ConfigurationError,
                 "coincidence_window_ps: must be >= 1 (got 0)", id="window-0"),
    pytest.param(0.5, [0.0], {}, ConfigurationError,
                 "coincidence_window_ps: must be >= 1 (got 0.5)", id="window-below-1"),
    pytest.param(float("nan"), [0.0], {}, ConfigurationError,
                 "coincidence_window_ps: must be finite (got nan)", id="window-nan"),
    pytest.param(1000.0, [0.0], {}, ConfigurationError,
                 "coincidence_window_ps: expected an integer (got 1000.0)",
                 id="window-whole-float"),
    pytest.param(1000, [], {}, ConfigurationError, _BAD_AXIS, id="empty-axis"),
    pytest.param(1000, [float("nan"), 0.0], {}, ConfigurationError, _BAD_AXIS, id="nan-delay"),
    pytest.param(1000, [float("inf")], {}, ConfigurationError, _BAD_AXIS, id="inf-delay"),
    pytest.param(1000, np.zeros(2**20 + 1), {}, ConfigurationError, _BAD_AXIS,
                 id="too-many-delays"),
    pytest.param(0, [], {}, ConfigurationError,
                 f"coincidence_window_ps: must be >= 1 (got 0); {_BAD_AXIS}",
                 id="window-and-axis"),
    pytest.param(1000, [0.0, 1e300], {}, ConfigurationError,
                 "delay_axis_ps: |delay| + coincidence_window_ps/2 must "
                 "be below 4611686018427387904 ps (got 1e+300)", id="delay-beyond-int64"),
    pytest.param(1000, [0.0], {"t_tags": [0.5, 1000.0]}, ConfigurationError,
                 f"t_tags: {_BAD_TAGS} (got 1-D float64)", id="float-t-tags"),
    pytest.param(1000, [0.0], {"heralds": np.zeros((2, 3), dtype=np.int64)}, ConfigurationError,
                 f"heralds: {_BAD_TAGS} (got 2-D int64)", id="2d-heralds"),
    pytest.param(1000, [0.0], {"heralds": np.array([0, 2000, 1000])}, StreamOrderError,
                 "heralds: tags must be sorted (tag 2 is below the one before it)",
                 id="unsorted-heralds"),
    pytest.param(1000, [0.0], {"r_tags": np.arange(10)[::-1]}, StreamOrderError,
                 "r_tags: tags must be sorted (tag 1 is below the one before it)",
                 id="unsorted-r-tags"),
])
def test_g2_validation(window_ps, delays, tags, error, message):
    h = np.arange(0, 10**6, 1000, dtype=np.int64)
    tags = {"heralds": h, "t_tags": h, "r_tags": h, **tags}
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        tag_g2(**tags, coincidence_window_ps=window_ps, delay_axis_ps=delays)


def test_g2_starved_pair_named():
    n = 1000
    h = np.arange(n, dtype=np.int64) * 10**6
    with pytest.raises(UndefinedG2Error, match="herald-r"):
        tag_g2(h, h[:1], h[:0], 1000, np.array([0.0]))


def _g2_reference(h, t, r, window_ps, delays):
    """Brute-force heralded g2: every herald-arm difference, every delay."""
    if len(h) == 0:
        raise UndefinedG2Error("no herald events")
    half = 0.5 * window_ps
    delays = np.asarray(delays, dtype=float)
    dts = {"t": t[None, :] - h[:, None], "r": r[None, :] - h[:, None]}
    central = {k: ((d >= -half) & (d <= half)).sum(axis=1) for k, d in dts.items()}
    totals = {k: int(c.sum()) for k, c in central.items()}
    for k in ("t", "r"):
        if totals[k] == 0:
            raise UndefinedG2Error(f"zero herald-{k} coincidences; normalization undefined")
    values = np.zeros(len(delays))
    triple_counts = np.zeros(len(delays))
    for fixed, shifted in (("t", "r"), ("r", "t")):
        n_pair = np.zeros(len(delays), dtype=np.int64)
        triples = np.zeros(len(delays))
        for k, delay in enumerate(delays):
            inside = (dts[shifted] >= delay - half) & (dts[shifted] <= delay + half)
            n_pair[k] = inside.sum()
            triples[k] = float((central[fixed] * inside.sum(axis=1)).sum())
        if np.any(n_pair == 0):
            bad = delays[np.argmax(n_pair == 0)]
            raise UndefinedG2Error(
                f"zero herald-{shifted} coincidences at delay {bad:g} ps")
        values += 0.5 * triples * len(h) / (totals[fixed] * n_pair)
        triple_counts += triples
    errors = np.where(triple_counts > 0,
                      values / np.sqrt(np.maximum(triple_counts, 1)), np.inf)
    return values, errors, totals["t"] * totals["r"] / len(h)


_tags = st.lists(st.integers(0, 1000), min_size=1, max_size=20)
_delay = st.one_of(st.integers(-800, 800).map(float),
                   st.integers(-1600, 1600).map(lambda x: x / 2),
                   st.floats(-800, 800, allow_nan=False))


@given(_tags, _tags, _tags, st.integers(1, 600),
       st.lists(_delay, min_size=1, max_size=8))
@settings(max_examples=200)
def test_g2_matches_brute_force(h, t, r, window_ps, delays):
    # delay axes here are unsorted, uneven, overlapping and non-integer;
    # odd windows put the window edges on half picoseconds
    tags = [_sorted_tags(v) for v in (h, t, r)]
    try:
        values, errors, norm = _g2_reference(*tags, window_ps, delays)
    except UndefinedG2Error as exc:
        with pytest.raises(UndefinedG2Error) as got:
            tag_g2(*tags, window_ps, delays)
        assert str(got.value) == str(exc)
        return
    curve = tag_g2(*tags, window_ps, delays)
    assert np.array_equal(curve.g2_values, values)
    assert np.array_equal(curve.errors, errors)
    assert curve.normalization == norm


@st.composite
def _g2_case(draw):
    """Herald, T and R tags (any possibly empty) with arm events on window edges.

    All tags share one offset, up to the tag limits.
    """
    h, t, r = (list(draw(st.one_of(st.just([]), _tags))) for _ in range(3))
    window_ps = draw(st.integers(1, 600))
    delays = draw(st.lists(_delay, min_size=1, max_size=8))
    if h:
        edges = [np.ceil(-0.5 * window_ps), np.floor(0.5 * window_ps)]
        for d in delays:
            edges += [np.ceil(d - 0.5 * window_ps), np.floor(d + 0.5 * window_ps)]
        offset = st.sampled_from(edges).flatmap(
            lambda e: st.sampled_from([int(e) - 1, int(e), int(e) + 1]))
        for arm in (t, r):
            arm += [x + draw(offset) for x in draw(st.lists(st.sampled_from(h), max_size=6))]
    limits = {"LEAD_BLOCK": draw(st.integers(1, 25)), "WALK_PASSES": draw(st.integers(1, 10)),
              "MAX_DELAY_TABLE": draw(st.sampled_from([0, tcspc.MAX_DELAY_TABLE]))}
    offset = draw(_offset(3000))
    h, t, r = ([x + offset for x in tags] for tags in (h, t, r))
    return h, t, r, window_ps, delays, limits


@given(_g2_case())
@settings(max_examples=300)
def test_tag_g2_matches_brute_force(case):
    # per-channel int64 tags, heralds split into blocks of every size from
    # one herald up, pair walks of every length from one pass up (one or two
    # leave most pairs to the searched tail), delay bins from the table or,
    # with a table cap of 0, from the search
    h, t, r, window_ps, delays, limits = case
    tags = [_sorted_tags(v) for v in (h, t, r)]
    try:
        values, errors, norm = _g2_reference(*tags, window_ps, delays)
    except UndefinedG2Error as exc:
        with pytest.raises(UndefinedG2Error) as got, mock.patch.multiple(tcspc, **limits):
            tag_g2(*tags, window_ps, delays)
        assert str(got.value) == str(exc)
        return
    with mock.patch.multiple(tcspc, **limits):
        curve = tag_g2(*tags, window_ps, delays)
    assert np.array_equal(curve.g2_values, values)
    assert np.array_equal(curve.errors, errors)
    assert curve.normalization == norm


def test_tag_g2_herald_burst_matches_brute_force():
    # 2000 heralds on one tag: every arm tag in their reach pairs with all of
    # them, far more than the walk's passes take
    h = _sorted_tags([5000] * 2000 + list(range(0, 20_000, 700)))
    t = _sorted_tags(list(range(100, 20_000, 450)) + [5000, 5300])
    r = _sorted_tags(list(range(250, 20_000, 530)) + [4800, 5000])
    delays = np.arange(-3000, 3001, 500, dtype=float)
    values, errors, norm = _g2_reference(h, t, r, 1000, delays)
    curve = tag_g2(h, t, r, 1000, delays)
    assert np.array_equal(curve.g2_values, values)
    assert np.array_equal(curve.errors, errors)
    assert curve.normalization == norm


@pytest.mark.parametrize("empty, message", [
    ("heralds", "no herald events"),
    ("t", "zero herald-t coincidences; normalization undefined"),
    ("r", "zero herald-r coincidences; normalization undefined"),
])
def test_tag_g2_empty_arm_named(empty, message):
    tags = {k: np.arange(0, 10**6, 1000, dtype=np.int64) for k in ("heralds", "t", "r")}
    tags[empty] = np.empty(0, dtype=np.int64)
    with pytest.raises(UndefinedG2Error, match=f"^{message}$"):
        tag_g2(tags["heralds"], tags["t"], tags["r"], 100, np.array([0.0]))


def test_g2_csv_bytes_pinned(tmp_path):
    # sha256 from the earlier float-tag implementation: the int64 pair
    # enumeration must reproduce its g2.csv byte for byte
    src = heralded_source(pair_rate_hz=1e6)
    run = RunConfig(duration_s=0.3, seed=11, topology="hbt")
    tags = simulate_channels(src, None, IDEAL, IDEAL, None, run)
    delays = np.arange(-50_000, 50_001, 2000, dtype=float)
    curve = tag_g2(tags[CH_HERALD], tags[CH_HBT_T], tags[CH_HBT_R], 1000, delays)
    path = tmp_path / "g2.csv"
    write_g2_csv(path, curve)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "fed0cbbf591c593b1437a415059c5dfd710dcc3054d39b15229e34c43a4dcefe")


def test_coincidence_rate_matches_source_budget():
    src = heralded_source()
    run = RunConfig(duration_s=1.0, seed=30, topology="irf")
    tags = simulate_channels(src, None, IDEAL, IDEAL, None, run)
    rate, err = coincidence_rate(tags[CH_HERALD], tags[CH_SIGNAL], 1000, run.duration_s)
    assert rate == pytest.approx(2e5, abs=3 * np.sqrt(2e5))
    assert err == pytest.approx(np.sqrt(rate), rel=0.05)


@given(st.lists(st.integers(0, 100), min_size=1, max_size=30),
       st.lists(st.integers(0, 100), min_size=1, max_size=30),
       st.integers(1, 40))
def test_coincidence_rate_matches_brute_force(a, b, window_ps):
    dt = np.subtract.outer(np.asarray(b), np.asarray(a))
    pairs = int((np.abs(dt) <= 0.5 * window_ps).sum())
    assert (coincidence_rate(_sorted_tags(a), _sorted_tags(b), window_ps, 2.0)
            == (pairs / 2.0, np.sqrt(pairs) / 2.0))


def test_coincidence_rate_empty_channel():
    tags = _sorted_tags([10, 20])
    assert coincidence_rate(tags, tags[:0], 1000, 1.0) == (0.0, 0.0)
    assert coincidence_rate(tags[:0], tags, 1000, 1.0) == (0.0, 0.0)


def test_accidental_rate_formula(rng):
    # dark-count-only streams: coincidences are purely accidental
    dur_s = 50.0
    r1 = r2 = 1e4
    dur_ps = int(dur_s * 1e12)
    a = np.sort(rng.integers(0, dur_ps, int(r1 * dur_s)))
    b = np.sort(rng.integers(0, dur_ps, int(r2 * dur_s)))
    window_ps = 10_000
    rate, err = coincidence_rate(a, b, window_ps, dur_s)
    expected = accidental_rate_hz(r1, r2, window_ps)
    assert abs(rate - expected) < 3 * max(err, 1e-3)


@st.composite
def _start_stop_case(draw):
    """Sorted int64 starts/stops with ties, empty arms and stops on the window edges.

    All tags share one offset, up to the tag limits.
    """
    bin_width_ps = draw(st.integers(1, 5))
    window_ps = draw(st.integers(1, 20)) * bin_width_ps
    t0_ps = draw(st.integers(-50, 50))
    starts = draw(st.lists(st.integers(0, 300), max_size=25))
    stops = draw(st.lists(st.integers(-100, 400), max_size=25))
    if starts:
        edge = st.sampled_from([t0_ps, t0_ps + window_ps, t0_ps - 1, t0_ps + window_ps - 1])
        stops += [s + draw(edge) for s in draw(st.lists(st.sampled_from(starts), max_size=10))]
    mode = draw(st.sampled_from(["first", "all"]))
    offset = draw(_offset(600))
    return (_sorted_tags([x + offset for x in starts]), _sorted_tags([x + offset for x in stops]),
            bin_width_ps, window_ps, t0_ps, mode)


@given(_start_stop_case())
@settings(max_examples=300)
def test_start_stop_histogram_matches_per_start_reference(case):
    starts, stops, bin_width_ps, window_ps, t0_ps, mode = case
    hist = start_stop_histogram(starts, stops, bin_width_ps, window_ps, t0_ps, mode)
    expected = _histogram_reference(starts.tolist(), stops.tolist(), bin_width_ps,
                                    window_ps, t0_ps, mode)
    assert hist.counts.dtype == np.int64
    assert np.array_equal(hist.counts, expected)
    assert hist.flags == ([] if len(starts) and len(stops) else ["empty-stream"])


@st.composite
def _rank_case(draw):
    """Sorted int64 tags and keys, each run near its own offset, and a shift."""
    def run():
        offset = draw(_offset(100))
        return _sorted_tags([offset + x for x in draw(st.lists(st.integers(-60, 60),
                                                                max_size=30))])
    a, keys = run(), run()
    # ties come from keys equal to a tag less the shift, and from duplicates in either run
    if len(a) and len(keys):
        near = st.integers(-2, 2).map(lambda d: int(a[len(a) // 2]) - int(keys[0]) + d)
        shift = draw(st.one_of(near, st.integers(-80, 80), st.integers(-LIMIT + 1, LIMIT - 1)))
    else:
        shift = draw(st.integers(-80, 80))
    return a, keys, shift


@given(_rank_case(), st.sampled_from(["left", "right"]))
@settings(max_examples=500)
def test_rank_matches_searchsorted(case, side):
    # the merge where the packed span stays below 2^62, the search where it does not
    a, keys, shift = case
    expected = np.searchsorted(a, keys + shift, side)
    span = None
    if len(a) and len(keys):
        span = (max(int(a[-1]), int(keys[-1]) + shift)
                - min(int(a[0]), int(keys[0]) + shift))
    with mock.patch.object(tcspc.np, "searchsorted", wraps=np.searchsorted) as search:
        got = tcspc._rank(a, keys, side, shift)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert search.called == (span is not None and span >= LIMIT)


@pytest.mark.parametrize("a, keys, shift, searched", [
    ([-LIMIT + 1], [LIMIT - 1], 0, True),  # a span of 2^63 - 2
    ([-LIMIT + 1, 0, 0, LIMIT - 1], [-5, 0, 0, 7], 0, True),
    ([0, 3, 3, 9], [LIMIT - 1], -LIMIT + 4, False),  # the shift brings the keys into the span
])
def test_rank_searches_only_spans_of_2_62_or_more(a, keys, shift, searched):
    a, keys = _sorted_tags(a), _sorted_tags(keys)
    for side in ("left", "right"):
        with mock.patch.object(tcspc.np, "searchsorted", wraps=np.searchsorted) as search:
            got = tcspc._rank(a, keys, side, shift)
        assert np.array_equal(got, np.searchsorted(a, keys + shift, side))
        assert search.called == searched
