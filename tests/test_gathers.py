"""The streamed detector chain's gathers against their boolean-mask forms.

``np.compress``, the skipped gather and uniforms at acceptance 1, the TWINS
transmission evaluated only below its bound and decided by its float32
estimate where it can be, the HBT arms split a block at a time and the
stable merge must give the elements, the order and the generator state that
``t[keep]`` with every transmission evaluated, ``t[mask]`` and ``t[~mask]``,
``t_ps[channel == ch]``, ``dt[ok]`` and the (time, channel) lexsort give,
bit for bit, so no event file, histogram or digest moves.
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from epstreak import eventfile, events
from epstreak.eventfile import _merge_channels, open_event_file
from epstreak.errors import DomainError
from epstreak.events import BLOCK, DetectorModel, _detector_draws, _split, _Transmission
from epstreak.tcspc import StartStopCounter
from epstreak.twins import (TwinsSpec, transmission, transmission_bound,
                            transmission_estimate)
from epstreak.units import C_NM_PER_FS

SPAN_PS = 1.0e12  # one second: dark rates of tens of hertz add a few darks


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def _arrivals(draw):
    """Sorted arrival times and an acceptance: scalar 1, a scalar below 1 or an array."""
    n = draw(st.sampled_from([0, 1, 7, 200]))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    t = np.sort(gen.random(n) * SPAN_PS)
    if draw(st.booleans()):  # repeated times
        t = np.floor(t / 1.0e11) * 1.0e11
    kind = draw(st.sampled_from(["one", "scalar", "array"]))
    if kind == "one":
        return t, 1.0
    if kind == "scalar":
        return t, draw(st.sampled_from([0.0, 0.35, 0.999]))
    share = draw(st.sampled_from(["none", "all", "random"]))
    accept = {"none": np.zeros(n), "all": np.ones(n), "random": gen.random(n)}[share]
    return t, accept


_DETECTORS = st.builds(DetectorModel,
                       efficiency=st.sampled_from([0.0, 0.35, 1.0]),
                       jitter_fwhm_ps=st.sampled_from([0.0, 184.0]),
                       dead_time_ns=st.just(0.0),
                       dark_rate_hz=st.sampled_from([0.0, 5.0]))


def _assert_draws_match(arrivals, det, rng, ref_rng):
    t, accept = arrivals
    before = t.copy()
    got = _detector_draws((t, accept), det, rng, 0.0, SPAN_PS)
    want = reference.detector_draws((t.copy(), accept), det, ref_rng, 0.0, SPAN_PS)
    _same(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    _same(t, before)


@given(_arrivals(), _DETECTORS, st.integers(0, 2**32 - 1))
@settings(max_examples=300)
def test_detector_draws_match_boolean_gather(arrivals, det, seed):
    """Same times and the same generator state after; the caller's arrivals are left as they were."""
    _assert_draws_match(arrivals, det, np.random.default_rng(seed), np.random.default_rng(seed))


@given(_arrivals(), _DETECTORS, st.integers(0, 2**32 - 1), st.integers(1, 9))
@settings(max_examples=200)
def test_detector_draws_match_boolean_gather_across_blocks(arrivals, det, seed, block):
    """Uniforms, gathers and normals a few entries a block: the same times and generator state."""
    with mock.patch.object(events, "BLOCK", block):
        _assert_draws_match(arrivals, det, np.random.default_rng(seed),
                            np.random.default_rng(seed))


class _FixedDarks:
    """A generator whose Poisson draws (made, then dropped) all give ``n``."""

    def __init__(self, seed, n):
        self._rng, self._n = np.random.default_rng(seed), n

    def poisson(self, lam):
        self._rng.poisson(lam)
        return self._n

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("n_dark", [1, 38, 39, 1000])  # the room at 5 darks is 38
@pytest.mark.parametrize("efficiency, jitter", [(1.0, 0.0), (1.0, 184.0), (0.35, 0.0),
                                                (0.35, 184.0)])
def test_darks_beyond_their_room_are_appended(n_dark, efficiency, jitter):
    """Darks that fill or overflow the room left after the survivors give the concatenation too."""
    det = DetectorModel(efficiency=efficiency, jitter_fwhm_ps=jitter, dark_rate_hz=5.0)
    t = np.sort(np.random.default_rng(n_dark).random(300) * SPAN_PS)
    _assert_draws_match((t, 1.0), det, _FixedDarks(7, n_dark), _FixedDarks(7, n_dark))


@pytest.mark.parametrize("n", [0, 1, 7, 1_000_003])
def test_acceptance_one_leaves_the_channel_rng_as_drawing_does(n):
    """Advancing past the unused uniforms leaves the state, and every later draw, as drawing them."""
    t = np.arange(n, dtype=float)
    rng, ref_rng = events._rng(7, 1, 0), events._rng(7, 1, 0)
    _same(_detector_draws((t, 1.0), DetectorModel(), rng, 0.0, SPAN_PS),
          reference.detector_draws((t, 1.0), DetectorModel(), ref_rng, 0.0, SPAN_PS))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    for draw in (lambda g: g.random(3), lambda g: g.normal(0.0, 1.0, 3),
                 lambda g: g.poisson(4.0, 3), lambda g: g.exponential(1.0, 3)):
        _same(draw(rng), draw(ref_rng))


def test_irf_channels_share_their_arrivals():
    """Both irf channels draw from one birth array; neither draw sorts it in place."""
    birth = np.sort(np.random.default_rng(0).random(1000) * SPAN_PS)
    before = birth.copy()
    ideal_with_darks = DetectorModel(dark_rate_hz=50.0)
    for det in (DetectorModel(), ideal_with_darks, events.DETECTOR_PRESETS["mpd"]):
        rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
        for _ in range(2):
            _same(_detector_draws((birth, 1.0), det, rng, 0.0, SPAN_PS),
                  reference.detector_draws((birth.copy(), 1.0), det, ref_rng, 0.0, SPAN_PS))
        _same(birth, before)


@st.composite
def _twins_arrivals(draw):
    """Sorted arrival times, their wavelengths, a spec and a wedge position in its range.

    Odd lengths reach the ends of vectorized loops. At x_zero_um every
    transmission equals the bound.
    """
    n = draw(st.sampled_from([0, 1, 7, 13, 200]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.sort(gen.random(n) * SPAN_PS)
    lam = 700.0 + 300.0 * gen.random(n)
    spec = TwinsSpec(visibility=draw(st.sampled_from([0.0, 0.9, 1.0])),
                     insertion_loss=draw(st.sampled_from([1e-12, 0.5, 1.0])))
    position = draw(st.one_of(st.just(spec.x_zero_um),
                              st.floats(spec.position_min_um, spec.position_max_um)))
    return t, lam, spec, position


@given(_twins_arrivals(), _DETECTORS, st.integers(0, 2**32 - 1))
@settings(max_examples=300)
def test_deferred_transmission_matches_every_transmission(arrivals, det, seed):
    """Same kept times in the same order and the same generator state as transmission(lam)
    for every arrival; it is evaluated once at most, for the uniforms below bound *
    efficiency that the float32 estimate leaves undecided."""
    t, lam, spec, position = arrivals
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    evaluated = []

    def counted(lam_nm, *args):
        evaluated.append(len(lam_nm))
        return transmission(lam_nm, *args)

    with mock.patch.object(events, "transmission", counted):
        got = _detector_draws((t, _Transmission(lam, position, spec)), det, rng, 0.0, SPAN_PS)
    every = transmission(lam, position, spec)
    want = reference.detector_draws((t.copy(), every), det, ref_rng, 0.0, SPAN_PS)
    _same(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    u = np.random.default_rng(seed).random(len(t))
    below = np.flatnonzero(u < transmission_bound(spec) * det.efficiency)
    _, undecided = _Transmission(lam, position, spec).decided(u[below], below, det.efficiency)
    assert evaluated == ([len(undecided)] if len(undecided) else [])
    # the bound holds for every computed transmission, and is reached at zero delay
    assert np.all(every <= transmission_bound(spec))
    if position == spec.x_zero_um:
        assert np.all(every == transmission_bound(spec))


@pytest.mark.parametrize("n, efficiency", [(0, 1.0), (7, 0.0)],
                         ids=["no-arrivals", "efficiency-0"])
def test_deferred_transmission_refuses_a_position_outside_the_scan(n, efficiency):
    """No arrival is a candidate, and the position is still checked."""
    spec = TwinsSpec()
    accept = _Transmission(np.full(n, 850.0), spec.position_max_um + 1.0, spec)
    with pytest.raises(DomainError, match="outside scan range"):
        _detector_draws((np.arange(n, dtype=float), accept), DetectorModel(efficiency=efficiency),
                        np.random.default_rng(0), 0.0, SPAN_PS)


@st.composite
def _band_cases(draw):
    """Wavelengths, a spec, a position, an efficiency and uniforms at and next to the answer.

    The wavelengths give the phases of real spectra, large phases, phases
    beyond float32 and non-finite phases. Each uniform is drawn at the
    exact u < transmission * efficiency threshold, one float step either
    side of it, or anywhere in [0, 1).
    """
    n = draw(st.sampled_from([1, 7, 200]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["spectrum", "short", "tiny", "non-finite"]))
    lam = {"spectrum": 700.0 + 300.0 * gen.random(n),
           "short": 5.0 + 45.0 * gen.random(n),  # |phase| up to 6e4
           "tiny": 10.0 ** gen.uniform(-45.0, -1.0, n),  # up to beyond float32
           "non-finite": gen.choice([0.0, -0.0, np.inf, np.nan, 850.0, -850.0], n)}[kind]
    spec = TwinsSpec(visibility=draw(st.sampled_from([0.0, 0.9, 1.0])),
                     insertion_loss=draw(st.sampled_from([1e-12, 0.5, 1.0])))
    position = draw(st.one_of(st.sampled_from([spec.x_zero_um, spec.position_min_um,
                                               spec.position_max_um]),
                              st.floats(spec.position_min_um, spec.position_max_um)))
    efficiency = draw(st.sampled_from([0.0, 0.35, 1.0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = transmission(lam, position, spec) * efficiency
    u = np.choose(gen.integers(0, 4, n), [exact, np.nextafter(exact, -np.inf),
                                          np.nextafter(exact, np.inf), gen.random(n)])
    return lam, spec, position, efficiency, u, exact


@given(_band_cases())
@settings(max_examples=300)
def test_transmission_band_decides_as_the_exact_transmission(case):
    """Every arrival the float32 estimate decides is decided as u < transmission * efficiency,
    and so is every arrival once the undecided ones get the exact transmission."""
    lam, spec, position, efficiency, u, exact = case
    want = u < exact
    idx = np.arange(len(lam))
    accept = _Transmission(lam, position, spec)
    with np.errstate(divide="ignore", invalid="ignore"):
        keep, undecided = accept.decided(u, idx, efficiency)
        decided = np.ones(len(lam), dtype=bool)
        decided[undecided] = False
        _same(keep[decided], want[decided])
        _same(accept.keeps(u, idx, efficiency), want)
        # a nan estimate or band leaves its arrival undecided
        estimate, band = transmission_estimate(lam, position, spec)
    if not np.isfinite(band):
        assert not decided.any()
    assert not decided[np.isnan(estimate)].any()


def test_transmission_estimate_within_its_error_bound_at_each_phase():
    """|transmission - estimate| <= 2^-24 (s (|phase| + 2) + 8) arrival by arrival, the bound
    the band is 2^8 times, at phases from 0.5 to 4e6 and every visibility and loss edge."""
    gen = np.random.default_rng(0)
    lam = 10.0 ** gen.uniform(-1.0, 5.0, 200_000)
    for visibility in (0.0, 0.9, 1.0):
        for loss in (1e-12, 0.3, 0.5, 1.0):
            spec = TwinsSpec(visibility=visibility, insertion_loss=loss)
            position = spec.position_min_um
            phase = np.abs(2.0 * np.pi * C_NM_PER_FS * (position - spec.x_zero_um) / lam)
            scale = visibility * loss * 0.5
            estimate, band = transmission_estimate(lam, position, spec)
            bound = 2.0**-24 * (scale * (phase + 2.0) + 8.0)
            assert band == pytest.approx(2.0**8 * bound.max(), rel=1e-6)
            assert np.all(np.abs(transmission(lam, position, spec) - estimate) <= bound)


@pytest.mark.parametrize("size", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                                  3 * BLOCK + 7])
@pytest.mark.parametrize("share", ["all", "none", "random"])
@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_arm_split_matches_boolean_gather(size, share, dtype):
    """The HBT arms, split a block at a time: t[mask] and t[~mask], same bytes and dtype."""
    gen = np.random.default_rng(size)
    t = np.sort(gen.random(size) * SPAN_PS).astype(dtype)
    mask = {"all": np.ones(size, bool), "none": np.zeros(size, bool),
            "random": gen.random(size) < 0.5}[share]
    for got, want in zip(_split(t, mask), reference.split_arms(t, mask), strict=True):
        _same(got, want)


@st.composite
def _channel_tags(draw):
    """2 or 3 sorted int64 tag arrays over a few picoseconds: ties across and within channels."""
    n_channels = draw(st.sampled_from([2, 3]))
    return [np.array(sorted(draw(st.lists(st.integers(0, 12), max_size=30))), dtype=np.int64)
            for _ in range(n_channels)]


@given(_channel_tags())
@settings(max_examples=300)
def test_merge_matches_lexsort(tags):
    got, want = _merge_channels(tags), reference.merge_channels(tags)
    for g, w in zip(got, want):
        _same(g, w)


@given(st.lists(_channel_tags(), max_size=4), st.integers(1, 40))
@settings(max_examples=200)
def test_split_matches_boolean_gather(blocks, read_block):
    """Merged records read back in blocks of strided record views and split per channel."""
    n_channels = max((len(tags) for tags in blocks), default=2)
    none = [np.empty(0, dtype=np.int64)]
    merged = [_merge_channels([t + 13 * k for t in tags] + none * (n_channels - len(tags)))
              for k, tags in enumerate(blocks)]  # block k in [13 k, 13 k + 12]
    channel = np.concatenate([np.empty(0, dtype=np.uint8)] + [c for c, _ in merged])
    t_ps = np.concatenate(none + [t for _, t in merged])
    with mock.patch.object(eventfile, "READ_BLOCK", read_block), \
            tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.bin"
        reference.write_records(path, channel, t_ps, n_channels)
        got = list(open_event_file(path)[2])
    read = [(channel[i:i + read_block], t_ps[i:i + read_block])
            for i in range(0, len(t_ps), read_block)]
    want = list(reference.split_records(read, n_channels))
    assert len(got) == len(want)
    for (g_tags, g_horizon), (w_tags, w_horizon) in zip(got, want):
        assert g_horizon == w_horizon
        for g, w in zip(g_tags, w_tags):
            _same(g, w)


_TAGS = st.lists(st.integers(-2_000, 60_000), max_size=60).map(
    lambda v: np.array(sorted(v), dtype=np.int64))


@given(_TAGS, _TAGS, st.sampled_from([(4, 8_000, -4_000), (4, 400, 0), (16, 50_000, 0),
                                      (1, 1, 100_000)]))
@settings(max_examples=300)
def test_first_stop_bins_match_boolean_gather(starts, stops, binning):
    """Windows that keep every start, some or none."""
    bin_width_ps, window_ps, t0_ps = binning
    counter = StartStopCounter(bin_width_ps, window_ps, t0_ps, "first")
    if len(stops) == 0:  # _count never bins against no stops
        stops = np.array([0], dtype=np.int64)
    _same(counter._bins(starts, stops),
          reference.first_stop_bins(starts, stops, t0_ps, window_ps, bin_width_ps))


@given(st.sampled_from([0, 1, 5, 1000]), st.sampled_from(["none", "all", "random"]),
       st.sampled_from([1, 3]), st.integers(0, 2**32 - 1))
def test_compress_is_boolean_indexing(n, share, stride, seed):
    """The identity every rewritten gather rests on: same elements, same order, contiguous."""
    gen = np.random.default_rng(seed)
    base = gen.integers(-2**62, 2**62, n * stride)
    t = base[::stride]
    keep = {"none": np.zeros(n, bool), "all": np.ones(n, bool),
            "random": gen.random(n) < 0.35}[share]
    got = np.compress(keep, t)
    _same(got, t[keep])
    assert got.flags.c_contiguous
