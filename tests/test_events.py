import hashlib
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epstreak import events
from epstreak.errors import ConfigurationError, EmptySupportError
from epstreak.eventfile import write_events
from epstreak.events import (CH_HBT_R, CH_HBT_T, CH_HERALD, CH_SIGNAL,
                             DETECTOR_PRESETS, DetectorModel, EmitterSpecies,
                             RunConfig, SampleModel, _check_overlap,
                             _dead_time_prune, _fluorescence_batch, channel_count, merge_chunks,
                             simulate_channels, simulate_chunks, stream_warnings)
from epstreak.presets import heralded_source
from epstreak.spdc import FilterSpec, SourceModel
from epstreak.tcspc import start_stop_histogram
from epstreak.twins import TwinsSpec
from epstreak.units import FWHM_PER_SIGMA, PS_PER_NS, PS_PER_S

IDEAL = DetectorModel()


def _detected(t, det, span_ps):
    """The herald channel's tags when a one-chunk irf run's arrivals are ``t``."""
    run = RunConfig(duration_s=span_ps / PS_PER_S, seed=2, topology="irf")
    with mock.patch.object(events, "_source_chunk", lambda *_: [(t, 1.0), (t, 1.0)]):
        return simulate_channels(heralded_source(), None, det, IDEAL, None, run)[CH_HERALD]


def test_identity_detector(rng):
    t = np.sort(rng.uniform(0, 1e9, 1000))
    out = _detected(t, IDEAL, 1e9)
    assert np.array_equal(out, np.rint(t).astype(np.int64))


def test_dead_time_drops_second_event():
    t = np.array([0.0, 10_000.0])  # 10 ns apart
    det = DetectorModel(dead_time_ns=50.0)
    out = _detected(t, det, 1e6)
    assert len(out) == 1


def test_efficiency_bernoulli(rng):
    t = np.sort(rng.uniform(0, 1e12, 100_000))
    det = DetectorModel(efficiency=0.35)
    out = _detected(t, det, 1e12)
    assert len(out) == pytest.approx(35_000, abs=3 * np.sqrt(35_000))


def test_irf_topology_jitterless_delay_zero(heralded_source):
    run = RunConfig(duration_s=0.01, seed=5, topology="irf")
    h, s = simulate_channels(heralded_source, None, IDEAL, IDEAL, None, run)
    assert np.array_equal(h, s)
    assert len(h) > 0


def test_pair_rate_reproduced(heralded_source):
    run = RunConfig(duration_s=1.0, seed=6, topology="irf")
    tags = simulate_channels(heralded_source, None, IDEAL, IDEAL, None, run)
    n = len(tags[CH_HERALD])
    assert n == pytest.approx(2e5, abs=3 * np.sqrt(2e5))


def test_fluorescence_delay_mle(heralded_source):
    sample = SampleModel((EmitterSpecies(1.0, 1.51, 850.0, 40.0),))
    run = RunConfig(duration_s=2.0, seed=7, topology="fluorescence")
    tags = simulate_channels(heralded_source, sample, IDEAL, IDEAL, None, run)
    h, s = (t.astype(float) for t in tags)
    # jitterless: each signal is its herald plus the fluorescence delay
    idx = np.searchsorted(h, s, side="right") - 1
    delays_ns = (s - h[idx]) / 1000.0
    tau_hat = delays_ns.mean()  # closed-form exponential MLE
    se = tau_hat / np.sqrt(len(delays_ns))
    assert abs(tau_hat - 1.51) < 3 * se


def test_memorylessness(heralded_source):
    sample = SampleModel((EmitterSpecies(1.0, 1.0, 850.0, 40.0),))
    run = RunConfig(duration_s=3.0, seed=8, topology="fluorescence")
    tags = simulate_channels(heralded_source, sample, IDEAL, IDEAL, None, run)
    h, s = (t.astype(float) for t in tags)
    idx = np.searchsorted(h, s, side="right") - 1
    d = (s - h[idx]) / 1000.0
    tail = d[d > 1.0] - 1.0
    se = np.sqrt(d.var() / len(d) + tail.var() / len(tail))
    assert abs(tail.mean() - d.mean()) < 3 * se


def test_determinism(heralded_source):
    run = RunConfig(duration_s=0.5, seed=42, topology="hbt")
    a = simulate_channels(heralded_source, None, IDEAL, IDEAL, None, run)
    b = simulate_channels(heralded_source, None, IDEAL, IDEAL, None, run)
    assert len(a) == len(b) == 3
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_stream_ordering(heralded_source, mpd):
    run = RunConfig(duration_s=0.2, seed=9, topology="hbt")
    blocks = merge_chunks(simulate_chunks(heralded_source, None, mpd, mpd, None, run))
    channel, t_ps = (np.concatenate(a) for a in zip(*blocks))
    assert np.all(np.diff(t_ps) >= 0)
    assert set(np.unique(channel)) <= {CH_HERALD, CH_HBT_T, CH_HBT_R}


def test_poisson_totals(heralded_source):
    counts = []
    for seed in range(40):
        run = RunConfig(duration_s=0.02, seed=seed, topology="irf")
        tags = simulate_channels(heralded_source, None, IDEAL, IDEAL, None, run)
        counts.append(len(tags[CH_HERALD]))
    counts = np.asarray(counts, dtype=float)
    mean = 2e5 * 0.02
    assert counts.mean() == pytest.approx(mean, abs=4 * np.sqrt(mean / 40))
    # index of dispersion ~ 1 for Poisson
    assert counts.var() / counts.mean() == pytest.approx(1.0, abs=0.6)


@pytest.mark.parametrize("f1,f2", [(100.0, 100.0), (184.0, 184.0), (184.0, 571.0)])
def test_irf_quadrature_law(heralded_source, f1, f2):
    d1 = DetectorModel(jitter_fwhm_ps=f1)
    d2 = DetectorModel(jitter_fwhm_ps=f2)
    run = RunConfig(duration_s=2.0, seed=11, topology="irf")
    tags = simulate_channels(heralded_source, None, d1, d2, None, run)
    hist = start_stop_histogram(tags[CH_HERALD], tags[CH_SIGNAL], 4, 8000, -4000)
    expected = np.hypot(f1, f2)
    assert hist.fwhm_ps() == pytest.approx(expected, rel=0.05)


def test_sample_fluorescence_absorption_zero(rng):
    sample = SampleModel((EmitterSpecies(1.0, 1.0, 850.0, 40.0),),
                         absorption_prob=0.0)
    emitted, _, _ = _fluorescence_batch(sample, 200, rng)
    assert not emitted.any()


def test_sample_fluorescence_mean_delay(rng):
    from epstreak.events import _fluorescence_batch
    sample = SampleModel((EmitterSpecies(1.0, 2.0, 850.0, 40.0),))
    emitted, delay_ps, _ = _fluorescence_batch(sample, 1_000_000, rng)
    tau_ns = delay_ps[emitted].mean() / 1000.0
    assert abs(tau_ns - 2.0) < 3 * 2.0 / np.sqrt(emitted.sum())


def test_species_weight_fractions(rng):
    from epstreak.events import _fluorescence_batch
    sample = SampleModel((EmitterSpecies(1.0, 1.0, 700.0, 10.0),
                          EmitterSpecies(2.0, 1.0, 900.0, 10.0)))
    emitted, _, lam = _fluorescence_batch(sample, 90_000, rng)
    frac2 = np.mean(lam[emitted] > 800.0)
    assert frac2 == pytest.approx(2.0 / 3.0, abs=3 * np.sqrt(2 / 9 / 90_000) + 0.01)


def _fluorescence_reference(sample, n, rng):
    """The per-pair draw written with numpy's choice/exponential/normal forms."""
    absorbed = rng.random(n) < sample.absorption_prob
    weights = np.array([s.weight for s in sample.species], dtype=float)
    weights /= weights.sum()
    idx = rng.choice(len(sample.species), size=n, p=weights)
    tau_ps = np.array([s.lifetime_ns for s in sample.species]) * PS_PER_NS
    delay_ps = rng.exponential(1.0, n) * tau_ps[idx]
    center = np.array([s.emission_center_nm for s in sample.species])
    sigma = np.array([s.emission_fwhm_nm for s in sample.species]) / FWHM_PER_SIGMA
    lam_nm = rng.normal(center[idx], sigma[idx])
    qy = np.array([s.quantum_yield for s in sample.species])
    emitted = absorbed & (rng.random(n) < qy[idx])
    return emitted, delay_ps, lam_nm


_SPECIES = {
    "one": (EmitterSpecies(1.0, 0.79, 810.0, 40.0),),
    "two": (EmitterSpecies(1.0, 0.79, 810.0, 40.0, 0.7),
            EmitterSpecies(2.5, 1.51, 900.0, 55.0)),
    "three-zero-weight": (EmitterSpecies(0.3, 0.25, 700.0, 20.0),
                          EmitterSpecies(0.0, 1.0, 800.0, 30.0, 0.5),
                          EmitterSpecies(0.7, 1.14, 950.0, 60.0, 0.9)),
    "leading-zero-weight": (EmitterSpecies(0.0, 0.5, 750.0, 20.0),
                            EmitterSpecies(1.0, 2.0, 850.0, 40.0)),
}


@pytest.mark.parametrize("species", sorted(_SPECIES))
@pytest.mark.parametrize("absorption_prob", [1.0, 0.6])
@pytest.mark.parametrize("n", [0, 1, 100_000])
def test_fluorescence_batch_matches_numpy_forms(species, absorption_prob, n):
    """Bit-equal arrays and the same generator state as the choice/exponential/normal forms.

    numpy does not promise that these forms stay equal across versions, so
    this pins the draws (and the golden hashes built on them).
    """
    sample = SampleModel(_SPECIES[species], absorption_prob=absorption_prob)
    for seed in range(5):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _fluorescence_batch(sample, n, rng)
        want = _fluorescence_reference(sample, n, ref_rng)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape == (n,)
            assert g.tobytes() == w.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_topology_validation(heralded_source):
    sample = SampleModel((EmitterSpecies(1.0, 1.0, 850.0, 40.0),))
    with pytest.raises(ConfigurationError):
        simulate_channels(heralded_source, sample, IDEAL, IDEAL, None,
                          RunConfig(1.0, 0, "irf"))
    with pytest.raises(ConfigurationError):
        simulate_channels(heralded_source, None, IDEAL, IDEAL, None,
                          RunConfig(1.0, 0, "fluorescence"))


def test_empty_stream_warning(heralded_source):
    from dataclasses import replace
    from epstreak.spdc import PumpSpec, SourceModel
    silent = SourceModel(PumpSpec(heralded_source.pump.wavelength_nm, 0.0),
                         heralded_source.crystal, heralded_source.herald_filter)
    run = RunConfig(duration_s=0.1, seed=1, topology="irf")
    tags = simulate_channels(silent, None, IDEAL, IDEAL, None, run)
    assert [len(t) for t in tags] == [0, 0]
    assert any("empty" in w for w in stream_warnings(silent, IDEAL, IDEAL, run))


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=10)
def test_determinism_any_seed(seed):
    src = heralded_source()
    run = RunConfig(duration_s=0.005, seed=seed, topology="irf")
    a = simulate_channels(src, None, IDEAL, IDEAL, None, run)
    b = simulate_channels(src, None, IDEAL, IDEAL, None, run)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def _reference_prune(times, dead_ps):
    """The per-event nonparalyzable dead-time loop the fast prune must match."""
    if dead_ps <= 0 or len(times) == 0:
        return times
    kept = np.empty(len(times))
    n = 0
    last = -np.inf
    for t in times.tolist():
        if t - last >= dead_ps:
            kept[n] = t
            n += 1
            last = t
    return kept[:n]


def _assert_prune_matches(times, dead_ps):
    got = _dead_time_prune(times, dead_ps)
    want = _reference_prune(times, dead_ps)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


_DEAD_TIMES = st.one_of(st.just(0.0), st.integers(1, 40).map(float),
                        st.floats(0.01, 40.0, allow_nan=False))


@st.composite
def _sorted_times(draw, dead_ps):
    """Sorted times built from gaps around dead_ps: ties, half-integers, bursts."""
    unit = max(dead_ps, 1.0)
    gap = st.one_of(
        st.just(0.0),                                        # exact ties
        st.integers(0, 4 * int(unit) + 4).map(lambda k: k / 2),  # half-integers
        st.sampled_from([dead_ps, np.nextafter(dead_ps, 0.0), dead_ps + 0.5,
                         dead_ps / 2, dead_ps / 3]),
        st.floats(0.0, 3 * unit, allow_nan=False),
    )
    gaps = draw(st.lists(gap, max_size=60))
    # large offsets make t - last round differently from the gaps drawn
    offset = draw(st.sampled_from([0.0, -7.5, 1e6 + 0.5, 2.0 ** 52, 3e15]))
    return offset + np.cumsum([0.0] + gaps)


@given(data=st.data())
@settings(max_examples=300)
def test_dead_time_prune_matches_reference_loop(data):
    dead_ps = data.draw(_DEAD_TIMES)
    times = data.draw(_sorted_times(dead_ps))
    _assert_prune_matches(times, dead_ps)


@pytest.mark.parametrize("times", [
    [],
    [5.0],                                     # single event
    [0.0, 3.0, 20.0],                          # isolated burst of 2
    [0.0, 6.0, 12.0, 30.0],                    # isolated burst of 3: third kept
    [0.0, 6.0, 9.0, 30.0],                     # isolated burst of 3: third dropped
    [0.0, 0.0, 0.0, 10.0, 10.0, 10.0],         # exact ties
    [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 100.0],  # one long burst
    list(np.arange(0.0, 200.0, 0.5)),          # fully saturated run
])
@pytest.mark.parametrize("dead_ps", [0.0, 10.0, 10.5])
def test_dead_time_prune_bursts(times, dead_ps):
    _assert_prune_matches(np.asarray(times), dead_ps)


@pytest.mark.parametrize("mean_gap", [5e3, 100.0, 77.0, 10.0, 1.0])
@pytest.mark.parametrize("n", [300, 200_000])
def test_dead_time_prune_matches_reference_at_rate(mean_gap, n):
    """Few and many bursts, short and saturated."""
    rng = np.random.default_rng(int(mean_gap * 10) + n)
    times = np.sort(np.cumsum(rng.exponential(mean_gap, n)) + rng.normal(0, 20, n))
    _assert_prune_matches(times, 77.0)


# sha256 of the event file written for each stream below, taken from the
# per-event dead-time loop and per-arrival acceptance arrays this package used
# before the vectorized detector chain; any change to the detector chain's
# output bytes shows here
_PINNED_EVENT_FILES = {
    "irf": "267aa6e8c782d6f630c081550905862ca2351439ca51654ecf4227d9e7ffd2da",
    "hbt": "05c0e3172d31d253171dd7733dd600e17353fc428d5385e44993b80332f1176a",
    "fluorescence": "9b4a3d308443685f1a363a20a528b8bb43521b74c96e5a8e492eac4275f5081a",
}


@pytest.mark.parametrize("topology", sorted(_PINNED_EVENT_FILES))
def test_detector_chain_bytes_pinned(tmp_path, topology):
    """Dead time, darks and jitter all act: mpd herald at 2e6 pairs/s."""
    mpd, excelitas = DETECTOR_PRESETS["mpd"], DETECTOR_PRESETS["excelitas"]
    sample = twins = None
    signal_det = excelitas
    if topology == "hbt":
        signal_det = mpd
    elif topology == "fluorescence":
        sample = SampleModel((EmitterSpecies(1.0, 1.0, 850.0, 40.0),))
        twins = TwinsSpec()
    run = RunConfig(duration_s=0.05, seed=17, topology=topology,
                    twins_position_um=150.0 if twins else None)
    blocks = merge_chunks(simulate_chunks(heralded_source(pair_rate_hz=2e6), sample, mpd,
                                          signal_det, twins, run))
    path = tmp_path / "events.bin"
    meta = {"duration_s": run.duration_s, "n_channels": channel_count(topology)}
    list(write_events(path, blocks, meta))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _PINNED_EVENT_FILES[topology]


@pytest.mark.parametrize("topology, twins, duration_s, rate_hz", [
    ("irf", None, 0.02, 2e6),
    ("irf", None, 11.0, 2e3),          # three chunks
    ("hbt", None, 0.02, 2e6),
    ("hbt", None, 11.0, 2e3),
    ("fluorescence", None, 0.02, 2e6),
    ("fluorescence", TwinsSpec(), 0.02, 2e6),
])
def test_simulate_channels_match_stream(topology, twins, duration_s, rate_hz):
    """Each channel's tags equal that channel's records in the merged record stream."""
    mpd, excelitas = DETECTOR_PRESETS["mpd"], DETECTOR_PRESETS["excelitas"]
    sample = None
    if topology == "fluorescence":
        sample = SampleModel((EmitterSpecies(1.0, 1.0, 850.0, 40.0),))
    run = RunConfig(duration_s=duration_s, seed=23, topology=topology,
                    twins_position_um=150.0 if twins else None)
    args = (heralded_source(pair_rate_hz=rate_hz), sample, mpd, excelitas, twins, run)
    tags = simulate_channels(*args)
    channel, t_ps = (np.concatenate(a) for a in zip(*merge_chunks(simulate_chunks(*args))))
    assert len(tags) == channel_count(topology)
    for ch, t in enumerate(tags):
        assert t.dtype == np.int64
        assert np.array_equal(t, t_ps[channel == ch])


def test_simulate_channels_peak_memory_bounded():
    # ideal detectors keep every birth, so each channel's arrivals are n
    # floats. A detector pass holds its arrivals, three more arrays of that
    # length and the channels already detected; the chunk lists and the
    # other channel's arrivals must not stay alive beside them.
    source = heralded_source(pair_rate_hz=1e5)
    run = RunConfig(duration_s=12.0, seed=3, topology="irf")  # three chunks
    simulate_channels(source, None, IDEAL, IDEAL, None, run)  # overlap check cached
    tracemalloc.start()
    try:
        tags = simulate_channels(source, None, IDEAL, IDEAL, None, run)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrivals_bytes = 8 * len(tags[CH_HERALD])
    assert peak <= 6.0 * arrivals_bytes


def test_overlap_checked_once_per_source(monkeypatch):
    calls = []
    original = SourceModel.conditioned_jsd

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(SourceModel, "conditioned_jsd", counted)
    _check_overlap.cache_clear()
    source = heralded_source()
    run = RunConfig(duration_s=0.001, seed=1, topology="irf")
    simulate_channels(source, None, IDEAL, IDEAL, None, run)
    list(simulate_chunks(source, None, IDEAL, IDEAL, None, run))
    simulate_channels(heralded_source(), None, IDEAL, IDEAL, None, run)  # equal source
    assert len(calls) == 1
    # tophat far outside the conjugate image of the grid: zero overlap
    bad = replace(source, herald_filter=FilterSpec(2500.0, 1.0, "tophat"))
    for _ in range(3):
        with pytest.raises(EmptySupportError):
            simulate_channels(bad, None, IDEAL, IDEAL, None, run)
    assert len(calls) == 4
    _check_overlap.cache_clear()
