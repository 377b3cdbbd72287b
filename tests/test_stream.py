"""The chunked simulation stream, the counters it feeds and the event files it writes.

With ``events.CHUNK_PAIRS`` patched down to a few pairs, jitter, fluorescence
delays, dead time, histogram windows and g2 delays all reach across several
chunks; with ``eventfile.READ_BLOCK`` patched down to a few records, ties and
histogram windows reach across read blocks. Every streamed result must equal
the whole-run reference bit for bit.
"""

import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epstreak import cli, eventfile, events, experiment, presets
from epstreak.cli import main
from epstreak.errors import StreamOrderError, UndefinedG2Error
from epstreak.eventfile import open_event_file, write_events
from epstreak.events import (CH_HBT_R, CH_HBT_T, CH_HERALD, CH_SIGNAL, DetectorModel,
                             EmitterSpecies, RunConfig, SampleModel, channel_count,
                             merge_chunks, simulate_channels, simulate_chunks, split_records)
from epstreak.tcspc import G2Counter, StartStopCounter, start_stop_histogram, tag_g2
from epstreak.twins import TwinsSpec
from epstreak.units import PS_PER_NS, PS_PER_S

SOURCE = presets.heralded_source()  # 2e5 pairs/s
DURATION_S = 5e-4  # 100 pairs on average
CHUNK_PS = 2e7  # with 4 pairs per chunk: 25 chunks of 20 us


def _reference_prune(times, dead_ps):
    """The per-event nonparalyzable dead-time loop."""
    kept, last = [], -np.inf
    for t in times.tolist():
        if dead_ps <= 0 or t - last >= dead_ps:
            kept.append(t)
            last = t
    return np.asarray(kept, dtype=float)


def _reference(args):
    """(per-channel tags, whether the stream must refuse) from the stream's own per-chunk draws.

    Each chunk's arrivals and detector draws are redrawn from their seeds;
    every channel's draws are then sorted together, pruned over the whole run
    and rounded. The stream must refuse when a chunk draws below the lowest
    time (or start) of the chunk before it, after that chunk has passed tags on.
    """
    source, sample, herald_det, signal_det, twins, run = args
    rate = source.pump.pair_rate_hz
    n_chunks = events._chunk_count(rate, run.duration_s)
    chunk_ps = run.duration_s * PS_PER_S / n_chunks
    n_channels = 3 if run.topology == "hbt" else 2
    dets = [herald_det] + [signal_det] * (n_channels - 1)
    rngs = [events._rng(run.seed, 1, ch) for ch in range(n_channels)]
    draws, lowest = [[] for _ in dets], []
    for k in range(n_chunks):
        arrivals = events._source_chunk(k, n_chunks, sample, twins, run, rate)
        fresh = [events._detector_draws(a, det, rng, k * chunk_ps, chunk_ps)
                 for a, det, rng in zip(arrivals, dets, rngs)]
        lowest.append(min([k * chunk_ps] + [t.min() for t in fresh if len(t)]))
        for ch, t in enumerate(fresh):
            draws[ch].append(t)
    refuse = any(lowest[k] < lowest[k - 1] for k in range(2, n_chunks))
    tags = []
    for ch, det in enumerate(dets):
        t = _reference_prune(np.sort(np.concatenate(draws[ch])), det.dead_time_ns * PS_PER_NS)
        t = np.rint(t).astype(np.int64)
        tags.append(t[t >= 0])
    return tags, refuse


_JITTER_PS = st.sampled_from([0.0, 184.0, 0.3 * CHUNK_PS, 2.0 * CHUNK_PS])
_DEAD_NS = st.sampled_from([0.0, 77.0, 0.4 * CHUNK_PS / 1e3, 3.0 * CHUNK_PS / 1e3])


@st.composite
def _detector(draw):
    return DetectorModel(efficiency=draw(st.sampled_from([1.0, 0.6])),
                         jitter_fwhm_ps=draw(_JITTER_PS), dead_time_ns=draw(_DEAD_NS),
                         dark_rate_hz=draw(st.sampled_from([0.0, 2e4])))


@st.composite
def _run_args(draw, topologies=("irf", "hbt", "fluorescence")):
    topology = draw(st.sampled_from(topologies))
    sample = twins = None
    if topology == "fluorescence":
        # lifetimes from far below a chunk to several chunks
        lifetime_ns = draw(st.sampled_from([1.0, 0.5 * CHUNK_PS / 1e3, 4.0 * CHUNK_PS / 1e3]))
        sample = SampleModel((EmitterSpecies(lifetime_ns=lifetime_ns),),
                             absorption_prob=draw(st.sampled_from([1.0, 0.5])))
        twins = draw(st.sampled_from([None, TwinsSpec()]))
    run = RunConfig(duration_s=DURATION_S * draw(st.sampled_from([0.02, 1.0, 1.7])),
                    seed=draw(st.integers(0, 2**31)), topology=topology,
                    twins_position_um=150.0 if twins else None)
    return SOURCE, sample, draw(_detector()), draw(_detector()), twins, run


def _collected(args):
    """simulate_chunks' yields, checked against its horizon promise as they come."""
    yields = list(simulate_chunks(*args))
    for i, (tags, horizon) in enumerate(yields):
        assert (horizon is None) == (i == len(yields) - 1)
        for t in tags:
            assert t.dtype == np.int64 and np.all(np.diff(t) >= 0)
        for later, _ in yields[i + 1:]:
            assert all(len(t) == 0 or t[0] >= horizon for t in later)
    return yields


@given(_run_args(), st.integers(2, 8))
@settings(max_examples=150)
def test_streamed_detections_match_whole_run_reference(args, chunk_pairs):
    with mock.patch.object(events, "CHUNK_PAIRS", chunk_pairs):
        want, refuse = _reference(args)
        if refuse:
            with pytest.raises(StreamOrderError):
                simulate_channels(*args)
            return
        yields = _collected(args)
        tags = simulate_channels(*args)
    channel, t_ps = (np.concatenate(a) for a in zip(*merge_chunks(yields)))
    assert len(tags) == len(want) == channel_count(args[-1].topology)
    for ch, t in enumerate(want):
        assert np.array_equal(np.concatenate([y[ch] for y, _ in yields]), t)
        assert tags[ch].dtype == np.int64 and np.array_equal(tags[ch], t)
        assert np.array_equal(t_ps[channel == ch], t)
    assert np.all(np.diff(t_ps) >= 0)


@st.composite
def _binning(draw):
    bin_width_ps = draw(st.sampled_from([1, 7, 250_000]))
    window_ps = bin_width_ps * draw(st.integers(1, 200))
    t0_ps = draw(st.integers(-2 * window_ps, window_ps))
    return bin_width_ps, window_ps, t0_ps


@given(_run_args(("irf", "fluorescence")), st.integers(2, 8), _binning(),
       st.sampled_from(["first", "all"]))
@settings(max_examples=100)
def test_streamed_histogram_matches_whole_array(args, chunk_pairs, binning, mode):
    with mock.patch.object(events, "CHUNK_PAIRS", chunk_pairs):
        try:
            tags = simulate_channels(*args)
        except StreamOrderError:
            return
        counter = StartStopCounter(*binning, mode)
        counter.feed_chunks(simulate_chunks(*args), CH_HERALD, CH_SIGNAL)
    got = counter.histogram()
    want = start_stop_histogram(tags[CH_HERALD], tags[CH_SIGNAL], *binning, mode)
    assert np.array_equal(got.counts, want.counts)
    assert (got.n_starts, got.flags) == (want.n_starts, want.flags)


@given(_run_args(("hbt",)), st.integers(2, 8),
       st.sampled_from([1, 1000, 3_000_001]),
       st.lists(st.integers(-60_000_000, 60_000_000).map(float), min_size=1, max_size=6))
@settings(max_examples=100)
def test_streamed_g2_matches_whole_array(args, chunk_pairs, window_ps, delays):
    with mock.patch.object(events, "CHUNK_PAIRS", chunk_pairs):
        try:
            tags = simulate_channels(*args)
        except StreamOrderError:
            return
        counter = G2Counter(window_ps, delays)
        counter.feed_chunks(simulate_chunks(*args), CH_HERALD, CH_HBT_T, CH_HBT_R)
    try:
        want = tag_g2(tags[CH_HERALD], tags[CH_HBT_T], tags[CH_HBT_R], window_ps, delays)
    except UndefinedG2Error as exc:
        with pytest.raises(UndefinedG2Error) as got:
            counter.curve()
        assert str(got.value) == str(exc)
        return
    got = counter.curve()
    assert np.array_equal(got.g2_values, want.g2_values)
    assert np.array_equal(got.errors, want.errors)
    assert got.normalization == want.normalization


@st.composite
def _integer_arrivals(draw):
    """Chunks of 10 ps whose arrivals sit on half picoseconds, from a chunk early to 3 late.

    Ties, exact dead times, draws on the next chunk's lowest time and tags on
    the horizons all occur, as do draws below a passed-on horizon.
    """
    n_chunks = draw(st.integers(1, 8))
    n_channels = draw(st.sampled_from([2, 3]))
    table = [[sorted(k * 10 + x / 2 for x in draw(st.lists(st.integers(-20, 60), max_size=4)))
              for _ in range(n_channels)] for k in range(n_chunks)]
    dead = [DetectorModel(dead_time_ns=draw(st.sampled_from([0.0, 3.0, 10.0, 25.0])) / 1e3)
            for _ in range(2)]
    run = RunConfig(duration_s=n_chunks * 1e-11, seed=0,
                    topology="irf" if n_channels == 2 else "hbt")
    return table, (SOURCE, None, dead[0], dead[1], None, run)


@given(_integer_arrivals(), _binning(), st.sampled_from(["first", "all"]),
       st.integers(1, 30), st.lists(st.integers(-40, 40).map(float), min_size=1, max_size=4))
@settings(max_examples=300)
def test_integer_arrivals_stream_exactly(case, binning, mode, window_ps, delays):
    table, args = case

    def source_chunk(k, n_chunks, sample, twins, run, rate_hz):
        return [(np.asarray(t, dtype=float), 1.0) for t in table[k]]

    with mock.patch.object(events, "_source_chunk", source_chunk), \
            mock.patch.object(events, "CHUNK_S", 1e-11):  # chunks of 10 ps
        want, refuse = _reference(args)
        if refuse:
            with pytest.raises(StreamOrderError):
                simulate_channels(*args)
            return
        yields = _collected(args)
        counter = StartStopCounter(*binning, mode)
        counter.feed_chunks(simulate_chunks(*args), CH_HERALD, CH_SIGNAL)
        g2_counter = G2Counter(window_ps, delays)
        g2_counter.feed_chunks(simulate_chunks(*args), CH_HERALD, CH_HBT_T, CH_HBT_R % len(want))
    for ch, t in enumerate(want):
        assert np.array_equal(np.concatenate([y[ch] for y, _ in yields]), t)
    channel, t_ps = (np.concatenate(a) for a in zip(*merge_chunks(yields)))
    merged = np.lexsort((channel, t_ps))
    assert np.array_equal(merged, np.arange(len(t_ps)))  # (time, channel) order
    assert sorted(zip(t_ps.tolist(), channel.tolist())) == sorted(
        (t, ch) for ch, tags in enumerate(want) for t in tags.tolist())
    hist = start_stop_histogram(want[CH_HERALD], want[CH_SIGNAL], *binning, mode)
    assert np.array_equal(counter.histogram().counts, hist.counts)
    try:
        curve = tag_g2(want[CH_HERALD], want[CH_HBT_T], want[CH_HBT_R % len(want)],
                       window_ps, delays)
    except UndefinedG2Error as exc:
        with pytest.raises(UndefinedG2Error) as got:
            g2_counter.curve()
        assert str(got.value) == str(exc)
        return
    assert np.array_equal(g2_counter.curve().g2_values, curve.g2_values)


def test_one_chunk_is_one_yield():
    args = (SOURCE, None, DetectorModel(), DetectorModel(), None,
            RunConfig(duration_s=0.01, seed=3, topology="irf"))
    (tags, horizon), = simulate_chunks(*args)
    assert horizon is None
    assert all(np.array_equal(a, b) for a, b in zip(tags, simulate_channels(*args)))


def _jittered_far():
    """An irf run whose signal jitter spans 2.5 ms, against chunks of 20 us."""
    return (SOURCE, None, DetectorModel(), DetectorModel(jitter_fwhm_ps=2.5e9), None,
            RunConfig(duration_s=DURATION_S, seed=4, topology="irf"))


def test_detection_before_passed_on_tags_refused():
    args = _jittered_far()
    with mock.patch.object(events, "CHUNK_PAIRS", 4):
        _, refuse = _reference(args)
        assert refuse
        with pytest.raises(StreamOrderError, match="jitter spans more than a"):
            simulate_channels(*args)
    simulate_channels(*args)  # one chunk: nothing is passed on early


def test_stream_order_error_exits_1(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "far.yaml"
    cfg.write_text("run: {topology: irf, duration_s: 0.0005, seed: 4}\n"
                   "detectors:\n  herald: {preset: ideal}\n"
                   "  signal: {preset: ideal, jitter_fwhm_ps: 2.5e9}\n")
    monkeypatch.setattr(events, "CHUNK_PAIRS", 4)
    assert main(["histogram", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "StreamOrderError" in capsys.readouterr().err


def _config(topology, duration_s, twins=None):
    mappings = [presets.HERALDED, {"run": {"topology": topology, "duration_s": duration_s,
                                           "seed": 12}}]
    if twins:
        mappings.append({"twins": twins})
    if topology == "hbt":  # enough accidentals for every delay of the default axis
        mappings += [{"source": {"pump": {"pair_rate_hz": 1.0e6}}},
                     {"detectors": {"herald": {"preset": "ideal"},
                                    "signal": {"preset": "ideal"}}}]
    else:
        mappings += [{"sample": {"species": [{"lifetime_ns": 1.2}]}},
                     {"detectors": {"herald": {"preset": "mpd"},
                                    "signal": {"preset": "excelitas"}}}]
    return presets.config(*mappings)


def _cube(cfg):
    """The interferogram cube of the config's TWINS scan."""
    return experiment.cube(cfg, cfg.twins.positions_um())


# two wedge positions 1 um apart around zero delay
_NARROW_SCAN = {"position_min_um": 160.0, "position_max_um": 161.0, "n_positions": 2}


@pytest.mark.parametrize("topology, step, twins", [("hbt", experiment.g2, None),
                                                   ("fluorescence", experiment.histogram, None),
                                                   ("fluorescence", _cube, _NARROW_SCAN)],
                         ids=["hbt-g2", "fluorescence-histogram", "fluorescence-cube"])
def test_peak_memory_flat_in_duration(topology, step, twins, monkeypatch):
    monkeypatch.setattr(events, "CHUNK_PAIRS", 1 << 12)
    step(_config(topology, 0.25, twins))  # caches the overlap check and the imports
    peaks = []
    for duration_s in (0.25, 1.0):
        tracemalloc.start()
        try:
            step(_config(topology, duration_s, twins))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


@pytest.mark.parametrize("topology, step", [("hbt", experiment.g2),
                                            ("fluorescence", experiment.histogram)])
def test_experiment_steps_match_whole_array(topology, step, monkeypatch):
    cfg = _config(topology, 0.05)
    monkeypatch.setattr(events, "CHUNK_PAIRS", 1 << 10)  # 10 chunks
    tags = simulate_channels(cfg.source, cfg.sample, cfg.detectors.herald, cfg.detectors.signal,
                             cfg.twins, cfg.run)
    got = step(cfg)
    if topology == "hbt":
        options = cfg.analysis.g2
        want = tag_g2(tags[CH_HERALD], tags[CH_HBT_T], tags[CH_HBT_R],
                      options.coincidence_window_ps, options.delay_axis_ps())
        assert np.array_equal(got.g2_values, want.g2_values)
    else:
        h = cfg.analysis.histogram
        want = start_stop_histogram(tags[CH_HERALD], tags[CH_SIGNAL], h.bin_width_ps,
                                    h.window_ps, h.t0_ps, h.mode)
        assert np.array_equal(got.counts, want.counts)
        assert got.counts.sum() > 0


def test_irf_step_streams_its_run(monkeypatch):
    cfg = replace(_config("fluorescence", 0.05), twins=None)
    monkeypatch.setattr(events, "CHUNK_PAIRS", 1 << 10)
    response = experiment.irf(cfg)
    run = replace(cfg.run, topology="irf")
    tags = simulate_channels(cfg.source, None, cfg.detectors.herald, cfg.detectors.signal,
                             None, run)
    h = cfg.analysis.histogram
    want = start_stop_histogram(tags[CH_HERALD], tags[CH_SIGNAL], h.bin_width_ps,
                                h.window_ps, h.t0_ps, h.mode)
    assert np.array_equal(response.counts, want.counts)


def _counted_from_file(path, binning, mode):
    """The histogram of an event file counted block by block."""
    n_channels, _, blocks = open_event_file(path)
    counter = StartStopCounter(*binning, mode)
    counter.feed_chunks(split_records(blocks, n_channels), CH_HERALD, CH_SIGNAL)
    return counter.histogram()


def _assert_same_histogram(got, want):
    assert np.array_equal(got.counts, want.counts)
    assert (got.n_starts, got.flags) == (want.n_starts, want.flags)


@given(_run_args(), st.integers(2, 8), st.integers(1, 5), _binning(),
       st.sampled_from(["first", "all"]))
@settings(max_examples=100)
def test_event_file_streams_at_block_boundaries(args, chunk_pairs, read_block, binning, mode):
    meta = {"seed": args[-1].seed, "n_channels": channel_count(args[-1].topology)}
    with mock.patch.object(events, "CHUNK_PAIRS", chunk_pairs), \
            mock.patch.object(eventfile, "READ_BLOCK", read_block), \
            tempfile.TemporaryDirectory() as tmp:
        whole, streamed = Path(tmp) / "whole.bin", Path(tmp) / "streamed.bin"
        try:
            tags = simulate_channels(*args)
        except StreamOrderError:
            return
        records = tuple(np.concatenate(a) for a in zip(*merge_chunks(simulate_chunks(*args))))
        list(write_events(whole, [records], meta))
        passed = StartStopCounter(*binning, mode)  # fig2d-irf: counted as written
        passed.feed_chunks(split_records(write_events(streamed, merge_chunks(
            simulate_chunks(*args)), meta), meta["n_channels"]), CH_HERALD, CH_SIGNAL)
        assert streamed.read_bytes() == whole.read_bytes()  # block by block as in one block
        got = _counted_from_file(streamed, binning, mode)
    want = start_stop_histogram(tags[CH_HERALD], tags[CH_SIGNAL], *binning, mode)
    _assert_same_histogram(got, want)
    _assert_same_histogram(passed.histogram(), want)


@st.composite
def _tied_records(draw):
    """Records in (time, channel) order over a few picoseconds: ties on and across channels."""
    n_channels = draw(st.sampled_from([2, 3]))
    records = sorted(draw(st.lists(st.tuples(st.integers(0, 12),
                                             st.integers(0, n_channels - 1)), max_size=40)))
    t_ps, channel = (np.array([r[i] for r in records], dtype=dtype)
                     for i, dtype in ((0, np.int64), (1, np.uint8)))
    return channel, t_ps, n_channels


@given(_tied_records(), st.integers(1, 5), _binning(), st.sampled_from(["first", "all"]))
@settings(max_examples=200)
def test_tied_records_count_across_read_blocks(records, read_block, binning, mode):
    channel, t_ps, n_channels = records
    with mock.patch.object(eventfile, "READ_BLOCK", read_block), \
            tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.bin"
        list(write_events(path, [(channel, t_ps)], {"n_channels": n_channels}))
        _, n_records, blocks = open_event_file(path)
        back = list(blocks)
        got = _counted_from_file(path, binning, mode)
    assert n_records == len(t_ps)
    assert all(len(t) <= read_block for _, t in back)
    assert np.array_equal(np.concatenate([t_ps[:0]] + [t for _, t in back]), t_ps)
    assert np.array_equal(np.concatenate([channel[:0]] + [c for c, _ in back]), channel)
    reference = start_stop_histogram(t_ps[channel == CH_HERALD], t_ps[channel == CH_SIGNAL],
                                     *binning, mode)
    _assert_same_histogram(got, reference)


def _traced_peak(argv):
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["simulate", "histogram"])
def test_event_file_memory_flat_in_run_size(tmp_path, monkeypatch, command):
    monkeypatch.setattr(events, "CHUNK_PAIRS", 1 << 12)
    monkeypatch.setattr(eventfile, "READ_BLOCK", 1 << 10)
    monkeypatch.setattr(cli, "_HASH_BLOCK", 1 << 14)
    cfg = tmp_path / "irf.yaml"
    cfg.write_text("source: {pump: {wavelength_nm: 414.46, pair_rate_hz: 2.0e5},\n"
                   "         crystal: {length_mm: 0.3, temperature_C: 56.0}}\n"
                   "run: {topology: irf, seed: 5}\n"
                   "analysis: {histogram: {bin_width_ps: 4, window_ps: 8000, t0_ps: -4000}}\n")

    def simulate(duration_s, out):
        return ["simulate", "--config", str(cfg), "--out", str(tmp_path / out),
                "--duration", str(duration_s)]

    def histogram(duration_s, out):
        main(simulate(duration_s, f"events-{duration_s}"))
        return ["histogram", "--config", str(cfg), "--out", str(tmp_path / out),
                "--events", str(tmp_path / f"events-{duration_s}" / "events.bin")]

    make = simulate if command == "simulate" else histogram
    _traced_peak(make(0.25, "warm"))  # caches the overlap check and the imports
    peaks = [_traced_peak(make(duration_s, f"run-{duration_s}")) for duration_s in (0.25, 1.0)]
    assert peaks[1] <= 1.25 * peaks[0], peaks
