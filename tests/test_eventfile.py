import json
import tracemalloc

import numpy as np
import pytest

import reference
from epstreak import eventfile
from epstreak.errors import ConfigurationError
from epstreak.eventfile import open_event_file, sidecar_path, write_events
from epstreak.events import DetectorModel, RunConfig, simulate_channels, simulate_chunks

from conftest import heralded_source

META = {"duration_s": 0.02, "n_channels": 3, "seed": 3}
RUN = (heralded_source(), None, DetectorModel(), DetectorModel(), None,
       RunConfig(duration_s=META["duration_s"], seed=META["seed"], topology="hbt"))


def _joined(chunks):
    """Each channel's tags of a (tags, horizon) chunk stream, concatenated."""
    return [np.concatenate(per_channel) for per_channel in zip(*(tags for tags, _ in chunks))]


def test_roundtrip(tmp_path):
    path = tmp_path / "events.bin"
    list(write_events(path, simulate_chunks(*RUN), META))
    n_channels, n_records, back = open_event_file(path)
    back = list(back)
    want = simulate_channels(*RUN)
    assert n_channels == META["n_channels"]
    assert n_records == sum(map(len, want)) > 0
    assert back[-1][1] is None
    for got, t in zip(_joined(back), want):
        assert got.dtype == np.int64 and np.array_equal(got, t)
    assert json.loads(sidecar_path(path).read_text()) == META


def test_rewrite_is_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    list(write_events(p1, simulate_chunks(*RUN), META))
    list(write_events(p2, simulate_chunks(*RUN), META))
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ConfigurationError):
        open_event_file(p)


def test_bad_version(tmp_path):
    p = tmp_path / "events.bin"
    list(write_events(p, simulate_chunks(*RUN), META))
    raw = bytearray(p.read_bytes())
    raw[4] = 99
    p.write_bytes(bytes(raw))
    with pytest.raises(ConfigurationError):
        open_event_file(p)


@pytest.mark.parametrize("keep, message", [(6, "truncated event-file header"),
                                           (-4, "truncated event file")])
def test_truncated_file(tmp_path, keep, message):
    p = tmp_path / "events.bin"
    list(write_events(p, simulate_chunks(*RUN), META))
    p.write_bytes(p.read_bytes()[:keep])
    with pytest.raises(ConfigurationError, match=message):
        open_event_file(p)


def test_records_read_without_sidecar(tmp_path):
    path = tmp_path / "events.bin"
    list(write_events(path, simulate_chunks(*RUN), META))
    sidecar_path(path).unlink()
    _, n_records, back = open_event_file(path)
    want = simulate_channels(*RUN)
    assert all(np.array_equal(got, t) for got, t in zip(_joined(back), want))
    assert n_records == sum(map(len, want))


def test_read_peak_memory_bounded(tmp_path, monkeypatch):
    # chunks consumed one at a time: a few blocks' records, not the file
    monkeypatch.setattr(eventfile, "READ_BLOCK", 1 << 12)
    rng = np.random.default_rng(5)
    n = 400_000
    t_ps = np.cumsum(rng.integers(1, 1000, n))
    path = tmp_path / "events.bin"
    reference.write_records(path, rng.integers(0, 3, n), t_ps, 3)
    tracemalloc.start()
    try:
        _, _, chunks = open_event_file(path)
        last = None
        for _, horizon in chunks:
            last = horizon if horizon is not None else last
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert last == t_ps[-1]
    assert peak <= 8 * eventfile.READ_BLOCK * eventfile._RECORD_DTYPE.itemsize
