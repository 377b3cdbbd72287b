import json
import tracemalloc

import numpy as np
import pytest

from epstreak import eventfile
from epstreak.errors import ConfigurationError
from epstreak.eventfile import open_event_file, sidecar_path, write_events
from epstreak.events import DetectorModel, RunConfig, merge_chunks, simulate_chunks
from epstreak.presets import heralded_source

META = {"duration_s": 0.02, "n_channels": 3, "seed": 3}


def _records():
    """The (channel, t_ps) record blocks of a short hbt run."""
    run = RunConfig(duration_s=META["duration_s"], seed=META["seed"], topology="hbt")
    det = DetectorModel()
    return list(merge_chunks(simulate_chunks(heralded_source(), None, det, det, None, run)))


def test_roundtrip(tmp_path):
    blocks = _records()
    path = tmp_path / "events.bin"
    list(write_events(path, blocks, META))
    n_channels, n_records, back = open_event_file(path)
    channel, t_ps = (np.concatenate(a) for a in zip(*back))
    assert n_channels == META["n_channels"]
    assert n_records == len(t_ps) == sum(len(t) for _, t in blocks) > 0
    assert np.array_equal(t_ps, np.concatenate([t for _, t in blocks]))
    assert np.array_equal(channel, np.concatenate([c for c, _ in blocks]))
    assert json.loads(sidecar_path(path).read_text()) == META


def test_rewrite_is_byte_identical(tmp_path):
    blocks = _records()
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    list(write_events(p1, blocks, META))
    list(write_events(p2, blocks, META))
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ConfigurationError):
        open_event_file(p)


def test_bad_version(tmp_path):
    p = tmp_path / "events.bin"
    list(write_events(p, _records(), META))
    raw = bytearray(p.read_bytes())
    raw[4] = 99
    p.write_bytes(bytes(raw))
    with pytest.raises(ConfigurationError):
        open_event_file(p)


@pytest.mark.parametrize("keep, message", [(6, "truncated event-file header"),
                                           (-4, "truncated event file")])
def test_truncated_file(tmp_path, keep, message):
    p = tmp_path / "events.bin"
    list(write_events(p, _records(), META))
    p.write_bytes(p.read_bytes()[:keep])
    with pytest.raises(ConfigurationError, match=message):
        open_event_file(p)


def test_records_read_without_sidecar(tmp_path):
    blocks = _records()
    path = tmp_path / "events.bin"
    list(write_events(path, blocks, META))
    sidecar_path(path).unlink()
    _, n_records, back = open_event_file(path)
    t_ps = np.concatenate([t for _, t in back])
    assert np.array_equal(t_ps, np.concatenate([t for _, t in blocks]))
    assert n_records == len(t_ps)


def test_read_peak_memory_bounded(tmp_path, monkeypatch):
    # blocks consumed one at a time: a few blocks' records, not the file
    monkeypatch.setattr(eventfile, "READ_BLOCK", 1 << 12)
    rng = np.random.default_rng(5)
    n = 400_000
    channel = rng.integers(0, 3, n).astype(np.uint8)
    t_ps = np.cumsum(rng.integers(1, 1000, n))
    path = tmp_path / "events.bin"
    list(write_events(path, [(channel, t_ps)], {"n_channels": 3}))
    tracemalloc.start()
    try:
        _, _, blocks = open_event_file(path)
        last = None
        for _, block_t_ps in blocks:
            last = block_t_ps[-1]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert last == t_ps[-1]
    assert peak <= 8 * eventfile.READ_BLOCK * eventfile._RECORD_DTYPE.itemsize
