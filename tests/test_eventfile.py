import tracemalloc

import numpy as np
import pytest

from epstreak.errors import ConfigurationError
from epstreak.eventfile import (MISSING_SIDECAR, read_event_file, sidecar_path,
                                write_event_file)
from epstreak.events import DetectorModel, EventStream, RunConfig, simulate_stream
from epstreak.presets import heralded_source
from epstreak.tcspc import coincidence_rate


def _stream():
    run = RunConfig(duration_s=0.02, seed=3, topology="hbt")
    det = DetectorModel()
    return simulate_stream(heralded_source(), None, det, det, None, run)


def test_roundtrip(tmp_path):
    stream = _stream()
    path = tmp_path / "events.bin"
    write_event_file(path, stream, {"seed": 3})
    back = read_event_file(path)
    assert np.array_equal(back.t_ps, stream.t_ps)
    assert np.array_equal(back.channel, stream.channel)
    assert back.duration_s == stream.duration_s
    assert back.n_channels == stream.n_channels


def test_rewrite_is_byte_identical(tmp_path):
    stream = _stream()
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_event_file(p1, stream, {"seed": 3})
    write_event_file(p2, stream, {"seed": 3})
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ConfigurationError):
        read_event_file(p)


def test_bad_version(tmp_path):
    stream = _stream()
    p = tmp_path / "events.bin"
    write_event_file(p, stream, {})
    raw = bytearray(p.read_bytes())
    raw[4] = 99
    p.write_bytes(bytes(raw))
    with pytest.raises(ConfigurationError):
        read_event_file(p)


@pytest.mark.parametrize("keep, message", [(6, "truncated event-file header"),
                                           (-4, "truncated event file")])
def test_truncated_file(tmp_path, keep, message):
    p = tmp_path / "events.bin"
    write_event_file(p, _stream(), {})
    p.write_bytes(p.read_bytes()[:keep])
    with pytest.raises(ConfigurationError, match=message):
        read_event_file(p)


def test_missing_sidecar_is_reported(tmp_path):
    stream = _stream()
    path = tmp_path / "events.bin"
    write_event_file(path, stream, {})
    with_sidecar = read_event_file(path)
    assert with_sidecar.warnings == []
    assert with_sidecar.duration_s == stream.duration_s
    sidecar_path(path).unlink()
    back = read_event_file(path)
    assert back.warnings == [MISSING_SIDECAR]
    assert back.duration_s == 0.0
    assert np.array_equal(back.t_ps, stream.t_ps)
    with pytest.raises(ConfigurationError, match="sidecar"):
        coincidence_rate(back, 0, 1, 1000)
    # written back, the file has a sidecar again and must not claim otherwise
    write_event_file(path, back, {})
    again = read_event_file(path)
    assert again.warnings == []
    assert again.duration_s == 0.0
    with pytest.raises(ConfigurationError, match=r"duration unknown; cannot"):
        coincidence_rate(again, 0, 1, 1000)


def test_read_peak_memory_bounded(tmp_path):
    # the file's bytes plus the returned channel and int64 tag arrays: 2x
    rng = np.random.default_rng(5)
    n = 400_000
    stream = EventStream(rng.integers(0, 3, n).astype(np.uint8),
                         np.cumsum(rng.integers(1, 1000, n)), 1.0, 3)
    path = tmp_path / "events.bin"
    write_event_file(path, stream, {})
    tracemalloc.start()
    try:
        back = read_event_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.t_ps, stream.t_ps)
    assert peak <= 2.2 * path.stat().st_size
