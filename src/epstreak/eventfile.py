"""Binary event files: a (tags, horizon) chunk stream written and read in bounded blocks.

Layout (little-endian): header ``EPPS`` magic, u16 version, u16 channel
count, then one record per event: u8 channel, u64 timestamp in ps, in
(time, channel) order. A sidecar JSON file ``<path>.meta.json`` echoes the
full run configuration and seed. This module is the only one that knows the
records: a run goes in, and comes back out, as the chunks that
``events.simulate_chunks`` yields and the counters consume, a sorted int64
tag array per channel and a horizon below which no later tag falls.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .checks import TAG_LIMIT_PS
from .errors import ConfigurationError

MAGIC = b"EPPS"
VERSION = 1

_RECORD_DTYPE = np.dtype([("channel", "<u1"), ("t_ps", "<u8")])
_HEADER = struct.Struct("<4sHH")

_WRITE_CHUNK = 1 << 20  # records per write; bounds the writer's temporaries
READ_BLOCK = 1 << 16  # records per read block: 576 kB of records


def sidecar_path(path):
    return Path(str(path) + ".meta.json")


def write_events(path, chunks, metadata: dict):
    """Write a (tags, horizon) chunk stream to an event file as it comes, passing each chunk on.

    A generator: the header, with ``metadata["n_channels"]`` channels, is
    written before the first chunk, and ``metadata`` goes to the sidecar
    after the last one. Each channel's tags below a chunk's horizon are
    merged into records and written; a tag at or above it waits for the next
    chunk, which may tie it on a lower channel. Each chunk is yielded
    unchanged once its records are written. The file is the one a single
    chunk of the whole run writes.
    """
    path = Path(path)
    held = None
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, metadata["n_channels"]))
        for tags, horizon in chunks:
            held = tags if held is None else [np.concatenate((h, t)) if len(h) else t
                                              for h, t in zip(held, tags)]
            cuts = [len(t) if horizon is None else np.searchsorted(t, horizon, side="left")
                    for t in held]
            _write_records(fh, *_merge_channels([t[:cut] for t, cut in zip(held, cuts)]))
            held = [t[cut:].copy() for t, cut in zip(held, cuts)]
            yield tags, horizon
            del tags  # before the next chunk is drawn
    sidecar_path(path).write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n")


def _merge_channels(tags):
    """(channel, t_ps) of per-channel sorted tags merged in (time, channel) order."""
    channel = np.concatenate([np.full(len(t), ch, dtype=np.uint8) for ch, t in enumerate(tags)])
    t_ps = np.concatenate(tags)
    # a stable sort of the channel-ordered concatenation leaves ties in channel order
    order = np.argsort(t_ps, kind="stable")
    return channel.take(order), t_ps.take(order)


def _write_records(fh, channel, t_ps):
    records = np.empty(min(len(t_ps), _WRITE_CHUNK), dtype=_RECORD_DTYPE)
    for i in range(0, len(t_ps), _WRITE_CHUNK):
        chunk = records[:min(_WRITE_CHUNK, len(t_ps) - i)]
        chunk["channel"] = channel[i:i + len(chunk)]
        chunk["t_ps"] = t_ps[i:i + len(chunk)]  # int64 -> <u8, same bits
        fh.write(chunk.data)


def open_event_file(path):
    """(channel count, record count, (tags, horizon) chunks) of an event file.

    That the file can be read, its header and its whole-record length are
    checked here. The chunks are read as they are consumed: each is a block
    of at most READ_BLOCK records split per channel, with the block's last
    time as its horizon, and a last chunk of empty arrays with horizon None
    ends the stream. Each block is checked before it is yielded: the first
    record whose channel is not below the channel count, whose timestamp is
    2^62 ps (TAG_LIMIT_PS) or more, or whose timestamp is lower than the one
    before it raises ConfigurationError with its index.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            size = os.fstat(fh.fileno()).st_size
    except OSError as exc:
        raise ConfigurationError(f"cannot read event file {path}: {exc.strerror}") from None
    if head[:4] != MAGIC:
        raise ConfigurationError(f"{path}: not an EPPS event file")
    if len(head) < _HEADER.size:
        raise ConfigurationError(f"{path}: truncated event-file header")
    _, version, n_channels = _HEADER.unpack(head)
    if version != VERSION:
        raise ConfigurationError(f"{path}: unsupported event-file version {version}")
    body = size - _HEADER.size
    if body % _RECORD_DTYPE.itemsize:
        raise ConfigurationError(
            f"{path}: truncated event file: {body} record bytes is not a whole "
            f"number of {_RECORD_DTYPE.itemsize}-byte records")
    n_records = body // _RECORD_DTYPE.itemsize
    return n_channels, n_records, _checked_chunks(path, n_channels, n_records)


def _checked_chunks(path, n_channels, n_records):
    before = np.zeros(1, dtype=np.int64)  # the time before each block's first record
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        for start in range(0, n_records, READ_BLOCK):
            records = np.fromfile(fh, dtype=_RECORD_DTYPE,
                                  count=min(READ_BLOCK, n_records - start))
            channel = records["channel"]
            late = records["t_ps"] >= TAG_LIMIT_PS
            t_ps = records["t_ps"].view(np.int64)  # 2^63 ps and above wrap below 0
            previous = np.concatenate((before, t_ps[:-1]))
            bad = np.flatnonzero((channel >= n_channels) | late | (t_ps < previous))
            if len(bad):
                i = bad[0]
                if channel[i] >= n_channels:
                    why = f"channel {channel[i]} is not below the header's {n_channels}"
                elif late[i]:
                    why = f"timestamp {records['t_ps'][i]} ps is 2^62 ps or more"
                else:
                    why = f"timestamp {t_ps[i]} ps is lower than the {previous[i]} ps before it"
                raise ConfigurationError(f"{path}: record {start + i}: {why}")
            del previous
            before[0] = t_ps[-1]
            yield [np.compress(channel == ch, t_ps) for ch in range(n_channels)], int(t_ps[-1])
    yield [np.empty(0, dtype=np.int64)] * n_channels, None
