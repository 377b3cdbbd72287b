"""Binary event-file I/O.

Layout (little-endian): header ``EPPS`` magic, u16 version, u16 channel
count, then one record per event: u8 channel, u64 timestamp in ps. A sidecar
JSON file ``<path>.meta.json`` echoes the full run configuration and seed.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .events import EventStream

MAGIC = b"EPPS"
VERSION = 1

_RECORD_DTYPE = np.dtype([("channel", "<u1"), ("t_ps", "<u8")])

_WRITE_CHUNK = 1 << 20  # records per write; bounds the writer's temporaries

MISSING_SIDECAR = "missing-sidecar: duration unknown"


def sidecar_path(path):
    return Path(str(path) + ".meta.json")


def write_event_file(path, stream: EventStream, metadata: dict):
    path = Path(path)
    records = np.empty(min(len(stream), _WRITE_CHUNK), dtype=_RECORD_DTYPE)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HH", VERSION, stream.n_channels))
        for i in range(0, len(stream), _WRITE_CHUNK):
            chunk = records[:min(_WRITE_CHUNK, len(stream) - i)]
            chunk["channel"] = stream.channel[i:i + len(chunk)]
            chunk["t_ps"] = stream.t_ps[i:i + len(chunk)]  # int64 -> <u8, same bits
            fh.write(chunk.data)
    meta = dict(metadata)
    meta.setdefault("duration_s", stream.duration_s)
    meta.setdefault("n_channels", stream.n_channels)
    warnings = [w for w in stream.warnings if w != MISSING_SIDECAR]  # it gets one here
    if warnings:
        meta["warnings"] = warnings
    sidecar_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def read_event_file(path) -> EventStream:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != MAGIC:
        raise ConfigurationError(f"{path}: not an EPPS event file")
    if len(raw) < 8:
        raise ConfigurationError(f"{path}: truncated event-file header")
    version, n_channels = struct.unpack("<HH", raw[4:8])
    if version != VERSION:
        raise ConfigurationError(f"{path}: unsupported event-file version {version}")
    body = len(raw) - 8
    if body % _RECORD_DTYPE.itemsize:
        raise ConfigurationError(
            f"{path}: truncated event file: {body} record bytes is not a whole "
            f"number of {_RECORD_DTYPE.itemsize}-byte records")
    records = np.frombuffer(raw, dtype=_RECORD_DTYPE, offset=8)
    sc = sidecar_path(path)
    if sc.exists():
        meta = json.loads(sc.read_text())
    else:
        meta = {"warnings": [MISSING_SIDECAR]}
    stream = EventStream(
        channel=records["channel"].copy(),
        t_ps=records["t_ps"].astype(np.int64),
        duration_s=float(meta.get("duration_s", 0.0)),
        n_channels=n_channels,
        warnings=list(meta.get("warnings", [])),
    )
    return stream
