"""One workload run in its own process; see run.py, which starts it.

Runs in the directory that receives the run's inputs and outputs. Imports the
program and writes the inputs (set-up), runs and times every unit through
``epstreak.cli.main``, records peak RSS, then checks the outputs, hashes the
directory and writes a JSON result to ``--result``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _blas_threads():
    """Thread count of every OpenBLAS library loaded in this process."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


PROBES = 8  # probes before the first unit and after the last


def probe_s(data):
    """Time of a fixed sort-and-loop kernel: how fast the host runs right now.

    ``data`` is 100k floats, so the probe adds under 1 MB to peak RSS.
    """
    t = time.perf_counter()
    for _ in range(16):
        data.copy().sort()
        acc = 0
        for i in range(20_000):
            acc += i
    return time.perf_counter() - t


def digest(root):
    """sha256 over every file below ``root``, manifests without their timestamps."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("timestamps", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--replica", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    import numpy
    import scipy
    from epstreak import cli

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    units = workload.setup(args.seed, args.replica)
    setup_s = time.monotonic() - args.launched

    probe_data = numpy.random.default_rng(0).random(100_000)
    probes = [probe_s(probe_data) for _ in range(PROBES)]
    unit_s, errors = [], []
    for unit in units:
        t0 = time.perf_counter()
        for argv in unit:
            try:
                rc = cli.main(argv)
                errors.append(None if rc == 0 else f"exit code {rc}")
            except Exception:  # a crash is a failed operation, not a failed run
                errors.append(traceback.format_exc(limit=3))
        unit_s.append(time.perf_counter() - t0)
    probes += [probe_s(probe_data) for _ in range(PROBES)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        failures = workload.check()
    except Exception:  # outputs missing or unreadable
        failures = [[traceback.format_exc(limit=3)] for _ in errors]
    failures = [([e] if e else []) + f for e, f in zip(errors, failures)]

    result = {
        "setup_s": setup_s,
        "unit_s": unit_s,
        "probe_s": probes,
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
        "digest": digest("."),
        "env": {
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "EPPS_THREADS": os.environ.get("EPPS_THREADS"),
            "blas_threads": _blas_threads(),
        },
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
