"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
``epstreak`` module that bound it (``from .x import f`` copies the name into
the importing module, so patching only the defining module would miss those
callers). Spans are kept in memory as (name, start, end, parent, rss rise,
counters) and reduced to per-layer metrics by ``Tracer.metrics``.
"""

from __future__ import annotations

import functools
import importlib
import resource
import statistics
import sys
import threading
import time
from pathlib import Path


def _len_first_arrivals(args, kwargs, result):
    return {"in": len(args[0][0]), "out": len(result)}


def _starts(args, kwargs, result):
    return {"starts": int(result.n_starts)}


def _file_bytes(args, kwargs, result):
    return {"bytes": Path(args[0]).stat().st_size}


def _dir_bytes(args, kwargs, result):
    return {"bytes": sum(p.stat().st_size for p in Path(args[0]).rglob("*")
                         if p.is_file())}


# (module, attribute path, counters taken from the call) per traced function.
# The span is named "<module>.<last attribute>".
TARGETS = (
    ("cli", "main", None),
    ("events", "simulate_stream", None),
    ("events", "apply_detector", _len_first_arrivals),
    ("spdc", "SourceModel.conditioned_jsd", None),
    ("tcspc", "build_histogram", _starts),
    ("tcspc", "heralded_g2", None),
    ("tcspc", "read_histogram_csv", None),
    ("tcspc", "write_histogram_csv", None),
    ("eventfile", "write_event_file", _file_bytes),
    ("eventfile", "read_event_file", _file_bytes),
    ("twins", "acquire_cube", None),
    ("twins", "transmission", None),
    ("twins", "calibrate_delay", None),
    ("twins", "reconstruct_map", None),
    ("twins", "save_cube", _dir_bytes),
    ("twins", "write_map_csv", _file_bytes),
    ("fitting", "fit_decay", None),
    ("fitting", "convolve_model", None),
)

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
# (span name, statistic, unit)
METRICS = (
    ("events.apply_detector", "s", "s"),
    ("events.apply_detector", "in", "count"),
    ("events.apply_detector", "out", "count"),
    ("events.simulate_stream", "calls", "count"),
    ("events.simulate_stream", "self_s", "s"),
    ("events.simulate_stream", "rss_rise_mb", "MB"),
    ("spdc.conditioned_jsd", "calls", "count"),
    ("spdc.conditioned_jsd", "s", "s"),
    ("tcspc.heralded_g2", "calls", "count"),
    ("tcspc.heralded_g2", "s", "s"),
    ("tcspc.heralded_g2", "rss_rise_mb", "MB"),
    ("tcspc.build_histogram", "calls", "count"),
    ("tcspc.build_histogram", "s", "s"),
    ("tcspc.build_histogram", "starts", "count"),
    ("tcspc.read_histogram_csv", "s", "s"),
    ("eventfile.write_event_file", "s", "s"),
    ("eventfile.write_event_file", "bytes", "B"),
    ("eventfile.read_event_file", "s", "s"),
    ("eventfile.read_event_file", "bytes", "B"),
    ("eventfile.read_event_file", "rss_rise_mb", "MB"),
    ("twins.acquire_cube", "self_s", "s"),
    ("twins.transmission", "calls", "count"),
    ("twins.transmission", "s", "s"),
    ("twins.calibrate_delay", "s", "s"),
    ("twins.reconstruct_map", "s", "s"),
    ("twins.save_cube", "s", "s"),
    ("twins.save_cube", "bytes", "B"),
    ("twins.write_map_csv", "s", "s"),
    ("twins.write_map_csv", "bytes", "B"),
    ("fitting.fit_decay", "calls", "count"),
    ("fitting.fit_decay", "s", "s"),
    ("fitting.fit_decay", "s_max", "s"),
    ("fitting.fit_decay", "evals_median", "count"),
    ("fitting.fit_decay", "evals_max", "count"),
    ("fitting.convolve_model", "calls", "count"),
    ("cli.main", "self_s", "s"),
)

# statistics that are exact counts, so they must repeat for a fixed seed
COUNT_STATS = ("calls", "in", "out", "bytes", "starts", "evals_median", "evals_max")


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, rss rise, counters]
        self.absent = []
        self._local = threading.local()

    def _wrap(self, name, fn, counters):
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            rss0 = _maxrss_mb()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[4] = _maxrss_mb() - rss0
                stack.pop()
            if counters is not None:
                span[5] = counters(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target; a target the program no longer has is absent."""
        loaded = {name: importlib.import_module(f"epstreak.{name}")
                  for name in ("cli", "presets", "events", "spdc", "tcspc",
                               "eventfile", "twins", "fitting")}
        users = [m for n, m in sorted(sys.modules.items())
                 if (n == "epstreak" or n.startswith("epstreak.")) and m is not None]
        for module_name, path, counters in TARGETS:
            owner = loaded[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            span_name = f"{module_name}.{attr}"
            if original is None:
                self.absent.append(span_name)
                continue
            wrapped = self._wrap(span_name, original, counters)
            setattr(owner, attr, wrapped)
            if outer:
                continue
            for module in users:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)

    def metrics(self):
        """Per-layer statistics, keyed "<span>.<statistic>"."""
        spans = self.spans
        children = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                children[s[3]].append(i)

        def nearest(i, name):
            """Index of the closest ancestor span called ``name``, or -1."""
            p = spans[i][3]
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            return p

        evals = {}
        for i, s in enumerate(spans):
            if s[0] == "fitting.convolve_model":
                fit = nearest(i, "fitting.fit_decay")
                if fit >= 0:
                    evals[fit] = evals.get(fit, 0) + 1

        by_name = {}
        for i, s in enumerate(spans):
            by_name.setdefault(s[0], []).append(i)

        out = {}
        for name, stat, _ in METRICS:
            idx = by_name.get(name, [])
            outer = [i for i in idx if nearest(i, name) < 0]
            if stat == "calls":
                value = len(idx)
            elif stat == "s":
                value = sum(spans[i][2] - spans[i][1] for i in outer)
            elif stat == "s_max":
                value = max((spans[i][2] - spans[i][1] for i in idx), default=0.0)
            elif stat == "self_s":
                value = sum(_self_time(spans, i, children[i]) for i in idx)
            elif stat == "rss_rise_mb":
                value = sum(spans[i][4] for i in outer)
            elif stat == "evals_max":
                value = max((evals.get(i, 0) for i in idx), default=0)
            elif stat == "evals_median":
                value = statistics.median([evals.get(i, 0) for i in idx]) if idx else 0
            else:
                value = sum((spans[i][5] or {}).get(stat, 0) for i in outer)
            out[f"{name}.{stat}"] = value
        return out


def _self_time(spans, i, kids):
    """Span duration minus the union of its children's intervals."""
    start, end = spans[i][1], spans[i][2]
    covered = 0.0
    cursor = start
    for a, b in sorted((spans[k][1], spans[k][2]) for k in kids):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            covered += b - a
            cursor = b
    return (end - start) - covered
