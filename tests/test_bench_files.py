"""The committed benchmark results, BENCH_<n>.json at the repository root, stay machine-readable.

Each names its parent commit and holds its runs and a summary whose keys
are workloads and end-to-end metrics that BENCHMARK.json declares, so the
trajectory across changes can be read from the files alone.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(p.name for p in ROOT.glob("BENCH_*.json")
                     if re.fullmatch(r"BENCH_\d+\.json", p.name))


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({w["name"] for w in spec["workloads"]}, {m["name"] for m in spec["end_to_end"]})


def test_bench_files_present():
    assert BENCH_FILES


@pytest.mark.parametrize("name", BENCH_FILES)
def test_bench_file_layout(name):
    data = json.loads((ROOT / name).read_text())
    assert {"description", "parent", "summary", "runs"} <= data.keys()
    assert isinstance(data["description"], str) and data["description"]
    assert isinstance(data["parent"], str) and data["parent"]
    assert isinstance(data["runs"], list) and data["runs"]
    workloads, metrics = _declared()
    assert data["summary"]
    for workload, by_metric in data["summary"].items():
        assert workload in workloads, f"{name}: summary names unknown workload {workload!r}"
        unknown = set(by_metric) - metrics
        assert not unknown, f"{name}: {workload}: not end-to-end metrics: {sorted(unknown)}"
