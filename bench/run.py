"""epstreak benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload g2-hbt --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Each workload run happens in its own
process (bench/worker.py), started again and again until ``--seconds`` have
passed, and at least twice. With ``--trace 0`` the last line of standard
output carries the end-to-end metrics; with ``--trace 1`` traced and
untraced runs alternate and it carries the per-layer metrics and the
tracing overhead. End-to-end
times are scaled to a reference host speed that a probe kernel measures in
every workload run. The lines before the last record the environment, every
run and the raw times. See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# unit of work and its amount per timed unit
WORK = {"g2-hbt": ("pairs", 1.0e7), "irf-deadtime": ("pairs", 1.34e7),
        "twins-map": ("pairs", 2.816e7), "lifetime-fit": ("fits", 1.0)}
REPLICATED = {"lifetime-fit"}  # each run draws fresh inputs from (seed, replica)
# median probe time (worker.probe_s) on a quiet 2-core Intel Xeon VM at 2.1 GHz
PROBE_REF_S = 0.02
MIN_RUNS = 2  # a traced run needs one traced and one untraced workload run
DEADLINE_S = 170.0  # the whole benchmark must end within 180 s
STATE = ROOT / ".bench_state" / "digests.json"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _source_fingerprint():
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()[:16]


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(EPPS_THREADS="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def _run_child(workload, seed, replica, traced, run_dir, index, timeout):
    work = run_dir / f"c{index}"
    work.mkdir()
    result = run_dir / f"c{index}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--replica", str(replica), "--trace", str(int(traced)),
           "--result", str(result)]
    with open(run_dir / f"c{index}.log", "wb") as log:
        launched = time.monotonic()
        proc = subprocess.run(cmd + ["--launched", repr(launched)], cwd=work,
                              env=_child_env(), stdout=log, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False)
    if proc.returncode != 0 or not result.exists():
        tail = (run_dir / f"c{index}.log").read_text(errors="replace")[-2000:]
        sys.stderr.write(f"run {index} exited with code {proc.returncode}:\n{tail}\n")
        return None
    return json.loads(result.read_text())


def _median(values):
    return statistics.median(values) if values else float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=tuple(WORK))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "epstreak" / "cli.py").is_file():
        sys.stderr.write(f"no program source under {ROOT / 'src' / 'epstreak'}\n")
        return 2

    t_start = time.monotonic()
    fingerprint = _source_fingerprint()
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "cpu": _cpu_model(), "python": platform.python_version(),
           "source": fingerprint}
    replicated = args.workload in REPLICATED
    run_dir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    state = json.loads(STATE.read_text()) if STATE.exists() else {}
    runs = []  # one dict per workload run; "failures" has one list per invocation
    try:
        while True:
            index = len(runs)
            elapsed = time.monotonic() - t_start
            if index >= MIN_RUNS and elapsed >= args.seconds:
                break
            if DEADLINE_S - elapsed < 10.0:
                break
            traced = bool(args.trace) and index % 2 == 0
            replica = 0 if (args.trace or not replicated) else index
            try:
                res = _run_child(args.workload, args.seed, replica, traced, run_dir,
                                 index, DEADLINE_S - elapsed)
            except subprocess.TimeoutExpired:
                sys.stderr.write(f"run {index} passed the {DEADLINE_S:g} s deadline\n")
                res = None
            if res is None:
                ops = len(runs[-1]["failures"]) if runs else 1
                runs.append({"index": index, "traced": traced, "done": False,
                             "failures": [["worker died"]] * ops})
                continue
            key = f"{args.workload}|seed={args.seed}|replica={replica}|src={fingerprint}"
            if state.setdefault(key, res["digest"]) != res["digest"]:
                res["failures"] = [f + [f"digest {res['digest'][:16]} differs from "
                                        f"{state[key][:16]} of an earlier run"]
                                   for f in res["failures"]]
            res.update(index=index, replica=replica, traced=traced, done=True)
            env.update(res.pop("env"))
            runs.append(res)
            print(json.dumps({k: res[k] for k in ("index", "traced", "replica", "setup_s",
                                                   "unit_s", "peak_rss_mb", "digest")}
                             | {"probe_s_median": _median(res["probe_s"]),
                                "failures": [f for f in res["failures"] if f]}))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    STATE.parent.mkdir(exist_ok=True)
    tmp = STATE.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    os.replace(tmp, STATE)

    plain = [r for r in runs if r["done"] and not r["traced"]]
    traced = [r for r in runs if r["done"] and r["traced"]]
    wall_s = _median([u for r in plain for u in r["unit_s"]])
    setup_s = _median([r["setup_s"] for r in plain])
    probe_s = _median([p for r in plain for p in r["probe_s"]])
    speed = PROBE_REF_S / probe_s  # below 1 while the host runs slower than the reference
    work_name, work_per_unit = WORK[args.workload]
    if args.trace:
        import tracing
        metrics = {}
        for name, stat, unit in tracing.METRICS if traced else ():
            key = f"{name}.{stat}"
            if stat in tracing.COUNT_STATS:
                value = traced[0]["layers"][key]
                for r in traced[1:]:
                    if r["layers"][key] != value:
                        r["failures"] = [f + [f"{key} differs between traced runs"]
                                         for f in r["failures"]]
            else:
                value = _median([r["layers"][key] for r in traced])
            metrics[key] = {"value": value, "unit": unit}
        traced_wall = _median([u for r in traced for u in r["unit_s"]])
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": wall_s, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_wall / wall_s - 1.0),
                                         "unit": "%"}
    else:
        metrics = {
            "wall_s": {"value": wall_s * speed, "unit": "s"},
            "setup_s": {"value": setup_s * speed, "unit": "s"},
            "peak_rss_mb": {"value": _median([r["peak_rss_mb"] for r in plain]), "unit": "MB"},
            "work_per_s": {"value": work_per_unit / (wall_s * speed), "unit": "1/s"},
        }

    attempted = sum(len(r["failures"]) for r in runs)
    failed = sum(1 for r in runs for f in r["failures"] if f)
    print(json.dumps({"env": env}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "runs": len(runs),
                      "units": sum(len(r["unit_s"]) for r in plain),
                      "failed_frac": failed / attempted,
                      f"{work_name}_per_s": work_per_unit / (wall_s * speed),
                      "raw_wall_s": wall_s, "raw_setup_s": setup_s, "probe_s": probe_s,
                      "batch_s_median": _median([sum(r["unit_s"]) for r in plain]),
                      "absent": traced[0]["absent"] if traced else []}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
