"""p2ptrack benchmark: host time of the pipeline on seeded workloads.

    python3 perfbench/run.py --workload track --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  Each pipeline run is a fresh process
(``worker.py``) that imports p2ptrack from ``src/`` and drives
``pipelines.run`` + ``write_report``.  Runs repeat while another one fits in
``--seconds`` (at least ``MIN_RUNS``).  ``run_s`` and ``calls_per_s`` are
taken over all runs together (total time over total runs or calls); the
other metrics are medians over the runs.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` each round is an untraced run followed by a traced one; the
result holds the per-layer metrics of the traced runs, and the tracing
overhead as traced ``run_s`` minus untraced ``run_s``.

Every run must pass all pipeline checks, and every run of one workload and
seed, traced or not, must write the same report.json (its sha256 is
printed).  A traced run must record spans for each layer its workload
exercises, and its self times must add up to its own set-up plus run time
within the tracing overhead.  The last line of output is one JSON object:
``correct``, ``attempted`` and ``failed`` (checks evaluated and failed:
pipeline checks, report hashes and traced layers) and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from spans import layer_specs
from workloads import EXPECTED_SPANS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (name, unit, better) of each end-to-end metric, as in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("calls_per_s", "1/s", "higher"),
)
MIN_RUNS = {0: 3, 1: 1}
# A benchmark run gives up (and prints no result) after this many seconds.
TIME_LIMIT_S = 170
# Run outputs go under the checkout and are removed after each run.
RUNS_DIR = os.path.join(ROOT, ".perfbench")


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, traced: bool,
               timeout: float) -> dict:
    """One pipeline run in a fresh process; returns the worker's result."""
    os.makedirs(RUNS_DIR, exist_ok=True)
    out = tempfile.mkdtemp(prefix="run-", dir=RUNS_DIR)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--out", out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> list:
    """Rounds of runs until the time is used up: each round is one run,
    or an (untraced, traced) pair with tracing on."""
    rounds: list = []
    deadline = time.monotonic() + seconds
    limit = time.monotonic() + TIME_LIMIT_S
    longest = 0.0
    while True:
        t0 = time.monotonic()
        rnd = [run_worker(workload, seed, False, limit - time.monotonic())]
        if trace:
            rnd.append(run_worker(workload, seed, True,
                                  limit - time.monotonic()))
        for r, traced in zip(rnd, ("untraced", "traced")):
            print(f"run {len(rounds) + 1} {traced}: setup_s "
                  f"{r['setup_s']:.4f} run_s {r['run_s']:.4f}",
                  file=sys.stderr)
        rounds.append(rnd)
        longest = max(longest, time.monotonic() - t0)
        if len(rounds) >= MIN_RUNS[trace] and \
                time.monotonic() + longest > deadline:
            return rounds


def evaluate(workload: str, rounds: list) -> tuple:
    """(checks attempted, failure messages) over all runs."""
    runs = [r for rnd in rounds for r in rnd]
    shas = [r["sha256"] for r in runs]
    common = statistics.mode(shas)
    attempted = 0
    failures = []
    for r in runs:
        attempted += r["checks"] + 1
        failures += [f"pipeline check failed: {name}"
                     for name in r["failed_checks"]]
        if r["sha256"] != common:
            failures.append(f"report sha256 {r['sha256']} differs from "
                            f"{common}")
    for untraced, traced in (rnd for rnd in rounds if len(rnd) == 2):
        layers = traced["layers"]
        for name in EXPECTED_SPANS[workload]:
            attempted += 1
            if layers[f"{name}.n"] == 0 or layers[f"{name}.self_s"] <= 0:
                failures.append(f"layer {name} recorded no spans")
        attempted += 1
        overhead = traced["run_s"] - untraced["run_s"]
        if abs(layers["trace.unattributed_s"]) > max(overhead, 0.01):
            failures.append(
                f"self times miss {layers['trace.unattributed_s']:.4f} s "
                f"of the traced run, beyond the {overhead:.4f} s overhead")
    return attempted, failures


def end_to_end(rounds: list) -> dict:
    """Run time and throughput over all runs together: on a shared host
    a run's time moves by 10-15% from run to run, and the mean of a handful
    of runs is steadier than their median.  Set-up time (short, with rare
    long outliers) and peak RSS are medians."""
    runs = [rnd[0] for rnd in rounds]
    run_s = sum(r["run_s"] for r in runs)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "run_s": run_s / len(runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "calls_per_s": sum(r["calls"] for r in runs) / run_s,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in END_TO_END}


def per_layer(rounds: list) -> dict:
    values: dict = {}
    for untraced, traced in rounds:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
        layers["btswarm.lookups_per_s"] = (layers["btswarm.lookups.n"]
                                           / untraced["run_s"])
        for name, v in layers.items():
            values.setdefault(name, []).append(v)
    return {name: {"value": statistics.median(values[name]), "unit": unit}
            for name, unit, _ in layer_specs()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="p2ptrack benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "p2ptrack",
                                       "pipelines.py")):
        print(f"no p2ptrack sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        rounds = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(RUNS_DIR)

    attempted, failures = evaluate(args.workload, rounds)
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    shas = [r["sha256"] for rnd in rounds for r in rnd]
    print(f"report sha256 {args.workload} seed {args.seed}: "
          f"{statistics.mode(shas)} ({len(shas)} runs)")
    metrics = per_layer(rounds) if args.trace else end_to_end(rounds)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
