"""One pipeline run of one workload in this process.

    PYTHONPATH=src python3 perfbench/worker.py --workload track --seed 1 \
        --trace 0 --out .perfbench/run0

Builds the workload's scenario from the seed, calls ``pipelines.run`` and
``write_report`` (the entry point ``p2ptrack run`` uses) and prints one JSON
object: the report sha256, the pipeline checks, host times and peak RSS,
and with ``--trace 1`` the per-layer metrics.  Tracing on or off, the
program is imported and run the same way and GC settings are untouched.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time

from p2ptrack import pipelines
from p2ptrack.scenario import scenario_from_dict
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, scenario_doc


def run_once(workload: str, seed: int, out_dir: str, traced: bool) -> dict:
    """Run the workload once and return its measurements."""
    scenario = scenario_from_dict(scenario_doc(workload, seed))
    problems = scenario.validate()
    if problems:
        raise ValueError(f"workload {workload} is invalid: {problems}")

    # setup_s is the time inside build_world; the world is kept only long
    # enough to count the calls placed after set-up.
    built = {}
    build_world = pipelines.build_world

    def timed_build_world(scn):
        t0 = time.perf_counter()
        world = build_world(scn)
        built["setup_s"] = time.perf_counter() - t0
        built["world"] = world
        built["calls_at_setup"] = len(world.overlay.calls)
        return world

    pipelines.build_world = timed_build_world
    tracer = Tracer() if traced else None
    try:
        cpu0 = time.process_time()
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            report = pipelines.run(scenario, WORKLOADS[workload]["pipeline"])
            calls = len(built.pop("world").overlay.calls) \
                - built["calls_at_setup"]
            pipelines.write_report(report, out_dir)
            total_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
    finally:
        pipelines.build_world = build_world

    with open(os.path.join(out_dir, "report.json"), "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    result = {
        "sha256": sha,
        "checks": len(report.checks),
        "failed_checks": [c["name"] for c in report.checks if not c["ok"]],
        "setup_s": built["setup_s"],
        "run_s": total_s - built["setup_s"],
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if traced:
        result["layers"] = layer_metrics(tracer, cpu_s, total_s)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    result = run_once(args.workload, args.seed, args.out, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
