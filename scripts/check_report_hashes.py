#!/usr/bin/env python3
"""Check that the bundled scenarios still write the same report.json.

    python3 scripts/check_report_hashes.py

Runs smoke and mobility with `--pipeline all`, flagship with
`--pipeline linkage`, and the benchmark workloads `track` and `link` at
seeds 1, 77 and 9173 (each workload's scenario document from
`perfbench/workloads.py`, written to a temporary YAML file, with that
workload's pipeline).  Each run is a fresh `p2ptrack run` process from
this checkout's `src`; the sha256 of its report.json is compared with the
digest pinned below.  Prints one line per run and exits 1 if any digest
differs or any run fails.  A change that alters a report on purpose
updates its digest here and says why.
"""

import hashlib
import os
import subprocess
import sys
import tempfile

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import WORKLOADS, scenario_doc  # noqa: E402

# (scenario, pipeline) -> sha256 of its report.json
PINNED = {
    ("smoke", "all"):
        "8a22e62dc91f88aaa6af6e2127dc84fc033c1c0128bdcc0cd53d5147c643901c",
    ("mobility", "all"):
        "2ca087b2bdc5f3ec4d392def516c0f7f68e6505508823ff0d868db94a68ab313",
    ("flagship", "linkage"):
        "e013fdb92d8e40111fa159daf559b929730a85af38cb6eb38ed833271541f5c5",
}

# (benchmark workload, seed) -> sha256 of its report.json
PINNED_WORKLOADS = {
    ("track", 1):
        "fb5ce2058e27cde87d1427fa14bf81e4ada2dccccbace907ff2832287e03f22e",
    ("track", 77):
        "834153299ddeef3ccc2153fcd8ec34769c7efed65b0bed66babc7f0b8d381762",
    ("track", 9173):
        "f52c7d834bc5d8226149558e9679f00826976737738088f96616122c7670d38f",
    ("link", 1):
        "6af448f9b04d1342c178a908596ff7246f886ba04e21be46813967345cd5a05b",
    ("link", 77):
        "a5302b8bf800f30e6e45dcc0e10789927cb6bc49b1205d1a98b5f4b6bca1e5a2",
    ("link", 9173):
        "36f8f6e2e0249ceb23f404e3c4b5f88ee5887c2f7e1766c5f5949db50c93e7f5",
}


def report_digest(scenario_path: str, pipeline: str, out: str) -> str:
    """Run one scenario file and return the sha256 of its report.json."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-m", "p2ptrack", "run",
                    "--scenario", scenario_path,
                    "--pipeline", pipeline, "--out", out],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    with open(os.path.join(out, "report.json"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        # (name, scenario file, pipeline, pinned digest) of each run
        runs = [(f"{scenario} --pipeline {pipeline}",
                 os.path.join(ROOT, "scenarios", f"{scenario}.yaml"),
                 pipeline, pinned)
                for (scenario, pipeline), pinned in PINNED.items()]
        for (workload, seed), pinned in PINNED_WORKLOADS.items():
            path = os.path.join(tmp, f"{workload}-{seed}.yaml")
            with open(path, "w") as fh:
                yaml.safe_dump(scenario_doc(workload, seed), fh)
            runs.append((f"benchmark {workload} seed {seed}", path,
                         WORKLOADS[workload]["pipeline"], pinned))
        for i, (name, path, pipeline, pinned) in enumerate(runs):
            try:
                digest = report_digest(path, pipeline,
                                       os.path.join(tmp, f"out{i}"))
            except subprocess.CalledProcessError as exc:
                print(f"FAIL {name}: exit status {exc.returncode}")
                failed += 1
                continue
            if digest == pinned:
                print(f"ok   {name}: {digest}")
            else:
                print(f"FAIL {name}: {digest}, pinned {pinned}")
                failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
