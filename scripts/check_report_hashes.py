#!/usr/bin/env python3
"""Check that the bundled scenarios still write the same report.json.

    python3 scripts/check_report_hashes.py

Runs smoke and mobility with `--pipeline all` and flagship with
`--pipeline linkage`, each in a fresh process from this checkout's `src`,
and compares the sha256 of each report.json with the digest pinned below.
Prints one line per run and exits 1 if any digest differs or any run
fails.  The flagship run takes about a minute.  A change that alters a
report on purpose updates its digest here and says why.
"""

import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (scenario, pipeline) -> sha256 of its report.json
PINNED = {
    ("smoke", "all"):
        "8a22e62dc91f88aaa6af6e2127dc84fc033c1c0128bdcc0cd53d5147c643901c",
    ("mobility", "all"):
        "2ca087b2bdc5f3ec4d392def516c0f7f68e6505508823ff0d868db94a68ab313",
    ("flagship", "linkage"):
        "e013fdb92d8e40111fa159daf559b929730a85af38cb6eb38ed833271541f5c5",
}


def report_digest(scenario: str, pipeline: str, out: str) -> str:
    """Run one scenario and return the sha256 of its report.json."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-m", "p2ptrack", "run",
                    "--scenario", os.path.join(ROOT, "scenarios",
                                               f"{scenario}.yaml"),
                    "--pipeline", pipeline, "--out", out],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    with open(os.path.join(out, "report.json"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for (scenario, pipeline), pinned in PINNED.items():
            name = f"{scenario} --pipeline {pipeline}"
            try:
                digest = report_digest(scenario, pipeline,
                                       os.path.join(tmp, scenario))
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
