#!/usr/bin/env python3
"""Record a performance change: the benchmark on parent and change, in
alternating pairs.

    python3 scripts/bench_record.py --label noise_direct --parent HEAD~1 \
        --pairs 10 --seconds 20 --seeds 1 9173

Exports the parent commit's files and the change's with `git archive`
into two temporary directories, and runs `perfbench/run.py --trace 0` in
both for every workload of BENCHMARK.json and every seed: `--pairs` pairs
each, the parent first in odd pairs and the change first in even ones.
Then runs `scripts/check_trace_hashes.py` on each side that has it.  The
change is the tracked files of this working tree: a `git stash create`
snapshot when they differ from HEAD, else HEAD itself; untracked files are
left out.  Both sides thus run from the same kind of fresh directory.  An
archive holds exactly the files of its commit and leaves no state in the
repository, so a killed run leaves nothing behind but its temporary
directories.

Writes `BENCH_<label>.json` at the root of this checkout: the parent and
change commits (`change` is HEAD; `dirty` says whether the working tree
differs from it, and `change_tree` is the commit that was run), the
Python version, `nproc`, the pair count and run
length, every run's end-to-end metrics on both sides, each metric's median
and quartiles per side and the number of pairs the change won, the report
sha256 of every workload and seed on both sides, and both sides' trace
digests.  Exits 1 if a benchmark run fails or is not correct.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_LINE = re.compile(r"^(?:ok  |FAIL) (.+): ([0-9a-f]{64})")
REPORT_LINE = re.compile(r"^report sha256 .*: ([0-9a-f]{64}) ")


def git(*args) -> str:
    return subprocess.run(("git",) + args, cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(commit: str, into: str) -> None:
    """The commit's files, as `git archive` writes them, under into."""
    archive = subprocess.run(("git", "archive", "--format=tar", commit),
                             cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(("tar", "-x", "-C", into), input=archive, check=True)


def bench(checkout: str, workload: str, seed: int, seconds: float) -> tuple:
    """(end-to-end metric values, report sha256) of one perfbench run."""
    proc = subprocess.run(
        (sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"),
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 else {}
    if not result.get("correct"):
        raise SystemExit(f"benchmark run failed in {checkout}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    sha = next(m.group(1) for m in map(REPORT_LINE.match, lines) if m)
    return ({name: m["value"] for name, m in result["metrics"].items()},
            sha)


def trace_digests(checkout: str):
    """{run name: digest} printed by the checkout's trace hash check."""
    script = os.path.join(checkout, "scripts", "check_trace_hashes.py")
    if not os.path.isfile(script):
        return None
    out = subprocess.run((sys.executable, script), cwd=checkout,
                         capture_output=True, text=True).stdout
    return {m.group(1): m.group(2)
            for m in map(TRACE_LINE.match, out.splitlines()) if m}


def summary(parent: list, change: list, better: str) -> dict:
    """Median and quartiles per side, and the pairs the change won."""
    out = {}
    for side, runs in (("parent", parent), ("change", change)):
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        out[side] = {"median": median, "q1": q1, "q3": q3}
    sign = -1 if better == "lower" else 1
    out["change_won"] = sum(sign * (c - p) > 0
                            for p, c in zip(parent, change))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--parent", default="HEAD~1")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    metrics = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    record = {
        "label": args.label,
        "parent": git("rev-parse", args.parent),
        "change": git("rev-parse", "HEAD"),
        "change_tree": git("stash", "create") or git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "pairs": args.pairs,
        "seconds": args.seconds,
        "runs": {}, "summary": {}, "report_sha256": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as change:
        export(record["parent"], parent)
        export(record["change_tree"], change)
        sides = {"parent": parent, "change": change}
        for workload in (w["name"] for w in benchmark["workloads"]):
            for seed in args.seeds:
                key = f"{workload} seed {seed}"
                runs = {"parent": [], "change": []}
                shas = {"parent": set(), "change": set()}
                for pair in range(args.pairs):
                    order = ("parent", "change") if pair % 2 == 0 \
                        else ("change", "parent")
                    for side in order:
                        values, sha = bench(sides[side], workload, seed,
                                            args.seconds)
                        runs[side].append(values)
                        shas[side].add(sha)
                    print(f"{key} pair {pair + 1}: run_s "
                          f"{runs['parent'][-1]['run_s']:.3f} -> "
                          f"{runs['change'][-1]['run_s']:.3f}",
                          file=sys.stderr)
                record["runs"][key] = runs
                record["report_sha256"][key] = {
                    side: sorted(s) for side, s in shas.items()}
                record["summary"][key] = {
                    name: summary([r[name] for r in runs["parent"]],
                                  [r[name] for r in runs["change"]], better)
                    for name, better in metrics.items()}
        record["trace_digests"] = {side: trace_digests(path)
                                   for side, path in sides.items()}

    out = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
