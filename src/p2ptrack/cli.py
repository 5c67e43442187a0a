"""Command-line entry point.

    p2ptrack run --scenario s.yaml --seed 42 --pipeline mobility --out out/
    p2ptrack series --report out/report.json --figure fig3-left --out out/
    p2ptrack validate --scenario s.yaml

Exit status is 0 only when every pipeline invariant check passes: 1 when
a check fails, 2 when the input is refused or the output cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys

from .pipelines import (PIPELINES, PipelineError, RunReport, emit_series,
                        run, write_report)
from .scenario import ScenarioError, load_scenario


def _cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"scenario validation failed:\n{exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        scenario.seed = args.seed
    if args.rounds is not None:
        scenario.tracker.rounds = args.rounds
    if args.s is not None:
        scenario.tracker.s = args.s
    if args.clients is not None:
        scenario.tracker.clients = args.clients
    if args.salt is not None:
        scenario.tracker.salt = args.salt
    try:
        report = run(scenario, args.pipeline)
    except (ScenarioError, PipelineError) as exc:
        print(f"scenario cannot be run:\n{exc}", file=sys.stderr)
        return 2
    try:
        paths = write_report(report, args.out)
    except OSError as exc:
        print(f"cannot write to {args.out}: {exc}", file=sys.stderr)
        return 2
    with open(paths["summary"]) as fh:
        print(fh.read(), end="")
    if not report.ok():
        print("one or more pipeline checks FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_series(args) -> int:
    try:
        with open(args.report) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read report {args.report}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(doc, dict) or \
            not {"scenario", "seed", "pipeline"} <= doc.keys():
        print(f"{args.report}: not a report (needs scenario, seed and "
              f"pipeline)", file=sys.stderr)
        return 2
    series = doc.get("series", {})
    bad = [f"series {name!r}" for name, points in series.items()
           if not isinstance(points, list)
           or not all(isinstance(p, list) and len(p) == 2 for p in points)
           ] if isinstance(series, dict) else ["series"]
    if bad:
        print(f"{args.report}: malformed {', '.join(bad)} (a report's "
              f"series map names to lists of [x, y] pairs)", file=sys.stderr)
        return 2
    report = RunReport(doc["scenario"], doc["seed"], doc["pipeline"],
                       doc.get("metrics", {}),
                       {k: [tuple(p) for p in v] for k, v in series.items()},
                       doc.get("diagnostics", {}), doc.get("checks", []))
    try:
        for path in emit_series(report, args.figure, args.out):
            print(path)
    except PipelineError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write to {args.out}: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_validate(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    problems = scenario.validate("all")
    if problems:
        print("invalid scenario on some pipeline:\n  " +
              "\n  ".join(problems), file=sys.stderr)
        return 2
    print(f"scenario {scenario.name!r} (seed {scenario.seed}) is valid")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p2ptrack",
        description="deterministic P2P call-pattern tracking simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a pipeline on a scenario")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--pipeline", choices=PIPELINES, default="all")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--rounds", type=int, default=None,
                       help="override tracker round count")
    p_run.add_argument("--s", type=float, default=None,
                       help="override the inter-call gap in seconds")
    p_run.add_argument("--clients", type=int, default=None,
                       help="override the tracking client count")
    p_run.add_argument("--salt", default=None,
                       help="override the anonymization salt (hex)")
    p_run.set_defaults(func=_cmd_run)

    p_series = sub.add_parser("series",
                              help="re-emit figure series from a report")
    p_series.add_argument("--report", required=True)
    p_series.add_argument("--figure", required=True)
    p_series.add_argument("--out", required=True)
    p_series.set_defaults(func=_cmd_series)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("--scenario", required=True)
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
