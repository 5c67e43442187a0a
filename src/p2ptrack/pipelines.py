"""End-to-end pipelines and report generation.

Each pipeline builds a fresh world from the scenario (so runs stay
independent and byte-reproducible), executes the pattern-tracking attack,
and aggregates anonymized metrics.  Reports never contain raw addresses,
infohash/user pairings, or profile field values; a privacy scan over the
emitted artifacts is part of the pipeline's pass/fail checks.
"""

from __future__ import annotations

import copy
import json
import os
import re
from collections import Counter
from dataclasses import dataclass, field

from .btswarm.swarm import CRAWL_DELAY, match_ips, run_crawl
from .netsim import NetsimError, parse_ip
from .rtcdir import DEFENSES
from .scenario import Scenario
from .tracker import (disambiguate, ip_token, location_samples,
                      mobility_report)
from .verifier import VERDICT_UNVERIFIABLE, VERDICT_VERIFIED
from .worldgen import ADDRESS_PLAN, BT_SAME_HOST, build_world

PIPELINES = ("mobility", "linkage", "defense-eval", "all")

FIGURES = {
    "fig3-left": ("fig3-left-simultaneous", "fig3-left-cumulative"),
    "fig3-middle": ("fig3-middle",),
    "fig3-right": ("fig3-right-city", "fig3-right-as", "fig3-right-country"),
    "fig4": ("fig4",),
    "fig5": ("fig5",),
}
FIGURE_PIPELINE = {
    "fig3-left": "mobility", "fig3-middle": "mobility",
    "fig3-right": "mobility", "fig4": "linkage", "fig5": "linkage",
}


class PipelineError(Exception):
    pass


@dataclass
class RunReport:
    scenario: str
    seed: int
    pipeline: str
    metrics: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def to_json(self) -> str:
        doc = {"scenario": self.scenario, "seed": self.seed,
               "pipeline": self.pipeline, "metrics": self.metrics,
               "series": self.series, "diagnostics": self.diagnostics,
               "checks": self.checks}
        return json.dumps(doc, sort_keys=True, indent=2)


def _call_counts(calls) -> Counter:
    """Tracked calls, false positives (extracted address not the
    callee's), misses, and online calls and those fully extracted, ground
    truth from the emission plans."""
    counts: Counter = Counter()
    for call in calls:
        expected = {t.expect_ip for t in call.placed.targets}
        got = {m.candidate_ip for m in call.extracted}
        counts["calls"] += 1
        counts["false_positive_calls"] += bool(got - expected)
        counts["miss_calls"] += bool(expected - got)
        if call.placed.targets and not any(t.stale
                                           for t in call.placed.targets):
            counts["online_calls"] += 1
            counts["online_extracted"] += bool(expected and expected <= got)
    return counts


def _call_accuracy(counts) -> dict:
    """The call counts and their rates."""
    total, online = counts["calls"], counts["online_calls"]
    fp, miss = counts["false_positive_calls"], counts["miss_calls"]
    return {
        "calls": total,
        "false_positive_calls": fp,
        "false_positive_rate": fp / total if total else 0.0,
        "miss_calls": miss,
        "miss_rate": miss / total if total else 0.0,
        "online_calls": online,
        "online_extracted": counts["online_extracted"],
        "online_extraction_rate":
            counts["online_extracted"] / online if online else 1.0,
    }


def _assignment_errors(world, assignment) -> int:
    """Assigned (ip token -> user) pairs whose user never truly owned the
    address at any probe time."""
    truth: dict = {}
    for user in world.target_ids + world.volunteers:
        for s in world.presence.sessions(user):
            host = s.host_id
            ip = world.sim.public_ip_of(host)
            truth.setdefault(ip_token(ip, world.salt), set()).add(user)
    wrong = 0
    for token, user in assignment.ip_to_user.items():
        owners = truth.get(token)
        if owners is None or user not in owners:
            wrong += 1
    return wrong


def run_mobility(scenario: Scenario, report: RunReport) -> None:
    world = build_world(scenario)
    tracker = world.make_tracker()
    # each round is read into integer counts and samples as it ends, so no
    # round's calls outlive it
    counts, validation = Counter(), Counter()
    sample_rounds: list = []
    for calls in tracker.run_study(world.target_ids, scenario.tracker.rounds,
                                   world.base_t):
        counts += _call_counts(c for c in calls if not c.validation)
        validation += _call_counts(c for c in calls if c.validation)
        if not sample_rounds:
            placed = {c.client for c in calls}
        sample_rounds.append(
            [s for s in location_samples(calls, world.geo, world.salt)
             if not s.validation])
        del calls

    accuracy = _call_accuracy(counts)
    accuracy["validation_calls"] = validation["calls"]
    accuracy["validation_false_positives"] = \
        validation["false_positive_calls"]
    assignment = disambiguate(sample_rounds)
    accuracy["post_assignment_errors"] = _assignment_errors(world, assignment)

    mob = mobility_report(sample_rounds)
    report.metrics["accuracy"] = accuracy
    report.metrics["mobility"] = {
        "population": mob.population,
        "online_ever": len(mob.online_ever),
        "coverage": mob.coverage,
        "changed_city_frac": mob.changed_city_frac,
        "changed_as_frac": mob.changed_as_frac,
        "changed_country_frac": mob.changed_country_frac,
        "assigned_ips": len(assignment.ip_to_user),
        "unassigned_ips": len(assignment.unassigned),
    }
    report.metrics["throughput_calls_per_hour"] = [
        round(3600 / scenario.tracker.s, 3) if c in placed else 0.0
        for c in range(scenario.tracker.clients)]

    report.series["fig3-left-simultaneous"] = mob.fig3_left_simultaneous
    report.series["fig3-left-cumulative"] = mob.fig3_left_cumulative
    report.series["fig3-middle"] = mob.fig3_middle
    report.series["fig3-right-city"] = mob.fig3_right_city
    report.series["fig3-right-as"] = mob.fig3_right_as
    report.series["fig3-right-country"] = mob.fig3_right_country

    avail_ok = all(0.0 <= m.availability <= 1.0
                   for m in mob.per_user.values())
    report.check("availability_in_unit_interval", avail_ok)
    cum = [y for _, y in mob.fig3_left_cumulative]
    report.check("cumulative_online_nondecreasing",
                 all(a <= b for a, b in zip(cum, cum[1:])))
    report.check("majority_vote_clean",
                 accuracy["post_assignment_errors"] == 0,
                 f"{accuracy['post_assignment_errors']} wrong assignments")
    if world.mobility_truth is not None:
        truth = world.mobility_truth
        n = len(truth.online_ever)
        report.diagnostics["planted"] = {
            "movers_city": len(truth.movers_city),
            "movers_as": len(truth.movers_as),
            "movers_country": len(truth.movers_country),
            "online_ever": n,
        }
        planted = tuple(len(movers) / n if n else 0.0 for movers in (
            truth.movers_city, truth.movers_as, truth.movers_country))
        report.check(
            "planted_fractions_reproduced",
            (mob.changed_city_frac, mob.changed_as_frac,
             mob.changed_country_frac) == planted,
            f"got {mob.changed_city_frac:.4f}/{mob.changed_as_frac:.4f}"
            f"/{mob.changed_country_frac:.4f}")
        report.check("planted_coverage_reached",
                     len(mob.online_ever) == n,
                     f"{len(mob.online_ever)} of {n}")


def run_linkage(scenario: Scenario, report: RunReport) -> None:
    world = build_world(scenario)
    bt = world.bt
    tracker = world.make_tracker()

    observations = []
    snapshots = []
    crawl_failures = 0
    for r in range(scenario.tracker.rounds):
        t_round = world.base_t + r * scenario.tracker.round_period
        # nothing keeps the round's calls past this line
        observations += [(call.callee, call.t, m.candidate_ip)
                         for call in tracker.run_round(
                             world.target_ids, t_round, round_index=r)
                         for m in call.extracted]
        crawl = run_crawl(world.sim, bt.dht, bt.crawler_bots,
                          bt.top_infohashes, world.sim.now + CRAWL_DELAY)
        snapshots.extend(crawl.snapshots)
        crawl_failures += crawl.failures

    planted = {(c.external_ip, c.external_port): host
               for host, c in bt.registry.clients.items()}
    recovered = set()
    for snap in snapshots:
        recovered.update(snap.peers)
    crawl_coverage = len(recovered & set(planted)) / len(planted) \
        if planted else 1.0

    candidates = match_ips(observations, snapshots,
                           day_seconds=scenario.tracker.round_period)
    verifier = world.make_verifier()
    results = verifier.verify_candidates(candidates, world.sim.now + 30.0)

    by_user: dict = {}
    for res in results:
        by_user.setdefault(res.candidate.user, []).append(res)
    verifiable_users = {u for u, rs in by_user.items()
                        if any(r.verdict != VERDICT_UNVERIFIABLE for r in rs)}
    verified_users = {u for u, rs in by_user.items()
                      if any(r.verdict == VERDICT_VERIFIED for r in rs)}
    same_host_truth = {u for u, cat in bt.truth.items()
                       if cat == BT_SAME_HOST}
    tp = len(verified_users & same_host_truth)
    precision = tp / len(verified_users) if verified_users else 1.0
    recall_pool = same_host_truth & verifiable_users
    recall = tp / len(recall_pool) if recall_pool else 1.0

    # Fig 4: distinct BT ports seen on each matched user's address
    ports_by_ip: dict = {}
    for c in candidates:
        ports_by_ip.setdefault(c.ip, set()).add(c.port)
    per_user_ports = sorted(
        max(len(ports_by_ip[r.candidate.ip]) for r in rs)
        for rs in by_user.values())
    fig4 = []
    n_users = len(per_user_ports)
    for i, k in enumerate(per_user_ports):
        fig4.append((k, (i + 1) / n_users))
    # Fig 5: per-experiment p90 sorted ascending
    p90s = sorted(r.p90 for r in results if r.p90 is not None)
    fig5 = [(i + 1, p) for i, p in enumerate(p90s)]

    report.metrics["linkage"] = {
        "tracked_users": len(world.target_ids),
        "observations": len(observations),
        "snapshots": len(snapshots),
        "crawl_coverage": crawl_coverage,
        "crawl_failures": crawl_failures,
        "candidates": len(candidates),
        "matched_users": len(by_user),
        "verifiable_users": len(verifiable_users),
        "verified_users": len(verified_users),
        "same_host_planted": len(same_host_truth),
        "precision": precision,
        "recall": recall,
        "share_ip_fraction": (sum(1 for k in per_user_ports if k > 1)
                              / n_users if n_users else 0.0),
    }
    report.series["fig4"] = fig4
    report.series["fig5"] = fig5
    report.check("verifier_precision", precision == 1.0,
                 f"precision {precision:.4f}")
    report.check("fig4_cdf_nondecreasing",
                 all(a[1] <= b[1] for a, b in zip(fig4, fig4[1:])))
    report.check("fig5_sorted",
                 all(a[1] <= b[1] for a, b in zip(fig5, fig5[1:])))


def run_defense_eval(scenario: Scenario, report: RunReport) -> None:
    out = {}
    for mode in DEFENSES:
        scn = copy.deepcopy(scenario)
        scn.rtc.defense_mode = mode
        world = build_world(scn)
        tracker = world.make_tracker()
        calls = [c for c in tracker.run_round(world.target_ids,
                                              world.base_t)
                 if not c.validation]
        notif = len(world.overlay.notifications)
        extracted_total = sum(len(c.extracted) for c in calls)
        true_hits = online = 0
        for c in calls:
            true_ips = world.overlay.user_session_ips(c.callee, c.t)
            if true_ips:
                online += 1
            if {m.candidate_ip for m in c.extracted} & true_ips:
                true_hits += 1
        out[mode] = {
            "calls": len(calls),
            "online_callees": online,
            "extracted_ips_total": extracted_total,
            "calls_hitting_true_ip": true_hits,
            "notifications": notif,
        }
    report.metrics["defense"] = out
    report.check("none_extracts_true_ips",
                 out["none"]["calls_hitting_true_ip"]
                 == out["none"]["online_callees"],
                 f"{out['none']['calls_hitting_true_ip']} of "
                 f"{out['none']['online_callees']}")
    report.check("reveal_after_accept_blocks_extraction",
                 out["reveal_after_accept"]["extracted_ips_total"] == 0)
    report.check("relay_all_hides_true_ips",
                 out["relay_all"]["calls_hitting_true_ip"] == 0)
    report.check("inconspicuous_everywhere",
                 all(v["notifications"] == 0 for v in out.values()))


def run(scenario: Scenario, pipeline: str) -> RunReport:
    if pipeline not in PIPELINES:
        raise PipelineError(f"unknown pipeline {pipeline!r}; "
                            f"choose from {PIPELINES}")
    scenario.check(pipeline)
    report = RunReport(scenario.name, scenario.seed, pipeline)
    if pipeline in ("mobility", "all"):
        run_mobility(scenario, report)
    if pipeline in ("linkage", "all"):
        if scenario.bt is not None:
            run_linkage(scenario, report)
        elif pipeline == "linkage":
            raise PipelineError("linkage pipeline requires a bt section")
        else:
            report.diagnostics["linkage"] = "skipped: no bt section"
    if pipeline in ("defense-eval", "all"):
        run_defense_eval(scenario, report)
    return report


# -- emission -----------------------------------------------------------------

def _series_texts(report: RunReport, figure: str) -> dict:
    """File name -> text of each series file of a figure."""
    if figure not in FIGURES:
        raise PipelineError(f"unknown figure {figure!r}; "
                            f"choose from {sorted(FIGURES)}")
    names = FIGURES[figure]
    missing = [n for n in names if n not in report.series]
    if missing:
        raise PipelineError(
            f"figure {figure} needs the {FIGURE_PIPELINE[figure]} pipeline "
            f"(missing series: {', '.join(missing)})")
    return {f"{name}.txt": "".join(f"{x} {y}\n"
                                   for x, y in report.series[name])
            for name in names}


def _write_texts(texts: dict, out_dir) -> list:
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, text in texts.items():
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        paths.append(path)
    return paths


def emit_series(report: RunReport, figure: str, out_dir) -> list:
    return _write_texts(_series_texts(report, figure), out_dir)


def summary_table(report: RunReport) -> str:
    lines = [f"scenario: {report.scenario}   seed: {report.seed}   "
             f"pipeline: {report.pipeline}", ""]

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}{k}.", obj[k])
        else:
            lines.append(f"  {prefix[:-1]:<48} {obj}")

    walk("", report.metrics)
    lines.append("")
    for c in report.checks:
        status = "PASS" if c["ok"] else "FAIL"
        detail = f"  ({c['detail']})" if c["detail"] else ""
        lines.append(f"  [{status}] {c['name']}{detail}")
    return "\n".join(lines) + "\n"


def write_report(report: RunReport, out_dir) -> dict:
    """Write report.json, summary.txt and the series file of every figure
    the report holds, each once, after adding the privacy scan of all of
    them to the report's checks."""
    series: dict = {}
    for figure in FIGURES:
        if all(n in report.series for n in FIGURES[figure]):
            series.update(_series_texts(report, figure))

    def texts():
        return {"report.json": report.to_json() + "\n",
                "summary.txt": summary_table(report), **series}

    violations = scan_privacy(texts())
    # the detail names files and kinds only, never the flagged text
    report.check("artifact_privacy_scan", not violations,
                 "; ".join(dict.fromkeys(f"{name}: {kind}"
                                         for name, kind, _ in violations)))
    paths = _write_texts(texts(), out_dir)
    return {"report": paths[0], "summary": paths[1], "series": paths[2:]}


_DOTTED = re.compile(r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b")
_HEX40 = re.compile(r"\b[0-9a-fA-F]{40}\b")


def _in_address_plan(ip: int) -> bool:
    return any(ip >> (32 - plen) == net >> (32 - plen)
               for net, plen in ADDRESS_PLAN)


def scan_privacy(texts: dict) -> list:
    """(file name, kind, matched text) of each dotted quad in the world's
    address plan, and of the first 40-hex infohash-like string, in each
    text of texts (file name -> text)."""
    violations = []
    for name, text in texts.items():
        for m in _DOTTED.finditer(text):
            try:
                ip = parse_ip(m.group(0))
            except NetsimError:
                continue
            if _in_address_plan(ip):
                violations.append((name, "address", m.group(0)))
        m = _HEX40.search(text)
        if m:
            violations.append((name, "infohash-like hex string", m.group(0)))
    return violations
