import gc
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
import weakref

import pytest

import p2ptrack
from p2ptrack import pipelines
from p2ptrack.btswarm.swarm import HandshakeClient
from p2ptrack.cli import main
from p2ptrack.netsim import CaptureTap, Simulator
from p2ptrack.pipelines import (PipelineError, RunReport, emit_series, run,
                                scan_privacy, write_report)
from p2ptrack.rtcdir import PlacedCall, RtcOverlay, _TcpAttempt
from p2ptrack.scenario import load_scenario, scenario_from_dict
from p2ptrack.tracker import TrackedCall, Tracker
from p2ptrack.verifier import Verifier
from tests.conftest import named

SMOKE = "scenarios/smoke.yaml"


@pytest.fixture(scope="module")
def smoke_report():
    return run(load_scenario(SMOKE), "all")


def test_smoke_all_pipelines_complete(smoke_report):
    r = smoke_report
    assert r.ok(), [c for c in r.checks if not c["ok"]]
    assert {"accuracy", "mobility", "linkage", "defense"} <= set(r.metrics)
    assert r.metrics["accuracy"]["online_extraction_rate"] == 1.0
    assert r.metrics["linkage"]["precision"] == 1.0


def test_reports_byte_identical_for_same_seed(smoke_report):
    again = run(load_scenario(SMOKE), "all")
    assert again.to_json() == smoke_report.to_json()


def test_different_seed_changes_report(smoke_report):
    scn = load_scenario(SMOKE)
    scn.seed = 43
    other = run(scn, "mobility")
    assert other.to_json() != smoke_report.to_json()


def test_series_endpoints(smoke_report):
    middle = smoke_report.series["fig3-middle"]
    max_avail = max(x for x, _ in middle)
    assert middle[-1] == (max_avail, 1.0)
    fig4 = smoke_report.series["fig4"]
    assert all(a[1] <= b[1] for a, b in zip(fig4, fig4[1:]))
    fig5 = smoke_report.series["fig5"]
    assert [p for _, p in fig5] == sorted(p for _, p in fig5)


def test_emit_series_files(smoke_report, tmp_path):
    paths = emit_series(smoke_report, "fig3-left", tmp_path)
    assert sorted(os.path.basename(p) for p in paths) == \
        ["fig3-left-cumulative.txt", "fig3-left-simultaneous.txt"]
    for path in paths:
        for line in open(path):
            x, y = line.split()
            float(x), float(y)


def test_emit_series_missing_pipeline_names_requirement(tmp_path):
    report = run(load_scenario(SMOKE), "defense-eval")
    with pytest.raises(PipelineError, match="mobility"):
        emit_series(report, "fig3-left", tmp_path)
    with pytest.raises(PipelineError, match="linkage"):
        emit_series(report, "fig5", tmp_path)
    with pytest.raises(PipelineError, match="unknown figure"):
        emit_series(report, "fig9", tmp_path)


def test_linkage_requires_bt_section():
    scn = scenario_from_dict({"population": {"users": 5}})
    with pytest.raises(PipelineError, match="bt section"):
        run(scn, "linkage")


def test_write_report_and_privacy_scan(smoke_report, tmp_path,
                                       monkeypatch):
    out = tmp_path / "out"
    written = []
    real_open = open

    def recording_open(path, mode="r", *args, **kwargs):
        if "w" in mode:
            written.append(os.path.basename(path))
        return real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", recording_open)
    paths = write_report(smoke_report, out)
    monkeypatch.undo()
    # every output file is opened for writing exactly once
    assert sorted(written) == sorted(set(written)) == sorted(os.listdir(out))
    assert os.path.exists(paths["report"])
    doc = json.load(open(paths["report"]))
    assert doc["pipeline"] == "all"
    assert scan_privacy({p.name: p.read_text() for p in out.iterdir()}) == []
    assert smoke_report.ok()


def test_privacy_scan_flags_violations():
    violations = scan_privacy({"leak.txt": (
        "user at 10.3.0.17 downloaded "
        "00112233445566778899aabbccddeeff00112233\n")})
    assert ("leak.txt", "address", "10.3.0.17") in violations
    assert any("infohash" in kind for _, kind, _ in violations)
    assert any(hit == "192.168.1.2" for _, _, hit in scan_privacy(
        {"leak.txt": "NATed host 192.168.1.2 behind its box\n"}))
    # only scenario-range addresses are violations
    assert not any(hit == "8.8.8.8" for _, _, hit in scan_privacy(
        {"leak.txt": "8.8.8.8 is not in the scenario range; 1.5 2.5 "
                     "floats\n"}))


def test_privacy_check_names_file_and_kind_not_the_address(tmp_path):
    report = RunReport("leaky", 1, "linkage",
                       series={"fig4": [(1, "10.3.0.17")], "fig5": []})
    paths = write_report(report, tmp_path)
    check = report.checks[-1]
    assert check["name"] == "artifact_privacy_scan" and not check["ok"]
    assert check["detail"] == "report.json: address; fig4.txt: address"
    # summary.txt is what `p2ptrack run` prints
    assert "10.3.0.17" not in open(paths["summary"]).read()


def test_cli_run_and_series(tmp_path, capsys):
    out = tmp_path / "cli-out"
    rc = main(["run", "--scenario", SMOKE, "--pipeline", "defense-eval",
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "[PASS]" in text and "FAIL" not in text
    assert (out / "report.json").exists()
    assert (out / "summary.txt").exists()

    rc = main(["run", "--scenario", SMOKE, "--pipeline", "mobility",
               "--out", str(out), "--seed", "7"])
    assert rc == 0
    doc = json.load(open(out / "report.json"))
    assert doc["seed"] == 7
    rc = main(["series", "--report", str(out / "report.json"),
               "--figure", "fig3-middle", "--out", str(out)])
    assert rc == 0
    assert (out / "fig3-middle.txt").exists()
    rc = main(["series", "--report", str(out / "report.json"),
               "--figure", "fig4", "--out", str(out)])
    assert rc == 2


def _p2ptrack(*args) -> subprocess.CompletedProcess:
    """`python -m p2ptrack` with args, in a fresh process."""
    src = os.path.dirname(os.path.dirname(p2ptrack.__file__))
    return subprocess.run(
        [sys.executable, "-m", "p2ptrack", *args],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)


def test_cli_run_to_a_file_exits_2(tmp_path):
    # --out names a directory: a regular file there is refused by name,
    # with no traceback, and left as it was
    out = tmp_path / "a-file"
    out.write_text("kept\n")
    proc = _p2ptrack("run", "--scenario", SMOKE, "--pipeline",
                     "defense-eval", "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert str(out) in proc.stderr and "Traceback" not in proc.stderr
    assert out.read_text() == "kept\n"


def test_cli_series_to_a_file_exits_2(smoke_report, tmp_path):
    report = tmp_path / "report.json"
    report.write_text(smoke_report.to_json())
    out = tmp_path / "a-file"
    out.write_text("kept\n")
    proc = _p2ptrack("series", "--report", str(report), "--figure", "fig4",
                     "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert str(out) in proc.stderr and "Traceback" not in proc.stderr
    assert out.read_text() == "kept\n"


def test_cli_validate(tmp_path, capsys):
    assert main(["validate", "--scenario", SMOKE]) == 0
    with open(SMOKE) as fh:
        smoke_text = fh.read()
    bad = tmp_path / "bad.yaml"
    bad.write_text("population:\n  users: 5\nbt:\n  candidates: 50\n")
    rc = main(["validate", "--scenario", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "exceed" in err
    # values a component rejects, or of the wrong type, fail both
    # commands before anything runs
    for text, section in (
            ("rtc:\n  pattern_jitter: 1.0\n", "rtc.pattern_jitter"),
            ("verifier:\n  threshold: 40000\n", "verifier"),
            ("tracker:\n  s: 0.0\n", "tracker.s"),
            ("verifier:\n  round_spacing: -3.0\n", "verifier"),
            ("verifier:\n  min_rounds: 0\n", "verifier"),
            ("tracker:\n  clients: two\n", "tracker.clients"),
            ("seed: two\n", "seed"),
            ("name: [1]\n", "name"),
            ("directory_fixture: 5\n", "directory_fixture"),
            ("tracker:\n  salt: zz\n", "tracker.salt"),
            ("rtc:\n  defense_mode: bogus\n", "rtc"),
            # a range that is not [lo, hi] with 0 <= lo <= hi
            ("bt:\n  torrents_per_client: [3, 1]\n",
             "bt.torrents_per_client"),
            ("rtc:\n  noise_flows: [14, 10]\n", "rtc.noise_flows"),
            ("rtc:\n  noise_packets: [9, 2]\n", "rtc.noise_packets"),
            ("rtc:\n  noise_flows: [1]\n", "rtc.noise_flows"),
            # no infrastructure, or more privacy plants than users
            ("rtc:\n  supernodes: 0\n  noise_flows: [0, 0]\n",
             "rtc.supernodes"),
            (smoke_text.replace("relays: 3", "relays: 0"), "rtc.relays"),
            ("population:\n  users: 5\n  blocked_fraction: 0.6\n"
             "  whitelist_fraction: 0.6\n", "whitelist_fraction"),
            # keys whose one value is now a constant
            ("net:\n  default_latency: 0.05\n", "unknown scenario keys"),
            ("net:\n  default_jitter: 0.01\n", "unknown scenario keys"),
            ("rtc:\n  noise_sizes: [20, 120]\n", "noise_sizes"),
            ("population:\n  hosts_per_nat: 1\n", "hosts_per_nat"),
            ("bt:\n  crawl_deadline: 3600\n", "crawl_deadline"),
            ("bt:\n  crawl_timeout: 1.0\n", "crawl_timeout"),
            ("tracker:\n  classifier:\n    timing_tolerance: 0.25\n",
             "unknown tracker keys ['classifier']"),
            ("tracker:\n  classifier:\n    min_score: 0.8\n",
             "unknown tracker keys ['classifier']"),
            ("tracker:\n  classifier:\n    pattern_window: 20.0\n",
             "unknown tracker keys ['classifier']"),
            ("tracker:\n  classifier: {}\n",
             "unknown tracker keys ['classifier']"),
            ("verifier:\n  call_gap: 3.0\n",
             "unknown verifier keys ['call_gap']"),
            (f"name: {'n' * 66}\n", "name"),
            (smoke_text.replace("rounds: 2", "rounds: 1\n  reorders: 2"),
             "tracker.reorders"),
            # numbers that are not finite, or out of their bounds
            ("tracker:\n  s: .nan\n", "tracker.s"),
            ("tracker:\n  s: .inf\n", "tracker.s"),
            ("tracker:\n  round_period: .nan\n", "tracker.round_period"),
            ("tracker:\n  round_period: 0\nmobility:\n  movers_city_only: 1\n",
             "tracker.round_period"),
            ("tracker:\n  reorders: -1\n", "tracker.reorders"),
            ("rtc:\n  pattern_jitter: .nan\n", "rtc.pattern_jitter"),
            ("rtc:\n  pattern_jitter: -1.0\n", "rtc.pattern_jitter"),
            ("verifier:\n  round_spacing: .nan\n", "verifier.round_spacing"),
            ("population:\n  online_fraction: .nan\n",
             "population.online_fraction"),
            ("population:\n  nat_fraction: 2\n", "population.nat_fraction"),
            ("verifier:\n  threshold: -1\n", "verifier.threshold"),
            ("population:\n  volunteers: -1\n", "population.volunteers"),
            ("tracker:\n  validation_every: -1\n", "tracker.validation_every"),
            # finite times past the float horizon, or steps too small to
            # move a time there
            ("tracker:\n  s: 1.0e+308\n", "tracker.s"),
            ("tracker:\n  round_period: 1.0e-300\nmobility:\n"
             "  movers_city_only: 1\n", "tracker.round_period"),
            ("seed: [\n", "bad.yaml")):
        bad.write_text(text)
        for argv in (["validate"], ["run", "--out", str(tmp_path / "o")]):
            assert main(argv + ["--scenario", str(bad)]) == 2
            assert section in capsys.readouterr().err
    # the derived salt grows with the seed: --seed is validated too
    bad.write_text(f"name: {'n' * 56}\n")
    assert main(["validate", "--scenario", str(bad)]) == 0
    assert main(["run", "--scenario", str(bad), "--seed", "12345",
                 "--out", str(tmp_path / "o")]) == 2
    assert "name" in capsys.readouterr().err
    # plants that do not fit the online users fail both commands: 13
    # candidates and 1 unverifiable sibling, but 12 of 20 users online
    bad.write_text(smoke_text.replace("candidates: 6", "candidates: 13"))
    for argv in (["validate"], ["run", "--pipeline", "linkage",
                                "--out", str(tmp_path / "o")]):
        assert main(argv + ["--scenario", str(bad)]) == 2
        assert "exceed" in capsys.readouterr().err
    # movers count against the online users without a NAT of their own:
    # 16 online, 5 of them planted behind a dedicated NAT for bt
    mobility = ("mobility:\n  never_online_stale: 2\n"
                "  never_online_dark: 2\n  movers_city_only: ")
    bad.write_text(smoke_text + mobility + "11\n")
    assert main(["validate", "--scenario", str(bad)]) == 0
    bad.write_text(smoke_text + mobility + "12\n")
    assert main(["validate", "--scenario", str(bad)]) == 2
    assert "exceed" in capsys.readouterr().err
    # a pipeline the scenario has no section for is not run either
    bad.write_text("population:\n  users: 5\n")
    assert main(["run", "--scenario", str(bad), "--pipeline", "linkage",
                 "--out", str(tmp_path / "o")]) == 2
    assert "bt section" in capsys.readouterr().err
    # a missing file fails both commands
    missing = str(tmp_path / "missing.yaml")
    for argv in (["validate"], ["run", "--out", str(tmp_path / "o")]):
        assert main(argv + ["--scenario", missing]) == 2
        assert "missing.yaml" in capsys.readouterr().err


def test_cli_run_rejects_bad_directory_fixture(tmp_path, capsys):
    # found only when run builds the world: validate passes, run exits 2
    # and names the key
    not_utf8 = tmp_path / "latin1.tsv"
    not_utf8.write_bytes(b"caf\xe9\n")
    malformed = tmp_path / "short.tsv"
    malformed.write_text("someone\tsomeone@example.org\n")
    scenario = tmp_path / "fixture.yaml"
    with open(SMOKE) as fh:
        smoke_text = fh.read()
    for fixture in (tmp_path / "missing.tsv", tmp_path, not_utf8, malformed):
        scenario.write_text(smoke_text + f"directory_fixture: {fixture}\n")
        assert main(["validate", "--scenario", str(scenario)]) == 0
        assert main(["run", "--scenario", str(scenario), "--pipeline",
                     "mobility", "--out", str(tmp_path / "o")]) == 2
        assert "directory_fixture" in capsys.readouterr().err, fixture


def test_cli_tracker_overrides(tmp_path, capsys):
    out = tmp_path / "ovr"
    rc = main(["run", "--scenario", SMOKE, "--pipeline", "mobility",
               "--out", str(out), "--rounds", "1", "--s", "5",
               "--clients", "1", "--salt", "00aa00aa"])
    assert rc == 0
    capsys.readouterr()
    doc = json.load(open(out / "report.json"))
    # one client, one round over 22 callable slots (20 users + volunteers)
    assert len(doc["metrics"]["throughput_calls_per_hour"]) == 1
    assert doc["metrics"]["accuracy"]["calls"] == 20
    # s=5 means 720 slots/hour at most
    assert doc["metrics"]["throughput_calls_per_hour"][0] <= 720.0
    # a bad override is caught by validation before anything runs
    rc = main(["run", "--scenario", SMOKE, "--pipeline", "mobility",
               "--out", str(out), "--s", "-1"])
    assert rc == 2
    assert f"need finite s > {2.0 ** -21}" in capsys.readouterr().err
    for s in ("nan", "inf"):
        rc = main(["run", "--scenario", SMOKE, "--pipeline", "mobility",
                   "--out", str(out), "--s", s])
        assert rc == 2
        assert "tracker.s" in capsys.readouterr().err
    rc = main(["run", "--scenario", SMOKE, "--pipeline", "mobility",
               "--out", str(out), "--salt", "xyz"])
    assert rc == 2
    assert "tracker.salt" in capsys.readouterr().err


def test_a_round_must_end_before_the_next_starts(tmp_path, capsys):
    # one client calls 20 targets with a volunteer after each: 40 slots s
    # apart, then the pattern window (20 s) and the round tail (5 s), must
    # end before the next round starts 3600 s on; a round of just 3600 s
    # may end a rounding step past it
    scenario, out = tmp_path / "rounds.yaml", str(tmp_path / "o")
    doc = ("population:\n  users: 20\n  volunteers: 2\n"
           "tracker:\n  clients: 1\n  rounds: 2\n  validation_every: 1\n"
           "  s: {}\n")
    scenario.write_text(doc.format(3574 / 40))
    assert main(["validate", "--scenario", str(scenario)]) == 0
    assert main(["run", "--scenario", str(scenario), "--pipeline",
                 "mobility", "--out", out]) == 0
    capsys.readouterr()
    scenario.write_text(doc.format(3575 / 40))
    for argv in (["validate"], ["run", "--pipeline", "mobility",
                                "--out", out]):
        assert main(argv + ["--scenario", str(scenario)]) == 2
        err = capsys.readouterr().err
        assert "tracker.round_period" in err and "tracker.s" in err
        assert "bt.crawler_bots" not in err
    # without volunteers a round is its 20 target slots
    scenario.write_text(doc.replace("  volunteers: 2\n", "")
                        .format(3574 / 20))
    assert main(["validate", "--scenario", str(scenario)]) == 0
    assert main(["run", "--scenario", str(scenario), "--pipeline",
                 "mobility", "--out", out]) == 0
    capsys.readouterr()
    # smoke rounds are 10 targets and at most 1 volunteer call a client;
    # only a linkage round ends with the crawl of 5 swarms by 4 bots (at
    # most 2 lookups a bot, 66 s each, plus a 30 s step and 5 s delay)
    assert main(["run", "--scenario", SMOKE, "--s", "320", "--pipeline",
                 "mobility", "--out", out]) == 0
    capsys.readouterr()
    for s, pipeline, crawl in (("320", "linkage", True),
                               ("400", "mobility", False),
                               ("100000", "mobility", False),
                               ("100000", "linkage", True)):
        assert main(["run", "--scenario", SMOKE, "--s", s, "--pipeline",
                     pipeline, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "tracker.round_period" in err
        assert ("bt.crawler_bots" in err) == crawl
        assert "Traceback" not in err
    # defense-eval makes one round, which nothing can overlap
    assert main(["run", "--scenario", SMOKE, "--s", "400", "--pipeline",
                 "defense-eval", "--out", out]) == 0


def test_cli_throughput_counts_idle_clients(tmp_path, capsys):
    # 20 targets over 30 clients: one call each for the first 20, none for
    # the last 10
    out = tmp_path / "idle"
    assert main(["run", "--scenario", SMOKE, "--pipeline", "mobility",
                 "--out", str(out), "--rounds", "1", "--clients", "30"]) == 0
    capsys.readouterr()
    doc = json.load(open(out / "report.json"))
    assert doc["metrics"]["throughput_calls_per_hour"] == \
        [1200.0] * 20 + [0.0] * 10


REPORT = '{"scenario": "s", "seed": 1, "pipeline": "all", "series": %s}'


@pytest.mark.parametrize("name, text", [
    ("missing.json", None),
    ("not-json.json", "{oops"),
    ("not-a-report.json", '{"series": {}}'),
    ("series-list.json", REPORT % "[]"),
    ("series-int.json", REPORT % '{"fig3-middle": 5}'),
    ("series-short.json", REPORT % '{"fig4": [[1]]}'),
])
def test_cli_series_rejects_bad_report(tmp_path, capsys, name, text):
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    rc = main(["series", "--report", str(path), "--figure", "fig4",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert name in err
    # a malformed series is named
    if name.startswith("series-"):
        series = json.loads(text)["series"]
        assert all(k in err for k in series) and "series" in err
    assert not (tmp_path / "o").exists()


def test_bundled_scenarios_are_valid():
    import glob
    import importlib.util

    from p2ptrack.scenario import load_scenario
    paths = sorted(glob.glob("scenarios/*.yaml"))
    assert len(paths) >= 3
    for path in paths:
        assert load_scenario(path).validate() == []
    # and so is every benchmark workload's scenario document
    spec = importlib.util.spec_from_file_location(
        "workloads", "perfbench/workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert set(workloads.WORKLOADS) >= {"track", "link", "crawl"}
    for name in workloads.WORKLOADS:
        doc = workloads.scenario_doc(name, workloads.DEV_SEED)
        assert scenario_from_dict(doc).validate() == [], name


def _trace_script():
    spec = importlib.util.spec_from_file_location(
        "check_digests", "scripts/check_digests.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


SMOKE_RUN = "smoke --pipeline all"
# prints the smoke run's report and trace digests and whether its checks
# passed (scripts/check_digests.py)
_SMOKE_DIGESTS = (
    "import runpy; g = runpy.run_path('scripts/check_digests.py'); "
    f"print(*g['digests'](*g['pinned_run']({SMOKE_RUN!r})))")


def test_report_byte_identical_across_hash_seeds():
    src = os.path.dirname(os.path.dirname(p2ptrack.__file__))
    outputs = set()
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        outputs.add(subprocess.run(
            [sys.executable, "-c", _SMOKE_DIGESTS], env=env, check=True,
            capture_output=True, text=True).stdout.strip())
    # pinned: a change that alters the smoke report or its packets must
    # say why
    assert outputs == {" ".join(_trace_script().PINNED[SMOKE_RUN]) + " True"}


def test_module_entry_point_validates_smoke():
    proc = _p2ptrack("validate", "--scenario", SMOKE)
    assert proc.returncode == 0, proc.stderr
    assert "is valid" in proc.stdout


def test_tapped_packets_hold_plain_values(monkeypatch):
    # every packet that leaves a calling tap, all through CaptureTap.take
    # (the hook of scripts/check_digests.py); each is an exact tuple of
    # atomic values, which the collector stops tracking
    packets, take = [], CaptureTap.take

    def collecting_take(tap, until=math.inf):
        taken = take(tap, until)
        packets.extend(taken)
        return taken

    monkeypatch.setattr(CaptureTap, "take", collecting_take)
    run(load_scenario(SMOKE), "all")
    assert packets
    assert {type(v) for p in packets for v in p} == {int, float, str}
    assert {p.tcp_flags for p in named(packets)} <= {"", "ACK", "SYN",
                                                     "ACK,SYN"}
    assert all(type(p) is tuple for p in packets)
    gc.collect()
    assert not any(map(gc.is_tracked, packets))


def test_noise_never_reaches_a_report(monkeypatch):
    # supernode noise scores below every match threshold, so drawing it
    # from another stream moves the packets but no byte of the report
    gate = _trace_script()
    plain = gate.digests(load_scenario(SMOKE), "all")

    class Resalted(random.Random):
        def __init__(self, seed=None):
            if isinstance(seed, str):
                seed = seed.replace(":noise:", ":noise-resalted:")
            super().__init__(seed)

    monkeypatch.setattr(random, "Random", Resalted)
    resalted = gate.digests(load_scenario(SMOKE), "all")
    assert resalted[0] == plain[0] and resalted[2] is plain[2] is True
    assert resalted[1] != plain[1]


def test_no_generator_is_built_for_a_reply(monkeypatch):
    # the loop's marker replies come from keyed streams and the noise
    # writer's from its own generator, so no reply has a generator
    seeds = []

    class Counted(random.Random):
        def __init__(self, seed=None):
            seeds.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(random, "Random", Counted)
    assert run(load_scenario(SMOKE), "all").ok()
    assert any(":noise:" in str(seed) for seed in seeds)
    assert not any(":resp:" in str(seed) for seed in seeds)


def test_no_round_result_outlives_its_round(monkeypatch):
    # run_linkage copies a round's matches out and keeps nothing else of
    # the round: none of its calls is alive at the round's crawl or when
    # the verifier starts
    refs, alive = [], []
    run_round, verify = Tracker.run_round, Verifier.verify_candidates
    run_crawl = pipelines.run_crawl

    def noted_run_round(tracker, *args, **kwargs):
        calls = run_round(tracker, *args, **kwargs)
        refs.extend(weakref.ref(call) for call in calls)
        return calls

    def counted(fn):
        def wrapper(*args):
            alive.append((fn.__name__, sum(ref() is not None
                                           for ref in refs)))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Tracker, "run_round", noted_run_round)
    monkeypatch.setattr(pipelines, "run_crawl", counted(run_crawl))
    monkeypatch.setattr(Verifier, "verify_candidates", counted(verify))
    assert run(load_scenario(SMOKE), "linkage").ok()
    assert len(refs) > 20
    assert alive == [("run_crawl", 0)] * 2 + [("verify_candidates", 0)]


def test_no_mobility_round_outlives_its_round(monkeypatch):
    # run_mobility reads each round into counts and samples as it ends:
    # none of a round's calls is alive when the next round starts, or at
    # the majority vote
    refs, alive = [], []
    run_round = Tracker.run_round
    disambiguate = pipelines.disambiguate

    def noted_run_round(tracker, *args, **kwargs):
        alive.append(("run_round", sum(ref() is not None for ref in refs)))
        calls = run_round(tracker, *args, **kwargs)
        refs.extend(weakref.ref(call) for call in calls)
        return calls

    def counted_disambiguate(rounds):
        alive.append(("disambiguate", sum(ref() is not None
                                          for ref in refs)))
        return disambiguate(rounds)

    monkeypatch.setattr(Tracker, "run_round", noted_run_round)
    monkeypatch.setattr(pipelines, "disambiguate", counted_disambiguate)
    assert run(load_scenario(SMOKE), "mobility").ok()
    assert len(refs) > 20
    assert alive == [("run_round", 0)] * 2 + [("disambiguate", 0)]


def _kept_worlds(monkeypatch) -> list:
    """The worlds the pipelines build from now on, kept alive."""
    worlds = []
    build_world = pipelines.build_world

    def kept_build_world(scenario):
        worlds.append(build_world(scenario))
        return worlds[-1]

    monkeypatch.setattr(pipelines, "build_world", kept_build_world)
    return worlds


def test_nothing_per_call_outlives_the_run(monkeypatch):
    # the overlay keeps a count of its calls, not the calls: once the run
    # is over no placed or tracked call is alive, though its world is
    worlds = _kept_worlds(monkeypatch)
    assert run(load_scenario(SMOKE), "linkage").ok()
    gc.collect()
    alive = [type(o).__name__ for o in gc.get_objects()
             if isinstance(o, (PlacedCall, TrackedCall))]
    assert len(worlds) == 1 and len(worlds[0].overlay.calls) > 20
    assert alive == []


def test_call_count_is_the_calls_placed(monkeypatch):
    # perfbench divides by len(overlay.calls): the number of place_call
    # invocations, summed over every world a run builds
    worlds = _kept_worlds(monkeypatch)
    placed = []
    place_call = RtcOverlay.place_call

    def counted_place_call(overlay, *args, **kwargs):
        placed.append(overlay)
        return place_call(overlay, *args, **kwargs)

    monkeypatch.setattr(RtcOverlay, "place_call", counted_place_call)
    assert run(load_scenario(SMOKE), "all").ok()
    assert len(worlds) == 5
    for world in worlds:
        assert len(world.overlay.calls) == placed.count(world.overlay) > 0
    assert sum(len(w.overlay.calls) for w in worlds) == len(placed)


def test_no_pipeline_call_stores_a_tcp_attempt(monkeypatch):
    # a pipeline calls only after its caller's SYN filter starts, so no
    # SYN-ACK can reach a call's SYNs: each is a plain send, with no
    # attempt built or stored and no retransmit left to decide
    stored, retries, built = [], [], []
    place_call, schedule = RtcOverlay.place_call, Simulator.schedule
    attempt_init = _TcpAttempt.__init__

    def counted_place_call(overlay, *args, **kwargs):
        call = place_call(overlay, *args, **kwargs)
        stored.append(len(overlay._pending_tcp))
        return call

    def counted_schedule(sim, at, fn, *args):
        if getattr(fn, "__func__", None) is RtcOverlay._send and \
                type(args[-1]) is tuple:
            retries.append(at)
        schedule(sim, at, fn, *args)

    def counted_attempt_init(attempt, *args):
        built.append(args)
        attempt_init(attempt, *args)

    monkeypatch.setattr(RtcOverlay, "place_call", counted_place_call)
    monkeypatch.setattr(Simulator, "schedule", counted_schedule)
    monkeypatch.setattr(_TcpAttempt, "__init__", counted_attempt_init)
    assert run(load_scenario(SMOKE), "all").ok()
    assert stored and set(stored) == {0}
    assert retries == []
    assert built == []


def test_a_prober_holds_only_unanswered_probes(monkeypatch):
    # a probe leaves its prober at its target's first reply or RST
    probers, probes = [], []
    init, send = HandshakeClient.__init__, HandshakeClient.send

    def kept_init(client, *args, **kwargs):
        init(client, *args, **kwargs)
        probers.append(client)

    def kept_send(client, *args, **kwargs):
        probe = send(client, *args, **kwargs)
        probes.append(probe)
        return probe

    monkeypatch.setattr(HandshakeClient, "__init__", kept_init)
    monkeypatch.setattr(HandshakeClient, "send", kept_send)
    assert run(load_scenario(SMOKE), "linkage").ok()
    pending = [p for client in probers for p in client._pending.values()]
    assert all(p.response is None and not p.refused for p in pending)
    assert sorted(map(id, pending)) == sorted(
        id(p) for p in probes if p.response is None and not p.refused)
    assert any(p.response is not None for p in probes)


def test_smoke_trace_digest_is_pinned_and_sees_packets():
    gate = _trace_script()
    pinned = gate.PINNED[SMOKE_RUN]
    assert gate.digests(load_scenario(SMOKE), "all") == (*pinned, True)
    # a witness that can fail: the report does not see the supernode noise
    # (and sees the pattern jitter only through the IP-ID series), but the
    # packets see both
    for key, value in (("noise_flows", (0, 0)), ("pattern_jitter", 0.0)):
        scenario = load_scenario(SMOKE)
        setattr(scenario.rtc, key, value)
        assert gate.digests(scenario, "all")[1] != pinned[1], key


def test_digest_gate_names_the_digest_that_moved(capsys):
    gate = _trace_script()
    report, trace, other = "a" * 64, "b" * 64, "0" * 64
    for pinned, ok, faults in (
            ((report, trace), True, []),
            ((report, other), True, [f"trace {trace}, pinned {other}"]),
            ((other, trace), True, [f"report {report}, pinned {other}"]),
            ((other, other), True, [f"report {report}, pinned {other}",
                                    f"trace {trace}, pinned {other}"]),
            ((report, trace), False, ["a pipeline check failed"])):
        gate.PINNED = {SMOKE_RUN: pinned}
        gate.digests = lambda scenario, pipeline: (report, trace, ok)
        assert gate.main() == (1 if faults else 0)
        want = (f"FAIL {SMOKE_RUN}: {'; '.join(faults)}" if faults
                else f"ok   {SMOKE_RUN}: {report} {trace}")
        assert capsys.readouterr().out == want + "\n"


def test_perfbench_hooks_resolve():
    # perfbench's tracer wraps these attributes by name, so a rename or a
    # removal in the program fails here as well as in perfbench's own tests
    spec = importlib.util.spec_from_file_location("spans",
                                                  "perfbench/spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, attr, *_ in spans.SPANS + spans.COUNTED:
        assert callable(getattr(spans.resolve(owner), attr, None)), \
            (owner, attr)
