import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import p2ptrack
from p2ptrack.cli import main
from p2ptrack.pipelines import (PipelineError, RunReport, emit_series, run,
                                scan_privacy, write_report)
from p2ptrack.scenario import load_scenario, scenario_from_dict

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
            ("tracker:\n  classifier:\n    timing_tolerance: 0.7\n",
             "tracker.classifier"),
            ("verifier:\n  threshold: 40000\n", "verifier"),
            ("verifier:\n  call_gap: 0.0\n", "verifier"),
            ("verifier:\n  call_gap: -3.0\n", "verifier"),
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
            ("tracker:\n  classifier:\n    min_score: 2\n",
             "tracker.classifier.min_score"),
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


def test_report_byte_identical_across_hash_seeds(tmp_path):
    src = os.path.dirname(os.path.dirname(p2ptrack.__file__))
    digests = set()
    for hash_seed in ("0", "1", "2"):
        out = tmp_path / f"hashseed{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        subprocess.run([sys.executable, "-m", "p2ptrack", "run",
                        "--scenario", SMOKE, "--pipeline", "all",
                        "--out", str(out)],
                       env=env, check=True, capture_output=True)
        digests.add(hashlib.sha256(
            (out / "report.json").read_bytes()).hexdigest())
    # pinned: a change that alters the smoke report must say why
    assert digests == {
        "8a22e62dc91f88aaa6af6e2127dc84fc033c1c0128bdcc0cd53d5147c643901c"}


def test_smoke_trace_digest_is_pinned_and_sees_packets():
    spec = importlib.util.spec_from_file_location(
        "check_trace_hashes", "scripts/check_trace_hashes.py")
    traces = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traces)
    pinned = traces.PINNED["smoke --pipeline all"]
    assert traces.trace_digest(load_scenario(SMOKE), "all") == pinned
    # a witness that can fail: the report does not see the supernode noise
    # or the pattern jitter, but the packets do
    for key, value in (("noise_flows", (0, 0)), ("pattern_jitter", 0.0)):
        scenario = load_scenario(SMOKE)
        setattr(scenario.rtc, key, value)
        assert traces.trace_digest(scenario, "all") != pinned, key


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
