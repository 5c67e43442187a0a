import hashlib
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
            ("seed: [\n", "bad.yaml")):
        bad.write_text(text)
        for argv in (["validate"], ["run", "--out", str(tmp_path / "o")]):
            assert main(argv + ["--scenario", str(bad)]) == 2
            assert section in capsys.readouterr().err
    # so does a missing file
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
    assert "s > 0" in capsys.readouterr().err
    rc = main(["run", "--scenario", SMOKE, "--pipeline", "mobility",
               "--out", str(out), "--salt", "xyz"])
    assert rc == 2
    assert "tracker.salt" in capsys.readouterr().err


@pytest.mark.parametrize("name, text", [
    ("missing.json", None),
    ("not-json.json", "{oops"),
    ("not-a-report.json", '{"series": {}}'),
])
def test_cli_series_rejects_bad_report(tmp_path, capsys, name, text):
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    rc = main(["series", "--report", str(path), "--figure", "fig4",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bundled_scenarios_are_valid():
    import glob

    from p2ptrack.scenario import load_scenario
    paths = sorted(glob.glob("scenarios/*.yaml"))
    assert len(paths) >= 3
    for path in paths:
        assert load_scenario(path).validate() == []


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
