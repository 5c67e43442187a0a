"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import (DEV_SEED, EXPECTED_SPANS, HELD_OUT_SEED,  # noqa: E402
                       WORKLOADS)


def _installed():
    """Every attribute the tracer replaces, as currently installed."""
    targets = [(o, a) for o, a, *_ in spans.SPANS + spans.COUNTED]
    return {(o, a): getattr(spans.resolve(o), a) for o, a in targets}


@pytest.mark.parametrize("seed", [DEV_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_passes_pipeline_checks(workload, seed, tmp_path):
    result = worker.run_once(workload, seed, str(tmp_path), traced=False)
    assert result["checks"] > 0
    assert result["failed_checks"] == []
    assert result["calls"] > 0


def test_traced_run_keeps_report_and_restores_wrappers(tmp_path):
    before = _installed()
    plain = worker.run_once("crawl", DEV_SEED, str(tmp_path / "plain"),
                            traced=False)
    traced = worker.run_once("crawl", DEV_SEED, str(tmp_path / "traced"),
                             traced=True)
    assert _installed() == before
    assert traced["sha256"] == plain["sha256"]
    layers = traced["layers"]
    for name in EXPECTED_SPANS["crawl"]:
        assert layers[f"{name}.n"] > 0, name
        assert layers[f"{name}.self_s"] > 0, name
    assert layers["btswarm.lookups.n"] > 0
    assert layers["netsim.events.n"] > 0
    total = traced["setup_s"] + traced["run_s"]
    assert abs(layers["trace.unattributed_s"]) < 0.01 * total


def test_tracer_restores_wrappers_when_the_run_raises():
    before = _installed()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            assert _installed() != before
            raise RuntimeError("run failed")
    assert _installed() == before


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    benched = [w["name"] for w in doc["workloads"]]
    assert set(benched) <= set(WORKLOADS)
    # Every layer a workload expects is measured on a benchmarked workload.
    assert {s for w in benched for s in EXPECTED_SPANS[w]} == \
        {s for spans_ in EXPECTED_SPANS.values() for s in spans_}
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == spans.layer_specs()


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "track",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
