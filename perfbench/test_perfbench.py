"""Tests of the benchmark itself, in quick mode (small inputs, one repeat)."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run, workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign", "ingest", "service_mixed")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(capsys, workload, trace, seconds="1"):
    code = run.main(
        ["--workload", workload, "--seed", "1", "--seconds", seconds, "--trace", str(trace), "--quick"]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    details = json.loads(lines[-2])["details"]
    return code, details, json.loads(lines[-1])


@pytest.fixture(scope="module")
def results():
    """Each workload run once untraced and once traced."""
    return {}


def _cached(results, capsys, workload, trace):
    key = (workload, trace)
    if key not in results:
        results[key] = _run(capsys, workload, trace)
    return results[key]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(results, capsys, workload):
    code, _, result = _cached(results, capsys, workload, 0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert {name: item["unit"] for name, item in result["metrics"].items()} == expected
    assert all(item["value"] > 0 for item in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_emitted_with_its_unit(results, capsys, workload):
    code, details, result = _cached(results, capsys, workload, 1)
    assert code == 0 and result["correct"]
    expected = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    assert {name: item["unit"] for name, item in result["metrics"].items()} == expected
    metrics = {name: item["value"] for name, item in result["metrics"].items()}
    layers = sum(value for name, value in metrics.items() if name.endswith(".self_s"))
    assert layers + metrics["other_s"] == pytest.approx(metrics["trace.wall_s"], rel=1e-6)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_results_are_identical(results, capsys, workload):
    _, untraced, _ = _cached(results, capsys, workload, 0)
    _, traced, _ = _cached(results, capsys, workload, 1)
    assert traced["results_digest"] == untraced["results_digest"]
    identity = [check for check in traced["checks"] if "trace_identical" in check["name"]]
    assert all(check["ok"] for check in identity)


def test_tampered_expected_value_fails_the_command(capsys, monkeypatch):
    monkeypatch.setattr(workloads, "EXPECTED_TABLE5_REPORTS", workloads.EXPECTED_TABLE5_REPORTS + 1)
    code, details, result = _run(capsys, "campaign", 0)
    assert code != 0
    assert result["correct"] is False
    failed = [check["name"] for check in details["checks"] if not check["ok"]]
    assert failed == ["campaign.table5_reports"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    summary = workloads.summarize([i / 1000.0 for i in range(1, 101)])
    assert summary["tail_ms"] == pytest.approx(90.0)
    assert summary["tail_pct"] == pytest.approx(90.0)
    assert summary["samples"] == 100


def test_without_program_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_host_slowness_is_the_mean_probe_time_over_the_reference():
    host = workloads.HostSpeed()
    host.samples = [workloads.PROBE_REFERENCE_S, 3 * workloads.PROBE_REFERENCE_S]
    assert host.slowness() == pytest.approx(2.0)
    assert host.slowness(1) == pytest.approx(3.0)
    assert host.slowness(0, 1) == pytest.approx(1.0)
