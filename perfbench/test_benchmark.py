"""Smoke test of the benchmark itself.

A very short run of every workload prints every metric BENCHMARK.json
names, with its unit, and exits 0; the counts repeat exactly for a seed.

    python3 -m pytest -q perfbench/test_benchmark.py
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics measured in time, plus the two that depend on it or on
# the manifest timestamp; every other per-layer metric is a count or a ratio
# of counts over the first 100 tasks and must repeat exactly.
TIMED_UNITS = {"ms", "us", "ms/task", "us/sample", "ns/sample", "1/s"}
NOT_EXACT = {"trace.overhead_ratio", "cli.bytes_written"}


def run(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 100
    return lines[:-1], result


def check_metrics(listed, lines, result):
    assert list(result["metrics"]) == [m["name"] for m in listed]
    report = "\n".join(lines)
    for m in listed:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float | int)
        assert f"{m['name']} " in report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines, result = run(workload, 0)
    check_metrics(SPEC["end_to_end"], lines, result)
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0.0, m["name"]
    if workload == "cli":
        # the near-pull-in extract reports converged=False (exit 4) and stays counted
        assert result["failed"] == 0
        assert result["metrics"]["converged_ratio"]["value"] < 1.0
        again, _ = run(workload, 0)
        repeated = [line for line in lines if line.lstrip().startswith(("work in", "sigma0_err"))]
        assert len(repeated) == 2
        assert repeated == [line for line in again
                            if line.lstrip().startswith(("work in", "sigma0_err"))]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    lines, first = run(workload, 1)
    check_metrics(SPEC["per_layer"], lines, first)
    _, second = run(workload, 1)
    exact = [m["name"] for m in SPEC["per_layer"]
             if m["unit"] not in TIMED_UNITS and m["name"] not in NOT_EXACT]
    assert {n: first["metrics"][n]["value"] for n in exact} == \
        {n: second["metrics"][n]["value"] for n in exact}
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "forward", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
