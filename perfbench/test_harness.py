"""Smoke test of the benchmark harness at tiny sizes (a few seconds a run).

    python3 -m pytest perfbench/test_harness.py

Runs every workload with and without tracing, and checks that every
metric named in BENCHMARK.json is printed with its unit and that every op
passed its checks.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

# Tiny sizes (harness.TINY): batch 16, 64 points, grid_m 16, Heun-4.
TINY_COUNTS = {
    "train_rf": {"velocity.calls": 4.0, "velocity.rows": 16.0,
                 "schedules.residual_points": 0.0},
    # 2*16 (a, b) + 4*16 (first differences) + 6*15 (grid) per step
    "train_curveflow": {"velocity.calls": 4.0, "velocity.rows": 16.0,
                        "schedules.residual_points": 186.0},
    "sample_eval": {"velocity.calls": 8.0, "velocity.rows": 64.0,
                    "schedules.residual_points": 0.0},
}


def run_bench(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=root)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace:
        for name, value in TINY_COUNTS[workload].items():
            assert result["metrics"][name]["value"] == value, name


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("train_rf", 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
