"""Smoke test of the benchmark: tiny inputs, output schema, metric names and units.

    python3 -m pytest -q benchmarks/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every workload the command accepts, including robust_lp, which BENCHMARK.json does not list.
WORKLOADS = ["consistency", "many_centers", "robust_lp", "cli"]


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_last_line_schema(workload, trace):
    proc = run(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))

    report = json.loads(lines[-2])["report"]
    env = report["environment"]
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "blas_threads"} <= set(env)
    if not trace:
        for name in SPEC["end_to_end"]:
            assert name["name"] in report["end_to_end"]
        assert {"ops_per_s", "failed_frac"} <= set(report["end_to_end"])
        if workload == "robust_lp":
            assert {"solve_exact_p50_ms", "solve_cuts_p50_ms"} <= set(report["end_to_end"])


def test_listed_workloads_are_known():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_end_to_end_metrics_are_positive():
    proc = run("--workload", "consistency", "--seed", "4", "--seconds", "1", "--tiny")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert all(m["value"] > 0 for m in metrics.values())


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("--workload", "consistency", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
