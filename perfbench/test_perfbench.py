"""The benchmark's own checks.

    python3 -m pytest perfbench/test_perfbench.py

Slow (two traced runs per workload, a few minutes in all); it is not part
of the package's test suite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "B", "ratio")


def _run(cwd, workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.steps(name, 7) == workloads.steps(name, 7)
    assert workloads.steps("pointwise", 7) != workloads.steps("pointwise", 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(workload):
    # the second run of the seed also compares its report bytes with the
    # first run's through the digest store, so correct=true covers that too
    first = _result(_run(ROOT, workload, 2024, 1))
    second = _result(_run(ROOT, workload, 2024, 1))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        if m["unit"] in COUNT_UNITS:
            assert first["metrics"][m["name"]] == second["metrics"][m["name"]], m["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "grid", 1, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
