"""Smoke test of the benchmark: every workload at its smallest size.

    python -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import filecmp
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_at_smallest_size(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert values["trace.spans"] > 0
        if workload != "pretrain_pairs":
            assert values["dedup.planted_recall"] == 1.0
    else:
        assert all(value > 0 for value in values.values())


def test_inputs_depend_only_on_seed(tmp_path):
    sys.path.insert(0, str(BENCH))
    try:
        import run
    finally:
        sys.path.remove(str(BENCH))
    for name, plan in run.WORKLOADS.items():
        first, second = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        for directory in (first, second):
            directory.mkdir()
            plan(3, 0.0, directory)
        files = sorted(p.name for p in first.iterdir())
        assert files
        _, mismatch, errors = filecmp.cmpfiles(first, second, files, shallow=False)
        assert not mismatch and not errors


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "pipeline_zipf", 0)
    assert done.returncode != 0
    assert done.stdout == ""
