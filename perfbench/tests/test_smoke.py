"""Smoke test of the benchmark harness: every workload at a tiny radius, schema only.

    python3 -m pytest -q perfbench/tests

Timings are never checked; the stored reference does not apply at this
radius, so only the output's shape and the metric names and units are.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--radius", "8"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_schema(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == m["unit"]
        assert metric["value"] is None or isinstance(metric["value"], (int, float))

    record_path = BENCH_DIR / "results" / f"{workload}.radius8.seed3.trace{trace}.json"
    record = json.loads(record_path.read_text())
    for key in ("git_sha", "nproc", "blas_threads", "seed", "environment", "samples"):
        assert key in record
    assert set(record["environment"]) == {"python", "numpy", "scipy", "blas"}
    assert record["seed"] == 3 and 1 <= record["blas_threads"] <= record["nproc"]


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "layers.py"):
        (bench / name).write_text((BENCH_DIR / name).read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "verify-r16", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
