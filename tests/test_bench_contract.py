"""The benchmark's contract with the package: every function perfbench wraps or calls exists.

perfbench/layers.py names the functions a traced benchmark run wraps.  A
name that no longer resolves does not fail the benchmark; its metrics just
read null.  This test reads that file, without changing it, and resolves
each name the way the benchmark does, plus the entry points it calls.  It
also runs each workload's command in process and checks its report with
perfbench's own correctness check, so a change that the benchmark would
count as failing fails here first.
"""

import importlib
import inspect
import json
import runpy
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from choquard import SolverConfig, cli
from choquard.cli import default_config

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERS_PY = BENCH / "layers.py"
LAYERS = runpy.run_path(str(LAYERS_PY))["LAYERS"]
WORKLOADS = [w["name"] for w in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["workloads"]]


def _resolve(path):
    """The object named ``<module>.<function>`` or ``<module>.<Class>.<method>`` under choquard."""
    module, *attrs = path.split(".")
    obj = importlib.import_module("choquard." + module)
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("path", LAYERS + ("verify.run_suites", "cli.build_problem"))
def test_benchmark_path_resolves_to_a_callable(path):
    assert callable(_resolve(path))


def test_benchmark_call_shapes_bind(small_prob):
    ground_state = inspect.signature(_resolve("solver.ground_state"))
    ground_state.bind(small_prob, SolverConfig(), extra_starts=())
    ground_state.bind(small_prob, SolverConfig(), ())
    inspect.signature(_resolve("verify.run_suites")).bind(("ops",), small_prob, seed=0)
    inspect.signature(_resolve("cli.build_problem")).bind(default_config())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_reads_each_workload_as_correct(workload, tmp_path, monkeypatch):
    # run.py and sample.py import layers.py as a top-level module
    monkeypatch.setitem(sys.modules, "layers", SimpleNamespace(**runpy.run_path(str(LAYERS_PY))))
    run = runpy.run_path(str(BENCH / "run.py"))
    sample = runpy.run_path(str(BENCH / "sample.py"))
    args = run["cli_args"](workload, run["WORKLOADS"][workload]["radius"], 0)
    report = tmp_path / "report.json"
    assert cli.main(args + ["--out", str(report)]) == 0
    outcome = sample["_outcome"](args[0], str(report))
    reference = json.loads((BENCH / "reference.json").read_text())[workload]
    assert run["check_outcome"](args[0], outcome, reference) == []
