"""The benchmark's contract with the package: every function perfbench wraps or calls exists.

perfbench/layers.py names the functions a traced benchmark run wraps.  A
name that no longer resolves does not fail the benchmark; its metrics just
read null.  This test reads that file, without changing it, and resolves
each name the way the benchmark does, plus the entry points it calls.
"""

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

from choquard import SolverConfig
from choquard.cli import default_config

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
LAYERS = runpy.run_path(str(LAYERS_PY))["LAYERS"]


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
