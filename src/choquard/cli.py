"""Command-line interface: kernel tables, ground states, parameter sweeps, self checks.

Configuration is a JSON object with ``problem``, ``solver``, ``output`` and
``verify`` sections; every command accepts ``--config`` plus individual flag
overrides.  Reports are written as deterministic JSON (sorted keys, shortest
round-trip floats) so repeated runs with the same inputs are byte-identical.

Exit codes: 0 success, 1 usage or configuration error (a non-finite number
included), 2 convergence failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .calculus import PotentialSpec
from .errors import ChoquardError, ConvergenceError, InitializerError
from .fields import save_field
from .kernels import (
    GREEN,
    asymptotics_bracket,
    build_kernel_table,
    cross_method_deviation,
)
from .lattice import ball, get_window
from .solver import (
    SolverConfig,
    ground_state,
    lambda_sweep,
    report_to_dict,
    result_to_dict,
    sweep_csv,
)
from .variational import MODE_FULL, ProblemSpec
from .verify import SUITE_NAMES, run_suites


class UsageError(Exception):
    """Bad command line or configuration input; maps to exit code 1."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_INT_KEYS = {"dim", "radius", "omega_radius", "max_iterations", "cg_max_iterations", "restarts", "seed"}
_FLOAT_KEYS = {
    "alpha",
    "p",
    "lam",
    "potential_bound",
    "residual_tol",
    "nehari_tol",
    "cg_tol",
    "shrink",
    "sufficient_decrease",
}
_STR_KEYS = {"window_shape", "potential_profile", "kernel_kind", "mode", "initializer"}
_OPT_FLOAT_KEYS = {"potential_cap"}
_OPT_STR_KEYS = {"out"}
_FLOAT_LIST_KEYS = {"lambda_grid"}
_STR_LIST_KEYS = {"suites"}


def default_config() -> Dict[str, Dict[str, object]]:
    """Fully populated configuration with the documented defaults."""
    return {
        "problem": {
            "dim": 2,
            "radius": 16,
            "window_shape": "box",
            "alpha": 1.0,
            "p": 2.0,
            "lam": 100.0,
            "lambda_grid": [1.0, 10.0, 100.0, 1000.0, 10000.0],
            "omega_radius": 2,
            "potential_profile": "distance",
            "potential_bound": 1.0,
            "potential_cap": None,
            "kernel_kind": "green",
            "mode": "full",
        },
        "solver": SolverConfig().as_dict(),
        "output": {"out": None},
        "verify": {"suites": list(SUITE_NAMES)},
    }


def _finite(value) -> bool:
    """Whether a number converts to a finite float (an int too large for a float does not)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _coerce(block: str, key: str, value: object) -> object:
    label = f"{block}.{key}"
    numeric = key in _INT_KEYS or key in _FLOAT_KEYS or key in _OPT_FLOAT_KEYS
    if numeric and isinstance(value, (int, float)) and not _finite(value):
        raise UsageError(f"{label} must be finite, got {value!r}")
    if key in _INT_KEYS:
        if isinstance(value, bool) or not isinstance(value, (int, float)) or int(value) != value:
            raise UsageError(f"{label} must be an integer, got {value!r}")
        return int(value)
    if key in _FLOAT_KEYS or key in _OPT_FLOAT_KEYS:
        if value is None and key in _OPT_FLOAT_KEYS:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise UsageError(f"{label} must be a number, got {value!r}")
        return float(value)
    if key in _STR_KEYS or key in _OPT_STR_KEYS:
        if value is None and key in _OPT_STR_KEYS:
            return None
        if not isinstance(value, str):
            raise UsageError(f"{label} must be a string, got {value!r}")
        return value
    if key in _FLOAT_LIST_KEYS:
        if not isinstance(value, (list, tuple)) or not value:
            raise UsageError(f"{label} must be a non-empty list of numbers")
        out: List[float] = []
        for item in value:
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise UsageError(f"{label} must contain numbers only, got {item!r}")
            if not _finite(item):
                raise UsageError(f"{label} must contain finite numbers only, got {item!r}")
            out.append(float(item))
        return out
    if key in _STR_LIST_KEYS:
        if not isinstance(value, (list, tuple)) or not value:
            raise UsageError(f"{label} must be a non-empty list of strings")
        for item in value:
            if not isinstance(item, str):
                raise UsageError(f"{label} must contain strings only, got {item!r}")
        return list(value)
    raise UsageError(f"unknown configuration key {label}")


def merge_config(data: Optional[Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    """Overlay a partial configuration onto the defaults, rejecting unknown keys."""
    cfg = default_config()
    if data is None:
        return cfg
    if not isinstance(data, dict):
        raise UsageError("configuration must be a JSON object")
    for block, entries in data.items():
        if block not in cfg:
            raise UsageError(f"unknown configuration section {block!r}")
        if not isinstance(entries, dict):
            raise UsageError(f"configuration section {block!r} must be an object")
        for key, value in entries.items():
            if key not in cfg[block]:
                raise UsageError(f"unknown configuration key {block}.{key}")
            cfg[block][key] = _coerce(block, key, value)
    return cfg


def load_config_file(path: str) -> Dict[str, object]:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {path}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must contain a JSON object")
    return data


def config_json(cfg: Dict[str, Dict[str, object]]) -> str:
    """Canonical serialization; re-parsing and re-serializing is the identity."""
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


_FLAG_MAP = {
    "dim": ("problem", "dim"),
    "radius": ("problem", "radius"),
    "alpha": ("problem", "alpha"),
    "p": ("problem", "p"),
    "lam": ("problem", "lam"),
    "lambda_grid": ("problem", "lambda_grid"),
    "omega_radius": ("problem", "omega_radius"),
    "kernel": ("problem", "kernel_kind"),
    "mode": ("problem", "mode"),
    "seed": ("solver", "seed"),
    "out": ("output", "out"),
    "suites": ("verify", "suites"),
}


def resolve_config(args: argparse.Namespace) -> Dict[str, Dict[str, object]]:
    """Config file (if any) overlaid on defaults, then flag overrides on top."""
    data = load_config_file(args.config) if getattr(args, "config", None) else None
    cfg = merge_config(data)
    for attr, (block, key) in _FLAG_MAP.items():
        value = getattr(args, attr, None)
        if value is not None:
            cfg[block][key] = _coerce(block, key, value)
    return cfg


# ---------------------------------------------------------------------------
# shared build steps
# ---------------------------------------------------------------------------


def build_problem(cfg: Dict[str, Dict[str, object]]) -> ProblemSpec:
    """Construct the problem described by a resolved configuration."""
    pb = cfg["problem"]
    window = get_window(pb["dim"], pb["radius"], pb["window_shape"])
    well = ball((0,) * pb["dim"], pb["omega_radius"])
    potential = PotentialSpec(
        well=well,
        bound=pb["potential_bound"],
        profile=pb["potential_profile"],
        cap=pb["potential_cap"],
    )
    kernel = build_kernel_table(pb["kernel_kind"], pb["alpha"], window)
    lam = pb["lam"] if pb["mode"] == MODE_FULL else None
    return ProblemSpec(
        mode=pb["mode"], window=window, potential=potential, kernel=kernel, p=pb["p"], lam=lam
    )


def _write_report(out: Optional[str], payload: Dict[str, object]) -> Optional[Path]:
    if not out:
        return None
    path = Path(out)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _out_base(out: str) -> Path:
    path = Path(out)
    return path.with_suffix("") if path.suffix == ".json" else path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_kernel(cfg: Dict[str, Dict[str, object]]) -> int:
    """Build the kernel table and print its summary diagnostics."""
    pb = cfg["problem"]
    window = get_window(pb["dim"], pb["radius"], pb["window_shape"])
    table = build_kernel_table(pb["kernel_kind"], pb["alpha"], window)
    print(
        f"kernel table: kind={table.kind} alpha={table.alpha!r} dim={table.dim} "
        f"radius={table.radius} m_max={table.m_max} orbits={table.orbit_values.size}"
    )
    if table.m_max >= 5:
        r_max = min(30, table.m_max)
        c1, c2 = asymptotics_bracket(table, 5, r_max)
        print(
            f"asymptotic envelope on 5 <= |v|_1 <= {r_max}: "
            f"c1={c1:.6g} c2={c2:.6g} ratio={c2 / c1:.4g}"
        )
    if table.kind == GREEN:
        r_cross = min(10, table.m_max)
        dev = cross_method_deviation(table, r_cross)
        print(f"cross-method deviation (quadrature vs torus spectral, |v|_1 <= {r_cross}): {dev:.3e}")
    return 0


def cmd_solve(cfg: Dict[str, Dict[str, object]]) -> int:
    """Compute one ground state and write the (optional) deterministic report."""
    prob = build_problem(cfg)
    solver_cfg = SolverConfig(**cfg["solver"])
    try:
        result = ground_state(prob, solver_cfg)
    except (ConvergenceError, InitializerError) as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 2
    payload: Dict[str, object] = {
        "command": "solve",
        "config": cfg,
        "result": result_to_dict(result),
    }
    out = cfg["output"]["out"]
    if out:
        field_path = Path(str(_out_base(out)) + ".field.txt")
        payload["field_file"] = field_path.name
        report_path = _write_report(out, payload)
        save_field(result.u, field_path)
        print(f"report written to {report_path}")
        print(f"solution field written to {field_path}")
    print(f"mode={prob.mode} lambda={prob.lam!r}")
    print(f"ground-state level m = {result.level!r}")
    print(f"dual residual = {result.dual_residual:.3e}  constraint defect = {result.nehari_defect:.3e}")
    print(
        f"iterations = {result.iterations}  starts tried = {len(result.starts)}"
        f"  converged = {len(result.start_levels)}"
    )
    return 0


def _plot_lines(header: str, pairs: Sequence[Tuple[float, float]]) -> str:
    lines = [f"# {header}"]
    for x, y in pairs:
        lines.append(f"{x!r} {y!r}")
    return "\n".join(lines) + "\n"


def cmd_sweep(cfg: Dict[str, Dict[str, object]]) -> int:
    """Sweep the coupling over the grid and report levels, distances, verdicts."""
    prob = build_problem(cfg)
    grid = [float(x) for x in cfg["problem"]["lambda_grid"]]
    base = replace(prob, mode=MODE_FULL, lam=grid[0])
    solver_cfg = SolverConfig(**cfg["solver"])
    report = lambda_sweep(base, grid, solver_cfg)
    payload: Dict[str, object] = {
        "command": "sweep",
        "config": cfg,
        "report": report_to_dict(report),
    }
    out = cfg["output"]["out"]
    if out:
        base_path = _out_base(out)
        report_path = _write_report(out, payload)
        csv_path = Path(str(base_path) + ".csv")
        csv_path.write_text(sweep_csv(report))
        level_pairs = [
            (math.log10(row.lam), row.level) for row in report.rows if row.converged
        ]
        dist_pairs = [
            (math.log10(row.lam), row.w22_distance) for row in report.rows if row.converged
        ]
        level_plot = Path(str(base_path) + ".m_lambda.dat")
        dist_plot = Path(str(base_path) + ".w22_dist.dat")
        level_plot.write_text(_plot_lines("log10_lambda m_lambda", level_pairs))
        dist_plot.write_text(_plot_lines("log10_lambda w22_dist", dist_pairs))
        print(f"report written to {report_path}")
        print(f"table written to {csv_path}")
        print(f"plot data written to {level_plot} and {dist_plot}")
    print(f"well level m_omega = {report.well_level!r}")
    for row in report.rows:
        if row.converged:
            print(
                f"lambda={row.lam:g}: m={row.level!r} w22_dist={row.w22_distance!r} "
                f"outside_mass={row.outside_mass!r} iterations={row.iterations}"
            )
        else:
            print(f"lambda={row.lam:g}: did not converge")
    for name, value in report_to_dict(report)["verdicts"].items():
        print(f"verdict {name}: {value}")
    return 0 if report.all_converged else 2


def cmd_verify(cfg: Dict[str, Dict[str, object]]) -> int:
    """Run the property suites; any failure, a suite that raised included, maps to exit code 3."""
    prob = build_problem(cfg)
    names = list(cfg["verify"]["suites"])
    results = run_suites(names, prob, seed=cfg["solver"]["seed"])
    for res in results:
        consts = "  ".join(
            f"{key}={value:.6g}" for key, value in res.details.items() if isinstance(value, float)
        )
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name}: {status}" + (f"  [{consts}]" if consts else ""))
    payload: Dict[str, object] = {
        "command": "verify",
        "config": cfg,
        "suites": [{"name": r.name, "passed": r.passed, "details": r.details} for r in results],
    }
    out = cfg["output"]["out"]
    if out:
        report_path = _write_report(out, payload)
        print(f"report written to {report_path}")
    failures = [r for r in results if not r.passed]
    if failures:
        print(f"failed suites: {', '.join(r.name for r in failures)}", file=sys.stderr)
        for r in failures:
            if "error" in r.details:
                print(f"{r.name}: {r.details['error']}", file=sys.stderr)
        return 3
    return 0


_COMMANDS = {"kernel": cmd_kernel, "solve": cmd_solve, "sweep": cmd_sweep, "verify": cmd_verify}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(f"{self.prog}: error: {message}\n{self.format_usage().rstrip()}")


def _parse_grid(text: str) -> List[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid value in {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("grid must contain at least one value")
    return values


def _parse_suites(text: str) -> List[str]:
    values = [part.strip() for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError("suite list must not be empty")
    return values


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON configuration file")
    parser.add_argument("--dim", type=int, help="lattice dimension")
    parser.add_argument("--radius", type=int, help="window radius")
    parser.add_argument("--alpha", type=float, help="kernel order, in (0, dim)")
    parser.add_argument("--p", type=float, help="nonlinearity exponent")
    parser.add_argument("--lambda", dest="lam", type=float, help="potential coupling")
    parser.add_argument(
        "--lambda-grid", dest="lambda_grid", type=_parse_grid, metavar="L1,L2,...",
        help="comma-separated coupling grid for sweeps",
    )
    parser.add_argument("--omega-radius", dest="omega_radius", type=int, help="well radius")
    parser.add_argument("--kernel", choices=["green", "riesz"], help="kernel kind")
    parser.add_argument("--mode", choices=["full", "dirichlet"], help="problem mode")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--out", metavar="PATH", help="report file; side files share its stem")
    parser.add_argument(
        "--suites", type=_parse_suites, metavar="NAME,...",
        help=f"verification suites to run (default: all of {','.join(SUITE_NAMES)})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="choquard",
        description="Ground states of a fourth-order lattice equation with a nonlocal nonlinearity.",
    )
    sub = parser.add_subparsers(dest="command", metavar="{kernel,solve,sweep,verify}")
    sub.required = True
    descriptions = {
        "kernel": "Tabulate the convolution kernel and print its diagnostics.",
        "solve": "Compute a constrained ground state at one coupling value.",
        "sweep": "Solve along a coupling grid and compare with the hard-well limit.",
        "verify": "Run the self-checking property suites.",
    }
    for name, desc in descriptions.items():
        sp = sub.add_parser(name, help=desc, description=desc)
        _add_common_flags(sp)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 2
    except (ChoquardError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
