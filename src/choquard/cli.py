"""Command-line interface: kernel tables, ground states, parameter sweeps, self checks.

Configuration is a JSON object with ``problem``, ``solver``, ``output`` and
``verify`` sections; every command accepts ``--config`` plus individual flag
overrides.  Reports are written as deterministic JSON (sorted keys, shortest
round-trip floats) so repeated runs with the same inputs are byte-identical.

Exit codes: 0 success, 1 usage or configuration error (a non-finite number
included), 2 convergence failure, 3 verification failure (a failed suite, or
a false sweep verdict).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import sys
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .calculus import PotentialSpec
from .errors import ChoquardError, ConvergenceError, InitializerError
from .fields import save_field
from .kernels import asymptotics_bracket, build_kernel_table, cross_method_deviation
from .lattice import ball, get_window
from .solver import SolverConfig, ground_state, json_form, lambda_sweep, sweep_csv
from .variational import MODE_FULL, MODES, ProblemSpec
from .verify import SUITE_NAMES, run_suites


class UsageError(Exception):
    """Bad command line or configuration input; maps to exit code 1."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def default_config() -> Dict[str, Dict[str, object]]:
    """Fully populated configuration with the documented defaults."""
    return {
        "problem": {
            "dim": 2,
            "radius": 16,
            "alpha": 1.0,
            "p": 2.0,
            "lam": 100.0,
            "lambda_grid": [1.0, 10.0, 100.0, 1000.0, 10000.0],
            "omega_radius": 2,
            "mode": "full",
        },
        "solver": asdict(SolverConfig()),
        "output": {"out": None},
        "verify": {"suites": list(SUITE_NAMES)},
    }


def _finite(value) -> bool:
    """Whether a number converts to a finite float (an int too large for a float does not)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _coerce(block: str, key: str, default: object, value: object) -> object:
    """Check a value against the type of the key's default and normalise it.

    The type is that of the default: int, float, str, or a list of floats or
    of strings.  The one key whose default is None, output.out, takes a string.
    """
    label = f"{block}.{key}"
    if default is None:
        if value is None:
            return None
        default = ""
    if isinstance(default, str):
        if not isinstance(value, str):
            raise UsageError(f"{label} must be a string, got {value!r}")
        return value
    if isinstance(default, list) and isinstance(default[0], str):
        if not isinstance(value, (list, tuple)) or not value:
            raise UsageError(f"{label} must be a non-empty list of strings")
        for item in value:
            if not isinstance(item, str):
                raise UsageError(f"{label} must contain strings only, got {item!r}")
        return list(value)
    if isinstance(default, list):
        if not isinstance(value, (list, tuple)) or not value:
            raise UsageError(f"{label} must be a non-empty list of numbers")
        for item in value:
            if not _number(item):
                raise UsageError(f"{label} must contain numbers only, got {item!r}")
            if not _finite(item):
                raise UsageError(f"{label} must contain finite numbers only, got {item!r}")
        return [float(item) for item in value]
    if _number(value) and not _finite(value):
        raise UsageError(f"{label} must be finite, got {value!r}")
    if isinstance(default, int):
        if not _number(value) or int(value) != value:
            raise UsageError(f"{label} must be an integer, got {value!r}")
        return int(value)
    if not _number(value):
        raise UsageError(f"{label} must be a number, got {value!r}")
    return float(value)


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
            cfg[block][key] = _coerce(block, key, cfg[block][key], value)
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


def resolve_config(args: argparse.Namespace) -> Dict[str, Dict[str, object]]:
    """Config file (if any) overlaid on defaults, then flag overrides on top.

    Each flag's argparse ``dest`` is the name of the key it sets.
    """
    data = load_config_file(args.config) if getattr(args, "config", None) else None
    cfg = merge_config(data)
    for block, entries in default_config().items():
        for key, default in entries.items():
            value = getattr(args, key, None)
            if value is not None:
                cfg[block][key] = _coerce(block, key, default, value)
    return cfg


# ---------------------------------------------------------------------------
# shared build steps
# ---------------------------------------------------------------------------


def build_problem(cfg: Dict[str, Dict[str, object]]) -> ProblemSpec:
    """Construct the problem described by a resolved configuration."""
    pb = cfg["problem"]
    window = get_window(pb["dim"], pb["radius"])
    potential = PotentialSpec(well=ball((0,) * pb["dim"], pb["omega_radius"]))
    kernel = build_kernel_table(pb["alpha"], window)
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
    table = build_kernel_table(pb["alpha"], get_window(pb["dim"], pb["radius"]))
    # one symmetry orbit per quadrant point with its coordinates sorted descending
    print(
        f"kernel table: alpha={table.alpha!r} dim={table.dim} "
        f"radius={table.radius} m_max={table.m_max} orbits={math.comb(table.m_max + table.dim, table.dim)}"
    )
    if table.m_max >= 5:
        r_max = min(30, table.m_max)
        c1, c2 = asymptotics_bracket(table, 5, r_max)
        print(
            f"asymptotic envelope on 5 <= |v|_1 <= {r_max}: "
            f"c1={c1:.6g} c2={c2:.6g} ratio={c2 / c1:.4g}"
        )
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
        "result": json_form(result),
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
    statuses = Counter(rec.status for rec in result.starts)
    tallies = "".join(f"  {status} = {count}" for status, count in statuses.items())
    print(f"iterations = {result.iterations}  starts tried = {len(result.starts)}{tallies}")
    return 0


def _plot_lines(header: str, pairs: Sequence[Tuple[float, float]]) -> str:
    lines = [f"# {header}"]
    for x, y in pairs:
        lines.append(f"{x!r} {y!r}")
    return "\n".join(lines) + "\n"


def cmd_sweep(cfg: Dict[str, Dict[str, object]]) -> int:
    """Sweep the coupling over the grid and report levels, distances, verdicts.

    A row that did not converge maps to exit code 2; with every row
    converged, a false verdict maps to exit code 3.
    """
    prob = build_problem(cfg)
    grid = [float(x) for x in cfg["problem"]["lambda_grid"]]
    base = replace(prob, mode=MODE_FULL, lam=grid[0])
    solver_cfg = SolverConfig(**cfg["solver"])
    report = lambda_sweep(base, grid, solver_cfg)
    payload: Dict[str, object] = {
        "command": "sweep",
        "config": cfg,
        "report": json_form(report),
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
    verdicts = payload["report"]["verdicts"]
    for name, value in verdicts.items():
        print(f"verdict {name}: {value}")
    if not report.all_converged:
        return 2
    failed = [name for name, value in verdicts.items() if value is False]
    if failed:
        print(f"failed verdicts: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


def cmd_verify(cfg: Dict[str, Dict[str, object]]) -> int:
    """Run the property suites; any failure, a suite that raised included, maps to exit code 3."""
    prob = build_problem(cfg)
    names = list(cfg["verify"]["suites"])
    results = run_suites(names, prob, seed=SolverConfig(**cfg["solver"]).seed)
    for res in results:
        consts = "  ".join(
            f"{key}={value:.6g}" for key, value in res.details.items() if isinstance(value, float)
        )
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name}: {status}" + (f"  [{consts}]" if consts else ""))
    payload: Dict[str, object] = {
        "command": "verify",
        "config": cfg,
        "suites": json_form(results),
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
    parser.add_argument("--mode", choices=MODES, help="problem mode")
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


# glibc's mallopt parameters, and the block size up to which the heap serves
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_REUSE_BYTES = 8 << 20


def _reuse_freed_heap() -> bool:
    """Fix the C allocator's thresholds so freed FFT temporaries are reused.

    Blocks up to 8 MB come from the heap, which keeps up to 16 MB of freed
    memory, so repeated batched convolutions reuse its pages instead of
    faulting in fresh zeroed ones.  Without it, the median perfbench run_s
    (6 alternating pairs on a 2-core VM) rose from 0.0964 to 0.1029 s on
    solve-r32 and from 0.0670 to 0.0718 s on sweep-r16, verify-r16 did not
    move, and peak RSS fell by only 0.03-0.24 MB.  Returns whether the
    thresholds were set; a C library without ``mallopt`` is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, _HEAP_REUSE_BYTES)) and bool(
        mallopt(_M_TRIM_THRESHOLD, 2 * _HEAP_REUSE_BYTES)
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    _reuse_freed_heap()
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
