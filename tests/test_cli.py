"""Command-line behavior: configs, reports, determinism, and exit codes."""

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import choquard
from choquard import KernelTable, build_kernel_table, cli, load_field, solver
from choquard.cli import (
    UsageError,
    build_parser,
    default_config,
    load_config_file,
    main,
    merge_config,
    resolve_config,
)
from choquard.errors import InternalError, ProbeInconclusiveError


def _write_config(tmp_path, name="cfg.json", **solver_overrides):
    solver = {"restarts": 1, "residual_tol": 1e-10}
    solver.update(solver_overrides)
    path = tmp_path / name
    path.write_text(json.dumps({"solver": solver}))
    return str(path)


def _config_text(cfg):
    return json.dumps(cfg, indent=2, sort_keys=True)


def test_default_config_is_merge_fixed_point():
    assert merge_config(None) == default_config()
    text = _config_text(default_config())
    merged = merge_config(json.loads(text))
    assert _config_text(merged) == text


def test_readme_config_block_matches_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Configuration"):]
    start = section.index("```json\n") + len("```json\n")
    block = section[start:section.index("\n```", start)]
    assert json.loads(block) == default_config()


_KEYS = [(block, key) for block, entries in default_config().items() for key in entries]


@pytest.mark.parametrize("block, key", _KEYS, ids=[f"{b}.{k}" for b, k in _KEYS])
def test_every_key_keeps_the_type_of_its_default(block, key):
    default = default_config()[block][key]
    assert merge_config({block: {key: default}})[block][key] == default
    wrong = 3 if isinstance(default, str) or key == "out" else "three"
    with pytest.raises(UsageError, match=f"^{block}\\.{key} "):
        merge_config({block: {key: wrong}})


_FLAGS = [
    (["--dim", "3"], "problem", "dim", 3),
    (["--radius", "5"], "problem", "radius", 5),
    (["--alpha", "0.5"], "problem", "alpha", 0.5),
    (["--p", "3"], "problem", "p", 3.0),
    (["--lambda", "7"], "problem", "lam", 7.0),
    (["--lambda-grid", "1,2"], "problem", "lambda_grid", [1.0, 2.0]),
    (["--omega-radius", "1"], "problem", "omega_radius", 1),
    (["--mode", "dirichlet"], "problem", "mode", "dirichlet"),
    (["--seed", "4"], "solver", "seed", 4),
    (["--out", "r.json"], "output", "out", "r.json"),
    (["--suites", "ops,green"], "verify", "suites", ["ops", "green"]),
]


@pytest.mark.parametrize("flags, block, key, expected", _FLAGS, ids=[f[0][0] for f in _FLAGS])
def test_each_flag_sets_its_own_key(flags, block, key, expected):
    cfg = resolve_config(build_parser().parse_args(["solve"] + flags))
    assert type(cfg[block][key]) is type(expected) and cfg[block][key] == expected
    wanted = default_config()
    wanted[block][key] = expected
    assert cfg == wanted


def test_every_flag_names_a_configuration_key():
    parser = argparse.ArgumentParser()
    cli._add_common_flags(parser)
    dests = {action.dest for action in parser._actions} - {"help", "config"}
    assert dests == {key for _, _, key, _ in _FLAGS}
    assert dests <= {key for _, key in _KEYS}


def test_merge_config_rejects_unknown_and_mistyped_entries():
    with pytest.raises(UsageError, match="section"):
        merge_config({"solvers": {}})
    with pytest.raises(UsageError, match="problem.radiuss"):
        merge_config({"problem": {"radiuss": 4}})
    with pytest.raises(UsageError, match="must be an integer"):
        merge_config({"problem": {"radius": 2.5}})
    with pytest.raises(UsageError, match="must be a number"):
        merge_config({"problem": {"alpha": "one"}})
    with pytest.raises(UsageError, match="must be a string"):
        merge_config({"problem": {"mode": 3}})
    with pytest.raises(UsageError, match="non-empty list"):
        merge_config({"problem": {"lambda_grid": []}})
    with pytest.raises(UsageError, match="strings only"):
        merge_config({"verify": {"suites": [1, 2]}})
    with pytest.raises(UsageError):
        merge_config({"problem": "radius=4"})
    with pytest.raises(UsageError):
        merge_config([1, 2])


def test_load_config_file_errors(tmp_path):
    with pytest.raises(UsageError, match="not found"):
        load_config_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(UsageError, match="valid JSON"):
        load_config_file(str(bad))
    array = tmp_path / "arr.json"
    array.write_text("[1, 2]")
    with pytest.raises(UsageError, match="JSON object"):
        load_config_file(str(array))


def test_flags_override_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"problem": {"radius": 6, "alpha": 1.0}}))
    code = main(["kernel", "--config", str(cfg_path), "--radius", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "radius=5" in out


def test_kernel_command_builds_then_reuses_cache(capsys):
    assert main(["kernel", "--radius", "6"]) == 0
    out = capsys.readouterr().out
    assert "kernel table: alpha=1.0 dim=2 radius=6 m_max=12" in out
    assert "asymptotic envelope on 5 <= |v|_1 <= 12" in out
    assert "cross-method deviation" in out
    assert "cache:" not in out


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
def test_allocator_thresholds_are_set_on_glibc():
    assert cli._reuse_freed_heap() is True


def test_commands_run_where_the_c_library_has_no_mallopt(monkeypatch, capsys):
    def no_library(name):
        raise OSError("no C library")

    monkeypatch.setattr(cli.ctypes, "CDLL", no_library)
    assert cli._reuse_freed_heap() is False
    assert main(["kernel", "--radius", "6"]) == 0
    assert "kernel table: alpha=1.0 dim=2 radius=6" in capsys.readouterr().out


def test_removed_cache_option_is_rejected(tmp_path, capsys):
    for flag, value in (("--cache-dir", str(tmp_path)), ("--kernel", "riesz")):
        assert main(["kernel", "--radius", "6", flag, value]) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg_path = tmp_path / "cfg.json"
    problem_keys = ("potential_bound", "kernel_kind", "potential_profile", "potential_cap", "window_shape")
    solver_keys = ("cg_tol", "cg_max_iterations", "shrink", "sufficient_decrease", "nehari_tol", "initializer")
    removed = [("output", "cache_dir")] + [("problem", key) for key in problem_keys]
    for block, key in removed + [("solver", key) for key in solver_keys]:
        cfg_path.write_text(json.dumps({block: {key: 1.0}}))
        assert main(["solve", "--radius", "6", "--config", str(cfg_path)]) == 1
        assert f"unknown configuration key {block}.{key}" in capsys.readouterr().err
        assert f"`{block}.{key}`" in readme


def test_kernel_command_rejects_out_of_range_alpha(capsys):
    assert main(["kernel", "--radius", "6", "--alpha", "2.0"]) == 1
    err = capsys.readouterr().err
    assert "alpha must lie in (0, N)" in err


def test_solve_writes_deterministic_report_and_field(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run" / "report.json"
    argv = [
        "solve", "--config", cfg, "--radius", "6", "--lambda", "5",
        "--omega-radius", "1", "--out", str(out),
    ]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert "ground-state level m = " in stdout
    payload = json.loads(out.read_text())
    assert payload["command"] == "solve"
    assert payload["config"]["problem"]["radius"] == 6
    assert payload["result"]["converged"] is True
    assert payload["field_file"] == "report.field.txt"
    field_path = out.parent / "report.field.txt"
    field = load_field(field_path)
    assert field.window.radius == 6
    report_bytes = out.read_bytes()
    field_bytes = field_path.read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == report_bytes
    assert field_path.read_bytes() == field_bytes


def test_radius_32_solve_does_not_depend_on_the_blas_thread_count(tmp_path):
    # from radius 32 a BLAS product splits its sums by thread, so a report
    # reduced through one would change in the last digits with the count
    package_root = str(Path(choquard.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        run = tmp_path / f"threads{threads}"
        run.mkdir()
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        subprocess.run(
            [sys.executable, "-m", "choquard", "solve", "--radius", "32", "--lambda", "100", "--out", "solve.json"],
            cwd=run, env=env, check=True, capture_output=True,
        )
        outputs.append(((run / "solve.json").read_bytes(), (run / "solve.field.txt").read_bytes()))
    assert outputs[0] == outputs[1]


def test_solve_summary_counts_each_start_status(capsys):
    # the five random starts merge into the well bump's basin; a count of
    # converged starts read from start_levels would list them as converged
    assert main(["solve", "--radius", "6", "--lambda", "5", "--omega-radius", "1"]) == 0
    assert "iterations = 10  starts tried = 6  converged = 1  merged = 5\n" in capsys.readouterr().out


def test_solve_dirichlet_mode(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    argv = ["solve", "--config", cfg, "--radius", "6", "--omega-radius", "1", "--mode", "dirichlet"]
    assert main(argv) == 0
    assert "mode=dirichlet lambda=None" in capsys.readouterr().out


def test_solve_reports_convergence_failure(tmp_path, capsys):
    cfg = _write_config(tmp_path, max_iterations=1, restarts=0, residual_tol=1e-14)
    argv = ["solve", "--config", cfg, "--radius", "6", "--lambda", "5", "--omega-radius", "1"]
    assert main(argv) == 2
    assert "solve failed" in capsys.readouterr().err


def test_sweep_writes_table_and_plot_data(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "sw" / "rep.json"
    argv = [
        "sweep", "--config", cfg, "--radius", "6", "--lambda-grid", "1,10",
        "--omega-radius", "1", "--out", str(out),
    ]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert "well level m_omega = " in stdout
    assert "verdict level_at_most_well: True" in stdout
    payload = json.loads(out.read_text())
    assert payload["command"] == "sweep"
    assert [row["lambda"] for row in payload["report"]["rows"]] == [1.0, 10.0]
    first, second = ([entry["label"] for entry in row["starts"]] for row in payload["report"]["rows"])
    assert first == ["well-bump", "random-positive-1", "extra-0"]
    assert second == ["well-bump", "extra-0", "extra-1"]
    csv_lines = (out.parent / "rep.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "lambda,m_lambda,w22_dist,outside_mass,iterations,residual"
    assert len(csv_lines) == 4 and csv_lines[-1].startswith("# m_omega = ")
    for stem, column in (("rep.m_lambda.dat", "m_lambda"), ("rep.w22_dist.dat", "w22_dist")):
        lines = (out.parent / stem).read_text().strip().split("\n")
        assert lines[0] == f"# log10_lambda {column}"
        assert len(lines) == 3
        assert [float(row.split()[0]) for row in lines[1:]] == [0.0, 1.0]


def test_sweep_convergence_failure_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, max_iterations=1, restarts=0, residual_tol=1e-14)
    argv = ["sweep", "--config", cfg, "--radius", "6", "--lambda-grid", "1,10", "--omega-radius", "1"]
    assert main(argv) == 2
    assert "convergence failure" in capsys.readouterr().err


@pytest.mark.parametrize("all_converged, code", [(True, 3), (False, 2)])
def test_sweep_false_verdict_exits_three_once_every_row_converged(tmp_path, monkeypatch, capsys, all_converged, code):
    real = cli.lambda_sweep

    def one_false_verdict(base, grid, cfg):
        report = real(base, grid, cfg)
        verdicts = dataclasses.replace(report.verdicts, distance_decreasing=False)
        return dataclasses.replace(report, verdicts=verdicts, all_converged=all_converged)

    monkeypatch.setattr(cli, "lambda_sweep", one_false_verdict)
    out = tmp_path / "rep.json"
    argv = ["sweep", "--radius", "6", "--omega-radius", "1", "--lambda-grid", "1,10", "--out", str(out)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert "verdict distance_decreasing: False" in captured.out
    assert "verdict level_at_most_well: True" in captured.out
    assert json.loads(out.read_text())["report"]["verdicts"]["distance_decreasing"] is False
    assert captured.err == ("failed verdicts: distance_decreasing\n" if all_converged else "")


def test_sweep_non_finite_direction_is_a_convergence_failure(tmp_path, monkeypatch, capsys):
    real = solver.linear_solve

    def broken(rhs, prob):
        out = real(rhs, prob)
        if prob.mode == "full":
            out[:] = np.nan
        return out

    monkeypatch.setattr(solver, "linear_solve", broken)
    out = tmp_path / "rep.json"
    assert main(["sweep", "--radius", "8", "--lambda-grid", "1,10", "--out", str(out)]) == 2
    report = json.loads(out.read_text())["report"]
    assert [row["converged"] for row in report["rows"]] == [False, False]
    assert report["well_result"]["converged"] is True
    assert "lambda=1: did not converge" in capsys.readouterr().out


def test_sweep_row_whose_every_start_is_inadmissible_fails(tmp_path, monkeypatch, capsys):
    from choquard import variational

    real = variational.pair_terms

    def overflowing(values, prob):
        conv, d = real(values, prob)
        return conv, (d * np.inf if prob.mode == "full" else d)

    monkeypatch.setattr(variational, "pair_terms", overflowing)
    out = tmp_path / "rep.json"
    assert main(["sweep", "--radius", "8", "--lambda-grid", "1,10", "--out", str(out)]) == 2
    report = json.loads(out.read_text())["report"]
    assert [row["converged"] for row in report["rows"]] == [False, False]
    assert report["all_converged"] is False
    well = report["well_result"]
    assert well["converged"] is True
    assert [(entry["status"], entry["iterations"], entry["reason"]) for entry in well["starts"]] == [
        ("converged", 9, None),
        ("merged", 7, "merged into well-bump at iteration 7"),
        ("merged", 6, "merged into well-bump at iteration 6"),
        ("merged", 7, "merged into well-bump at iteration 7"),
        ("merged", 7, "merged into well-bump at iteration 7"),
        ("merged", 7, "merged into well-bump at iteration 7"),
    ]
    assert [row["reason"] for row in report["rows"]] == [
        "InitializerError: no start is admissible; last failure [extra-0]: squared norm or pair energy is not finite",
    ] * 2
    assert "lambda=10: did not converge" in capsys.readouterr().out


def test_sweep_row_that_raises_is_recorded_and_the_sweep_continues(tmp_path, monkeypatch, capsys):
    real = solver.ground_state

    def failing(prob, cfg, *args, **kwargs):
        if prob.lam == 10.0:
            raise InternalError("injected failure")
        return real(prob, cfg, *args, **kwargs)

    monkeypatch.setattr(solver, "ground_state", failing)
    out = tmp_path / "rep.json"
    argv = ["sweep", "--radius", "6", "--omega-radius", "1", "--lambda-grid", "1,10,100", "--out", str(out)]
    assert main(argv) == 2
    report = json.loads(out.read_text())["report"]
    assert [row["lambda"] for row in report["rows"]] == [1.0, 10.0, 100.0]
    assert [row["converged"] for row in report["rows"]] == [True, False, True]
    assert report["rows"][1]["m_lambda"] is None
    assert report["rows"][1]["starts"] == []
    assert [row["reason"] for row in report["rows"]] == [None, "InternalError: injected failure", None]
    assert [entry["label"] for entry in report["rows"][2]["starts"]] == ["well-bump", "extra-0", "extra-1"]
    assert report["all_converged"] is False
    assert "lambda=10: did not converge" in capsys.readouterr().out


def test_verify_suite_that_raises_fails_with_exit_three(tmp_path, monkeypatch, capsys):
    from choquard import variational

    def inconclusive(*args, **kwargs):
        raise ProbeInconclusiveError("no sampled field has positive pair energy")

    # the suite draws its samples through the probe's sampling step
    monkeypatch.setattr(variational, "_sampled_sphere", inconclusive)
    out = tmp_path / "verify.json"
    argv = ["verify", "--radius", "6", "--suites", "ops,mountainpass,lions", "--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "ops: PASS" in captured.out and "lions: PASS" in captured.out
    assert "mountainpass: FAIL" in captured.out
    assert "failed suites: mountainpass" in captured.err
    assert "ProbeInconclusiveError: no sampled field" in captured.err
    suites = json.loads(out.read_text())["suites"]
    assert [(s["name"], s["passed"]) for s in suites] == [("ops", True), ("mountainpass", False), ("lions", True)]
    assert suites[1]["details"] == {"error": "ProbeInconclusiveError: no sampled field has positive pair energy"}


def test_verify_subset_passes(tmp_path, capsys):
    out = tmp_path / "verify.json"
    argv = ["verify", "--radius", "6", "--suites", "ops,lions", "--out", str(out)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert "ops: PASS" in stdout and "lions: PASS" in stdout
    payload = json.loads(out.read_text())
    assert [suite["name"] for suite in payload["suites"]] == ["ops", "lions"]
    assert all(suite["passed"] for suite in payload["suites"])


def test_verify_detects_tampered_kernel_table(capsys, monkeypatch):
    assert main(["verify", "--radius", "16", "--suites", "green"]) == 0
    assert "green: PASS" in capsys.readouterr().out

    def tampered_build(alpha, window):
        table = build_kernel_table(alpha, window)
        grid = table.grid.copy()
        # the nearest-neighbour orbit, both of its points on the quadrant
        grid[1, 0] *= 1.001
        grid[0, 1] *= 1.001
        return KernelTable(alpha, table.dim, table.radius, table.quad, grid)

    monkeypatch.setattr(cli, "build_kernel_table", tampered_build)
    assert main(["verify", "--radius", "16", "--suites", "green"]) == 3
    captured = capsys.readouterr()
    assert "green: FAIL" in captured.out
    assert "failed suites: green" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["orbit"],
        ["kernel", "--kernel", "bessel"],
        ["solve", "--config", "/nonexistent/cfg.json"],
        ["kernel", "--lambda-grid", "a,b"],
        ["solve", "--radius", "6", "--seed", "-1"],
        ["verify", "--radius", "6", "--seed", "-1"],
    ],
)
def test_usage_errors_exit_one(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize(
    "config, flags",
    [
        ({"problem": {"radius": float("nan")}}, []),
        ({"problem": {"radius": float("inf")}}, []),
        ({"problem": {"alpha": float("nan")}}, []),
        ({"problem": {"p": 10**400}}, []),
        ({"problem": {"lambda_grid": [1.0, float("inf")]}}, []),
        ({"solver": {"residual_tol": float("inf")}}, []),
        (None, ["--p", "inf"]),
        (None, ["--lambda", "inf"]),
        (None, ["--lambda", "nan"]),
        (None, ["--lambda-grid", "1,inf"]),
    ],
)
def test_non_finite_numbers_exit_one(tmp_path, capsys, config, flags):
    # json writes NaN and Infinity, and reads them back as floats
    argv = ["solve", "--radius", "6"] + flags
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "must be finite" in err or "finite numbers only" in err
    assert "Traceback" not in err


def test_unknown_suite_and_bad_grid_order_exit_one(tmp_path, capsys):
    assert main(["verify", "--radius", "6", "--suites", "nope"]) == 1
    assert "unknown" in capsys.readouterr().err
    cfg = _write_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--radius", "6", "--lambda-grid", "10,1", "--omega-radius", "1"]) == 1
    assert "increasing" in capsys.readouterr().err
