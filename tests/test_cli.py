"""Command-line behavior: configs, reports, determinism, and exit codes."""

import json

import numpy as np
import pytest

from choquard import KernelTable, build_kernel_table, cli, load_field, solver
from choquard.cli import (
    UsageError,
    config_json,
    default_config,
    load_config_file,
    main,
    merge_config,
)
from choquard.errors import InternalError, ProbeInconclusiveError


def _write_config(tmp_path, name="cfg.json", **solver_overrides):
    solver = {"restarts": 1, "residual_tol": 1e-10}
    solver.update(solver_overrides)
    path = tmp_path / name
    path.write_text(json.dumps({"solver": solver}))
    return str(path)


def test_default_config_is_merge_fixed_point():
    assert merge_config(None) == default_config()
    text = config_json(default_config())
    merged = merge_config(json.loads(text))
    assert config_json(merged) == text


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
    assert "kernel table: kind=green alpha=1.0 dim=2 radius=6 m_max=12" in out
    assert "asymptotic envelope on 5 <= |v|_1 <= 12" in out
    assert "cross-method deviation" in out
    assert "cache:" not in out


def test_removed_cache_option_is_rejected(tmp_path, capsys):
    assert main(["kernel", "--radius", "6", "--cache-dir", str(tmp_path)]) == 1
    assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"output": {"cache_dir": "x"}}))
    assert main(["kernel", "--radius", "6", "--config", str(cfg_path)]) == 1
    assert "unknown configuration key output.cache_dir" in capsys.readouterr().err


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


def test_sweep_non_finite_direction_is_a_convergence_failure(tmp_path, monkeypatch, capsys):
    real = solver.linear_solve

    def broken(rhs, prob, cfg):
        out = real(rhs, prob, cfg)
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
    assert [entry["status"] for entry in well["starts"]] == ["converged"] * 6
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
    assert report["all_converged"] is False
    assert "lambda=10: did not converge" in capsys.readouterr().out


def test_verify_suite_that_raises_fails_with_exit_three(tmp_path, monkeypatch, capsys):
    from choquard import variational

    def inconclusive(*args, **kwargs):
        raise ProbeInconclusiveError("no sampled field has positive pair energy")

    monkeypatch.setattr(variational, "mountain_pass_probe", inconclusive)
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

    def tampered_build(kind, alpha, window):
        table = build_kernel_table(kind, alpha, window)
        values = table.orbit_values.copy()
        nearest = np.flatnonzero((table.orbit_keys == (1, 0)).all(axis=1))
        assert nearest.size == 1
        values[nearest] *= 1.001
        return KernelTable(kind, alpha, table.dim, table.radius, table.quad, table.orbit_keys, values)

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
