"""Descent solver, coupling sweep, and splitting diagnostics vs oracles."""

import dataclasses
import json
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import choquard as c
from choquard import (
    ConvergenceError,
    Field,
    InitializerError,
    InputError,
    ParameterError,
    PotentialSpec,
    ProblemSpec,
    SiteSet,
    SolverConfig,
    ball,
    get_window,
)


def test_solver_config_validation_and_round_trip():
    cfg = SolverConfig()
    assert [f.name for f in dataclasses.fields(cfg)] == ["max_iterations", "residual_tol", "restarts", "seed"]
    assert SolverConfig(**dataclasses.asdict(cfg)) == cfg
    for value in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="residual_tol must be finite and > 0"):
            SolverConfig(residual_tol=value)
    with pytest.raises(ParameterError, match="max_iterations must be an integer >= 1"):
        SolverConfig(max_iterations=0)
    with pytest.raises(ParameterError, match="restarts must be an integer >= 0"):
        SolverConfig(restarts=-1)
    with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
        SolverConfig(seed=-1)


@pytest.mark.parametrize(
    "key, value",
    [("restarts", 1.5), ("max_iterations", 2.5), ("seed", 1.5), ("restarts", 2.0), ("seed", "3")],
)
def test_solver_config_rejects_non_integer_counts(key, value):
    with pytest.raises(ParameterError, match=f"{key} must be an integer"):
        SolverConfig(**{key: value})


def test_cg_solve_accuracy_and_failure(small_prob, monkeypatch):
    rng = np.random.default_rng(31)
    rhs = rng.standard_normal(small_prob.free_indices().size)
    monkeypatch.setattr(c.solver, "_CG_TOL", 1e-12)
    x = c.cg_solve(rhs, small_prob)
    residual = small_prob.operator_matrix() @ x - rhs
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs)
    zero = c.cg_solve(np.zeros(rhs.size), small_prob)
    assert zero.shape == rhs.shape and not zero.any()
    with pytest.raises(InputError):
        c.cg_solve(np.zeros(get_window(2, 4).count), small_prob)
    monkeypatch.setattr(c.solver, "_CG_MAX_ITERATIONS", 1)
    with pytest.raises(ConvergenceError, match="stalled after 1 iterations") as info:
        c.cg_solve(rhs, small_prob)
    assert info.value.residual > 0.0


def test_cg_preconditioner_is_built_once_per_problem(small_cube, monkeypatch):
    real = c.solver.diags
    built = []

    def counting(diagonal):
        built.append(diagonal)
        return real(diagonal)

    monkeypatch.setattr(c.solver, "diags", counting)
    prob = dataclasses.replace(small_cube)
    rhs = np.random.default_rng(37).standard_normal((3, prob.free_indices().size))
    x = c.linear_solve(rhs, prob)
    assert np.array_equal(c.linear_solve(rhs, prob), x)
    assert len(built) == 1
    c.cg_solve(rhs[0], dataclasses.replace(prob, lam=2.0 * prob.lam))
    assert len(built) == 2


def test_dual_residual_is_directional_supremum(small_prob, monkeypatch):
    rng = np.random.default_rng(32)
    _, u = c.nehari_project(
        Field(small_prob.window, np.abs(rng.standard_normal(small_prob.window.count)) + 0.1),
        small_prob,
    )
    grad = c.euler_lagrange_residual(u, small_prob)
    monkeypatch.setattr(c.solver, "_CG_TOL", 1e-12)
    rep = c.cg_solve(grad.values, small_prob)
    dual = math.sqrt(float(grad.values @ rep))

    def pairing(vals):
        scale = math.sqrt(c.norm_sq(Field(small_prob.window, vals), small_prob))
        return float(grad.values @ vals) / scale

    samples = [pairing(rng.standard_normal(small_prob.window.count)) for _ in range(100)]
    assert max(samples) <= dual * (1 + 1e-12)
    # random directions concentrate far below the supremum in this many
    # dimensions, so the candidate set must contain the representative,
    # which attains it
    samples.append(pairing(rep))
    assert 0.95 * dual <= max(samples) <= dual * (1 + 1e-12)
    assert max(samples) == pytest.approx(dual, rel=1e-9)


@pytest.mark.parametrize("name", ["small_prob", "small_dirichlet"])
def test_linear_solve_factor_residual_and_agreement_with_cg(request, name, monkeypatch):
    prob = request.getfixturevalue(name)
    rhs = np.random.default_rng(33).standard_normal(prob.free_indices().size)
    x = c.linear_solve(rhs, prob)
    assert c.solver._operator_solver(prob) is c.solver._operator_solver(prob)
    assert x.shape == rhs.shape
    residual = prob.operator_matrix() @ x - rhs
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs)
    monkeypatch.setattr(c.solver, "_CG_TOL", 1e-12)
    ref = c.cg_solve(rhs, prob)
    assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(x)


def test_restrict_and_extend_move_rows_to_and_from_the_free_sites(small_prob, small_dirichlet):
    rng = np.random.default_rng(35)
    values = rng.standard_normal((3, small_prob.window.count))
    assert small_prob.restrict(values) is values
    assert small_prob.extend(values) is values
    free = small_dirichlet.free_indices()
    x = small_dirichlet.restrict(values)
    assert np.array_equal(x, values[:, free])
    back = small_dirichlet.extend(x)
    assert back.shape == values.shape
    assert np.array_equal(back[:, free], x)
    assert np.count_nonzero(back) == x.size


# the largest half-bandwidth factored as a band Cholesky: every band, or none
FACTOR_PATHS = {"band": 10**9, "lu": -1}


def _on_factor_path(prob, path, monkeypatch):
    """A fresh copy of prob, whose operator factor is built on the given path."""
    monkeypatch.setattr(c.solver, "_BAND_MAX_KD", FACTOR_PATHS[path])
    fresh = dataclasses.replace(prob)
    c.linear_solve(np.zeros(fresh.free_indices().size), fresh)
    return fresh


def test_operator_factor_is_a_band_cholesky_up_to_the_crossover(small_prob, monkeypatch):
    built = []
    for name in ("cholesky_banded", "splu"):
        real = getattr(c.solver, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            built.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(c.solver, name, spy)
    kd = 2 * (2 * small_prob.window.radius + 1)
    rhs = np.random.default_rng(38).standard_normal((2, small_prob.free_indices().size))
    for limit in (kd, kd - 1):
        monkeypatch.setattr(c.solver, "_BAND_MAX_KD", limit)
        prob = dataclasses.replace(small_prob)
        # the factor is built on the first solve of a problem and only then
        for rows in (rhs, rhs[0], rhs):
            c.linear_solve(rows, prob)
    assert built == ["cholesky_banded", "splu"]


@pytest.mark.parametrize("name", ["small_prob", "small_dirichlet"])
def test_linear_solve_rows_match_single_solves(request, name, monkeypatch):
    for path in FACTOR_PATHS:
        prob = _on_factor_path(request.getfixturevalue(name), path, monkeypatch)
        rhs = np.random.default_rng(36).standard_normal((4, prob.free_indices().size))
        x = c.linear_solve(rhs, prob)
        assert x.shape == rhs.shape
        for row, sol in zip(rhs, x):
            assert np.array_equal(sol, c.linear_solve(row, prob))


@lru_cache(maxsize=None)
def _green_table(dim):
    return c.build_kernel_table(0.5, get_window(dim, 12))


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    mode=st.sampled_from(["full", "dirichlet"]),
    lam=st.floats(math.log(0.1), math.log(1e4)).map(math.exp),
    radius=st.integers(3, 12),
    well_radius=st.integers(0, 2),
    nan_row=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_band_and_sparse_factors_agree(dim, mode, lam, radius, well_radius, nan_row, seed):
    # a window of radius 2 holds no well at the required margin of 3
    well_radius = min(well_radius, radius - 3)
    prob = ProblemSpec(
        mode=mode,
        window=get_window(dim, radius),
        potential=PotentialSpec(well=ball((0,) * dim, well_radius)),
        kernel=_green_table(dim),
        p=2.0,
        lam=lam if mode == "full" else None,
    )
    rhs = np.random.default_rng(seed).standard_normal((3, prob.free_indices().size))
    poisoned = rhs.copy()
    poisoned[nan_row, 0] = np.nan
    solutions = {}
    for path in FACTOR_PATHS:
        with pytest.MonkeyPatch.context() as mp:
            on_path = _on_factor_path(prob, path, mp)
        x = c.linear_solve(rhs, on_path)
        residual = prob.operator_matrix() @ x.T - rhs.T
        assert np.all(np.linalg.norm(residual, axis=0) <= 1e-12 * np.linalg.norm(rhs, axis=1))
        y = c.linear_solve(poisoned, on_path)
        assert np.isnan(y[nan_row]).all()
        others = np.arange(3) != nan_row
        assert np.array_equal(y[others], x[others])
        solutions[path] = x
    gap = np.linalg.norm(solutions["band"] - solutions["lu"], axis=1)
    assert np.all(gap <= 1e-12 * np.linalg.norm(solutions["lu"], axis=1))


@pytest.mark.parametrize("path", ["band", "lu", "cg"])
def test_linear_solve_rejects_misshapen_right_hand_sides(small_prob, small_cube, path, monkeypatch):
    prob = small_cube if path == "cg" else _on_factor_path(small_prob, path, monkeypatch)
    n = prob.free_indices().size
    for shape in [(n + 1,), (2, n - 1), (2, 3, n), ()]:
        with pytest.raises(InputError, match=f"rows of {n} free-site values, got shape"):
            c.linear_solve(np.ones(shape), prob)


def test_linear_solve_routes_by_dimension(small_prob, small_cube, monkeypatch):
    dims = []
    real = c.solver.cg_solve

    def spy(rhs, prob):
        dims.append(prob.dim)
        return real(rhs, prob)

    monkeypatch.setattr(c.solver, "cg_solve", spy)
    monkeypatch.setattr(c.solver, "_CG_TOL", 1e-12)
    rng = np.random.default_rng(34)
    for prob in (small_prob, small_cube):
        rhs = rng.standard_normal(prob.free_indices().size)
        x = c.linear_solve(rhs, prob)
        assert np.linalg.norm(prob.operator_matrix() @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)
    assert dims == [3]


# a demanding decrease test makes the line search backtrack
DEMANDING_DECREASE = {"_SUFFICIENT_DECREASE": 0.5, "_SHRINK": 0.3}


@pytest.mark.parametrize("name", ["small_prob", "small_dirichlet"])
# the solver module constants each case sets
@pytest.mark.parametrize("cfg", [{}, DEMANDING_DECREASE])
def test_ground_state_convolves_once_per_start_and_trial(request, name, cfg, monkeypatch):
    prob = request.getfixturevalue(name)
    for constant, value in cfg.items():
        monkeypatch.setattr(c.solver, constant, value)
    calls = []
    real = c.kernels.convolve_values

    def counting(table, window, values, include_diagonal=False, out_window=None):
        calls.append((table, window, out_window or window, values.size // window.count))
        return real(table, window, values, include_diagonal, out_window)

    monkeypatch.setattr(c.kernels, "convolve_values", counting)
    res = c.ground_state(prob, SolverConfig(restarts=0, residual_tol=1e-10))
    # an accepted step s = shrink^k is the (k+1)-th trial; the last iteration
    # converges without a line search and records step 0
    trials = sum(
        round(math.log(rec.step) / math.log(c.solver._SHRINK)) + 1 for rec in res.history if rec.step > 0.0
    )
    assert trials >= res.iterations - 1
    if cfg:
        assert any(0.0 < rec.step < 1.0 for rec in res.history)
    # one start: its projection, then one line-search round per trial
    assert [n for table, *_, n in calls if table is prob.kernel] == [1] * (1 + trials)
    # and the well bump's heat convolution: one row on the problem window
    w = prob.window
    assert [call[1:] for call in calls if call[0] is not prob.kernel] == [(w, w, 1)]


def test_ground_state_converges_with_certificates(small_prob):
    cfg = SolverConfig(restarts=2, residual_tol=1e-10)
    res = c.ground_state(small_prob, cfg)
    assert res.converged
    a = c.norm_sq(res.u, small_prob)
    assert res.dual_residual <= cfg.residual_tol * math.sqrt(a)
    assert abs(res.nehari_defect) <= c.solver._NEHARI_TOL * a
    assert res.level == pytest.approx(c.energy(res.u, small_prob), rel=1e-12)
    assert len(res.history) == res.iterations
    assert res.history[-1].step == 0.0
    assert res.start_labels[0] == "well-bump"
    assert len(res.start_labels) == len(res.start_levels) == 3
    least = min(res.start_levels)
    ties = [i for i, level in enumerate(res.start_levels) if level - least <= 1e-12 * abs(least)]
    assert res.start_index == ties[0]
    assert res.restart_spread == (max(res.start_levels) - least) / abs(least)
    residual = c.euler_lagrange_residual(res.u, small_prob)
    assert np.linalg.norm(residual.values) <= 1e-7 * math.sqrt(a)


@pytest.fixture(scope="module")
def desk_default_solve(desk_prob):
    return c.ground_state(desk_prob, SolverConfig())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ground_state_report_is_stable_under_kernel_round_off(desk_prob, desk_default_solve, seed):
    # the starts of the desk problem end at levels equal to round-off, so a
    # 1e-13 change to the kernel must not change which start is reported
    base = desk_default_solve
    table = desk_prob.kernel
    rng = np.random.default_rng(seed)
    factors = 1.0 + 1e-13 * rng.uniform(-1.0, 1.0, table.grid.shape)
    nudged = c.KernelTable(table.alpha, table.dim, table.radius, table.grid * factors)
    res = c.ground_state(dataclasses.replace(desk_prob, kernel=nudged), SolverConfig())
    assert res.start_index == base.start_index
    assert res.iterations == base.iterations
    assert res.level == pytest.approx(base.level, rel=1e-12, abs=0.0)


# per-start outcomes of ground_state(desk_prob, SolverConfig()) under the
# Fletcher-Reeves descent: every random start merges into the well bump's
# basin at iteration 7, where alone it would converge at iteration 14
# (steepest descent took 10, 21, 21, 20, 21 and 19 steps)
DESK_DEFAULT_STARTS = [("well-bump", "converged", 8, None)] + [
    (f"random-positive-{k}", "merged", 7, "merged into well-bump at iteration 7") for k in range(1, 6)
]
DESK_ALONE_ITERATIONS = 14


def test_ground_state_keeps_the_sequential_per_start_outcomes(desk_default_solve):
    res = desk_default_solve
    assert [(rec.label, rec.status, rec.iterations, rec.reason) for rec in res.starts] == DESK_DEFAULT_STARTS
    assert [rec.level for rec in res.starts] == list(res.start_levels)
    assert res.start_labels == tuple(label for label, *_ in DESK_DEFAULT_STARTS)
    assert res.start_index == 0
    assert res.iterations == 8


def _run_alone(prob, cfg, position):
    """The descent from the start at ``position`` of cfg's start list, alone."""
    if position == 0:
        return c.ground_state(prob, dataclasses.replace(cfg, restarts=0))
    draws = np.random.default_rng(cfg.seed).random((position, prob.window.count))
    (outcome,) = c.solver._lockstep_descent(prob, cfg, prob.restrict(draws[-1:]))
    return outcome


def _check_alone_matches(alone, rec):
    """A converged start ends as it does alone; a merged one left its lone run's path at the merge."""
    if rec.status == "converged":
        assert len(alone.history) == rec.iterations
        assert alone.level == pytest.approx(rec.level, rel=1e-13, abs=0.0)
    else:
        assert len(alone.history) > rec.iterations
        assert alone.history[rec.iterations - 1].energy == rec.level


@pytest.mark.parametrize("position", [0, 3])
def test_ground_state_start_alone_matches_its_batch_row(desk_prob, desk_default_solve, position):
    alone = _run_alone(desk_prob, SolverConfig(), position)
    in_batch = desk_default_solve.starts[position]
    assert in_batch.status == DESK_DEFAULT_STARTS[position][1]
    _check_alone_matches(alone, in_batch)
    assert len(alone.history) == (DESK_ALONE_ITERATIONS if position else 8)


# (status, iterations, reason) of each start with backtracking rows
BACKTRACKING_STARTS = {
    "small_prob": [
        ("converged", 18, None),
        ("converged", 32, None),
        ("merged", 21, "merged into random-positive-1 at iteration 21"),
        ("merged", 22, "merged into random-positive-1 at iteration 22"),
    ],
    "small_dirichlet": [
        ("converged", 38, None),
        ("merged", 18, "merged into well-bump at iteration 18"),
        ("merged", 16, "merged into random-positive-1 at iteration 16"),
        ("merged", 9, "merged into random-positive-2 at iteration 9"),
    ],
}


@pytest.mark.parametrize("name", ["small_prob", "small_dirichlet"])
def test_backtracking_starts_alone_match_their_batch_rows(request, name, monkeypatch):
    prob = request.getfixturevalue(name)
    # rows backtrack by different amounts
    for constant, value in DEMANDING_DECREASE.items():
        monkeypatch.setattr(c.solver, constant, value)
    cfg = SolverConfig(restarts=3, residual_tol=1e-10)
    batch = c.ground_state(prob, cfg)
    assert [(rec.status, rec.iterations, rec.reason) for rec in batch.starts] == BACKTRACKING_STARTS[name]
    for position, rec in enumerate(batch.starts):
        _check_alone_matches(_run_alone(prob, cfg, position), rec)


def test_ground_state_survives_an_overflowing_start(small_prob):
    w = small_prob.window
    extras = (Field(w, np.full(w.count, 1e200)), Field.delta(w))
    res = c.ground_state(small_prob, SolverConfig(), extra_starts=extras)
    assert res.converged
    assert [rec.label for rec in res.starts][-2:] == ["extra-0", "extra-1"]
    assert [rec.status for rec in res.starts] == ["converged"] + ["merged"] * 5 + ["inadmissible"] * 2
    overflow, point = res.starts[-2:]
    assert overflow.reason == "squared norm or pair energy is not finite"
    assert point.reason == "pair energy vanishes; no scale meets the constraint"
    assert overflow.iterations == point.iterations == 0
    assert overflow.level is None and point.level is None
    assert res.start_labels == tuple(rec.label for rec in res.starts[:6])
    data = c.json_form(res)
    assert data["starts"][-1] == {
        "label": "extra-1",
        "status": "inadmissible",
        "iterations": 0,
        "level": None,
        "reason": "pair energy vanishes; no scale meets the constraint",
    }
    assert [entry["level"] for entry in data["starts"][:6]] == list(res.start_levels)


def test_ground_state_overflowing_trial_stalls_only_its_start(small_prob, monkeypatch):
    real = c.solver.linear_solve
    calls = []

    def blow_up_second_row(rhs, prob):
        out = real(rhs, prob)
        if not calls:
            out[1] *= 1e200
        calls.append(1)
        return out

    monkeypatch.setattr(c.solver, "linear_solve", blow_up_second_row)
    res = c.ground_state(small_prob, SolverConfig(restarts=2, residual_tol=1e-10))
    assert [rec.status for rec in res.starts] == ["converged", "stalled", "merged"]
    stalled = res.starts[1]
    assert stalled.iterations == 1 and stalled.level is None
    assert stalled.reason.startswith("a line-search trial is not finite at iteration 1")
    assert res.starts[2].reason == "merged into well-bump at iteration 8"
    assert res.start_labels == ("well-bump", "random-positive-2")


def test_ground_state_cg_stall_fails_only_its_start(small_cube, monkeypatch):
    real = c.solver.cg_solve
    calls = []

    def stall_second_call(rhs, prob):
        calls.append(1)
        if len(calls) == 2:
            raise ConvergenceError("linear solve stalled", residual=1.0)
        return real(rhs, prob)

    monkeypatch.setattr(c.solver, "cg_solve", stall_second_call)
    res = c.ground_state(small_cube, SolverConfig(restarts=2))
    assert [rec.status for rec in res.starts] == ["converged", "stalled", "merged"]
    assert res.starts[1].reason == "search direction is not finite at iteration 1"
    assert res.starts[1].iterations == 0
    assert res.starts[2].reason == "merged into well-bump at iteration 10"
    assert res.starts[2].iterations == 10


def test_fr_direction_beta_and_reset_per_row():
    # rows: a first step (no previous <g, z>), a conjugate step, a conjugate
    # direction that points uphill and one orthogonal to g; all values are
    # dyadic, so every product below is exact
    grad = np.array([[1.0, 2.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    z = np.array([[0.5, 1.0], [2.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    gz = (grad * z).sum(axis=1)
    last_gz = np.array([0.0, 4.0, 0.5, 1.0])
    last_step = np.array([[3.0, -1.0], [1.0, 2.0], [-4.0, 0.0], [0.0, -1.0]])
    direction, slope = c.solver._fr_direction(grad, z, gz, last_gz, last_step)
    # beta = 0 on a first step, even with a nonzero previous step
    assert direction[0].tolist() == z[0].tolist() and slope[0] == gz[0] == 2.5
    # beta = <g, z> / the previous <g, z> = 2 / 4
    assert direction[1].tolist() == (z[1] + 0.5 * last_step[1]).tolist() == [2.5, 2.0]
    assert slope[1] == 2.5
    # <g, d> = -7 and = 0: these rows fall back to d = z with slope <g, z>,
    # while rows 0 and 1 keep their directions
    assert (z[2] + 2.0 * last_step[2]) @ grad[2] < 0.0 and (z[3] + last_step[3]) @ grad[3] == 0.0
    assert direction[2:].tolist() == z[2:].tolist()
    assert slope[2:].tolist() == gz[2:].tolist() == [1.0, 1.0]


# the 5-unknown well problem converges slowly near p = 3.23 (up to 873
# iterations in the pinned examples), so these descents get a budget past
# the default 400
_LONG_RUN = SolverConfig(max_iterations=2000)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.floats(1.6, 4.0), dirichlet=st.booleans())
@example(seed=0, p=3.2323683096092624, dirichlet=True)
@example(seed=2385422534, p=3.232421875, dirichlet=True)
def test_descent_safeguard_never_raises_the_energy(small_prob, small_dirichlet, seed, p, dirichlet):
    # the conjugate direction is reset to A^{-1} J'(u) whenever it is no
    # descent direction (on the well problem it often is not), so every step
    # passes the Armijo test up to its round-off allowance, every start
    # converges, and only a start's last record may have no step
    prob = dataclasses.replace(small_dirichlet if dirichlet else small_prob, p=p)
    starts = np.random.default_rng(seed).random((3, prob.window.count))
    outcomes = c.solver._lockstep_descent(prob, _LONG_RUN, prob.restrict(starts))
    for outcome in outcomes:
        assert outcome.status == "converged"
        history = outcome.history
        for before, after in zip(history, history[1:]):
            noise = 64.0 * np.finfo(float).eps * (1.0 + abs(before.energy))
            assert after.energy <= before.energy + noise
        assert all(rec.step > 0.0 for rec in history[:-1])


def _a_distance(x, y, prob):
    """Sign-aligned A-distance of two converged free-site rows."""
    a, _ = c.variational.constraint_terms(np.array([x - y, x + y]), prob)
    return math.sqrt(a.min())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.floats(1.6, 4.0), dirichlet=st.booleans())
@example(seed=0, p=3.2323683096092624, dirichlet=True)
@example(seed=2385422534, p=3.232421875, dirichlet=True)
def test_merged_start_follows_its_lone_run_into_the_target_basin(small_prob, small_dirichlet, seed, p, dirichlet):
    # a merged row stops on its lone path, and that path ends within the
    # merge tolerance of its target's limit, never below the reported level
    prob = dataclasses.replace(small_dirichlet if dirichlet else small_prob, p=p)
    cfg = _LONG_RUN
    starts = prob.restrict(np.random.default_rng(seed).random((4, prob.window.count)))
    outcomes = c.solver._lockstep_descent(prob, cfg, starts, np.array([False, True, True, True]))
    reported = min(out.level for out in outcomes if out.status == "converged")
    for i, out in enumerate(outcomes):
        if out.status != "merged":
            assert out.status == "converged"
            continue
        assert out.into < i
        alone, target = (c.solver._lockstep_descent(prob, cfg, starts[[k]])[0] for k in (i, out.into))
        k = len(out.history)
        assert alone.history[: k - 1] == out.history[:-1]
        # the merge iteration takes no step
        assert out.history[-1] == dataclasses.replace(alone.history[k - 1], step=0.0)
        norm = math.sqrt(c.variational.constraint_terms(target.u, prob)[0])
        assert _a_distance(alone.u, target.u, prob) <= c.solver._MERGE_TOL * norm
        assert alone.level >= reported * (1.0 - 1e-12)


def test_ground_state_reports_only_a_converged_start(small_prob, monkeypatch):
    # a merged start's level is taken at the merge; even below every
    # converged level it is listed, but never reported
    real = c.solver._lockstep_descent

    def reorder_the_levels(prob, cfg, x0, mergeable=None):
        outcomes = real(prob, cfg, x0, mergeable)
        for i, shift in ((0, 1.0), (1, -1.0)):
            outcomes[i] = dataclasses.replace(outcomes[i], level=outcomes[i].level + shift)
        return outcomes

    extra = c.ground_state(small_prob, SolverConfig(restarts=0)).u
    monkeypatch.setattr(c.solver, "_lockstep_descent", reorder_the_levels)
    res = c.ground_state(small_prob, SolverConfig(restarts=1), extra_starts=(extra,))
    assert [rec.status for rec in res.starts] == ["converged", "merged", "converged"]
    assert res.start_index == 2
    assert res.level == res.starts[2].level
    least = res.start_levels[1]
    assert least == res.starts[1].level < res.level
    assert res.restart_spread == (res.starts[0].level - least) / abs(least)


def test_merged_start_stalls_with_its_target(small_prob, monkeypatch):
    # the well bump's direction turns non-finite once the random starts have
    # merged into it; they share its failure, and the extra start converges
    real = c.solver.linear_solve

    def fail_well_bump_after_the_merges(rhs, prob):
        out = real(rhs, prob)
        if out.shape[0] == 1:
            out[0] = np.nan
        return out

    extra = c.ground_state(small_prob, SolverConfig(restarts=0)).u
    monkeypatch.setattr(c.solver, "linear_solve", fail_well_bump_after_the_merges)
    res = c.ground_state(small_prob, SolverConfig(restarts=2), extra_starts=(extra,))
    assert [(rec.label, rec.status, rec.iterations) for rec in res.starts] == [
        ("well-bump", "stalled", 8),
        ("random-positive-1", "stalled", 8),
        ("random-positive-2", "stalled", 8),
        ("extra-0", "converged", 1),
    ]
    assert res.starts[0].reason == "search direction is not finite at iteration 9"
    for rec in res.starts[1:3]:
        assert rec.reason == "merged into well-bump at iteration 8, which did not converge"
        assert rec.level is None
    assert res.start_labels == ("extra-0",)


def test_near_critical_exponent_reaches_the_lower_level(desk_prob, monkeypatch):
    # p just above (N + alpha)/N = 1.5 the landscape holds several strict
    # local minima within 5e-6 of each other; steepest descent stopped at
    # 6.958012365049365, and the conjugate directions reach a lower one
    rows = []
    real = c.kernels.convolve_values

    def counting(table, window, values, *args, **kwargs):
        rows.append(values.size // window.count)
        return real(table, window, values, *args, **kwargs)

    monkeypatch.setattr(c.kernels, "convolve_values", counting)
    prob = dataclasses.replace(desk_prob, p=1.55, lam=1.0)
    res = c.ground_state(prob, SolverConfig())
    assert res.level <= 6.957982533342486 * (1.0 + 1e-12)
    # the distinct minima here lie 1.6e-3 to 4.4e-3 apart in A-distance, so
    # no start may be certified into another's basin
    assert not [rec for rec in res.starts if rec.status == "merged"]
    # the reset keeps the line search out of non-descent directions: 1214
    # rows here, against 1722 for steepest descent and 1793 without the reset
    assert sum(rows) <= 1300


def test_ground_state_supplied_start_agrees(small_prob):
    base = c.ground_state(small_prob, SolverConfig(restarts=1, residual_tol=1e-10))
    res = c.ground_state(small_prob, SolverConfig(restarts=0, residual_tol=1e-10), extra_starts=(base.u,))
    assert res.start_labels == ("well-bump", "extra-0")
    warm = res.starts[1]
    assert warm.level == pytest.approx(base.level, rel=1e-12)
    assert warm.iterations <= base.iterations
    assert res.level == pytest.approx(base.level, rel=1e-12)


def test_ground_state_initializer_error_on_single_site_well(small_table, small_window):
    pot = PotentialSpec(well=SiteSet([(0, 0)]))
    prob = ProblemSpec(mode="dirichlet", window=small_window, potential=pot, kernel=small_table, p=2.0)
    with pytest.raises(InitializerError):
        c.ground_state(prob, SolverConfig(restarts=2))


def test_dirichlet_ground_state_convolves_on_the_well_box(small_table, monkeypatch):
    # a radius-1 well in a radius-6 window: 5 unknowns, and no convolution
    # input or output wider than the well's box
    window = get_window(2, 6)
    prob = ProblemSpec(
        mode="dirichlet", window=window, potential=PotentialSpec(well=ball((0, 0), 1)), kernel=small_table, p=2.0
    )
    real = c.kernels.convolve_values
    radii, others = [], []

    def spy(table, window, values, include_diagonal=False, out_window=None):
        if table is prob.kernel:
            radii.append(max(window.radius, (out_window or window).radius))
        else:
            others.append((window, out_window or window, values.size // window.count))
        return real(table, window, values, include_diagonal, out_window)

    monkeypatch.setattr(c.kernels, "convolve_values", spy)
    res = c.ground_state(prob, SolverConfig(restarts=2))
    assert res.converged
    assert radii and max(radii) == 1
    # the well bump is smoothed once, one row on the problem window
    assert others == [(window, window, 1)]


def test_ground_state_convergence_error_carries_history(small_prob):
    cfg = SolverConfig(max_iterations=1, restarts=0, residual_tol=1e-14)
    with pytest.raises(ConvergenceError) as info:
        c.ground_state(small_prob, cfg)
    assert info.value.history
    assert info.value.residual > 0.0


def test_level_stable_under_window_enlargement():
    levels = {}
    for radius in (12, 14):
        w = get_window(2, radius)
        table = c.build_kernel_table(1.0, w)
        pot = PotentialSpec(well=ball((0, 0), 1))
        prob = ProblemSpec(mode="full", window=w, potential=pot, kernel=table, p=2.0, lam=20.0)
        levels[radius] = c.ground_state(prob, SolverConfig(restarts=1, residual_tol=1e-10)).level
    assert levels[12] == pytest.approx(levels[14], rel=1e-12)


def test_palais_smale_monitor_identities(small_prob):
    # J - (J'(u), u)/(2p) = (1/2 - 1/(2p)) ||u||^2 holds along the history up
    # to round-off, and at convergence ||u||^2 = 2p m/(p - 1)
    res = c.ground_state(small_prob, SolverConfig(restarts=1, residual_tol=1e-10))
    p = small_prob.p
    for rec in res.history:
        rhs = (0.5 - 1.0 / (2.0 * p)) * rec.norm_sq
        assert abs(rec.energy - rec.nehari_defect / (2.0 * p) - rhs) <= 1e-12 * max(1.0, abs(rhs))
    target = 2.0 * p * res.level / (p - 1.0)
    assert abs(res.history[-1].norm_sq - target) <= 1e-10 * abs(target)


def test_sign_aligned_distance():
    w = get_window(2, 3)
    rng = np.random.default_rng(32)
    u = Field(w, rng.standard_normal(w.count))
    ref = Field(w, rng.standard_normal(w.count))
    assert c.sign_aligned_distance(u, u) == 0.0
    assert c.sign_aligned_distance(-1.0 * u, u) == 0.0
    assert c.sign_aligned_distance(-1.0 * u, ref) == pytest.approx(
        c.sign_aligned_distance(u, ref), rel=1e-12
    )


def test_lambda_sweep_grid_validation(small_prob, monkeypatch):
    solves = []
    monkeypatch.setattr(c.solver, "ground_state", lambda *args, **kwargs: solves.append(args))
    cfg = SolverConfig(restarts=0)
    for grid in ([], [1.0, -2.0], [1.0, 1.0], [10.0, 1.0], [1.0, math.nan], [1.0, math.inf]):
        with pytest.raises(InputError):
            c.lambda_sweep(small_prob, grid, cfg)
    with pytest.raises(InputError, match="finite and positive"):
        c.lambda_sweep(small_prob, [1.0, math.nan], cfg)
    assert solves == []


def test_lambda_sweep_rows_verdicts_and_serialization(small_prob):
    cfg = SolverConfig(restarts=1, residual_tol=1e-10)
    report = c.lambda_sweep(small_prob, [1.0, 10.0, 100.0], cfg)
    assert report.all_converged
    assert report.lambda_grid == (1.0, 10.0, 100.0)
    assert report.well_level > 0.0
    for row in report.rows:
        assert row.converged
        assert 0.0 < row.level <= report.well_level
        assert row.w22_distance >= 0.0
        assert row.outside_mass >= 0.0
    verdicts = report.verdicts
    assert verdicts.level_nondecreasing is True
    assert verdicts.level_at_most_well is True
    assert verdicts.final_level_rel_gap >= 0.0
    assert verdicts.final_distance_rel >= 0.0
    data = c.json_form(report)
    assert json.loads(json.dumps(data, allow_nan=False)) == data
    assert set(data) == {
        "lambda_grid", "well_level", "all_converged", "rows", "verdicts", "well_result",
    }
    assert [row["lambda"] for row in data["rows"]] == [1.0, 10.0, 100.0]
    for row, entry in zip(report.rows, data["rows"]):
        assert entry == {
            "lambda": row.lam,
            "converged": True,
            "m_lambda": row.level,
            "w22_dist": row.w22_distance,
            "outside_mass": row.outside_mass,
            "iterations": row.iterations,
            "residual": row.dual_residual,
            "starts": [
                {"label": r.label, "status": r.status, "iterations": r.iterations, "level": r.level, "reason": r.reason}
                for r in row.starts
            ],
            "reason": None,
        }
    assert set(data["verdicts"]) == {
        "level_nondecreasing", "level_at_most_well", "distance_decreasing",
        "outside_mass_decreasing", "final_level_rel_gap", "final_distance_rel",
    }
    assert data["well_result"] == c.json_form(report.well_result)
    assert "u" not in data["well_result"]
    csv_text = c.sweep_csv(report)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "lambda,m_lambda,w22_dist,outside_mass,iterations,residual"
    assert len(lines) == 1 + len(report.rows) + 1
    assert lines[-1] == f"# m_omega = {report.well_level!r}"
    assert float(lines[1].split(",")[1]) == pytest.approx(report.rows[0].level, rel=1e-15)


def _sweep_row_labels(report):
    return [[rec.label for rec in row.starts] for row in report.rows]


def test_lambda_sweep_runs_random_starts_until_a_coupling_converges(small_prob):
    report = c.lambda_sweep(small_prob, [1.0, 10.0, 100.0, 1000.0], SolverConfig(restarts=3))
    assert report.all_converged
    assert [rec.label for rec in report.well_result.starts] == [
        "well-bump", "random-positive-1", "random-positive-2", "random-positive-3",
    ]
    assert [(rec.status, rec.iterations, rec.reason) for rec in report.well_result.starts] == [
        ("converged", 7, None),
        ("merged", 6, "merged into well-bump at iteration 6"),
        ("merged", 7, "merged into well-bump at iteration 7"),
        ("merged", 6, "merged into well-bump at iteration 6"),
    ]
    first, *later = _sweep_row_labels(report)
    assert first == ["well-bump", "random-positive-1", "random-positive-2", "random-positive-3", "extra-0"]
    assert later == [["well-bump", "extra-0", "extra-1"]] * 3
    merged = ("merged", 10, "merged into well-bump at iteration 10")
    assert [(rec.status, rec.iterations, rec.reason) for rec in report.rows[0].starts] == [
        ("converged", 10, None), merged, merged, merged, ("converged", 13, None),
    ]
    for row in report.rows[1:]:
        assert all(rec.status == "converged" for rec in row.starts)
    for row in report.rows:
        assert row.level <= min(rec.level for rec in row.starts) * (1.0 + 1e-12)


def test_lambda_sweep_keeps_random_starts_after_a_failed_first_coupling(small_prob, monkeypatch):
    real = c.solver.ground_state

    def failing(prob, cfg, *args, **kwargs):
        if prob.lam == 1.0:
            raise ConvergenceError("injected failure")
        return real(prob, cfg, *args, **kwargs)

    monkeypatch.setattr(c.solver, "ground_state", failing)
    report = c.lambda_sweep(small_prob, [1.0, 10.0, 100.0], SolverConfig(restarts=2))
    assert [row.converged for row in report.rows] == [False, True, True]
    assert _sweep_row_labels(report) == [
        [],
        ["well-bump", "random-positive-1", "random-positive-2", "extra-0"],
        ["well-bump", "extra-0", "extra-1"],
    ]
    assert c.json_form(report)["rows"][0]["starts"] == []
    assert [row.reason for row in report.rows] == ["ConvergenceError: injected failure", None, None]


def test_lambda_sweep_levels_at_p6_stay_at_most_the_pinned_levels():
    # at p = 6 the well problem needs its random starts (the well-bump start
    # alone ends 4.3% higher, at 14.127053388171445) and the couplings' warm
    # starts carry its basin; the pins are the levels of the sweep that ran
    # every random start in every row
    window = get_window(2, 8)
    prob = ProblemSpec(
        mode="full",
        window=window,
        potential=PotentialSpec(well=ball((0, 0), 2)),
        kernel=c.build_kernel_table(1.0, window),
        p=6.0,
        lam=1.0,
    )
    report = c.lambda_sweep(prob, [0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0], SolverConfig())
    assert report.all_converged
    assert report.well_level <= 13.550122727811736 * (1.0 + 1e-12)
    pins = [
        9.23062524302498,
        9.915920119341282,
        11.639520790214096,
        13.128287379649148,
        13.500816674622367,
        13.545104277080629,
    ]
    for row, pin in zip(report.rows, pins):
        assert row.level <= pin * (1.0 + 1e-12), row.lam
    verdicts = report.verdicts
    assert verdicts.level_nondecreasing and verdicts.level_at_most_well
    assert verdicts.distance_decreasing and verdicts.outside_mass_decreasing


def test_result_to_dict_structure(small_prob):
    res = c.ground_state(small_prob, SolverConfig(restarts=0, residual_tol=1e-8))
    data = c.json_form(res)
    assert json.loads(json.dumps(data, allow_nan=False)) == data
    assert set(data) == {
        "level", "dual_residual", "nehari_defect", "iterations", "converged", "history",
        "start_labels", "start_levels", "start_index", "restart_spread", "starts",
    }
    assert data["converged"] is True
    assert data["iterations"] == res.iterations
    assert data["start_labels"] == ["well-bump"]
    assert data["start_levels"] == [res.level]
    assert set(data["starts"][0]) == {"label", "status", "iterations", "level", "reason"}
    assert len(data["history"]) == res.iterations
    assert set(data["history"][0]) == {
        "iteration", "energy", "norm_sq", "nehari_defect", "dual_residual", "step",
    }


def test_brezis_lieb_probe_point_masses(small_prob):
    w = small_prob.window
    u = Field.delta(w)
    rows = c.brezis_lieb_probe(u, u, [(3, 0), (4, 0), (5, 0)], small_prob)
    assert [row.shift for row in rows] == [(3, 0), (4, 0), (5, 0)]
    assert [row.distance for row in rows] == [3, 4, 5]
    for row in rows:
        assert row.norm_defect == 0.0
    for row, dist in zip(rows, (3, 4, 5)):
        expected = 2.0 * small_prob.kernel.value((dist, 0))
        assert row.nonlocal_defect == pytest.approx(expected, rel=1e-12)
    defects = [row.nonlocal_defect for row in rows]
    assert defects[0] > defects[1] > defects[2] > 0.0


def test_brezis_lieb_probe_reads_moved_fields_off_the_well(small_prob, small_dirichlet):
    # the moved fields leave the well; their pair energy is the same in
    # either mode
    u = Field.from_sites(small_prob.window, {(0, 0): 1.0, (1, 0): 0.5})
    shifts = [(3, 0), (0, 4)]
    assert c.brezis_lieb_probe(u, u, shifts, small_dirichlet) == c.brezis_lieb_probe(u, u, shifts, small_prob)


def test_brezis_lieb_probe_zero_and_invalid_shifts(small_prob):
    w = small_prob.window
    u = Field.delta(w)
    zero = Field(w, np.zeros(w.count))
    rows = c.brezis_lieb_probe(u, zero, [(3, 0)], small_prob)
    assert rows[0].norm_defect == 0.0
    assert rows[0].nonlocal_defect == 0.0
    with pytest.raises(InputError, match="margin"):
        c.brezis_lieb_probe(u, u, [(7, 0)], small_prob)
    with pytest.raises(InputError):
        c.brezis_lieb_probe(u, u, [(1, 2, 3)], small_prob)
    # a fractional shift is rejected, not truncated to (3, 0)
    with pytest.raises(InputError, match="integers"):
        c.brezis_lieb_probe(u, u, [(3.9, 0)], small_prob)
