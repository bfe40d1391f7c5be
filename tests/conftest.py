"""Shared fixtures: the desk-scale problem and a few small cheap instances."""

from dataclasses import replace

import pytest

import choquard as c

DESK_SOLVER = c.SolverConfig(restarts=2, residual_tol=1e-10)


@pytest.fixture(scope="session")
def desk_window():
    return c.get_window(2, 16)


@pytest.fixture(scope="session")
def desk_table(desk_window):
    return c.build_kernel_table(1.0, desk_window)


@pytest.fixture(scope="session")
def desk_potential():
    return c.PotentialSpec(well=c.ball((0, 0), 2))


@pytest.fixture(scope="session")
def desk_prob(desk_window, desk_table, desk_potential):
    return c.ProblemSpec(
        mode="full",
        window=desk_window,
        potential=desk_potential,
        kernel=desk_table,
        p=2.0,
        lam=100.0,
    )


@pytest.fixture(scope="session")
def desk_dirichlet(desk_prob):
    return replace(desk_prob, mode="dirichlet", lam=None)


@pytest.fixture(scope="session")
def desk_solve(desk_prob):
    return c.ground_state(desk_prob, DESK_SOLVER)


@pytest.fixture(scope="session")
def desk_sweep(desk_prob):
    return c.lambda_sweep(desk_prob, [1.0, 10.0, 100.0, 1000.0, 10000.0], DESK_SOLVER)


@pytest.fixture(scope="session")
def small_window():
    return c.get_window(2, 6)


@pytest.fixture(scope="session")
def small_table(small_window):
    return c.build_kernel_table(1.0, small_window)


@pytest.fixture(scope="session")
def cube_table():
    return c.build_kernel_table(1.0, c.get_window(3, 4))


@pytest.fixture(scope="session")
def small_cube(cube_table):
    return c.ProblemSpec(
        mode="full",
        window=c.get_window(3, 4),
        potential=c.PotentialSpec(well=c.ball((0, 0, 0), 1)),
        kernel=cube_table,
        p=2.0,
        lam=5.0,
    )


@pytest.fixture(scope="session")
def small_prob(small_window, small_table):
    return c.ProblemSpec(
        mode="full",
        window=small_window,
        potential=c.PotentialSpec(well=c.ball((0, 0), 1)),
        kernel=small_table,
        p=2.0,
        lam=5.0,
    )


@pytest.fixture(scope="session")
def small_dirichlet(small_prob):
    return replace(small_prob, mode="dirichlet", lam=None)
