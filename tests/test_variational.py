"""Energy functional, constraint projection, and geometry probes vs oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import choquard as c
from choquard import (
    Field,
    InputError,
    NoProjectionError,
    ParameterError,
    PotentialSpec,
    ProbeInconclusiveError,
    ProblemSpec,
    SiteSet,
    ball,
    get_window,
)
from choquard.kernels import GREEN


def _free_field(prob, rng, scale=1.0):
    vals = np.zeros(prob.window.count)
    free = prob.free_indices()
    vals[free] = scale * rng.standard_normal(free.size)
    return Field(prob.window, vals)


def test_problem_spec_validation(small_window, small_table):
    well = ball((0, 0), 1)
    pot = PotentialSpec(well=well)
    ok = dict(mode="full", window=small_window, potential=pot, kernel=small_table, p=2.0, lam=5.0)
    ProblemSpec(**ok)
    with pytest.raises(ParameterError):
        ProblemSpec(**{**ok, "mode": "neumann"})
    with pytest.raises(InputError):
        ProblemSpec(**{**ok, "potential": PotentialSpec(well=SiteSet([(0,)]))})
    with pytest.raises(InputError):
        ProblemSpec(**{**ok, "window": get_window(2, 8)})  # table radius too small
    with pytest.raises(ParameterError):
        ProblemSpec(**{**ok, "p": 1.5})  # not above (N + alpha)/N
    with pytest.raises(ParameterError):
        ProblemSpec(**{**ok, "lam": None})
    with pytest.raises(ParameterError):
        ProblemSpec(**{**ok, "lam": -2.0})
    for name, value in (("p", float("inf")), ("p", float("nan")), ("lam", float("inf")), ("lam", float("nan"))):
        with pytest.raises(ParameterError):
            ProblemSpec(**{**ok, name: value})
    with pytest.raises(ParameterError):
        ProblemSpec(**{**ok, "mode": "dirichlet"})  # coupling given
    with pytest.raises(InputError):
        ProblemSpec(**{**ok, "potential": PotentialSpec(well=ball((6, 6), 1))})
    with pytest.raises(InputError, match="margin"):
        ProblemSpec(**{**ok, "potential": PotentialSpec(well=ball((0, 0), 4))})


def test_operator_is_symmetric_with_integer_stencil(small_prob):
    a = small_prob.operator_matrix()
    assert (a - a.T).nnz == 0
    weight = small_prob.weight_values()
    stencil_diag = a.diagonal() - weight
    assert np.array_equal(stencil_diag, np.round(stencil_diag))
    dense = a.toarray()
    np.fill_diagonal(dense, 0.0)
    assert np.array_equal(dense, np.round(dense))
    assert np.array_equal(small_prob.operator_diagonal(), a.diagonal())


def test_norm_matches_independent_quadratic_forms(small_prob, small_dirichlet):
    rng = np.random.default_rng(21)
    u = _free_field(small_prob, rng)
    expected = c.energy_norm_sq(u, small_prob.potential, small_prob.lam)
    assert c.norm_sq(u, small_prob) == pytest.approx(expected, rel=1e-12)
    v = _free_field(small_dirichlet, rng)
    expected_d = c.dirichlet_norm_sq(v, small_dirichlet.well)
    assert c.norm_sq(v, small_dirichlet) == pytest.approx(expected_d, rel=1e-12)
    bad = Field(small_dirichlet.window, np.ones(small_dirichlet.window.count))
    with pytest.raises(InputError):
        c.norm_sq(bad, small_dirichlet)
    with pytest.raises(InputError):
        c.norm_sq(Field(get_window(2, 4), np.zeros(get_window(2, 4).count)), small_prob)


def test_nonlocal_term_rejects_mass_off_the_well_in_dirichlet_mode(small_dirichlet):
    u = Field.from_sites(small_dirichlet.window, {(0, 0): 1.0, (3, 0): 1.0})
    for term in (c.nonlocal_term, c.norm_sq, c.energy):
        with pytest.raises(InputError, match="vanish outside the well"):
            term(u, small_dirichlet)


def _well(dim, center, half, shape):
    if shape == "ball":
        return ball(center, half)
    ranges = np.meshgrid(*[np.arange(x - half, x + half + 1) for x in center], indexing="ij")
    return SiteSet(zip(*(r.ravel().tolist() for r in ranges)))


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    data=st.data(),
    shape=st.sampled_from(["ball", "box"]),
    p=st.floats(1.6, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_dirichlet_pair_terms_match_the_whole_window_pair_sums(small_table, cube_table, dim, data, shape, p, seed):
    # the window keeps a margin of 3 around the well, so the well's box
    # reaches at most radius - 3 (6 - 3 in two dimensions, 4 - 3 in three)
    table = small_table if dim == 2 else cube_table
    reach = table.radius - 3
    half = data.draw(st.integers(0, reach))
    center = tuple(data.draw(st.integers(half - reach, reach - half)) for _ in range(dim))
    prob = ProblemSpec(
        mode="dirichlet",
        window=get_window(dim, table.radius),
        potential=PotentialSpec(well=_well(dim, center, half, shape)),
        kernel=table,
        p=p,
    )
    free = prob.free_indices()
    values = np.zeros((3, prob.window.count))
    values[:, free] = np.random.default_rng(seed).standard_normal((3, free.size))
    conv, d = c.variational.pair_terms(values, prob)
    whole_conv, whole_d = c.calculus.pair_sums(table, prob.window, np.abs(values) ** p)
    assert conv.shape == (3, free.size)
    assert np.abs(conv - whole_conv[:, free]).max() <= 1e-13 * np.abs(whole_conv).max()
    assert np.all(np.abs(d - whole_d) <= 1e-13 * np.abs(whole_d))
    box, _ = prob.pair_window()
    assert box.radius == max(1, prob.window.reach(prob.well.as_array()))


def test_point_mass_anchors(small_prob):
    # weight at the origin is 1 (inside the well), so the squared norm is the
    # pure stencil value (2N + 1)^2; the pair energy of a point mass vanishes
    delta = Field.delta(small_prob.window)
    assert c.norm_sq(delta, small_prob) == pytest.approx(25.0, rel=1e-14)
    assert c.nonlocal_term(delta, small_prob) == 0.0
    assert c.energy(delta, small_prob) == pytest.approx(12.5, rel=1e-14)
    assert c.nehari_defect(delta, small_prob) == pytest.approx(25.0, rel=1e-14)
    with pytest.raises(NoProjectionError):
        c.nehari_project(delta, small_prob)
    with pytest.raises(InputError):
        c.nehari_level(delta, small_prob)
    with pytest.raises(InputError):
        c.nehari_level(0.0 * delta, small_prob)


def test_energy_scaling_polynomial(small_prob):
    rng = np.random.default_rng(22)
    u = _free_field(small_prob, rng)
    a = c.norm_sq(u, small_prob)
    d = c.nonlocal_term(u, small_prob)
    p = small_prob.p
    for t in (0.3, 1.0, 2.7):
        expected = 0.5 * t**2 * a - t ** (2.0 * p) / (2.0 * p) * d
        assert c.energy(t * u, small_prob) == pytest.approx(expected, rel=1e-12)


def test_two_site_projection_closed_form(small_prob):
    # D(u) for the two-site indicator is exactly 2 K(e1) at p = 2
    w = small_prob.window
    vals = np.zeros(w.count)
    vals[w.index_of((0, 0))] = 1.0
    vals[w.index_of((1, 0))] = 1.0
    u = Field(w, vals)
    a = c.norm_sq(u, small_prob)
    d = c.nonlocal_term(u, small_prob)
    assert d == pytest.approx(2.0 * small_prob.kernel.value((1, 0)), rel=1e-14)
    t, proj = c.nehari_project(u, small_prob)
    assert t == pytest.approx((a / d) ** 0.5, rel=1e-14)
    assert abs(c.nehari_defect(proj, small_prob)) <= 1e-12 * c.norm_sq(proj, small_prob)
    level = c.nehari_level(proj, small_prob)
    assert level == pytest.approx(0.25 * t**2 * a, rel=1e-12)


def test_projection_of_random_fields(small_prob):
    rng = np.random.default_rng(23)
    for _ in range(20):
        u = _free_field(small_prob, rng)
        t, proj = c.nehari_project(u, small_prob)
        assert t > 0.0
        a = c.norm_sq(proj, small_prob)
        assert abs(c.nehari_defect(proj, small_prob)) <= 1e-12 * a
        assert c.nehari_level(proj, small_prob) == pytest.approx(
            (0.5 - 0.5 / small_prob.p) * a, rel=1e-12
        )
    off = _free_field(small_prob, rng)
    with pytest.raises(InputError, match="constraint"):
        c.nehari_level(2.0 * c.nehari_project(off, small_prob)[1], small_prob)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.01, 100.0), p=st.floats(1.6, 4.0))
def test_pair_terms_are_homogeneous(small_prob, seed, t, p):
    prob = dataclasses.replace(small_prob, p=p)
    v = np.random.default_rng(seed).standard_normal(prob.window.count)
    conv, d = c.variational.pair_terms(v, prob)
    conv_t, d_t = c.variational.pair_terms(t * v, prob)
    assert abs(d_t - t ** (2.0 * p) * d) <= 1e-12 * t ** (2.0 * p) * d
    assert np.abs(conv_t - t**p * conv).max() <= 1e-12 * t**p * np.abs(conv).max()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3), dirichlet=st.booleans())
def test_nehari_project_lands_on_constraint(small_prob, small_dirichlet, seed, scale, dirichlet):
    prob = small_dirichlet if dirichlet else small_prob
    u = _free_field(prob, np.random.default_rng(seed), scale)
    _, w = c.nehari_project(u, prob)
    a = c.norm_sq(w, prob)
    assert abs(a - c.nonlocal_term(w, prob)) <= 1e-10 * a


def _operator_problem(small_prob, small_dirichlet, dirichlet, lam):
    return small_dirichlet if dirichlet else dataclasses.replace(small_prob, lam=lam)


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(1e-3, 1e4), dirichlet=st.booleans())
def test_operator_matrix_is_symmetric(small_prob, small_dirichlet, lam, dirichlet):
    a = _operator_problem(small_prob, small_dirichlet, dirichlet, lam).operator_matrix()
    assert (a != a.T).nnz == 0


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 1e3),
    lam=st.floats(1e-3, 1e4),
    dirichlet=st.booleans(),
)
def test_operator_matrix_is_positive_definite(small_prob, small_dirichlet, seed, scale, lam, dirichlet):
    prob = _operator_problem(small_prob, small_dirichlet, dirichlet, lam)
    x = prob.restrict(_free_field(prob, np.random.default_rng(seed), scale).values)
    assert np.any(x != 0.0)
    assert x @ (prob.operator_matrix() @ x) > 0.0


def test_projection_closed_form_matches_direct_evaluation(small_prob, small_dirichlet):
    rng = np.random.default_rng(24)
    for prob in (small_prob, small_dirichlet):
        for _ in range(20):
            v = np.abs(_free_field(prob, rng).values)
            proj = c.variational.project_values(v, prob)
            candidate = Field(prob.window, proj.values)
            assert proj.energy == pytest.approx(c.energy(candidate, prob), rel=1e-12, abs=0.0)
            assert proj.pair_energy == pytest.approx(c.nonlocal_term(candidate, prob), rel=1e-12, abs=0.0)
            direct, _ = c.variational.pair_terms(proj.values, prob)
            assert np.abs(proj.conv - direct).max() <= 1e-12 * np.abs(direct).max()


def _finite_difference_gradient(u, prob, indices, h=1e-5):
    grads = []
    for idx in indices:
        bump = np.zeros(prob.window.count)
        bump[idx] = h
        plus = c.energy(Field(prob.window, u.values + bump), prob)
        minus = c.energy(Field(prob.window, u.values - bump), prob)
        grads.append((plus - minus) / (2.0 * h))
    return np.array(grads)


def test_euler_lagrange_residual_matches_finite_differences(small_prob):
    rng = np.random.default_rng(24)
    u = _free_field(small_prob, rng, scale=0.5)
    res = c.euler_lagrange_residual(u, small_prob)
    assert res.window == small_prob.window
    picks = rng.choice(small_prob.window.count, size=12, replace=False)
    fd = _finite_difference_gradient(u, small_prob, picks)
    for k, idx in enumerate(picks):
        assert res.values[idx] == pytest.approx(fd[k], rel=2e-6, abs=2e-8)


def test_euler_lagrange_residual_dirichlet_mode(small_dirichlet):
    rng = np.random.default_rng(25)
    u = _free_field(small_dirichlet, rng, scale=0.5)
    res = c.euler_lagrange_residual(u, small_dirichlet)
    outside = np.setdiff1d(np.arange(small_dirichlet.window.count), small_dirichlet.free_indices())
    assert np.array_equal(res.values[outside], np.zeros(outside.size))
    picks = small_dirichlet.free_indices()
    fd = _finite_difference_gradient(u, small_dirichlet, picks)
    for k, idx in enumerate(picks):
        assert res.values[idx] == pytest.approx(fd[k], rel=2e-6, abs=2e-8)


def test_mountain_pass_probe_geometry(small_prob):
    rho = 1e-3
    probe = c.mountain_pass_probe(small_prob, rho, samples=50, seed=1)
    assert probe.theta_hat >= rho**2 / 4.0
    assert probe.rho == rho and probe.samples == 50
    assert c.norm_sq(probe.witness, small_prob) == pytest.approx(1.0, rel=1e-12)
    assert c.energy(probe.t_neg * probe.witness, small_prob) < 0.0
    assert c.energy(2.0 * probe.t_neg * probe.witness, small_prob) < 0.0
    with pytest.raises(ParameterError):
        c.mountain_pass_probe(small_prob, 0.0, samples=5)
    with pytest.raises(ParameterError):
        c.mountain_pass_probe(small_prob, 1.0, samples=0)


def test_mountain_pass_probe_inconclusive_on_single_site_well(small_table, small_window):
    pot = PotentialSpec(well=SiteSet([(0, 0)]))
    prob = ProblemSpec(
        mode="dirichlet", window=small_window, potential=pot, kernel=small_table, p=2.0
    )
    with pytest.raises(ProbeInconclusiveError):
        c.mountain_pass_probe(prob, 1e-3, samples=4)


def test_problem_spec_repr_and_caching(small_prob):
    text = repr(small_prob)
    assert "full" in text and "lam=" in text
    assert small_prob.operator_matrix() is small_prob.operator_matrix()
    assert small_prob.weight_values() is small_prob.weight_values()
    assert dataclasses.replace(small_prob, p=2.5).p == 2.5


@pytest.mark.parametrize("dim, shape", [(2, "box"), (2, "ball"), (3, "box")])
def test_point_mass_has_exactly_zero_pair_energy(dim, shape):
    window = get_window(dim, 4, shape)
    table = c.build_kernel_table(GREEN, 1.0, window)
    prob = ProblemSpec(
        mode="full",
        window=window,
        potential=PotentialSpec(well=ball((0,) * dim, 1)),
        kernel=table,
        p=2.0,
        lam=1.0,
    )
    point = Field.delta(window)
    assert c.nonlocal_energy(point, table, prob.p) == 0.0
    with pytest.raises(NoProjectionError):
        c.nehari_project(point, prob)
    # two sites make one pair, counted once from each end
    step = (1,) + (0,) * (dim - 1)
    pair = Field.from_sites(window, {(0,) * dim: 1.0, step: 1.0})
    assert c.nonlocal_energy(pair, table, prob.p) == pytest.approx(2.0 * table.value(step), rel=1e-13)
