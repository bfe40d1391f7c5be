"""Difference operators, norms, potentials, and nonlocal energies vs oracles."""

import numpy as np
import pytest

import choquard as c
from choquard import (
    DomainError,
    Field,
    InputError,
    ParameterError,
    PotentialSpec,
    SiteSet,
    ball,
    get_window,
)


def _dense_laplacian_oracle(u):
    """Neighbour sums via np.roll on a zero-padded dense grid."""
    big = u.window.enlarged(1)
    r = big.radius
    size = 2 * r + 3
    grid = np.zeros((size, size))
    for idx in range(u.window.count):
        x, y = u.window.sites[idx]
        grid[x + r + 1, y + r + 1] = u.values[idx]
    rolled = (
        np.roll(grid, 1, axis=0)
        + np.roll(grid, -1, axis=0)
        + np.roll(grid, 1, axis=1)
        + np.roll(grid, -1, axis=1)
    )
    dense = rolled - 4.0 * grid

    def value(site):
        return dense[site[0] + r + 1, site[1] + r + 1]

    return big, value


def test_laplacian_matches_dense_roll_oracle():
    w = get_window(2, 3)
    rng = np.random.default_rng(11)
    u = Field(w, rng.standard_normal(w.count))
    out = c.laplacian(u)
    big, oracle = _dense_laplacian_oracle(u)
    assert out.window == big
    for idx in range(big.count):
        site = tuple(int(v) for v in big.sites[idx])
        assert out.values[idx] == pytest.approx(oracle(site), rel=1e-14, abs=1e-14)


def test_gradient_form_sums_to_dirichlet_energy():
    w = get_window(2, 4)
    rng = np.random.default_rng(12)
    u = Field(w, rng.standard_normal(w.count))
    lap = c.laplacian(u)
    gamma = c.gradient_form(u, u)
    lattice_pairing = -float(lap.values @ u.embed(lap.window).values)
    assert gamma.values.sum() == pytest.approx(lattice_pairing, rel=1e-12)


def test_gradient_form_polarisation_and_window_check():
    w = get_window(2, 3)
    rng = np.random.default_rng(13)
    u = Field(w, rng.standard_normal(w.count))
    v = Field(w, rng.standard_normal(w.count))
    mixed = c.gradient_form(u, v)
    plus = c.gradient_form(u + v, u + v)
    minus = c.gradient_form(u - v, u - v)
    assert np.allclose(mixed.values, 0.25 * (plus.values - minus.values), atol=1e-12)
    with pytest.raises(InputError):
        c.gradient_form(u, Field(get_window(2, 4), np.zeros(get_window(2, 4).count)))


def test_biharmonic_composes_laplacian_and_pairs_with_itself():
    w = get_window(2, 3)
    rng = np.random.default_rng(14)
    u = Field(w, rng.standard_normal(w.count))
    bi = c.biharmonic(u)
    twice = c.laplacian(c.laplacian(u))
    assert bi.window == twice.window
    assert np.array_equal(bi.values, twice.values)
    # sum u * Delta^2 u = sum |Delta u|^2 for zero-extended fields
    lap = c.laplacian(u)
    pairing = float(bi.values @ u.embed(bi.window).values)
    assert pairing == pytest.approx(float(lap.values @ lap.values), rel=1e-12)


def test_w22_norm_of_point_mass_closed_form():
    # |Delta delta|^2 = 4N^2 + 2N, Gamma sums to 2N, plus the unit value:
    # total (2N + 1)^2
    for dim, radius in [(1, 3), (2, 3), (3, 2)]:
        w = get_window(dim, radius)
        assert c.w22_norm_sq(Field.delta(w)) == pytest.approx((2 * dim + 1) ** 2, rel=1e-14)


def test_energy_norm_adds_weighted_potential_term(desk_potential):
    w = get_window(2, 5)
    rng = np.random.default_rng(15)
    u = Field(w, rng.standard_normal(w.count))
    lam = 7.5
    a_vals = desk_potential.values_on(w)
    expected = c.w22_norm_sq(u) + lam * float((a_vals * u.values) @ u.values)
    assert c.energy_norm_sq(u, desk_potential, lam) == pytest.approx(expected, rel=1e-13)
    with pytest.raises(ParameterError):
        c.energy_norm_sq(u, desk_potential, 0.0)
    one_dim = PotentialSpec(well=SiteSet([(0,)]))
    with pytest.raises(InputError):
        c.energy_norm_sq(u, one_dim, 1.0)


def test_potential_spec_validation():
    with pytest.raises(InputError):
        PotentialSpec(well=SiteSet([]))
    with pytest.raises(InputError):
        PotentialSpec(well=SiteSet([(0, 0), (5, 5)]))
    with pytest.raises(ParameterError):
        PotentialSpec(well=ball((0, 0), 1), bound=0.0)
    with pytest.raises(ParameterError):
        PotentialSpec(well=ball((0, 0), 1), profile="cubic")
    with pytest.raises(ParameterError):
        PotentialSpec(well=ball((0, 0), 1), profile="capped")
    with pytest.raises(ParameterError):
        PotentialSpec(well=ball((0, 0), 1), profile="capped", cap=2.0, bound=2.0)
    with pytest.raises(ParameterError):
        PotentialSpec(well=ball((0, 0), 1), cap=3.0)


def _brute_distance(site, well):
    return min(abs(site[0] - p[0]) + abs(site[1] - p[1]) for p in well)


@pytest.mark.parametrize("profile, cap", [("distance", None), ("capped", 2.0), ("quadratic", None)])
def test_potential_profiles_match_brute_force(profile, cap):
    well = ball((1, -1), 1)
    spec = PotentialSpec(well=well, profile=profile, cap=cap, bound=1.0)
    w = get_window(2, 5)
    vals = spec.values_on(w)
    for idx in range(w.count):
        site = tuple(int(v) for v in w.sites[idx])
        d = _brute_distance(site, list(well))
        if profile == "distance":
            expected = float(d)
        elif profile == "capped":
            expected = float(min(d, cap))
        else:
            expected = float(d * d)
        assert vals[idx] == expected
    assert spec.values_on(w) is vals  # cached per window


def test_potential_sublevel_sets():
    well = ball((0, 0), 1)
    spec = PotentialSpec(well=well, bound=2.5)
    sub = spec.sublevel_set()
    expected = {tuple(s) for s in ball((0, 0), 3)}
    assert {tuple(s) for s in sub} == expected
    quad = PotentialSpec(well=SiteSet([(0, 0)]), profile="quadratic", bound=5.0)
    assert {tuple(s) for s in quad.sublevel_set()} == {tuple(s) for s in ball((0, 0), 2)}
    capped = PotentialSpec(well=SiteSet([(0, 0)]), profile="capped", cap=3.0, bound=1.0)
    with pytest.raises(DomainError):
        capped.sublevel_set(3.0)
    with pytest.raises(InputError):
        spec.sublevel_set(-1.0)
    assert {tuple(s) for s in spec.sublevel_set(0.0)} == {tuple(s) for s in well}


def test_dirichlet_norm_equals_full_sobolev_norm_on_admissible_fields():
    # fields vanishing outside the well have their Laplacian supported in the
    # closed well, so masking to it loses nothing
    well = ball((0, 0), 2)
    w = get_window(2, 6)
    rng = np.random.default_rng(16)
    vals = np.zeros(w.count)
    for site in well:
        vals[w.index_of(site)] = rng.standard_normal()
    u = Field(w, vals)
    assert c.dirichlet_norm_sq(u, well) == pytest.approx(c.w22_norm_sq(u), rel=1e-13)
    bad = Field(w, np.ones(w.count))
    with pytest.raises(InputError):
        c.dirichlet_norm_sq(bad, well)


def test_nonlocal_energy_matches_double_sum(small_table):
    w = get_window(2, 2)
    rng = np.random.default_rng(18)
    u = Field(w, rng.standard_normal(w.count))
    p = 2.0
    brute = 0.0
    for i in range(w.count):
        for j in range(w.count):
            if i == j:
                continue
            diff = tuple(int(v) for v in (w.sites[i] - w.sites[j]))
            brute += small_table.value(diff) * abs(u.values[i]) ** p * abs(u.values[j]) ** p
    assert c.nonlocal_energy(u, small_table, p) == pytest.approx(brute, rel=1e-12)
    with pytest.raises(ParameterError):
        c.nonlocal_energy(u, small_table, 1.4)


def test_hls_ratio_scale_invariance_and_validation(small_table):
    w = get_window(2, 3)
    rng = np.random.default_rng(19)
    u = Field(w, rng.random(w.count))
    v = Field(w, rng.random(w.count))
    r = s = 4.0 / 3.0  # balances 1/r + 1/s + (N - alpha)/N = 2 at N=2, alpha=1
    base = c.hls_ratio(u, v, small_table, r, s)
    assert base > 0.0
    scaled = c.hls_ratio(3.7 * u, 0.41 * v, small_table, r, s)
    assert scaled == pytest.approx(base, rel=1e-12)
    with pytest.raises(ParameterError):
        c.hls_ratio(u, v, small_table, 2.0, 2.0)
    with pytest.raises(InputError):
        c.hls_ratio(u, Field(get_window(2, 2), np.ones(25)), small_table, r, s)
    neg = Field(w, -np.ones(w.count))
    with pytest.raises(InputError):
        c.hls_ratio(neg, v, small_table, r, s)
    zero = Field(w, np.zeros(w.count))
    with pytest.raises(DomainError):
        c.hls_ratio(zero, zero, small_table, r, s)


def test_interpolation_check():
    w = get_window(2, 3)
    rng = np.random.default_rng(20)
    u = Field(w, rng.standard_normal(w.count))
    assert c.interpolation_check(u, 2.0, 4.0)
    assert c.interpolation_check(u, 1.0, 2.5)
    assert c.interpolation_check(Field.delta(w), 2.0, 4.0)  # equality case
    with pytest.raises(InputError):
        c.interpolation_check(u, 0.5, 2.0)
    with pytest.raises(InputError):
        c.interpolation_check(u, 2.0, 2.0)


def test_bump_field_indicator_and_smoothing():
    w = get_window(2, 6)
    region = ball((0, 0), 1)
    raw = c.bump_field(w, region, smoothing_time=0.0)
    assert raw.values.sum() == float(len(region))
    assert set(map(tuple, raw.support())) == {tuple(s) for s in region}
    smooth = c.bump_field(w, region)
    assert (smooth.values > 0.0).all()
    assert smooth.values.sum() <= len(region) + 1e-12
    assert smooth.values.sum() >= len(region) * 0.95
