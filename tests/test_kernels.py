"""Kernel evaluation against series, special-function, and brute-force oracles."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ive

import choquard as c
from choquard import (
    BALL,
    BOX,
    Field,
    InputError,
    InternalError,
    ParameterError,
    QuadratureSpec,
    get_window,
)
import choquard.kernels as kernels
from choquard.kernels import (
    GREEN,
    RIESZ,
    green_function,
    heat_kernel,
    heat_kernel_spectral,
    scaled_bessel_i,
    scaled_bessel_profile,
)
from choquard.lattice import embedding_map


@pytest.mark.parametrize("m", [0, 1, 2, 7, 25, 64])
@pytest.mark.parametrize("z", [1e-3, 0.5, 2.0, 20.0, 300.0])
def test_scaled_bessel_matches_scipy(m, z):
    # the oscillatory-sum branch carries an absolute round-off floor near
    # machine epsilon, so exponentially small values get a mixed tolerance
    ours = scaled_bessel_i(m, z)
    ref = float(ive(m, z))
    assert ours == pytest.approx(ref, rel=1e-12, abs=2e-14)


def test_scaled_bessel_small_order_series_value():
    # e^{-2} I_0(2), independent series evaluation of the same quantity
    acc, term = 0.0, 1.0
    for k in range(0, 40):
        if k > 0:
            term *= 1.0 / (k * k)
        acc += term
    assert scaled_bessel_i(0, 2.0) == pytest.approx(math.exp(-2.0) * acc, rel=1e-14)


@pytest.mark.parametrize("z", [1e-3, 1.0, 10.0, 100.0, 1e3, 1e6])
def test_scaled_bessel_profile_matches_mpmath(z):
    # 40-digit oracle over orders 0..128, for arguments from far below the
    # orders to far above them; values below 1e-300 must underflow to ~0
    with mpmath.workdps(40):
        ref = [mpmath.besseli(m, z) * mpmath.exp(-z) for m in range(129)]
        ours = scaled_bessel_profile(z, 128)
        assert ours.shape == (129,)
        for m, (got, want) in enumerate(zip(ours, ref)):
            if want >= mpmath.mpf("1e-300"):
                assert float(abs(got - want) / want) <= 2e-13, (m, got, want)
            else:
                assert got < 1e-290, (m, got)


def test_heat_kernel_product_structure_and_edge_cases():
    t = 0.7
    k2 = heat_kernel(t, (3, -2), 2)
    assert k2 == pytest.approx(heat_kernel(t, (3,), 1) * heat_kernel(t, (2,), 1), rel=1e-14)
    assert heat_kernel(0.0, (0, 0), 2) == 1.0
    assert heat_kernel(0.0, (1, 0), 2) == 0.0
    with pytest.raises(InputError):
        heat_kernel(-1.0, (0,), 1)
    with pytest.raises(InputError):
        heat_kernel(1.0, (0, 0), 1)


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_heat_kernel_mass_in_two_dims(t):
    one_dim = sum(heat_kernel(t, (m,), 1) for m in range(-200, 201))
    assert abs(one_dim**2 - 1.0) <= 1e-10


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_heat_kernel_spectral_agreement(t):
    for i in range(0, 21, 4):
        for j in range(0, 21 - i, 4):
            a = heat_kernel(t, (i, j), 2)
            b = heat_kernel_spectral(t, (i, j), 2, 256)
            assert abs(a - b) <= 1e-6 * abs(a) + 1e-12


def test_quadrature_spec_validation_and_digest():
    with pytest.raises(ParameterError):
        QuadratureSpec(nodes=4)


def test_green_function_symmetry_positivity_and_resolution():
    base = green_function(1.0, (3, 2), 2)
    assert base > 0.0
    assert green_function(1.0, (-3, 2), 2) == base
    assert green_function(1.0, (2, 3), 2) == base
    fine = green_function(1.0, (3, 2), 2, quad=QuadratureSpec(nodes=96))
    assert base == pytest.approx(fine, rel=1e-10)


def test_green_function_decay_exponent():
    # R_alpha(v) ~ |v|^{alpha-N}: the local log-log slope near |v|=20
    v1 = green_function(1.0, (16, 0), 2)
    v2 = green_function(1.0, (24, 0), 2)
    slope = math.log(v2 / v1) / math.log(24.0 / 16.0)
    assert slope == pytest.approx(-1.0, abs=0.05)


def test_build_table_validates_inputs(small_window):
    with pytest.raises(ParameterError, match=r"alpha must lie in \(0, N\)"):
        c.build_kernel_table(GREEN, 2.0, small_window)
    with pytest.raises(ParameterError, match=r"alpha must lie in \(0, N\)"):
        c.build_kernel_table(GREEN, 0.0, small_window)
    with pytest.raises(InputError):
        c.build_kernel_table("bessel", 1.0, small_window)


def test_table_lookup_matches_direct_evaluation(small_table):
    for v in [(0, 0), (1, 0), (2, 3), (-5, 7), (12, -12)]:
        got = small_table.values_at(np.array([v]))[0]
        assert got == pytest.approx(green_function(1.0, v, 2), rel=1e-13)
    with pytest.raises(InternalError):
        small_table.values_at(np.array([[13, 0]]))


def test_riesz_table_zeroes_diagonal(small_window):
    table = c.build_kernel_table(RIESZ, 1.0, small_window)
    assert table.values_at(np.array([[0, 0]]))[0] == 0.0
    assert table.values_at(np.array([[3, -4]]))[0] == pytest.approx(0.2, rel=1e-15)
    table = c.build_kernel_table(RIESZ, 1.5, small_window)
    assert table.values_at(np.array([[0, 2]]))[0] == pytest.approx(2.0 ** (-0.5), rel=1e-15)


def test_convolve_matches_double_loop(small_table, small_window):
    rng = np.random.default_rng(11)
    w = get_window(2, 3)
    f = Field(w, rng.standard_normal(w.count))
    got = c.convolve(small_table, f)
    sites = w.sites
    for idx in [0, 10, 24, 30, 48]:
        x = sites[idx]
        acc = 0.0
        for jdx in range(w.count):
            if jdx == idx:
                continue
            acc += green_function(1.0, tuple(x - sites[jdx]), 2) * f.values[jdx]
        assert got.values[idx] == pytest.approx(acc, rel=1e-12, abs=1e-14)


def test_convolve_diagonal_and_out_window(small_table):
    w = get_window(2, 2)
    f = Field.delta(w)
    plain = c.convolve(small_table, f)
    with_diag = c.convolve(small_table, f, include_diagonal=True)
    k0 = small_table.values_at(np.array([[0, 0]]))[0]
    assert with_diag.values[w.index_of((0, 0))] - plain.values[w.index_of((0, 0))] == pytest.approx(
        k0, rel=1e-14
    )
    big = get_window(2, 6)
    wide = c.convolve(small_table, f, out_window=big)
    assert wide.window == big
    assert wide.values[big.index_of((5, 0))] == pytest.approx(green_function(1.0, (5, 0), 2), rel=1e-12)


def _double_sum(table, f, include_diagonal=False, out_window=None):
    """(K * f)(x) summed site pair by site pair through ``values_at``."""
    out = out_window or f.window
    acc = np.zeros(out.count)
    for i, x in enumerate(out.sites):
        diffs = x - f.window.sites
        k = table.values_at(diffs)
        k[(diffs == 0).all(axis=1)] = table.diagonal if include_diagonal else 0.0
        acc[i] = k @ f.values
    return acc


@pytest.mark.parametrize(
    "table_name, field_window, out_window, include_diagonal",
    [
        ("small_table", (2, 4, BOX), None, False),
        ("small_table", (2, 4, BOX), None, True),
        ("small_table", (2, 5, BALL), None, False),
        ("small_table", (2, 5, BALL), None, True),
        # the green suite's case: a radius-2 source read out to radius 2R - 2
        ("small_table", (2, 2, BOX), (2, 10, BOX), True),
        ("small_table", (2, 6, BALL), (2, 3, BOX), True),
        ("small_table", (2, 3, BOX), (2, 6, BALL), False),
        ("cube_table", (3, 3, BOX), None, False),
        ("cube_table", (3, 4, BALL), None, True),
        ("cube_table", (3, 2, BOX), (3, 6, BOX), True),
    ],
)
def test_convolve_matches_pairwise_sum(request, table_name, field_window, out_window, include_diagonal):
    table = request.getfixturevalue(table_name)
    w = get_window(*field_window)
    out = None if out_window is None else get_window(*out_window)
    f = Field(w, np.random.default_rng(w.count).standard_normal(w.count))
    got = c.convolve(table, f, include_diagonal=include_diagonal, out_window=out)
    want = _double_sum(table, f, include_diagonal, out)
    assert got.window == (out or w)
    assert np.abs(got.values - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize(
    "table_name, field_window, out_window, include_diagonal",
    [
        ("small_table", (2, 4, BOX), None, False),
        ("small_table", (2, 5, BALL), None, True),
        ("small_table", (2, 6, BALL), (2, 3, BOX), True),
        ("small_table", (2, 3, BOX), (2, 6, BALL), False),
        ("cube_table", (3, 4, BALL), None, True),
    ],
)
def test_convolve_values_batch_rows_match_single_fields(
    request, table_name, field_window, out_window, include_diagonal
):
    table = request.getfixturevalue(table_name)
    w = get_window(*field_window)
    out = None if out_window is None else get_window(*out_window)
    batch = np.random.default_rng(w.count).standard_normal((2, 3, w.count))
    got = kernels.convolve_values(table, w, batch, include_diagonal, out)
    assert got.shape == (2, 3, (out or w).count)
    for index in np.ndindex(2, 3):
        alone = c.convolve(table, Field(w, batch[index]), include_diagonal, out).values
        assert np.abs(got[index] - alone).max() <= 1e-15 * np.abs(alone).max()


def test_convolve_rejects_windows_beyond_the_table(small_table, cube_table):
    # the small table covers differences up to 12 = 6 + 6
    f = Field.delta(get_window(2, 6))
    with pytest.raises(InternalError):
        c.convolve(small_table, f, out_window=get_window(2, 7))
    with pytest.raises(InternalError):
        c.convolve(small_table, Field.delta(get_window(2, 7, BALL)))
    with pytest.raises(InternalError):
        c.convolve(cube_table, Field.delta(get_window(3, 2)), out_window=get_window(3, 7))


_window_specs = st.tuples(st.integers(1, 6), st.sampled_from([BOX, BALL]))


def _random_field(window, seed):
    return Field(window, np.random.default_rng(seed).standard_normal(window.count))


@settings(max_examples=40, deadline=None)
@given(a=_window_specs, b=_window_specs, seed=st.integers(0, 2**32 - 1), diag=st.booleans())
def test_convolve_is_self_adjoint(small_table, a, b, seed, diag):
    # <K * f, g> = <f, K * g> for f on one window and g on another
    wa, wb = get_window(2, *a), get_window(2, *b)
    f, g = _random_field(wa, seed), _random_field(wb, seed + 1)
    lhs = c.convolve(small_table, f, include_diagonal=diag, out_window=wb).values @ g.values
    rhs = f.values @ c.convolve(small_table, g, include_diagonal=diag, out_window=wa).values
    absf = Field(wa, np.abs(f.values))
    scale = c.convolve(small_table, absf, include_diagonal=diag, out_window=wb).values @ np.abs(g.values)
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(
    a=_window_specs,
    seed=st.integers(0, 2**32 - 1),
    # subnormal scales round s*f to multiples of 5e-324 before convolve runs,
    # a relative error no double can keep below the bound
    s=st.floats(-10.0, 10.0, allow_subnormal=False),
    t=st.floats(-10.0, 10.0, allow_subnormal=False),
    diag=st.booleans(),
)
def test_convolve_is_linear(small_table, a, seed, s, t, diag):
    w = get_window(2, *a)
    f, g = _random_field(w, seed), _random_field(w, seed + 1)
    both = c.convolve(small_table, Field(w, s * f.values + t * g.values), include_diagonal=diag)
    cf = c.convolve(small_table, f, include_diagonal=diag).values
    cg = c.convolve(small_table, g, include_diagonal=diag).values
    scale = abs(s) * np.abs(cf).max() + abs(t) * np.abs(cg).max()
    assert np.abs(both.values - (s * cf + t * cg)).max() <= 1e-12 * scale


def test_heat_semigroup_matches_brute_force():
    w = get_window(2, 3)
    rng = np.random.default_rng(2)
    u = Field(w, rng.standard_normal(w.count))
    t = 0.8
    out = c.heat_semigroup_apply(u, t)
    for site in [(0, 0), (2, -1), (-3, 3)]:
        acc = sum(
            heat_kernel(t, tuple(np.array(site) - w.sites[j]), 2) * u.values[j]
            for j in range(w.count)
        )
        assert out.values[out.window.index_of(site)] == pytest.approx(acc, rel=1e-12, abs=1e-13)


def test_heat_semigroup_preserves_mass_and_positivity():
    # mass on the truncated output window factorises into 1-d partial sums
    w = get_window(2, 4)
    u = Field.delta(w)
    out = c.heat_semigroup_apply(u, 1.5)
    assert (out.values >= 0.0).all()
    r = out.window.radius
    one_dim = sum(heat_kernel(1.5, (m,), 1) for m in range(-r, r + 1))
    assert out.values.sum() == pytest.approx(one_dim**2, rel=1e-12)


def _torus_fractional_laplacian(u, s, size):
    grid = np.zeros((size, size))
    for idx in range(u.window.count):
        x, y = u.window.sites[idx]
        grid[x % size, y % size] = u.values[idx]
    freqs = 2.0 * np.pi * np.fft.fftfreq(size)
    eig1 = 2.0 - 2.0 * np.cos(freqs)
    symbol = (eig1[:, None] + eig1[None, :]) ** s
    out = np.real(np.fft.ifft2(symbol * np.fft.fft2(grid)))

    def value(site):
        return out[site[0] % size, site[1] % size]

    return value


# the periodic reference wraps the kernel tail, so its own error decays
# like size^-(2+alpha); the tolerance tracks that, not the operator
@pytest.mark.parametrize("alpha, tol", [(0.6, 1e-5), (1.0, 2e-6), (1.8, 2e-6)])
def test_fractional_laplacian_matches_torus_spectral(alpha, tol):
    w = get_window(2, 4)
    rng = np.random.default_rng(4)
    u = Field(w, rng.standard_normal(w.count))
    ours = c.fractional_laplacian(alpha, u)
    oracle = _torus_fractional_laplacian(u, alpha / 2.0, 256)
    scale = float(np.abs(u.values).max())
    for site in [(0, 0), (1, 2), (-3, 0), (4, 4)]:
        got = ours.values[ours.window.index_of(site)]
        assert got == pytest.approx(oracle(site), rel=tol, abs=tol * scale)


def test_fractional_laplacian_integer_orders_are_exact():
    w = get_window(2, 3)
    rng = np.random.default_rng(9)
    u = Field(w, rng.standard_normal(w.count))
    lap = c.laplacian(u)
    out2 = c.fractional_laplacian(2.0, u)
    assert np.allclose(out2.values, -lap.embed(out2.window).values, rtol=0, atol=1e-14)
    bi = c.biharmonic(u)
    out4 = c.fractional_laplacian(4.0, u)
    if out4.window.radius >= bi.window.radius:
        ref = bi.embed(out4.window).values
    else:
        ref = bi.values[embedding_map(out4.window, bi.window)]
    assert np.allclose(out4.values, ref, rtol=0, atol=1e-12)
    with pytest.raises(ParameterError):
        c.fractional_laplacian(0.0, u)


_OUT_RADII = {1: 8, 2: 5, 3: 3}


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 3),
    data=st.data(),
    alpha=st.floats(0.02, 1.98) | st.sampled_from([2.0, 3.3, 4.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fractional_laplacian_on_an_output_window_restricts_the_full_output(dim, data, alpha, seed):
    top = _OUT_RADII[dim]
    w = get_window(dim, data.draw(st.integers(1, top)), data.draw(st.sampled_from([BOX, BALL])))
    out_w = get_window(dim, data.draw(st.integers(1, top + 2)), data.draw(st.sampled_from([BOX, BALL])))
    u = Field(w, np.random.default_rng(seed).standard_normal(w.count))
    full = c.fractional_laplacian(alpha, u)
    part = c.fractional_laplacian(alpha, u, out_window=out_w)
    assert part.window == out_w
    idx = full.window.indices_of(out_w.sites)
    shared = idx >= 0
    scale = np.abs(full.values).max()
    assert np.abs(part.values[shared] - full.values[idx[shared]]).max(initial=0.0) <= 1e-13 * scale
    if alpha in (2.0, 4.0):
        # -Delta and its square vanish off the enlarged window
        assert np.all(part.values[~shared] == 0.0)


def test_fractional_laplacian_rejects_an_output_window_of_another_dimension():
    u = Field.delta(get_window(2, 3))
    with pytest.raises(InputError, match="dimension"):
        c.fractional_laplacian(1.0, u, out_window=get_window(3, 2))


def test_green_table_inverts_fractional_laplacian(desk_table):
    # convolution with the subordination kernel, then the half-Laplacian,
    # reproduces a compactly supported source at interior sites
    f = Field.delta(get_window(2, 2))
    v = c.convolve(desk_table, f, include_diagonal=True, out_window=get_window(2, 30))
    w = c.fractional_laplacian(1.0, v)
    interior = np.abs(w.window.sites).sum(axis=1) <= 2
    err = np.abs(w.values - f.embed(w.window).values)[interior].max()
    assert err <= 1e-4


def test_asymptotics_bracket_and_cross_method(small_table, small_window):
    c1, c2 = c.asymptotics_bracket(small_table, 5, 12)
    assert 0.0 < c1 <= c2
    assert c2 / c1 <= 10.0
    assert c.cross_method_deviation(small_table, 8) <= 1e-6
    riesz = c.build_kernel_table(RIESZ, 1.0, small_window)
    with pytest.raises(InputError):
        c.cross_method_deviation(riesz, 8)
    # orbit keys reach word length dim * m_max = 24, so 25 starts past the table
    with pytest.raises(InputError):
        c.asymptotics_bracket(small_table, 25, 30)
