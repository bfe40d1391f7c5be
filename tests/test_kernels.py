"""Kernel evaluation against series, special-function, and brute-force oracles."""

import functools
import itertools
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.special import ive

import choquard as c
from choquard import (
    Field,
    InputError,
    InternalError,
    ParameterError,
    QuadratureSpec,
    get_window,
)
import choquard.kernels as kernels
from choquard.lattice import resize_rows
from choquard.kernels import (
    green_function,
    heat_kernel,
    heat_kernel_spectral,
    scaled_bessel_profile,
)


@pytest.mark.parametrize("m", [0, 1, 2, 7, 25, 64])
@pytest.mark.parametrize("z", [1e-3, 0.5, 2.0, 20.0, 300.0])
def test_scaled_bessel_matches_scipy(m, z):
    # entry m of the profile is scipy's ive(m, z), and both match a 40-digit
    # oracle; exponentially small values get a mixed tolerance
    got = scaled_bessel_profile(z, m)[m]
    assert got == ive(m, z)
    with mpmath.workdps(40):
        want = float(mpmath.besseli(m, z) * mpmath.exp(-z))
    assert got == pytest.approx(want, rel=1e-12, abs=2e-14)


def test_scaled_bessel_small_order_series_value():
    # e^{-2} I_0(2), independent series evaluation of the same quantity
    acc, term = 0.0, 1.0
    for k in range(0, 40):
        if k > 0:
            term *= 1.0 / (k * k)
        acc += term
    assert scaled_bessel_profile(2.0, 0)[0] == pytest.approx(math.exp(-2.0) * acc, rel=1e-14)


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


def test_scaled_bessel_profile_gives_one_row_per_argument():
    zs = np.array([0.0, 1e-3, 2.0, 300.0])
    rows = scaled_bessel_profile(zs, 12)
    assert rows.shape == (4, 13)
    for z, row in zip(zs, rows):
        assert np.array_equal(row, scaled_bessel_profile(float(z), 12))
    assert scaled_bessel_profile(zs.reshape(2, 2), 3).shape == (2, 2, 4)
    with pytest.raises(InputError):
        scaled_bessel_profile(np.array([1.0, -1e-9]), 3)
    with pytest.raises(InputError):
        scaled_bessel_profile(1.0, -1)


@pytest.mark.parametrize("z", [math.nan, math.inf, np.array([1.0, math.nan])])
def test_scaled_bessel_profile_rejects_a_non_finite_argument(z):
    with pytest.raises(InputError, match="argument must be finite and >= 0, got (nan|inf)"):
        scaled_bessel_profile(z, 2)


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


def test_kernel_inputs_reject_non_integer_vectors_and_sizes(small_table):
    # a fractional coordinate or size is rejected, not truncated
    with pytest.raises(InputError, match="integers"):
        green_function(1.0, (2.7, 0), 2)
    with pytest.raises(InputError, match="integers"):
        heat_kernel(1.0, (1.5,), 1)
    with pytest.raises(InputError, match="integers"):
        small_table.value((1.9, 0))
    with pytest.raises(InputError, match="torus size must be an integer"):
        heat_kernel_spectral(1.0, (1, 0), 2, 64.5)
    with pytest.raises(InputError, match="m_max must be an integer"):
        scaled_bessel_profile(1.0, 2.5)
    # integral floats are the integers they equal
    assert green_function(1.0, (2.0, 0), 2) == green_function(1.0, (2, 0), 2)
    assert small_table.value((1.0, 0)) == small_table.value((1, 0))
    assert heat_kernel_spectral(1.0, (1, 0), 2, 64.0) == heat_kernel_spectral(1.0, (1, 0), 2, 64)
    assert np.array_equal(scaled_bessel_profile(1.0, 2.0), scaled_bessel_profile(1.0, 2))


def test_point_evaluators_read_an_integral_float_dim_and_reject_a_fractional_one():
    assert green_function(1.0, (3, 2), 2.0) == green_function(1.0, (3, 2), 2)
    assert heat_kernel(1.0, (1, 2), 2.0) == heat_kernel(1.0, (1, 2), 2)
    assert heat_kernel_spectral(1.0, (1, 2), 2.0, 64) == heat_kernel_spectral(1.0, (1, 2), 2, 64)
    with pytest.raises(InputError, match="dim must be an integer"):
        green_function(1.0, (3, 2), 2.5)
    with pytest.raises(InputError, match="dim must be an integer"):
        heat_kernel(1.0, (1, 2), 2.5)
    with pytest.raises(InputError, match="dim must be an integer"):
        heat_kernel_spectral(1.0, (1, 2), 2.5, 64)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_heat_kernel_rejects_a_non_finite_time(t):
    with pytest.raises(InputError, match=f"time must be finite and >= 0, got {t}"):
        heat_kernel(t, (0, 0), 2)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_heat_kernel_spectral_rejects_a_non_finite_time(t):
    with pytest.raises(InputError, match=f"time must be finite and >= 0, got {t}"):
        heat_kernel_spectral(t, (0, 0), 2, 64)


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


@pytest.mark.parametrize("nodes", [8.5, 48.0])
def test_quadrature_spec_rejects_a_non_integer_node_count(nodes):
    with pytest.raises(ParameterError, match=f"nodes must be an integer >= 8, got {nodes}"):
        QuadratureSpec(nodes=nodes)


@pytest.mark.parametrize("alpha", [0.1, 0.6, 1.0, 1.9, 2.5])
def test_time_segments_integrate_the_green_weight(alpha):
    # f = 1: sum w_i = int_0^T t^{alpha/2 - 1} dt with T = 10^decades
    head, decades = alpha / 2.0 - 1.0, 3
    segments = list(kernels._time_segments(head, alpha / 2.0, 0.0, QuadratureSpec(), decades))
    assert len(segments) == decades + 1
    total = sum(float(w.sum()) for _, w in segments)
    T = 10.0**decades
    assert total == pytest.approx(T ** (head + 1.0) / (head + 1.0), rel=1e-12)


@pytest.mark.parametrize("s", [0.05, 0.3, 0.5, 0.85])
def test_time_segments_head_absorbs_the_fractional_endpoint(s):
    # with t^{-s-1}, the head segment integrates f(t) = t on [0, 1] exactly
    t, w = next(kernels._time_segments(-s, 1.0 - s, -1.0, QuadratureSpec(), 4))
    assert np.all((t > 0.0) & (t < 1.0))
    assert float(w @ t) == pytest.approx(1.0 / (1.0 - s), rel=1e-13)


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


def test_green_function_evaluates_only_the_coordinates_of_v():
    # the quadrant grid [0, 60]^3 alone would hold 1.8 MB
    tracemalloc.start()
    try:
        value = green_function(1.0, (60, 0, 0), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert value == green_function(1.0, (0, -60, 0), 3)


def test_build_table_validates_inputs(small_window):
    with pytest.raises(ParameterError, match=r"alpha must lie in \(0, N\)"):
        c.build_kernel_table(2.0, small_window)
    with pytest.raises(ParameterError, match=r"alpha must lie in \(0, N\)"):
        c.build_kernel_table(0.0, small_window)


def test_table_lookup_matches_direct_evaluation(small_table):
    for v in [(0, 0), (1, 0), (2, 3), (-5, 7), (12, -12)]:
        got = small_table.values_at(np.array([v]))[0]
        assert got == pytest.approx(green_function(1.0, v, 2), rel=1e-13)
    with pytest.raises(InternalError):
        small_table.values_at(np.array([[13, 0]]))


def test_kernel_table_rejects_bad_grids(small_table):
    t = small_table

    def rebuilt(grid):
        return c.KernelTable(t.alpha, t.dim, t.radius, grid)

    mine = t.grid.copy()
    table = rebuilt(mine)
    assert np.array_equal(table.grid, t.grid)
    # the table owns a read-only grid and leaves the caller's array writable
    assert not table.grid.flags.writeable and not t.grid.flags.writeable
    mine[0, 0] = 7.0
    assert table.diagonal == t.diagonal
    for grid in (t.grid[:-1], t.grid[:, :-1], t.grid[0], t.grid[None], t.grid[..., None]):
        with pytest.raises(InputError, match="kernel grid of shape"):
            rebuilt(grid)
    for bad in (-1e-300, math.nan, math.inf):
        grid = t.grid.copy()
        grid[3, 2] = bad
        with pytest.raises(InputError, match="finite and nonnegative"):
            rebuilt(grid)


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 3), m_max=st.integers(0, 9), share=st.floats(0.05, 0.95))
def test_green_values_grid_is_symmetric_under_axis_permutations(dim, m_max, share):
    # every point reads its canonical form, so a transposed grid has the same bytes
    grid = kernels._green_values(share * dim, dim, m_max, QuadratureSpec(), kernels._bessel_profile)
    assert grid.shape == (m_max + 1,) * dim
    for perm in itertools.permutations(range(dim)):
        assert np.transpose(grid, perm).tobytes() == grid.tobytes()


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 3), share=st.floats(0.05, 0.95), data=st.data())
def test_green_values_match_a_correctly_rounded_quadrature_sum(dim, share, data):
    alpha = share * dim
    coords = st.lists(st.integers(0, 12), min_size=dim, max_size=dim)
    vs = np.array(data.draw(st.lists(coords, min_size=1, max_size=6)), dtype=np.int64)
    m_max = int(vs.max())
    quad = QuadratureSpec()
    got = kernels._green_values(alpha, dim, m_max, quad, kernels._bessel_profile)[tuple(vs.T)]
    ts, ws, T = kernels._green_plan(alpha, quad, m_max)
    profile = kernels._bessel_profile(ts, m_max)
    tail = kernels._green_tail(alpha, dim, np.arange(m_max + 1), T)[tuple(vs.T)]
    for v, value, rest in zip(vs, got, tail):
        terms = ws * np.prod(profile[:, v], axis=1)
        want = (math.fsum(terms) + rest) / math.gamma(alpha / 2.0)
        assert value == pytest.approx(want, rel=1e-14, abs=0.0)


# one table per dimension, with alpha < 1 in dimension 1
_SYMMETRY_TABLES = {1: (0.6, 8), 2: (1.3, 6), 3: (2.5, 3)}


@functools.lru_cache(maxsize=None)
def _symmetry_table(dim):
    alpha, radius = _SYMMETRY_TABLES[dim]
    return c.build_kernel_table(alpha, get_window(dim, radius))


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 3), data=st.data())
def test_table_values_are_symmetric_and_match_the_green_function(dim, data):
    table = _symmetry_table(dim)
    coord = st.integers(-table.m_max, table.m_max)
    v = np.array(data.draw(st.lists(coord, min_size=dim, max_size=dim)))
    perm = np.array(data.draw(st.permutations(range(dim))))
    signs = np.array(data.draw(st.lists(st.sampled_from([-1, 1]), min_size=dim, max_size=dim)))
    value = table.values_at(v[None])[0]
    assert table.values_at((signs * v[perm])[None])[0] == value
    assert value == pytest.approx(green_function(table.alpha, v, dim), rel=1e-13)


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
        ("small_table", (2, 4), None, False),
        ("small_table", (2, 4), None, True),
        ("small_table", (2, 5), None, False),
        ("small_table", (2, 5), None, True),
        # the green suite's case: a radius-2 source read out to radius 2R - 2
        ("small_table", (2, 2), (2, 10), True),
        ("small_table", (2, 6), (2, 3), True),
        ("small_table", (2, 3), (2, 6), False),
        ("cube_table", (3, 3), None, False),
        ("cube_table", (3, 4), None, True),
        ("cube_table", (3, 2), (3, 6), True),
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
        ("small_table", (2, 4), None, False),
        ("small_table", (2, 5), None, True),
        ("small_table", (2, 6), (2, 3), True),
        ("small_table", (2, 3), (2, 6), False),
        ("cube_table", (3, 4), None, True),
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
        assert np.array_equal(got[index], alone)


_PAIRWISE_TABLES = {1: (0.5, 5), 2: (1.0, 5), 3: (1.0, 5)}


@functools.lru_cache(maxsize=None)
def _pairwise_table(dim):
    alpha, radius = _PAIRWISE_TABLES[dim]
    return c.build_kernel_table(alpha, get_window(dim, radius))


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 3),
    r_in=st.integers(1, 5),
    r_out=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    include_diagonal=st.booleans(),
)
def test_convolve_values_match_the_pairwise_sum(dim, r_in, r_out, seed, include_diagonal):
    # output windows below, equal to and above the input's: above it the
    # output rows wrap around the circular grid
    table = _pairwise_table(dim)
    w, out = get_window(dim, r_in), get_window(dim, r_out)
    f = _random_field(w, seed)
    got = kernels.convolve_values(table, w, f.values, include_diagonal, out)
    want = _double_sum(table, f, include_diagonal, out)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("dim, reach", [(1, 4), (2, 5), (2, 9), (2, 10), (3, 5)])
def test_kernel_spectrum_grid_is_the_fast_length_of_twice_the_reach(dim, reach):
    # the kernel is even in every coordinate, so length 2 reach suffices
    size, spectrum = kernels._kernel_spectrum(_pairwise_table(dim), reach)
    assert size == next_fast_len(2 * reach, real=True)
    assert spectrum.shape == (size,) * (dim - 1) + (size // 2 + 1,)


def test_convolve_rejects_windows_beyond_the_table(small_table, cube_table):
    # the small table covers differences up to 12 = 6 + 6
    f = Field.delta(get_window(2, 6))
    with pytest.raises(InternalError):
        c.convolve(small_table, f, out_window=get_window(2, 7))
    with pytest.raises(InternalError):
        c.convolve(small_table, Field.delta(get_window(2, 7)))
    with pytest.raises(InternalError):
        c.convolve(cube_table, Field.delta(get_window(3, 2)), out_window=get_window(3, 7))


_window_radii = st.integers(1, 6)


def _random_field(window, seed):
    return Field(window, np.random.default_rng(seed).standard_normal(window.count))


@settings(max_examples=40, deadline=None)
@given(a=_window_radii, b=_window_radii, seed=st.integers(0, 2**32 - 1), diag=st.booleans())
def test_convolve_is_self_adjoint(small_table, a, b, seed, diag):
    # <K * f, g> = <f, K * g> for f on one window and g on another
    wa, wb = get_window(2, a), get_window(2, b)
    f, g = _random_field(wa, seed), _random_field(wb, seed + 1)
    lhs = c.convolve(small_table, f, include_diagonal=diag, out_window=wb).values @ g.values
    rhs = f.values @ c.convolve(small_table, g, include_diagonal=diag, out_window=wa).values
    absf = Field(wa, np.abs(f.values))
    scale = c.convolve(small_table, absf, include_diagonal=diag, out_window=wb).values @ np.abs(g.values)
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(
    a=_window_radii,
    seed=st.integers(0, 2**32 - 1),
    # subnormal scales round s*f to multiples of 5e-324 before convolve runs,
    # a relative error no double can keep below the bound
    s=st.floats(-10.0, 10.0, allow_subnormal=False),
    t=st.floats(-10.0, 10.0, allow_subnormal=False),
    diag=st.booleans(),
)
def test_convolve_is_linear(small_table, a, seed, s, t, diag):
    w = get_window(2, a)
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


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_heat_semigroup_apply_rejects_a_non_finite_time(t):
    with pytest.raises(InputError, match=f"time must be finite and >= 0, got {t}"):
        c.heat_semigroup_apply(Field.delta(get_window(2, 3)), t)


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
    ref = bi.embed(out4.window).values
    assert np.allclose(out4.values, ref, rtol=0, atol=1e-12)
    with pytest.raises(ParameterError):
        c.fractional_laplacian(0.0, u)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, -1.0])
def test_fractional_laplacian_rejects_a_non_finite_or_negative_alpha(alpha):
    with pytest.raises(ParameterError, match="alpha"):
        c.fractional_laplacian(alpha, Field.delta(get_window(2, 3)))


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
    w = get_window(dim, data.draw(st.integers(1, top)))
    out_w = get_window(dim, data.draw(st.integers(1, top + 2)))
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


def _semigroup_sum(alpha, u, out_w):
    """(-Delta)^{alpha/2} u on out_w as the quadrature sum sum_t c_t (S_t u - u) plus the tail.

    S_t is read site by site from heat_kernel; even integer powers of -Delta
    come first, from fractional_laplacian, whose integer part is exact.
    """
    k = int(alpha // 2)
    s = alpha / 2.0 - k
    if k:
        u = c.fractional_laplacian(2.0 * k, u)
    w, dim = u.window, u.window.dim
    decades = 4
    T = kernels._T_SPLIT * kernels._SEGMENT_RATIO**decades
    here = resize_rows(u.values, w, out_w)
    gaps = np.sort(np.abs(out_w.sites[:, None, :] - w.sites[None, :, :]), axis=-1).reshape(-1, dim)
    keys, slot = np.unique(gaps, axis=0, return_inverse=True)
    total = np.zeros(out_w.count)
    for ts, cs in kernels._time_segments(-s, 1.0 - s, -1.0, QuadratureSpec(), decades):
        for t, ct in zip(ts, cs):
            kt = np.array([heat_kernel(t, tuple(v), dim) for v in keys])
            total += ct * (kt[slot].reshape(out_w.count, w.count) @ u.values - here)
    total += u.values.sum() * (4.0 * np.pi) ** (-dim / 2.0) * T ** (-(dim / 2.0 + s)) / (dim / 2.0 + s)
    total -= here * T**-s / s
    return total / math.gamma(-s)


# (dim, input radius, output radius, alpha): output windows smaller and
# larger than the input, alpha in (0, 2) and past 2.  Both sums cancel
# about sum_t c_t against a result scaled by 1/Gamma(-s) -> 0 as alpha -> 2,
# so near alpha = 2 their round-off alone exceeds the tolerance: at 1.99 the
# oracle itself is 2.7e-11 from a 40-digit evaluation of the same sum
@pytest.mark.parametrize(
    "dim, r_in, r_out, alpha",
    [
        (1, 3, 1, 0.3),
        (1, 1, 3, 1.7),
        (1, 2, 3, 2.5),
        (1, 3, 2, 3.3),
        (2, 3, 1, 1.0),
        (2, 1, 3, 0.6),
        (2, 2, 1, 2.5),
        (2, 1, 2, 3.3),
        (3, 2, 1, 1.3),
        (3, 1, 2, 1.9),
        (3, 1, 2, 2.5),
        (3, 2, 1, 3.3),
    ],
)
def test_fractional_laplacian_matches_the_semigroup_sum(dim, r_in, r_out, alpha):
    w, out_w = get_window(dim, r_in), get_window(dim, r_out)
    u = Field(w, np.random.default_rng(dim * 100 + r_in * 10 + r_out).standard_normal(w.count))
    got = c.fractional_laplacian(alpha, u, out_window=out_w).values
    want = _semigroup_sum(alpha, u, out_w)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_green_table_inverts_fractional_laplacian(desk_table):
    # convolution with the subordination kernel, then the half-Laplacian,
    # reproduces a compactly supported source at interior sites
    f = Field.delta(get_window(2, 2))
    v = c.convolve(desk_table, f, include_diagonal=True, out_window=get_window(2, 30))
    w = c.fractional_laplacian(1.0, v)
    interior = np.abs(w.window.sites).sum(axis=1) <= 2
    err = np.abs(w.values - f.embed(w.window).values)[interior].max()
    assert err <= 1e-4


def test_asymptotics_bracket_and_cross_method(small_table):
    c1, c2 = c.asymptotics_bracket(small_table, 5, 12)
    assert 0.0 < c1 <= c2
    assert c2 / c1 <= 10.0
    assert c.cross_method_deviation(small_table, 8) <= 1e-6
    # |v|_1 reaches dim * m_max = 24 on the table, so 25 starts past it
    with pytest.raises(InputError):
        c.asymptotics_bracket(small_table, 25, 30)


def test_table_diagnostics_reject_empty_or_degenerate_ranges(small_table):
    # v = 0 would scale to 0 and pull c1 down to 0.0
    for r_min in (0, -3):
        with pytest.raises(InputError, match="r_min must be >= 1"):
            c.asymptotics_bracket(small_table, r_min, 3)
    assert c.asymptotics_bracket(small_table, 1, 3)[0] > 0.0
    for r_max in (-1, -5):
        with pytest.raises(InputError, match="r_max must be >= 0"):
            c.cross_method_deviation(small_table, r_max)
    assert 0.0 <= c.cross_method_deviation(small_table, 0) <= 1e-6
