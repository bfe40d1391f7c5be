"""Lattice geometry against brute-force enumeration oracles."""

import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from choquard import (
    Field,
    InputError,
    LatticeWindow,
    PotentialSpec,
    SiteSet,
    ball,
    get_window,
    gradient_form,
    laplacian,
    vertex_boundary,
)
from choquard.lattice import _fold, difference_rows, resize_rows, stencil_rows
from choquard.variational import _difference_operator


def growth_function(r, dim):
    """Number of sites in a word-metric ball of radius r in Z^dim, in closed form."""
    return sum((1 << i) * comb(dim, i) * comb(r, i) for i in range(dim + 1))


def brute_ball(center, r):
    dim = len(center)
    out = set()
    for offset in itertools.product(range(-r, r + 1), repeat=dim):
        if sum(abs(o) for o in offset) <= r:
            out.add(tuple(c + o for c, o in zip(center, offset)))
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
def test_ball_matches_enumeration(dim, r):
    center = tuple(range(dim))
    got = set(ball(center, r))
    assert got == brute_ball(center, r)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("r", [0, 1, 2, 5])
def test_growth_function_counts_ball_sites(dim, r):
    assert growth_function(r, dim) == len(brute_ball((0,) * dim, r))


def test_word_distance_is_l1():
    # the distance profile of a one-site well is the word distance to that site
    assert PotentialSpec(well=SiteSet([(0, 2)])).values_at(np.array([[3, -1]])).tolist() == [6.0]
    assert PotentialSpec(well=SiteSet([(0,)])).values_at(np.array([[0]])).tolist() == [0.0]
    with pytest.raises(InputError):
        PotentialSpec(well=SiteSet([(1,)])).values_at(np.array([[1, 2]]))


def test_vertex_boundary_is_unit_shell():
    region = ball((0, 0), 2)
    expected = brute_ball((0, 0), 3) - brute_ball((0, 0), 2)
    assert set(vertex_boundary(region)) == expected


def test_siteset_membership_union_connectivity():
    a = SiteSet([(0, 0), (1, 0)])
    b = SiteSet([(5, 5)])
    assert (0, 0) in a and (5, 5) not in a
    merged = a.union(b)
    assert len(merged) == 3
    assert a.is_connected()
    assert not merged.is_connected()
    assert SiteSet([]).as_array().shape[0] == 0


def test_box_window_sites_and_indexing():
    w = get_window(2, 3)
    assert w.count == 7 * 7
    for idx in range(w.count):
        assert w.index_of(w.sites[idx]) == idx
    assert w.contains((3, -3))
    assert not w.contains((4, 0))
    with pytest.raises(InputError):
        w.index_of((4, 0))


def test_indices_of_marks_outside_sites():
    w = get_window(2, 2)
    coords = np.array([[0, 0], [2, 2], [3, 0], [-2, 1]])
    idx = w.indices_of(coords)
    assert idx[0] == w.index_of((0, 0))
    assert idx[2] == -1
    assert (idx[[0, 1, 3]] >= 0).all()


def test_stencil_rows_slots_match_direct_lookup():
    # stencil_rows reads, at each site of the enlarged window, the value of
    # each neighbour in the slot order -e_1, +e_1, -e_2, +e_2, and 0 outside
    w = get_window(2, 2)
    big = w.enlarged(1)
    _, around = stencil_rows(w, np.arange(1, w.count + 1))
    slots = np.stack([s.reshape(big.count) for s in around], axis=1)
    steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    for idx in range(big.count):
        site = tuple(int(x) for x in big.sites[idx])
        expected = []
        for step in steps:
            nb = tuple(s + d for s, d in zip(site, step))
            expected.append(w.index_of(nb) + 1 if w.contains(nb) else 0)
        assert [int(x) for x in slots[idx]] == expected


def test_enlarged_window_keeps_shape():
    w = get_window(2, 2)
    big = w.enlarged(2)
    assert big.radius == 4 and big.dim == 2
    assert big.count == 9 * 9
    assert get_window(3, 1).enlarged(1) == get_window(3, 2)


def test_window_validation():
    with pytest.raises(InputError):
        LatticeWindow(0, 3)
    with pytest.raises(InputError):
        LatticeWindow(2, 0)
    with pytest.raises(InputError):
        ball((0, 0), -1)


def test_ball_reads_an_integral_float_radius_and_rejects_a_fractional_one():
    assert ball((0, 0), 2.0) == ball((0, 0), 2)
    assert ball((1, -1, 0), 3.0) == ball((1, -1, 0), 3)
    with pytest.raises(InputError, match="radius must be an integer"):
        ball((0, 0), 2.5)


def test_get_window_is_memoised():
    assert get_window(2, 5) is get_window(2, 5)
    # one window however the arguments are spelled
    assert get_window(2, 5) is get_window(dim=2, radius=5)
    assert get_window(2, 5) is get_window(2, radius=5)
    assert get_window(2, 5).enlarged(1) is get_window(2, 6)
    assert get_window(2, 5) == LatticeWindow(2, 5)
    assert get_window(2, 5) != get_window(3, 5)


def test_windows_reject_non_integer_sizes():
    # a fractional size is rejected, not truncated
    with pytest.raises(InputError, match="radius must be an integer"):
        get_window(2, 2.5)
    with pytest.raises(InputError, match="dim must be an integer"):
        get_window(2.9, 3)
    assert get_window(2, 3.0) is get_window(2, 3)
    assert get_window(2, 3.0).radius == 3 and type(get_window(2, 3.0).radius) is int


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 3), radius=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_box_indexing_matches_the_c_order_enumeration(dim, radius, seed):
    w = get_window(dim, radius)
    sites = list(itertools.product(range(-radius, radius + 1), repeat=dim))
    index = {site: i for i, site in enumerate(sites)}
    assert w.count == len(sites)
    assert [tuple(site) for site in w.sites.tolist()] == sites
    probes = np.random.default_rng(seed).integers(-radius - 2, radius + 3, size=(50, dim))
    assert w.indices_of(probes).tolist() == [index.get(tuple(p), -1) for p in probes.tolist()]
    for p in probes.tolist():
        assert w.contains(p) == (tuple(p) in index)
        if tuple(p) in index:
            assert w.index_of(p) == index[tuple(p)]


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 3),
    radii=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    lead=st.lists(st.integers(1, 3), max_size=2),
    dtype=st.sampled_from([np.int16, np.int64, np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_resize_rows_matches_the_site_lookup(dim, radii, lead, dtype, seed):
    # a smaller target crops the centred box, a larger one zero-pads it
    source, target = get_window(dim, radii[0]), get_window(dim, radii[1])
    x = np.random.default_rng(seed).integers(-99, 100, size=(*lead, source.count)).astype(dtype)
    idx = target.indices_of(source.sites)
    kept = idx >= 0
    want = np.zeros((*lead, target.count), dtype=dtype)
    want[..., idx[kept]] = x[..., kept]
    got = resize_rows(x, source, target)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


_slot_values = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0])


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), data=st.data())
def test_fold_adds_the_slots_as_numpy_sums_them(dim, data):
    # bit for bit, signed zeros included: rows of -0.0 sum to +0.0 both ways
    rows = data.draw(st.integers(1, 5))
    g = data.draw(arrays(np.float64, (rows, 3, 2 * dim), elements=_slot_values))
    zero_rows = data.draw(st.lists(st.integers(0, rows - 1), max_size=rows))
    g[zero_rows] = -0.0
    got, want = _fold(g[..., slot] for slot in range(2 * dim)), g.sum(axis=-1)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _neighbour_slots(window):
    """Index in ``window`` of each site's neighbour in the slots -e_1, +e_1, -e_2, ...; -1 outside."""
    slots = []
    for axis in range(window.dim):
        for delta in (-1, 1):
            step = np.zeros(window.dim, dtype=np.int64)
            step[axis] = delta
            slots.append(window.indices_of(window.sites + step))
    return np.stack(slots, axis=-1)


def _stencils_by_lookup(window, x, y):
    """Rows of Delta x and Gamma(x, y) on window.enlarged(1) from the neighbour lookup."""
    big = window.enlarged(1)
    nb = _neighbour_slots(big)

    def values(rows):
        on_big = np.zeros(rows.shape[:-1] + (big.count,))
        on_big[..., big.indices_of(window.sites)] = rows
        return on_big, np.where(nb >= 0, on_big[..., nb], 0.0)

    # numpy sums the stacked slots over the last axis in slot order from +0.0
    (xe, xn), (ye, yn) = values(x), values(y)
    lap = xn.sum(axis=-1) - 2.0 * big.dim * xe
    return lap, 0.5 * ((xn - xe[..., None]) * (yn - ye[..., None])).sum(axis=-1)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), radius=st.integers(1, 4), data=st.data())
def test_stencils_match_the_neighbour_lookup_bit_for_bit(dim, radius, data):
    w = get_window(dim, radius)
    k = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x, y = rng.standard_normal((2, k, w.count)) * rng.choice([1.0, 0.0, -0.0], size=(2, k, w.count))
    # rows of -0.0 have stencils of +0.0
    zero_rows = data.draw(st.lists(st.integers(0, k - 1), max_size=k))
    x[zero_rows] = -0.0
    y[zero_rows] = -0.0
    lap_xx, gamma_xx = _stencils_by_lookup(w, x, x)
    gamma_xy = _stencils_by_lookup(w, x, y)[1]
    assert not np.signbit(np.stack([lap_xx, gamma_xx, gamma_xy])[:, zero_rows]).any()
    lap, gamma = difference_rows(w, x)
    assert lap.tobytes() == lap_xx.tobytes()
    assert gamma.tobytes() == gamma_xx.tobytes()
    assert difference_rows(w, x, y)[1].tobytes() == gamma_xy.tobytes()
    for i in range(k):
        single_lap, single_gamma = difference_rows(w, x[i])
        assert single_lap.tobytes() == lap_xx[i].tobytes()
        assert single_gamma.tobytes() == gamma_xx[i].tobytes()
        u, v = Field(w, x[i]), Field(w, y[i])
        assert laplacian(u).window == w.enlarged(1)
        assert laplacian(u).values.tobytes() == lap_xx[i].tobytes()
        assert gradient_form(u, u).values.tobytes() == gamma_xx[i].tobytes()
        assert gradient_form(u, v).values.tobytes() == gamma_xy[i].tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("radius", [1, 2, 5])
def test_difference_operator_matches_the_neighbour_lookup_matrix(dim, radius):
    w = get_window(dim, radius)
    big = w.enlarged(1)
    # Delta from the window to big reads, at each site of big, the window
    # index of the site (weight -2N) and of its 2N neighbours (weight 1)
    col = w.indices_of(big.sites)
    slots = _neighbour_slots(big)
    reads = np.concatenate([col[:, None], np.where(slots >= 0, col[slots], -1)], axis=1)
    rows, slot = np.nonzero(reads >= 0)
    weights = np.where(slot == 0, -2.0 * dim, 1.0)
    lap = sparse.csr_matrix((weights, (rows, reads[rows, slot])), shape=(big.count, w.count))
    want = (lap.T @ lap - lap[big.indices_of(w.sites)]).tocsr().astype(np.int16)
    want.sort_indices()
    got = _difference_operator(w)
    assert got.dtype == np.int16
    assert got.has_sorted_indices
    for part in ("indptr", "indices", "data"):
        assert getattr(got, part).tobytes() == getattr(want, part).tobytes(), part
