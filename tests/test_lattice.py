"""Lattice geometry against brute-force enumeration oracles."""

import itertools
from math import comb

import numpy as np
import pytest

from choquard import (
    BALL,
    BOX,
    InputError,
    LatticeWindow,
    PotentialSpec,
    SiteSet,
    ball,
    get_window,
    vertex_boundary,
)


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


def test_ball_window_counts_growth():
    w = get_window(2, 3, BALL)
    assert w.count == growth_function(3, 2)
    assert w.contains((2, 1))
    assert not w.contains((2, 2))


def test_indices_of_marks_outside_sites():
    w = get_window(2, 2)
    coords = np.array([[0, 0], [2, 2], [3, 0], [-2, 1]])
    idx = w.indices_of(coords)
    assert idx[0] == w.index_of((0, 0))
    assert idx[2] == -1
    assert (idx[[0, 1, 3]] >= 0).all()


def test_neighbors_table_matches_direct_lookup():
    w = get_window(2, 2, BALL)
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    for idx in range(w.count):
        site = tuple(int(x) for x in w.sites[idx])
        expected = []
        for step in steps:
            nb = tuple(s + d for s, d in zip(site, step))
            expected.append(w.index_of(nb) if w.contains(nb) else w.count)
        assert sorted(int(x) for x in w.neighbors[idx]) == sorted(expected)


def test_enlarged_window_keeps_shape():
    w = get_window(2, 2, BALL)
    big = w.enlarged(2)
    assert big.radius == 4 and big.shape == BALL
    assert get_window(3, 1).enlarged(1) == get_window(3, 2)


def test_window_validation():
    with pytest.raises(InputError):
        LatticeWindow(0, 3)
    with pytest.raises(InputError):
        LatticeWindow(2, 0)
    with pytest.raises(InputError):
        LatticeWindow(2, 3, "disc")
    with pytest.raises(InputError):
        ball((0, 0), -1)


def test_get_window_is_memoised():
    assert get_window(2, 5) is get_window(2, 5)
    assert get_window(2, 5) == LatticeWindow(2, 5)
    assert get_window(2, 5) != get_window(2, 5, BALL)
