"""Finite windows of the integer lattice Z^N under the word metric.

The lattice is the Cayley graph of Z^N with generators +/- e_i, so the graph
distance between sites is the L1 distance and each site has 2N neighbours.
This module provides balls, vertex boundaries of finite site sets, the indexed
computational windows (boxes [-R, R]^N) on which fields are stored, and, on
rows of window values read as box grids, the centred crop or zero-pad to
another box (resize_rows), the neighbour shifts (stencil_rows) and the
difference stencils (difference_rows).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError

Site = Tuple[int, ...]


def _as_int(x, name: str) -> int:
    """x as an int; a value that does not equal its int raises InputError."""
    value = int(x)
    if value != x:
        raise InputError(f"{name} must be an integer, got {x!r}")
    return value


def _as_site(x: Sequence[int]) -> Site:
    site = tuple(int(c) for c in x)
    for c, raw in zip(site, x):
        if c != raw:
            raise InputError(f"site coordinates must be integers, got {x!r}")
    return site


class SiteSet:
    """Immutable, duplicate-free collection of lattice sites of one dimension."""

    def __init__(self, sites: Iterable[Sequence[int]]):
        converted = [_as_site(s) for s in sites]
        dims = {len(s) for s in converted}
        if len(dims) > 1:
            raise InputError(f"sites of mixed dimensions: {sorted(dims)}")
        self._dim = dims.pop() if dims else 0
        self._sites = tuple(sorted(set(converted)))
        self._members = frozenset(self._sites)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def sites(self) -> Tuple[Site, ...]:
        return self._sites

    def as_array(self) -> np.ndarray:
        if not self._sites:
            return np.empty((0, self._dim), dtype=np.int64)
        return np.array(self._sites, dtype=np.int64)

    def __contains__(self, site: Sequence[int]) -> bool:
        return _as_site(site) in self._members

    def __len__(self) -> int:
        return len(self._sites)

    def __iter__(self) -> Iterator[Site]:
        return iter(self._sites)

    def __eq__(self, other) -> bool:
        return isinstance(other, SiteSet) and self._sites == other._sites

    def __hash__(self) -> int:
        return hash(self._sites)

    def __repr__(self) -> str:
        return f"SiteSet({len(self._sites)} sites, dim={self._dim})"

    def union(self, other: "SiteSet") -> "SiteSet":
        return SiteSet(self._sites + other.sites)

    def is_connected(self) -> bool:
        """True when the induced subgraph is connected (empty sets count as connected)."""
        if not self._sites:
            return True
        todo = [self._sites[0]]
        seen = {self._sites[0]}
        while todo:
            current = todo.pop()
            for axis in range(self._dim):
                for delta in (-1, 1):
                    nb = current[:axis] + (current[axis] + delta,) + current[axis + 1:]
                    if nb in self._members and nb not in seen:
                        seen.add(nb)
                        todo.append(nb)
        return len(seen) == len(self._sites)


def ball(center: Sequence[int], r: int) -> SiteSet:
    """Closed word-metric ball: all sites within L1 distance r of the center."""
    c = _as_site(center)
    r = _as_int(r, "radius")
    if not c:
        raise InputError("center must have at least one coordinate")
    if r < 0:
        raise InputError(f"radius must be >= 0, got {r}")
    dim = len(c)
    sites = []
    for offset in itertools.product(range(-r, r + 1), repeat=dim):
        if sum(abs(o) for o in offset) <= r:
            sites.append(tuple(ci + oi for ci, oi in zip(c, offset)))
    return SiteSet(sites)


def vertex_boundary(region: SiteSet) -> SiteSet:
    """Sites outside the region adjacent to at least one site inside it."""
    if len(region) == 0:
        raise InputError("vertex boundary of an empty region is undefined")
    boundary = set()
    for site in region:
        for axis in range(region.dim):
            for delta in (-1, 1):
                nb = site[:axis] + (site[axis] + delta,) + site[axis + 1:]
                if nb not in region:
                    boundary.add(nb)
    return SiteSet(boundary)


class LatticeWindow:
    """Indexed finite window of Z^N: the box [-R, R]^N.

    Sites are enumerated in C order over the box, so a site's index is its
    row-major position, sites and indices 0..count-1 are in fixed bijection,
    and a row of values is the box grid of shape (2R + 1,)^N flattened; a
    neighbour of a site is a shift of that grid by one along an axis.
    """

    def __init__(self, dim: int, radius: int):
        if dim < 1:
            raise InputError(f"dim must be >= 1, got {dim}")
        if radius < 1:
            raise InputError(f"radius must be >= 1, got {radius}")
        self._dim = _as_int(dim, "dim")
        self._radius = _as_int(radius, "radius")

        self._grid_shape = (2 * self._radius + 1,) * self._dim
        self._count = math.prod(self._grid_shape)
        coords = np.indices(self._grid_shape, dtype=np.int64).reshape(self._dim, -1).T - self._radius
        self._sites = np.ascontiguousarray(coords)
        self._sites.setflags(write=False)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def radius(self) -> int:
        return self._radius

    @property
    def count(self) -> int:
        return self._count

    @property
    def sites(self) -> np.ndarray:
        """Array of shape (count, dim) listing site coordinates in index order."""
        return self._sites

    def contains(self, site: Sequence[int]) -> bool:
        s = _as_site(site)
        if len(s) != self._dim:
            raise InputError(f"dimension mismatch: {len(s)} vs {self._dim}")
        return all(abs(c) <= self._radius for c in s)

    def index_of(self, site: Sequence[int]) -> int:
        s = _as_site(site)
        if not self.contains(s):
            raise InputError(f"site {s} is outside the window")
        return int(np.ravel_multi_index(tuple(c + self._radius for c in s), self._grid_shape))

    def indices_of(self, coords: np.ndarray) -> np.ndarray:
        """Indices for an array of sites, -1 where a site lies outside."""
        coords = np.asarray(coords, dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] != self._dim:
            raise InputError(f"expected shape (n, {self._dim}), got {coords.shape}")
        out = np.full(coords.shape[0], -1, dtype=np.int64)
        inbox = (np.abs(coords) <= self._radius).all(axis=1)
        out[inbox] = np.ravel_multi_index(tuple((coords[inbox] + self._radius).T), self._grid_shape)
        return out

    def reach(self, coords: np.ndarray) -> int:
        """Least radius of a window that holds the sites (0 if none)."""
        coords = np.asarray(coords, dtype=np.int64)
        if coords.size == 0:
            return 0
        return int(np.abs(coords).max())

    def enlarged(self, extra: int) -> "LatticeWindow":
        """Window with radius increased by ``extra``."""
        if extra < 0:
            raise InputError(f"extra must be >= 0, got {extra}")
        if extra == 0:
            return self
        return get_window(self._dim, self._radius + extra)

    def __eq__(self, other) -> bool:
        return isinstance(other, LatticeWindow) and self._dim == other._dim and self._radius == other._radius

    def __hash__(self) -> int:
        return hash((self._dim, self._radius))

    def __repr__(self) -> str:
        return f"LatticeWindow(dim={self._dim}, radius={self._radius})"


def get_window(dim: int, radius: int) -> LatticeWindow:
    """Memoised window factory; windows are immutable and safely shared.

    The memo is keyed on (dim, radius) however the call spells them, so
    ``get_window(2, 5)``, ``get_window(dim=2, radius=5)`` and
    ``get_window(2, 5.0)`` are one object.
    """
    return _window(dim, radius)


@lru_cache(maxsize=None)
def _window(dim: int, radius: int) -> LatticeWindow:
    return LatticeWindow(dim, radius)


def resize_rows(x: np.ndarray, source: LatticeWindow, target: LatticeWindow) -> np.ndarray:
    """Rows of values on ``source`` (last axis) on the box of ``target``.

    The centred box grid is cropped to ``target`` or zero-padded out to it,
    in the dtype of x.
    """
    lead = x.shape[:-1]
    m = min(source.radius, target.radius)

    def shared(window):
        return (Ellipsis,) + (slice(window.radius - m, window.radius + m + 1),) * window.dim

    out = np.zeros(lead + target._grid_shape, dtype=x.dtype)
    out[shared(target)] = x.reshape(lead + source._grid_shape)[shared(source)]
    return out.reshape(lead + (target.count,))


def stencil_rows(window: LatticeWindow, x: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Rows x of values on window, as grids on window.enlarged(1) and its neighbour shifts.

    Returns the grid at the sites of the enlarged window, shape leading axes
    + (2R + 3,)^N, and the grids at their 2N neighbours in the slot order
    -e_1, +e_1, -e_2, ...; all are views of one copy of x zero-padded by
    two sites.
    """
    pad = window.enlarged(2)
    grid = resize_rows(x, window, pad).reshape(x.shape[:-1] + pad._grid_shape)
    inner = (slice(1, -1),) * window.dim
    around = []
    for axis in range(window.dim):
        for shifted in (slice(None, -2), slice(2, None)):
            around.append(grid[(Ellipsis,) + inner[:axis] + (shifted,) + inner[axis + 1:]])
    return grid[(Ellipsis,) + inner], around


def _fold(terms: Iterable[np.ndarray]) -> np.ndarray:
    """Sum of the terms as one left fold from the first term + 0.0.

    numpy sums a last axis of fewer than 8 entries in the same order from
    +0.0, so for the 2N <= 6 neighbour slots of dims 1-3 the bits, signed
    zeros included, are those of a sum over the stacked slots.
    """
    terms = iter(terms)
    total = next(terms) + 0.0
    for term in terms:
        total += term
    return total


def difference_rows(window: LatticeWindow, x: np.ndarray, y: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Rows of Delta x and of Gamma(x, y) (y defaults to x) on window.enlarged(1).

    x and y hold rows of zero-extended values on the window (last axis).  Each
    sum over the neighbours of a site folds the 2N slots of stencil_rows in
    order, so a row's values do not depend on the batch.
    """
    shape = x.shape[:-1] + (window.enlarged(1).count,)
    here, around = stencil_rows(window, x)
    lap = _fold(around) - 2.0 * window.dim * here
    if y is None:
        terms = (np.square(nb - here) for nb in around)
    else:
        y_here, y_around = stencil_rows(window, y)
        terms = ((nb - here) * (y_nb - y_here) for nb, y_nb in zip(around, y_around))
    return lap.reshape(shape), (0.5 * _fold(terms)).reshape(shape)
