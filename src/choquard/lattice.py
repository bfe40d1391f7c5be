"""Finite windows of the integer lattice Z^N under the word metric.

The lattice is the Cayley graph of Z^N with generators +/- e_i, so the graph
distance between sites is the L1 distance and each site has 2N neighbours.
This module provides balls, vertex boundaries of finite site sets, and
indexed computational windows (boxes [-R, R]^N or word-metric balls) on
which fields are stored, with the cached index maps that embed one window
in a larger one.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

from .errors import InputError

Site = Tuple[int, ...]

BOX = "box"
BALL = "ball"

_SHAPES = (BOX, BALL)


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
    """Indexed finite window of Z^N: a box [-R, R]^N or a word-metric ball.

    Sites are enumerated row-major over the bounding box (balls keep the box
    order of their member sites), giving a fixed bijection between sites and
    indices 0..count-1.  The ``neighbors`` array lists the 2N neighbour
    indices per site with ``count`` as the sentinel for exterior neighbours,
    so stencil code can read zero-extended values from a padded array.
    """

    def __init__(self, dim: int, radius: int, shape: str = BOX):
        if dim < 1:
            raise InputError(f"dim must be >= 1, got {dim}")
        if radius < 1:
            raise InputError(f"radius must be >= 1, got {radius}")
        if shape not in _SHAPES:
            raise InputError(f"shape must be one of {_SHAPES}, got {shape!r}")
        self._dim = int(dim)
        self._radius = int(radius)
        self._shape = shape

        side = 2 * self._radius + 1
        axes = [np.arange(-self._radius, self._radius + 1)] * self._dim
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([m.ravel() for m in mesh], axis=1).astype(np.int64)
        if shape == BALL:
            coords = coords[np.abs(coords).sum(axis=1) <= self._radius]
        self._sites = coords
        self._count = coords.shape[0]

        grid = np.full((side,) * self._dim, -1, dtype=np.int64)
        grid[tuple((coords + self._radius).T)] = np.arange(self._count)
        self._index_grid = grid

        nb = np.full((self._count, 2 * self._dim), self._count, dtype=np.int64)
        for axis in range(self._dim):
            for k, delta in enumerate((-1, 1)):
                shifted = coords.copy()
                shifted[:, axis] += delta
                inside = np.abs(shifted[:, axis]) <= self._radius
                idx = np.full(self._count, -1, dtype=np.int64)
                if inside.any():
                    idx[inside] = grid[tuple((shifted[inside] + self._radius).T)]
                slot = 2 * axis + k
                nb[:, slot] = np.where(idx >= 0, idx, self._count)
        self._neighbors = nb
        self._neighbors.setflags(write=False)
        self._sites.setflags(write=False)
        self._index_grid.setflags(write=False)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def radius(self) -> int:
        return self._radius

    @property
    def shape(self) -> str:
        return self._shape

    @property
    def count(self) -> int:
        return self._count

    @property
    def sites(self) -> np.ndarray:
        """Array of shape (count, dim) listing site coordinates in index order."""
        return self._sites

    @property
    def neighbors(self) -> np.ndarray:
        """Array (count, 2*dim) of neighbour indices; ``count`` marks exterior."""
        return self._neighbors

    def contains(self, site: Sequence[int]) -> bool:
        s = _as_site(site)
        if len(s) != self._dim:
            raise InputError(f"dimension mismatch: {len(s)} vs {self._dim}")
        if any(abs(c) > self._radius for c in s):
            return False
        return self._index_grid[tuple(c + self._radius for c in s)] >= 0

    def index_of(self, site: Sequence[int]) -> int:
        s = _as_site(site)
        if not self.contains(s):
            raise InputError(f"site {s} is outside the window")
        return int(self._index_grid[tuple(c + self._radius for c in s)])

    def indices_of(self, coords: np.ndarray) -> np.ndarray:
        """Indices for an array of sites, -1 where a site lies outside."""
        coords = np.asarray(coords, dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] != self._dim:
            raise InputError(f"expected shape (n, {self._dim}), got {coords.shape}")
        out = np.full(coords.shape[0], -1, dtype=np.int64)
        inbox = (np.abs(coords) <= self._radius).all(axis=1)
        if inbox.any():
            out[inbox] = self._index_grid[tuple((coords[inbox] + self._radius).T)]
        return out

    def reach(self, coords: np.ndarray) -> int:
        """Least radius of a window of this shape that holds the sites (0 if none)."""
        coords = np.asarray(coords, dtype=np.int64)
        if coords.size == 0:
            return 0
        if self._shape == BALL:
            return int(np.abs(coords).sum(axis=1).max())
        return int(np.abs(coords).max())

    def enlarged(self, extra: int) -> "LatticeWindow":
        """Window of the same shape with radius increased by ``extra``."""
        if extra < 0:
            raise InputError(f"extra must be >= 0, got {extra}")
        if extra == 0:
            return self
        return get_window(self._dim, self._radius + extra, self._shape)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LatticeWindow)
            and self._dim == other._dim
            and self._radius == other._radius
            and self._shape == other._shape
        )

    def __hash__(self) -> int:
        return hash((self._dim, self._radius, self._shape))

    def __repr__(self) -> str:
        return f"LatticeWindow(dim={self._dim}, radius={self._radius}, shape={self._shape!r})"


@lru_cache(maxsize=None)
def get_window(dim: int, radius: int, shape: str = BOX) -> LatticeWindow:
    """Memoised window factory; windows are immutable and safely shared."""
    return LatticeWindow(dim, radius, shape)


@lru_cache(maxsize=None)
def embedding_map(source: LatticeWindow, target: LatticeWindow) -> np.ndarray:
    """Index in ``target`` of every site of ``source``, built once per pair and read-only."""
    idx = target.indices_of(source.sites)
    if np.any(idx < 0):
        raise InputError(f"{target} does not contain {source}")
    idx.setflags(write=False)
    return idx
