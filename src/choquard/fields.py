"""Real-valued fields on lattice windows, zero-extended outside.

A field stores one float per window site in the window's index order.  All
operators in the package treat a field as a finitely supported function on
the whole lattice, so embedding into a larger window never changes values.
Serialization writes only the support, with shortest round-trip float
formatting, so save followed by load reproduces the values bit for bit.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import InputError
from .lattice import LatticeWindow, SiteSet, _as_site, get_window, resize_rows

_FIELD_FORMAT = "lattice-field v1"
# sites per block of lines that save_field formats at once
_SAVE_BLOCK = 1024


class Field:
    """Values attached to the sites of a window."""

    __slots__ = ("window", "values")

    def __init__(self, window: LatticeWindow, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (window.count,):
            raise InputError(f"expected {window.count} values for {window}, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InputError("field values must be finite")
        self.window = window
        self.values = arr

    @classmethod
    def zero(cls, window: LatticeWindow) -> "Field":
        return cls(window, np.zeros(window.count))

    @classmethod
    def delta(cls, window: LatticeWindow, site: Sequence[int] = None) -> "Field":
        """Unit point mass at a site (default: the origin)."""
        values = np.zeros(window.count)
        where = tuple([0] * window.dim) if site is None else site
        values[window.index_of(where)] = 1.0
        return cls(window, values)

    @classmethod
    def from_sites(cls, window: LatticeWindow, entries: Dict[Tuple[int, ...], float]) -> "Field":
        values = np.zeros(window.count)
        for site, val in entries.items():
            values[window.index_of(site)] = float(val)
        return cls(window, values)

    def embed(self, target: LatticeWindow) -> "Field":
        """The same function on a window containing every site of the current one."""
        if target == self.window:
            return self
        if target.dim != self.window.dim or target.radius < self.window.radius:
            raise InputError(f"{target} does not contain {self.window}")
        return Field(target, resize_rows(self.values, self.window, target))

    def support(self) -> SiteSet:
        nz = np.nonzero(self.values)[0]
        return SiteSet(tuple(int(c) for c in self.window.sites[i]) for i in nz)

    def is_supported_in(self, region: SiteSet) -> bool:
        nz = np.nonzero(self.values)[0]
        return all(tuple(int(c) for c in self.window.sites[i]) in region for i in nz)

    def translated(self, shift: Sequence[int]) -> "Field":
        """The field x -> u(x - shift) for an integer shift; the moved support must stay inside the window."""
        offset = np.asarray(_as_site(shift), dtype=np.int64)
        if offset.shape != (self.window.dim,):
            raise InputError(f"shift must have {self.window.dim} coordinates, got {offset.shape}")
        nz = np.nonzero(self.values)[0]
        moved = self.window.sites[nz] + offset
        idx = self.window.indices_of(moved)
        if np.any(idx < 0):
            raise InputError("translation pushes the support outside the window")
        values = np.zeros(self.window.count)
        values[idx] = self.values[nz]
        return Field(self.window, values)

    def _require_same_window(self, other: "Field") -> None:
        if self.window != other.window:
            raise InputError(f"window mismatch: {self.window} vs {other.window}")

    def __add__(self, other: "Field") -> "Field":
        self._require_same_window(other)
        return Field(self.window, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        self._require_same_window(other)
        return Field(self.window, self.values - other.values)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.window, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.window, -self.values)

    def __repr__(self) -> str:
        return f"Field({self.window!r}, support={int(np.count_nonzero(self.values))})"


def save_field(u: Field, path) -> None:
    """Write the support of u, one ``coords value`` line per site.

    The lines are formatted and written in blocks of _SAVE_BLOCK sites, so
    the Python objects of the whole support never exist at once.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    nz = np.nonzero(u.values)[0]
    header = [
        _FIELD_FORMAT,
        f"dim {u.window.dim}",
        f"radius {u.window.radius}",
        "shape box",
        f"support {nz.size}",
    ]
    with path.open("w") as out:
        out.write("\n".join(header) + "\n")
        for start in range(0, nz.size, _SAVE_BLOCK):
            block = nz[start : start + _SAVE_BLOCK]
            sites = [" ".join(map(str, site)) for site in u.window.sites[block].tolist()]
            out.write("".join(f"{site} {value!r}\n" for site, value in zip(sites, u.values[block].tolist())))


def load_field(path) -> Field:
    """Read a field that save_field wrote; a malformed file raises InputError naming it."""
    path = Path(path)
    lines = path.read_text().splitlines()
    try:
        if not lines or lines[0] != _FIELD_FORMAT:
            raise InputError("unrecognised field file")
        header = dict(line.partition(" ")[::2] for line in lines[1:5])
        dim, radius, count = int(header["dim"]), int(header["radius"]), int(header["support"])
        if header["shape"] != "box":
            raise InputError(f"bad window shape {header['shape']!r}")
        window = get_window(dim, radius)
        rows = [line.split() for line in lines[5:] if line.strip()]
        if len(rows) != count:
            raise InputError(f"expected {count} support rows, found {len(rows)}")
        values = np.zeros(window.count)
        seen = set()
        for row in rows:
            if len(row) != dim + 1:
                raise InputError(f"row {' '.join(row)!r} is not {dim} coordinates and a value")
            site = tuple(int(c) for c in row[:dim])
            idx = window.index_of(site)
            if idx in seen:
                raise InputError(f"duplicate site {site}")
            seen.add(idx)
            values[idx] = float(row[dim])
        return Field(window, values)
    except KeyError as exc:
        raise InputError(f"missing header line {exc} in {path}") from None
    except ValueError as exc:
        raise InputError(f"{exc} in {path}") from None
