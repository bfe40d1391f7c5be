"""Difference operators, Sobolev-type norms, and nonlocal energies on windows.

The graph Laplacian, the carre du champ bilinear form and the biharmonic
operator act on zero-extended fields; their outputs live on windows enlarged
by the stencil width (one site for first and second order, two for the
biharmonic), which makes lattice-wide sums of the results exact.  On top of
these the module defines the squared norms of the weighted energy space
(with a confining potential scaled by a coupling), the plain second-order
Sobolev norm, the Dirichlet norm over a well, the nonlocal pair energy
driven by a tabulated kernel, and sampling diagnostics for the convolution
inequality of Hardy-Littlewood-Sobolev type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import kernels as _kernels
from .errors import DomainError, InputError, ParameterError
from .fields import Field
from .lattice import LatticeWindow, SiteSet, ball, vertex_boundary

PROFILE_DISTANCE = "distance"
PROFILE_CAPPED = "capped"
PROFILE_QUADRATIC = "quadratic"
_PROFILES = (PROFILE_DISTANCE, PROFILE_CAPPED, PROFILE_QUADRATIC)


# ---------------------------------------------------------------------------
# difference operators
# ---------------------------------------------------------------------------


def laplacian(u: Field) -> Field:
    """Graph Laplacian (Delta u)(x) = sum_{y ~ x} (u(y) - u(x)).

    Returned on the window enlarged by one site, outside which the result of
    a zero-extended field vanishes identically.
    """
    big = u.window.enlarged(1)
    v = u.embed(big)
    padded = np.append(v.values, 0.0)
    neighbor_sum = padded[big.neighbors].sum(axis=1)
    return Field(big, neighbor_sum - 2.0 * big.dim * v.values)


def gradient_form(u: Field, v: Field) -> Field:
    """Carre du champ Gamma(u, v)(x) = (1/2) sum_{y ~ x} (u(y)-u(x))(v(y)-v(x))."""
    if u.window != v.window:
        raise InputError(f"window mismatch: {u.window} vs {v.window}")
    big = u.window.enlarged(1)
    ue, ve = u.embed(big), v.embed(big)
    up = np.append(ue.values, 0.0)
    vp = np.append(ve.values, 0.0)
    du = up[big.neighbors] - ue.values[:, None]
    dv = vp[big.neighbors] - ve.values[:, None]
    return Field(big, 0.5 * (du * dv).sum(axis=1))


def biharmonic(u: Field) -> Field:
    """Delta(Delta u), returned on the window enlarged by two sites."""
    return laplacian(laplacian(u))


# ---------------------------------------------------------------------------
# confining potential
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PotentialSpec:
    """Confining potential a(x) built from the word distance to a well.

    The well is the zero set of the potential; profiles are the raw distance,
    the distance capped at ``cap`` or the squared distance.  ``bound`` is a
    level M > 0 whose sublevel set {a <= M} must be finite and nonempty (for
    the capped profile this forces bound < cap).
    """

    well: SiteSet
    bound: float = 1.0
    profile: str = PROFILE_DISTANCE
    cap: Optional[float] = None

    def __post_init__(self):
        if len(self.well) == 0:
            raise InputError("the potential well must be nonempty")
        if not self.well.is_connected():
            raise InputError("the potential well must be connected")
        if not self.bound > 0.0:
            raise ParameterError(f"bound must be > 0, got {self.bound}")
        if self.profile not in _PROFILES:
            raise ParameterError(f"profile must be one of {_PROFILES}, got {self.profile!r}")
        if self.profile == PROFILE_CAPPED:
            if self.cap is None or not self.cap > 0.0:
                raise ParameterError("capped profile requires cap > 0")
            if not self.bound < self.cap:
                raise ParameterError("capped profile needs bound < cap, else {a <= bound} is infinite")
        elif self.cap is not None:
            raise ParameterError("cap is only meaningful for the capped profile")
        object.__setattr__(self, "_cache", {})

    @property
    def dim(self) -> int:
        return self.well.dim

    def _distances(self, coords: np.ndarray) -> np.ndarray:
        well = self.well.as_array()
        return np.abs(coords[:, None, :] - well[None, :, :]).sum(axis=2).min(axis=1)

    def values_at(self, coords: np.ndarray) -> np.ndarray:
        """Potential values at an array of sites of shape (n, dim)."""
        coords = np.asarray(coords, dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] != self.dim:
            raise InputError(f"expected shape (n, {self.dim}), got {coords.shape}")
        dist = self._distances(coords).astype(float)
        if self.profile == PROFILE_DISTANCE:
            return dist
        if self.profile == PROFILE_CAPPED:
            return np.minimum(dist, self.cap)
        return dist**2

    def values_on(self, window: LatticeWindow) -> np.ndarray:
        cached = self._cache.get(window)
        if cached is None:
            cached = self.values_at(window.sites)
            cached.setflags(write=False)
            self._cache[window] = cached
        return cached

    def sublevel_set(self, level: Optional[float] = None) -> SiteSet:
        """The finite set {a <= level}; defaults to the stored bound."""
        m = self.bound if level is None else float(level)
        if m < 0.0:
            raise InputError(f"level must be >= 0, got {m}")
        if self.profile == PROFILE_CAPPED and m >= self.cap:
            raise DomainError(f"sublevel {{a <= {m}}} is infinite for cap {self.cap}")
        if self.profile == PROFILE_QUADRATIC:
            reach = int(np.floor(np.sqrt(m)))
        else:
            reach = int(np.floor(m))
        sites = set(self.well.sites)
        for site in self.well:
            for other in ball(site, reach) if reach > 0 else [site]:
                sites.add(other)
        return SiteSet(sites)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def w22_norm_sq(u: Field) -> float:
    """Squared second-order Sobolev norm: sum |Delta u|^2 + |grad u|^2 + u^2."""
    lap = laplacian(u)
    gamma = gradient_form(u, u)
    return float(lap.values @ lap.values + gamma.values.sum() + u.values @ u.values)


def energy_norm_sq(u: Field, potential: PotentialSpec, lam: float) -> float:
    """Squared norm of the energy space with weight 1 + lam * a(x)."""
    if potential.dim != u.window.dim:
        raise InputError("potential dimension does not match the field")
    if not lam > 0.0:
        raise ParameterError(f"coupling must be > 0, got {lam}")
    a_vals = potential.values_on(u.window)
    return w22_norm_sq(u) + lam * float((a_vals * u.values) @ u.values)


def dirichlet_norm_sq(u: Field, well: SiteSet) -> float:
    """Squared norm of the well problem: Delta and gradient sums over the
    closed well (well plus vertex boundary), value sum over the well itself.

    The field must vanish outside the well.
    """
    if not u.is_supported_in(well):
        raise InputError("field is not supported in the well")
    closed = well.union(vertex_boundary(well))
    lap = laplacian(u)
    gamma = gradient_form(u, u)
    idx = lap.window.indices_of(closed.as_array())
    mask = np.zeros(lap.window.count, dtype=bool)
    mask[idx[idx >= 0]] = True
    lap_sq = float(lap.values[mask] @ lap.values[mask])
    grad = float(gamma.values[mask].sum())
    return lap_sq + grad + float(u.values @ u.values)


# ---------------------------------------------------------------------------
# nonlocal energy and convolution inequality diagnostics
# ---------------------------------------------------------------------------


def row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, one per leading index.

    Each row goes through the same BLAS dot as ``x[i] @ y[i]`` on contiguous
    rows, so a row's value depends neither on the batch nor on the layout
    (a strided BLAS dot sums in another order).
    """
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def row_power(x: np.ndarray, e: float) -> np.ndarray:
    """x ** e for an array of per-row values, through numpy's scalar power one value at a time.

    numpy's power of a whole array rounds otherwise than its power of one
    value (it runs a vectorised routine, and takes an exact square root for
    e = 0.5), so a row of a batch would not match the same field alone.
    """
    return np.reshape([value**e for value in np.ravel(x)], np.shape(x))


def pair_sums(
    table: "_kernels.KernelTable", window: LatticeWindow, h: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """K * h (diagonal excluded) and sum_x (K * h)(x) h(x), per row of h.

    The last axis of h holds the sites of the window.  The pair sum runs
    over pairs of distinct sites, so it is exactly 0 for a row with fewer
    than two nonzero sites; FFT round-off must not turn that zero into a
    tiny positive value.
    """
    conv = _kernels.convolve_values(table, window, h)
    return conv, np.where(np.count_nonzero(h, axis=-1) >= 2, row_dot(conv, h), 0.0)


def nonlocal_energy(u: Field, table: "_kernels.KernelTable", p: float) -> float:
    """Pair energy D(u) = sum_x (K * |u|^p)(x) |u(x)|^p, diagonal excluded."""
    if not p > (u.window.dim + table.alpha) / u.window.dim:
        raise ParameterError(
            f"exponent p={p} must exceed (N + alpha)/N = {(u.window.dim + table.alpha) / u.window.dim}"
        )
    return float(pair_sums(table, u.window, np.abs(u.values) ** p)[1])


def hls_ratios(
    table: "_kernels.KernelTable", window: LatticeWindow, u: np.ndarray, v: np.ndarray, r: float, s: float
) -> np.ndarray:
    """Ratio sum (K * u) v / (|u|_r |v|_s) per row of nonnegative window values u and v.

    The last axis holds the sites of the window; all rows are convolved in
    one batch.  The exponents must satisfy 1/r + 1/s + (N - alpha)/N = 2 to
    within 1e-12, the scaling relation under which the ratio is invariant.
    The norms take their roots with row_power, so a row's ratio does not
    depend on the batch.
    """
    n, alpha = window.dim, table.alpha
    balance = 1.0 / r + 1.0 / s + (n - alpha) / n
    if abs(balance - 2.0) > 1e-12:
        raise ParameterError(f"exponents violate 1/r + 1/s + (N-alpha)/N = 2 by {balance - 2.0:.3e}")
    if np.any(u < 0.0) or np.any(v < 0.0):
        raise InputError("hls_ratio requires nonnegative fields")
    sums_u, sums_v = (np.abs(u) ** r).sum(axis=-1), (np.abs(v) ** s).sum(axis=-1)
    denom = row_power(sums_u, 1.0 / r) * row_power(sums_v, 1.0 / s)
    if np.any(denom == 0.0):
        raise DomainError("hls_ratio is undefined for zero fields")
    return row_dot(_kernels.convolve_values(table, window, u), v) / denom


def hls_ratio(u: Field, v: Field, table: "_kernels.KernelTable", r: float, s: float) -> float:
    """Ratio sum (K * u) v / (|u|_r |v|_s) for nonnegative fields (hls_ratios)."""
    if u.window != v.window:
        raise InputError(f"window mismatch: {u.window} vs {v.window}")
    return float(hls_ratios(table, u.window, u.values, v.values, r, s))


def interpolation_check(u: Field, s: float, t: float) -> bool:
    """Whether |u|_t^t <= |u|_s^s * |u|_inf^(t-s) holds (up to round-off slack)."""
    if not 1.0 <= s < t:
        raise InputError(f"need 1 <= s < t, got s={s}, t={t}")
    lhs = float((np.abs(u.values) ** t).sum())
    sup = float(np.abs(u.values).max(initial=0.0))
    rhs = float((np.abs(u.values) ** s).sum()) * sup ** (t - s)
    return lhs <= rhs * (1.0 + 1e-12) + 1e-300


def bump_field(window: LatticeWindow, region: SiteSet, smoothing_time: float = 1.0) -> Field:
    """Indicator of a region smoothed once by the heat semigroup."""
    values = np.zeros(window.count)
    for site in region:
        values[window.index_of(site)] = 1.0
    raw = Field(window, values)
    if smoothing_time == 0.0:
        return raw
    return _kernels.heat_semigroup_apply(raw, smoothing_time)
