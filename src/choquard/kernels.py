"""Translation-invariant kernels on Z^N and their windowed calculus.

The continuous-time heat kernel of the graph Laplacian on Z^N factorises over
coordinates,

    k_t(v) = prod_i e^{-2t} I_{v_i}(2t),

with I_m the modified Bessel function.  Subordination in time produces the
lattice Green's function of the fractional Laplacian,

    R_alpha(v) = Gamma(alpha/2)^{-1} int_0^inf k_t(v) t^{alpha/2 - 1} dt,

for 0 < alpha < N, which decays like |v|^{alpha - N}.  The Bessel factors come
from ``scipy.special.ive``, and the subordination integral from a
Gauss-Jacobi/Gauss-Legendre time quadrature with a closed-form tail.  The
module tabulates kernels over all difference vectors of a window
(reduced to orbits of the coordinate-permutation-and-sign symmetry group) and
applies tabulated kernels to fields by windowed convolution.  It also
implements the fractional Laplacian (-Delta)^{alpha/2} through the semigroup
integral, which inverts the Green's function on interior sites.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.fft import irfftn, next_fast_len, rfftn
from scipy.special import ive, roots_jacobi

from .fields import Field
from .errors import (
    AccuracyWarning,
    InputError,
    InternalError,
    ParameterError,
)
from .lattice import BOX, LatticeWindow, embedding_map, get_window

GREEN = "green"
RIESZ = "riesz"
KINDS = (GREEN, RIESZ)

_SEGMENT_RATIO = 10.0
# end of the head segment of the time quadrature
_T_SPLIT = 1.0


# ---------------------------------------------------------------------------
# scaled Bessel evaluation
# ---------------------------------------------------------------------------


def scaled_bessel_profile(z: float, m_max: int) -> np.ndarray:
    """e^{-z} I_m(z) for all orders m = 0..m_max at a fixed argument z >= 0.

    The values come from ``scipy.special.ive``, which keeps full relative
    accuracy for large arguments and for orders far beyond sqrt(z), where the
    values underflow gracefully to zero.
    """
    if z < 0.0:
        raise InputError(f"argument must be >= 0, got {z}")
    if m_max < 0:
        raise InputError(f"m_max must be >= 0, got {m_max}")
    return ive(np.arange(m_max + 1), z)


def scaled_bessel_i(m: int, z: float) -> float:
    """Exponentially scaled modified Bessel function e^{-z} I_m(z), integer m >= 0."""
    if m < 0:
        raise InputError(f"order must be >= 0, got {m}")
    if z < 0.0:
        raise InputError(f"argument must be >= 0, got {z}")
    return float(ive(m, z))


# ---------------------------------------------------------------------------
# heat kernel
# ---------------------------------------------------------------------------


def _check_vector(v: Sequence[int], dim: int) -> Tuple[int, ...]:
    vec = tuple(int(c) for c in v)
    if len(vec) != dim:
        raise InputError(f"difference vector has length {len(vec)}, expected {dim}")
    return vec


def heat_kernel(t: float, v: Sequence[int], dim: int) -> float:
    """Transition probability of the continuous-time walk on Z^dim.

    k_t(v) = prod_i e^{-2t} I_{v_i}(2t); k_0 is the indicator of v = 0.
    """
    if dim < 1:
        raise InputError(f"dim must be >= 1, got {dim}")
    if t < 0.0:
        raise InputError(f"time must be >= 0, got {t}")
    vec = _check_vector(v, dim)
    if t == 0.0:
        return 1.0 if all(c == 0 for c in vec) else 0.0
    out = 1.0
    for c in vec:
        out *= scaled_bessel_i(abs(c), 2.0 * t)
    return out


def heat_kernel_spectral(t: float, v: Sequence[int], dim: int, torus_size: int) -> float:
    """Heat kernel via the eigenbasis of the discrete torus (Z/LZ)^dim.

    (1/L^N) sum_theta e^{-t lambda(theta)} cos(theta . v) with
    lambda(theta) = sum_i 2 (1 - cos theta_i); used as an independent
    cross-check of the Bessel product.  The sum factorises over coordinates.
    """
    if dim < 1:
        raise InputError(f"dim must be >= 1, got {dim}")
    if t < 0.0:
        raise InputError(f"time must be >= 0, got {t}")
    vec = _check_vector(v, dim)
    L = int(torus_size)
    max_abs = max((abs(c) for c in vec), default=0)
    if L < max(8, 2 * max_abs + 2):
        raise InputError(f"torus size {L} too small for difference vector {vec}")
    # wrap-around: the torus kernel sums k_t over all lattice translates by L
    if L < max_abs + 13.0 * math.sqrt(max(t, 1.0)):
        warnings.warn(
            f"torus size {L} is small for t={t}; wrap-around may dominate",
            AccuracyWarning,
            stacklevel=2,
        )
    profile = _spectral_profile(t, max_abs, L)
    out = 1.0
    for c in vec:
        out *= float(profile[abs(c)])
    return out


def _spectral_profile(t: float, m_max: int, torus_size: int) -> np.ndarray:
    """One-dimensional torus heat kernel for displacements 0..m_max."""
    theta = (2.0 * np.pi / torus_size) * np.arange(torus_size)
    damp = np.exp(-2.0 * t * (1.0 - np.cos(theta))) / torus_size
    return np.cos(np.outer(np.arange(m_max + 1), theta)) @ damp


# ---------------------------------------------------------------------------
# time quadrature for subordination integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureSpec:
    """Time-axis quadrature for subordination integrals.

    The axis splits into a head segment [0, 1] handled by a Gauss-Jacobi
    rule that absorbs the algebraic endpoint factor exactly, a geometric chain
    of Gauss-Legendre segments from 1 up to an endpoint T (each spanning one
    factor of 10), and a closed-form tail beyond T based on the
    (4 pi t)^{-N/2} expansion of the heat kernel to two correction orders.
    ``nodes`` is the number of nodes per segment.
    """

    nodes: int = 48

    def __post_init__(self):
        if self.nodes < 8:
            raise ParameterError(f"nodes must be >= 8, got {self.nodes}")


def _green_plan(alpha: float, quad: QuadratureSpec, m_max: int):
    """Nodes t_i, effective weights w_i and endpoint T for the Green integral.

    After the plan, int_0^T k_t(v) t^{alpha/2-1} dt = sum_i w_i k_{t_i}(v).
    """
    t1 = _T_SPLIT
    # whole decades above t1 past max(3e4, 100 m_max^2): the tail expansion
    # parameter is m^2 / (4 t), and 100 m^2 keeps the first neglected order
    # below ~1e-8 of the tail
    target = max(3.0e4, 100.0 * float(max(m_max, 1)) ** 2)
    T = t1 * _SEGMENT_RATIO ** max(1, math.ceil(math.log10(target / t1)))
    xj, wj = roots_jacobi(quad.nodes, 0.0, alpha / 2.0 - 1.0)
    ts = [t1 * (xj + 1.0) / 2.0]
    ws = [wj * (t1 / 2.0) ** (alpha / 2.0)]
    xg, wg = leggauss(quad.nodes)
    a = t1
    while a < T * (1.0 - 1e-12):
        b = a * _SEGMENT_RATIO
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        t_seg = half * xg + mid
        ts.append(t_seg)
        ws.append(wg * half * t_seg ** (alpha / 2.0 - 1.0))
        a = b
    return np.concatenate(ts), np.concatenate(ws), T


def _tail_coefficients(vs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """1/t and 1/t^2 coefficients of k_t(v) (4 pi t)^{N/2} for large t.

    Per coordinate e^{-2t} I_m(2t) = (4 pi t)^{-1/2} (1 + a1(m)/t + a2(m)/t^2 + ...)
    with a1(m) = -(4 m^2 - 1)/16 and a2(m) = (4 m^2 - 1)(4 m^2 - 9)/512.
    """
    msq = 4.0 * vs.astype(float) ** 2
    a1 = -(msq - 1.0) / 16.0
    a2 = (msq - 1.0) * (msq - 9.0) / 512.0
    c1 = a1.sum(axis=1)
    c2 = a2.sum(axis=1) + 0.5 * (c1**2 - (a1**2).sum(axis=1))
    return c1, c2


def _green_tail(alpha: float, dim: int, vs: np.ndarray, T: float) -> np.ndarray:
    """Closed form of int_T^inf k_t(v) t^{alpha/2 - 1} dt from the large-t expansion."""
    s = (dim - alpha) / 2.0
    c1, c2 = _tail_coefficients(vs)
    base = (4.0 * np.pi) ** (-dim / 2.0)
    return base * (T**-s / s + c1 * T ** (-s - 1.0) / (s + 1.0) + c2 * T ** (-s - 2.0) / (s + 2.0))


def _bessel_profile(t: float, m_max: int) -> np.ndarray:
    """One-dimensional heat kernel e^{-2t} I_m(2t) for displacements 0..m_max."""
    return scaled_bessel_profile(2.0 * t, m_max)


def _torus_profile(t: float, m_max: int) -> np.ndarray:
    """One-dimensional heat kernel from torus spectral sums, on a torus large
    enough that wrap-around stays negligible."""
    L = int(max(64, 2 * m_max + 4, math.ceil(m_max + 13.0 * math.sqrt(max(t, 1.0)))))
    return _spectral_profile(t, m_max, L)


def _green_values(
    alpha: float,
    dim: int,
    vs: np.ndarray,
    quad: QuadratureSpec,
    profile: Callable[[float, int], np.ndarray],
) -> np.ndarray:
    """Green's function at the rows of vs (nonnegative coordinates).

    ``profile(t, m_max)`` gives the one-dimensional heat kernel k_t at
    displacements 0..m_max; the product over coordinates is k_t(v).
    """
    m_max = int(vs.max()) if vs.size else 0
    ts, ws, T = _green_plan(alpha, quad, m_max)
    kernel = np.ones((ts.size, vs.shape[0]))
    for t_idx, t in enumerate(ts):
        row = profile(t, m_max)
        for axis in range(dim):
            kernel[t_idx] *= row[vs[:, axis]]
    integral = ws @ kernel + _green_tail(alpha, dim, vs, T)
    return integral / math.gamma(alpha / 2.0)


def green_function(alpha: float, v: Sequence[int], dim: int, quad: Optional[QuadratureSpec] = None) -> float:
    """Subordinated lattice Green's function R_alpha(v) for 0 < alpha < dim."""
    if dim < 1:
        raise InputError(f"dim must be >= 1, got {dim}")
    if not 0.0 < alpha < dim:
        raise ParameterError("alpha must lie in (0, N)")
    vec = _check_vector(v, dim)
    quad = quad or QuadratureSpec()
    vs = np.abs(np.array([vec], dtype=np.int64))
    return float(_green_values(alpha, dim, vs, quad, _bessel_profile)[0])


# ---------------------------------------------------------------------------
# kernel tables
# ---------------------------------------------------------------------------


class KernelTable:
    """Kernel values tabulated over all difference vectors of a window.

    Differences of sites of a radius-R window span [-2R, 2R]^N; values are
    stored once per orbit of coordinate permutations and sign flips and
    expanded to an absolute-coordinate lookup grid.  Instances are immutable;
    the kernel spectra that :func:`convolve` needs are cached lazily, one per
    reach r_in + r_out of the window pairs it is called on.
    """

    def __init__(
        self,
        kind: str,
        alpha: float,
        dim: int,
        radius: int,
        quad: QuadratureSpec,
        orbit_keys: np.ndarray,
        orbit_values: np.ndarray,
    ):
        if kind not in KINDS:
            raise InputError(f"kind must be one of {KINDS}, got {kind!r}")
        self.kind = kind
        self.alpha = float(alpha)
        self.dim = int(dim)
        self.radius = int(radius)
        self.quad = quad
        self.orbit_keys = np.asarray(orbit_keys, dtype=np.int64)
        self.orbit_values = np.asarray(orbit_values, dtype=np.float64)
        if self.orbit_values.ndim != 1 or self.orbit_keys.shape != (self.orbit_values.size, self.dim):
            raise InputError("orbit arrays have inconsistent shapes")
        if np.any(self.orbit_values < 0.0) or not np.all(np.isfinite(self.orbit_values)):
            raise InputError("kernel values must be finite and nonnegative")
        self.m_max = 2 * self.radius
        side = self.m_max + 1
        canon = np.sort(self.orbit_keys, axis=1)[:, ::-1]
        order = np.lexsort(canon.T[::-1])
        expect = _canonical_orbits(self.dim, self.m_max)
        if canon.shape != expect.shape or not np.array_equal(canon[order], expect):
            raise InputError("orbit keys do not enumerate the difference range")
        grid = np.empty((side,) * self.dim)
        all_abs = _abs_grid_coords(self.dim, self.m_max)
        sorted_abs = np.sort(all_abs, axis=1)[:, ::-1]
        _, inverse = np.unique(sorted_abs, axis=0, return_inverse=True)
        grid[tuple(all_abs.T)] = self.orbit_values[order][inverse]
        self._grid = grid
        self._spectra: dict = {}

    @property
    def diagonal(self) -> float:
        """Kernel value at the zero difference (0 by convention for riesz)."""
        return float(self._grid[(0,) * self.dim])

    def values_at(self, vs: np.ndarray) -> np.ndarray:
        vs = np.asarray(vs, dtype=np.int64)
        if vs.ndim != 2 or vs.shape[1] != self.dim:
            raise InputError(f"expected shape (n, {self.dim}), got {vs.shape}")
        a = np.abs(vs)
        if a.size and a.max() > self.m_max:
            raise InternalError(
                f"kernel table (radius {self.radius}) lacks difference vectors up to {a.max()}"
            )
        return self._grid[tuple(a.T)]

    def value(self, v: Sequence[int]) -> float:
        vec = _check_vector(v, self.dim)
        return float(self.values_at(np.array([vec], dtype=np.int64))[0])


def _canonical_orbits(dim: int, m_max: int) -> np.ndarray:
    """Sorted-descending absolute difference vectors, one per symmetry orbit."""
    all_abs = _abs_grid_coords(dim, m_max)
    canon = np.sort(all_abs, axis=1)[:, ::-1]
    return np.unique(canon, axis=0)


def _abs_grid_coords(dim: int, m_max: int) -> np.ndarray:
    axes = [np.arange(m_max + 1)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def build_kernel_table(
    kind: str,
    alpha: float,
    window: LatticeWindow,
    quad: Optional[QuadratureSpec] = None,
) -> KernelTable:
    """Tabulate a kernel over the difference range of a window."""
    if kind not in KINDS:
        raise InputError(f"kind must be one of {KINDS}, got {kind!r}")
    if not 0.0 < alpha < window.dim:
        raise ParameterError("alpha must lie in (0, N)")
    quad = quad or QuadratureSpec()

    m_max = 2 * window.radius
    orbits = _canonical_orbits(window.dim, m_max)
    if kind == GREEN:
        values = _green_values(alpha, window.dim, orbits, quad, _bessel_profile)
    else:
        norms = np.sqrt((orbits.astype(float) ** 2).sum(axis=1))
        with np.errstate(divide="ignore"):
            values = norms ** (alpha - window.dim)
        values[norms == 0.0] = 0.0  # convolutions exclude the diagonal
    return KernelTable(kind, alpha, window.dim, window.radius, quad, orbits, values)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def _kernel_spectrum(table: KernelTable, reach: int) -> Tuple[Tuple[int, ...], np.ndarray]:
    """Padded grid shape and real FFT of the kernel over [-reach, reach]^N.

    The kernel, with its diagonal zeroed, sits at offset ``reach`` on each
    axis of a grid padded to a fast FFT length of at least 2 reach + 1, so
    no wrap-around lands on an output site.  One spectrum is cached per reach.
    """
    cached = table._spectra.get(reach)
    if cached is not None:
        return cached
    fold = np.abs(np.arange(-reach, reach + 1))
    kernel = table._grid[np.ix_(*[fold] * table.dim)]
    kernel[(reach,) * table.dim] = 0.0
    shape = (next_fast_len(2 * reach + 1, real=True),) * table.dim
    cached = (shape, rfftn(kernel, s=shape))
    table._spectra[reach] = cached
    return cached


def convolve(
    table: KernelTable,
    f: Field,
    include_diagonal: bool = False,
    out_window: Optional[LatticeWindow] = None,
) -> Field:
    """Windowed kernel convolution (K * f)(x) = sum_{y != x} K(x - y) f(y).

    With ``include_diagonal`` the term K(0) f(x) is added back.  The output
    lives on ``out_window`` (default: the window of f); fields are zero
    outside their windows, so the sum over y runs over the window of f.
    The values come from convolve_values.
    """
    out_w = out_window or f.window
    return Field(out_w, convolve_values(table, f.window, f.values, include_diagonal, out_w))


def convolve_values(
    table: KernelTable,
    window: LatticeWindow,
    values: np.ndarray,
    include_diagonal: bool = False,
    out_window: Optional[LatticeWindow] = None,
) -> np.ndarray:
    """Array core of convolve: one field on ``window`` per row of ``values``.

    The last axis of ``values`` holds the window sites; any leading axes are
    a batch, and the result has the same leading axes and one value per site
    of ``out_window`` (default: ``window``).  The sum is an exact linear
    convolution of the bounding boxes of the two windows, evaluated by a
    zero-padded real FFT over the trailing grid axes against the kernel
    spectrum cached on the table, in O(n log n) time and O(n) memory per row.
    The transforms of a batch run row by row through the same operations as
    a single field, so a row's values do not depend on the batch.
    """
    if table.dim != window.dim:
        raise InputError(f"dimension mismatch: table {table.dim}, field {window.dim}")
    out_w = out_window or window
    if out_w.dim != table.dim:
        raise InputError("output window dimension does not match the table")
    r_in, r_out = window.radius, out_w.radius
    reach = r_in + r_out
    if reach > table.m_max:
        raise InternalError(
            f"kernel table (radius {table.radius}) lacks difference vectors up to {reach}"
        )
    shape, spectrum = _kernel_spectrum(table, reach)
    lead = values.shape[:-1]
    grid = _box_values(window, values).reshape(lead + (2 * r_in + 1,) * table.dim)
    freq = rfftn(grid, s=shape)
    freq *= spectrum
    full = irfftn(freq, s=shape)
    # site x of the output box sits at index x + r_in + reach of the full grid
    out = full[(Ellipsis,) + (slice(2 * r_in, 2 * reach + 1),) * table.dim]
    if include_diagonal:
        m = min(r_in, r_out)
        out[(Ellipsis,) + (slice(r_out - m, r_out + m + 1),) * table.dim] += (
            table.diagonal * grid[(Ellipsis,) + (slice(r_in - m, r_in + m + 1),) * table.dim]
        )
    if out_w.shape == BOX:
        return out.reshape(lead + (-1,))
    return out[(Ellipsis,) + tuple((out_w.sites + r_out).T)]


def asymptotics_bracket(table: KernelTable, r_min: int = 5, r_max: int = 30) -> Tuple[float, float]:
    """Bracket [c1, c2] of value(v) * |v|_1^(N - alpha) over r_min <= |v|_1 <= r_max."""
    norms = np.abs(table.orbit_keys).sum(axis=1)
    mask = (norms >= r_min) & (norms <= r_max)
    if not mask.any():
        raise InputError(f"table radius {table.radius} holds no vectors with |v|_1 in [{r_min}, {r_max}]")
    scaled = table.orbit_values[mask] * norms[mask].astype(float) ** (table.dim - table.alpha)
    return float(scaled.min()), float(scaled.max())


def cross_method_deviation(table: KernelTable, r_max: int = 10) -> float:
    """Largest relative gap to the torus-spectral evaluation on |v|_1 <= r_max.

    Only meaningful for subordination tables; the comparison floor 1e-14
    absorbs summation round-off on values near zero.
    """
    if table.kind != GREEN:
        raise InputError("cross-method comparison applies to subordination tables only")
    norms = np.abs(table.orbit_keys).sum(axis=1)
    vs = table.orbit_keys[norms <= r_max]
    reference = table.values_at(vs)
    other = _green_values(table.alpha, table.dim, np.abs(vs), table.quad, _torus_profile)
    return float(np.max(np.abs(other - reference) / np.maximum(np.abs(reference), 1.0e-14)))


# ---------------------------------------------------------------------------
# heat semigroup and fractional Laplacian
# ---------------------------------------------------------------------------


def _box_embedding(u: Field) -> Field:
    if u.window.shape == BOX:
        return u
    return Field(get_window(u.window.dim, u.window.radius, BOX), _box_values(u.window, u.values))


def _box_values(window: LatticeWindow, values: np.ndarray) -> np.ndarray:
    """Rows of window values on the bounding box of the window, zero off it."""
    if window.shape == BOX:
        return values
    box = get_window(window.dim, window.radius, BOX)
    out = np.zeros(values.shape[:-1] + (box.count,))
    out[..., embedding_map(window, box)] = values
    return out


def _semigroup_apply(profiles: np.ndarray, grid: np.ndarray, r_out: int) -> np.ndarray:
    """e^{t Delta} of one box grid for each row of ``profiles``, on the box of radius r_out.

    ``grid`` holds a field on the box of radius r_in, shape (2 r_in + 1,)^N,
    and is zero outside it; row b of ``profiles`` is the one-dimensional heat
    kernel e^{-2t} I_m(2t) of one time t at displacements m = 0..r_in + r_out.
    The semigroup factorises over coordinates, so each axis in turn is
    multiplied by the matrix of kernel values from the input to the output
    coordinates of that axis, and only output rows are formed.  The result
    has shape (rows of profiles,) + (2 r_out + 1,)^N.
    """
    r_in = grid.shape[0] // 2
    gap = np.arange(-r_out, r_out + 1)[:, None] - np.arange(-r_in, r_in + 1)[None, :]
    mats = profiles[:, np.abs(gap)]
    out = grid[None]
    for axis in range(1, grid.ndim + 1):
        moved = np.moveaxis(out, axis, 1)
        product = mats @ moved.reshape(moved.shape[:2] + (-1,))
        out = np.moveaxis(product.reshape(product.shape[:2] + moved.shape[2:]), 1, axis)
    return out


def heat_semigroup_apply(u: Field, t: float) -> Field:
    """e^{t Delta} u on the window of u, exact for zero-extended fields.

    The semigroup factorises over coordinates, so the kernel is applied as a
    dense one-dimensional convolution along each axis in turn.
    """
    if t < 0.0:
        raise InputError(f"time must be >= 0, got {t}")
    u = _box_embedding(u)
    if t == 0.0:
        return Field(u.window, u.values.copy())
    r = u.window.radius
    grid = u.values.reshape((2 * r + 1,) * u.window.dim)
    profile = scaled_bessel_profile(2.0 * t, 2 * r)
    return Field(u.window, _semigroup_apply(profile[None], grid, r).reshape(-1))


def _fractional_segments(s: float, quad: QuadratureSpec, decades: int):
    """Nodes t_i and weights c_i, one quadrature segment at a time, with
    int_0^T (e^{t Delta} u - u) t^{-1-s} dt = sum_i c_i (e^{t_i Delta} u - u)
    for T = 10^decades.

    The head segment [0, 1] is Gauss-Jacobi, which absorbs the t^{-s} factor
    of t^{-s} g(t) with g(t) = (e^{t Delta} u - u)/t; each later decade is
    Gauss-Legendre.
    """
    t1 = _T_SPLIT
    xj, wj = roots_jacobi(quad.nodes, 0.0, -s)
    t_head = t1 * (xj + 1.0) / 2.0
    yield t_head, wj * (t1 / 2.0) ** (1.0 - s) / t_head
    xg, wg = leggauss(quad.nodes)
    a = t1
    for _ in range(decades):
        b = a * _SEGMENT_RATIO
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        t = half * xg + mid
        yield t, wg * half * t ** (-1.0 - s)
        a = b


# float64 values that the node arrays of one block of quadrature nodes may
# hold (1 MB): the axis matrices and the largest partial product
_BLOCK_VALUES = 1 << 17


def fractional_laplacian(
    alpha: float,
    u: Field,
    quad: Optional[QuadratureSpec] = None,
    out_window: Optional[LatticeWindow] = None,
) -> Field:
    """(-Delta)^{alpha/2} u via the semigroup integral.

    For alpha/2 in (0, 1) this evaluates
    Gamma(-alpha/2)^{-1} int_0^inf (e^{t Delta} u - u) t^{-1 - alpha/2} dt
    (the reciprocal gamma factor is negative, making the operator positive);
    even integer powers apply -Delta exactly and larger alpha composes the
    two.  The output lives on ``out_window``, as in convolve: by default the
    bounding box of the window of u, enlarged by one site per factor -Delta.
    The operator acts on the zero-extended field, so any output window
    holds the same values at the sites it shares with another; the
    semigroup is formed only on the output rows of each axis, and a small
    output window costs a fraction of the default.  Values near the edge of
    the input window are truncation-limited; interior sites of a
    sufficiently large window are accurate.  The quadrature nodes run in
    blocks whose arrays stay near 1 MB whatever the window sizes.
    """
    if alpha <= 0.0:
        raise ParameterError(f"alpha must be > 0, got {alpha}")
    if out_window is not None and out_window.dim != u.window.dim:
        raise InputError("output window dimension does not match the field")
    quad = quad or QuadratureSpec()

    from .calculus import laplacian  # local import to avoid a cycle at load time

    out = _box_embedding(u)
    k = int(alpha // 2)
    frac = alpha - 2 * k
    for _ in range(k):
        lap = laplacian(out)
        out = Field(lap.window, -lap.values)
    out_w = out_window or out.window
    if frac == 0.0:
        idx = out.window.indices_of(out_w.sites)
        return Field(out_w, np.where(idx >= 0, out.values[idx], 0.0))

    s = frac / 2.0
    decades = 4  # the integral is cut at T = 1e4
    T = _T_SPLIT * _SEGMENT_RATIO**decades
    dim = out.window.dim
    r_in, r_out = out.window.radius, out_w.radius
    side_in, side_out = 2 * r_in + 1, 2 * r_out + 1
    grid = out.values.reshape((side_in,) * dim)
    # u on the output box: the input box cut down or zero-padded
    here = np.zeros((side_out,) * dim)
    m = min(r_in, r_out)
    here[(slice(r_out - m, r_out + m + 1),) * dim] = grid[(slice(r_in - m, r_in + m + 1),) * dim]
    here = here.reshape(-1)

    per_node = side_out * side_in + max(side_out**a * side_in ** (dim - a) for a in range(1, dim + 1))
    block = max(1, _BLOCK_VALUES // per_node)
    orders = np.arange(r_in + r_out + 1)
    total = np.zeros_like(here)
    for ts, cs in _fractional_segments(s, quad, decades):
        profiles = ive(orders, 2.0 * ts[:, None])
        for lo in range(0, ts.size, block):
            moved = _semigroup_apply(profiles[lo : lo + block], grid, r_out)
            total += cs[lo : lo + block] @ (moved.reshape(moved.shape[0], -1) - here)
    # tail: e^{t Delta} u ~ (sum u) (4 pi t)^{-N/2} and the exact -u part
    mass = float(out.values.sum())
    spread = mass * (4.0 * np.pi) ** (-dim / 2.0) * T ** (-(dim / 2.0 + s)) / (dim / 2.0 + s)
    total += spread - here * T**-s / s
    coef = 1.0 / math.gamma(-s)  # negative for s in (0, 1)
    values = coef * total
    if out_w.shape != BOX:
        values = values.reshape((side_out,) * dim)[tuple((out_w.sites + r_out).T)]
    return Field(out_w, values)
