"""Translation-invariant kernels on Z^N and their windowed calculus.

The continuous-time heat kernel of the graph Laplacian on Z^N factorises over
coordinates,

    k_t(v) = prod_i e^{-2t} I_{v_i}(2t),

with I_m the modified Bessel function.  Subordination in time produces the
lattice Green's function of the fractional Laplacian,

    R_alpha(v) = Gamma(alpha/2)^{-1} int_0^inf k_t(v) t^{alpha/2 - 1} dt,

for 0 < alpha < N, which decays like |v|^{alpha - N}.  The Bessel factors come
from ``scipy.special.ive``, and the subordination integral from a
Gauss-Jacobi/Gauss-Legendre time quadrature with a closed-form tail.  R_alpha
is the only convolution kernel: the module tabulates it over all difference
vectors of a window, on the grid [0, 2R]^N of their absolute coordinates
(the kernel is even in every coordinate), and applies the table to fields by
windowed convolution.  The quadrature sum factorises over coordinates, so a
table is one contraction of the one-dimensional Bessel profiles, summed in a
fixed order without BLAS: its values do not depend on the BLAS thread count.
The module also implements the fractional Laplacian (-Delta)^{alpha/2}
through the semigroup integral, which inverts the Green's function on
interior sites.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.fft import fft, ifft, irfft, next_fast_len, rfft, rfftn
from scipy.special import ive, roots_jacobi

from .fields import Field
from .errors import (
    AccuracyWarning,
    InputError,
    InternalError,
    ParameterError,
)
from .lattice import LatticeWindow, _as_int, _as_site, difference_rows, resize_rows

_SEGMENT_RATIO = 10.0
# end of the head segment of the time quadrature
_T_SPLIT = 1.0


# ---------------------------------------------------------------------------
# scaled Bessel evaluation
# ---------------------------------------------------------------------------


def scaled_bessel_profile(z, m_max: int) -> np.ndarray:
    """e^{-z} I_m(z) for all orders m = 0..m_max, one row per finite argument z >= 0.

    A scalar z gives shape (m_max + 1,); an array of arguments gives one row
    per entry.  The values come from ``scipy.special.ive``, which keeps full
    relative accuracy for large arguments and for orders far beyond sqrt(z),
    where the values underflow gracefully to zero.
    """
    z = np.asarray(z, dtype=np.float64)
    ok = (z >= 0.0) & (z < math.inf)
    if not ok.all():
        raise InputError(f"argument must be finite and >= 0, got {z[~ok].flat[0]}")
    if m_max < 0:
        raise InputError(f"m_max must be >= 0, got {m_max}")
    return ive(np.arange(_as_int(m_max, "m_max") + 1), z[..., None])


# ---------------------------------------------------------------------------
# heat kernel
# ---------------------------------------------------------------------------


def _check_vector(v: Sequence[int], dim: int) -> Tuple[int, ...]:
    vec = _as_site(v)
    if len(vec) != dim:
        raise InputError(f"difference vector has length {len(vec)}, expected {dim}")
    return vec


def heat_kernel(t: float, v: Sequence[int], dim: int) -> float:
    """Transition probability of the continuous-time walk on Z^dim.

    k_t(v) = prod_i e^{-2t} I_{v_i}(2t), the indicator of v = 0 at t = 0.
    """
    dim = _as_int(dim, "dim")
    if dim < 1:
        raise InputError(f"dim must be >= 1, got {dim}")
    if not 0.0 <= t < math.inf:
        raise InputError(f"time must be finite and >= 0, got {t}")
    vec = _check_vector(v, dim)
    profile = _bessel_profile(t, max(abs(c) for c in vec))
    out = 1.0
    for c in vec:
        out *= float(profile[abs(c)])
    return out


def heat_kernel_spectral(t: float, v: Sequence[int], dim: int, torus_size: int) -> float:
    """Heat kernel via the eigenbasis of the discrete torus (Z/LZ)^dim.

    (1/L^N) sum_theta e^{-t lambda(theta)} cos(theta . v) with
    lambda(theta) = sum_i 2 (1 - cos theta_i); used as an independent
    cross-check of the Bessel product.  The sum factorises over coordinates.
    """
    dim = _as_int(dim, "dim")
    if dim < 1:
        raise InputError(f"dim must be >= 1, got {dim}")
    if not 0.0 <= t < math.inf:
        raise InputError(f"time must be finite and >= 0, got {t}")
    vec = _check_vector(v, dim)
    L = _as_int(torus_size, "torus size")
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
        if not isinstance(self.nodes, numbers.Integral) or self.nodes < 8:
            raise ParameterError(f"nodes must be an integer >= 8, got {self.nodes!r}")


def _time_segments(head: float, order: float, extra: float, quad: QuadratureSpec, decades: int):
    """Nodes t_i and weights w_i, one quadrature segment at a time, with
    int_0^T f(t) t^(head + extra) dt = sum_i w_i f(t_i) for T = 10^decades.

    The head segment [0, 1] is Gauss-Jacobi, which absorbs the t^head factor
    of t^head (t^extra f(t)) exactly; each later decade is Gauss-Legendre.
    ``order`` is head + 1 as the caller writes it (alpha/2, 1 - s): forming
    it here as head + 1 would round differently for some alpha.
    """
    t1 = _T_SPLIT
    xj, wj = roots_jacobi(quad.nodes, 0.0, head)
    t = t1 * (xj + 1.0) / 2.0
    yield t, wj * (t1 / 2.0) ** order / t ** (-extra)
    xg, wg = leggauss(quad.nodes)
    a = t1
    for _ in range(decades):
        b = a * _SEGMENT_RATIO
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        t = half * xg + mid
        yield t, wg * half * t ** (head + extra)
        a = b


def _green_plan(alpha: float, quad: QuadratureSpec, m_max: int):
    """Nodes t_i, effective weights w_i and endpoint T for the Green integral.

    After the plan, int_0^T k_t(v) t^{alpha/2-1} dt = sum_i w_i k_{t_i}(v).
    """
    # whole decades above t = 1 past max(3e4, 100 m_max^2): the tail
    # expansion parameter is m^2 / (4 t), and 100 m^2 keeps the first
    # neglected order below ~1e-8 of the tail
    target = max(3.0e4, 100.0 * float(max(m_max, 1)) ** 2)
    decades = max(1, math.ceil(math.log10(target / _T_SPLIT)))
    ts, ws = zip(*_time_segments(alpha / 2.0 - 1.0, alpha / 2.0, 0.0, quad, decades))
    return np.concatenate(ts), np.concatenate(ws), _T_SPLIT * _SEGMENT_RATIO**decades


def _axis_sums(row: np.ndarray, dim: int) -> np.ndarray:
    """row[i_1] + ... + row[i_dim] on the grid of index tuples, added in coordinate order."""
    total = row
    for _ in range(dim - 1):
        total = total[..., None] + row
    return total


def _green_tail(alpha: float, dim: int, m_max: int, T: float) -> np.ndarray:
    """Closed form of int_T^inf k_t(v) t^{alpha/2 - 1} dt from the large-t expansion, on [0, m_max]^dim.

    Per coordinate e^{-2t} I_m(2t) = (4 pi t)^{-1/2} (1 + a1(m)/t + a2(m)/t^2 + ...)
    with a1(m) = -(4 m^2 - 1)/16 and a2(m) = (4 m^2 - 1)(4 m^2 - 9)/512, so the
    1/t and 1/t^2 coefficients c1, c2 of k_t(v) (4 pi t)^{N/2} are sums over
    the coordinates of v.
    """
    s = (dim - alpha) / 2.0
    msq = 4.0 * np.arange(m_max + 1, dtype=float) ** 2
    a1 = -(msq - 1.0) / 16.0
    a2 = (msq - 1.0) * (msq - 9.0) / 512.0
    c1 = _axis_sums(a1, dim)
    c2 = _axis_sums(a2, dim) + 0.5 * (c1**2 - _axis_sums(a1**2, dim))
    base = (4.0 * np.pi) ** (-dim / 2.0)
    return base * (T**-s / s + c1 * T ** (-s - 1.0) / (s + 1.0) + c2 * T ** (-s - 2.0) / (s + 2.0))


def _bessel_profile(t, m_max: int) -> np.ndarray:
    """One-dimensional heat kernel e^{-2t} I_m(2t) for displacements 0..m_max, one row per time t."""
    return scaled_bessel_profile(2.0 * t, m_max)


def _torus_profile(ts: np.ndarray, m_max: int) -> np.ndarray:
    """One-dimensional heat kernel from torus spectral sums, one row per time, each on
    a torus large enough that wrap-around stays negligible."""
    rows = []
    for t in ts:
        L = int(max(64, 2 * m_max + 4, math.ceil(m_max + 13.0 * math.sqrt(max(t, 1.0)))))
        rows.append(_spectral_profile(t, m_max, L))
    return np.array(rows)


def _green_values(
    alpha: float,
    dim: int,
    m_max: int,
    quad: QuadratureSpec,
    profile: Callable[[np.ndarray, int], np.ndarray],
) -> np.ndarray:
    """Green's function on the quadrant grid [0, m_max]^dim.

    ``profile(ts, m_max)`` gives, for each quadrature time t, the
    one-dimensional heat kernel k_t at displacements 0..m_max; the product
    over coordinates is k_t(v).  The sum sum_t w_t prod_i k_t(v_i) is one
    separable contraction: the weighted products over the first N - 1 axes
    are formed by broadcasting, and ``np.einsum`` (no BLAS) contracts them
    with the last axis's profiles, held time-contiguous, which fixes the
    order in which it adds over t.  Each grid value thus adds its terms in a
    fixed order that no thread count changes.  Every point reads the value
    computed at its canonical form (coordinates sorted descending), so all
    permutations of a vector give the same bits.
    """
    ts, ws, T = _green_plan(alpha, quad, m_max)
    profiles = np.asfortranarray(profile(ts, m_max))
    head = ws[:, None]
    for _ in range(dim - 1):
        head = (head[:, :, None] * profiles[:, None, :]).reshape(ts.size, -1)
    shape = (m_max + 1,) * dim
    integral = np.einsum("ta,tb->ab", head, profiles).reshape(shape)
    del head  # the largest array: free it before the tail and the index arrays
    integral += _green_tail(alpha, dim, m_max, T)
    canon = np.sort(np.indices(shape).reshape(dim, -1), axis=0)[::-1]
    return integral[tuple(canon)].reshape(shape) / math.gamma(alpha / 2.0)


def green_function(alpha: float, v: Sequence[int], dim: int, quad: Optional[QuadratureSpec] = None) -> float:
    """Subordinated lattice Green's function R_alpha(v) for 0 < alpha < dim.

    The value is read at |v| from the quadrant grid of ``_green_values``,
    so every permutation and sign flip of v gives the same bits.
    """
    dim = _as_int(dim, "dim")
    if dim < 1:
        raise InputError(f"dim must be >= 1, got {dim}")
    if not 0.0 < alpha < dim:
        raise ParameterError("alpha must lie in (0, N)")
    a = tuple(abs(c) for c in _check_vector(v, dim))
    return float(_green_values(alpha, dim, max(a), quad or QuadratureSpec(), _bessel_profile)[a])


# ---------------------------------------------------------------------------
# kernel tables
# ---------------------------------------------------------------------------


class KernelTable:
    """Green's function values tabulated over all difference vectors of a window.

    Differences of sites of a radius-R window span [-2R, 2R]^N; the kernel
    is even in every coordinate, so ``grid`` holds it on the quadrant
    [0, 2R]^N, shape (2R + 1,)^N, and a vector reads the point of its
    absolute coordinates.  Instances are immutable: the table keeps a
    read-only copy of the grid it is given.  The kernel spectra that
    :func:`convolve` needs are cached lazily, one per reach r_in + r_out of
    the window pairs it is called on.
    """

    def __init__(self, alpha: float, dim: int, radius: int, quad: QuadratureSpec, grid: np.ndarray):
        self.alpha = float(alpha)
        self.dim = int(dim)
        self.radius = int(radius)
        self.quad = quad
        self.m_max = 2 * self.radius
        self.grid = np.array(grid, dtype=np.float64)
        shape = (self.m_max + 1,) * self.dim
        if self.grid.shape != shape:
            raise InputError(f"expected a kernel grid of shape {shape}, got {self.grid.shape}")
        if np.any(self.grid < 0.0) or not np.all(np.isfinite(self.grid)):
            raise InputError("kernel values must be finite and nonnegative")
        self.grid.setflags(write=False)
        self._spectra: dict = {}

    @property
    def diagonal(self) -> float:
        """Kernel value at the zero difference."""
        return float(self.grid[(0,) * self.dim])

    def values_at(self, vs: np.ndarray) -> np.ndarray:
        vs = np.asarray(vs, dtype=np.int64)
        if vs.ndim != 2 or vs.shape[1] != self.dim:
            raise InputError(f"expected shape (n, {self.dim}), got {vs.shape}")
        a = np.abs(vs)
        if a.size and a.max() > self.m_max:
            raise InternalError(
                f"kernel table (radius {self.radius}) lacks difference vectors up to {a.max()}"
            )
        return self.grid[tuple(a.T)]

    def value(self, v: Sequence[int]) -> float:
        vec = _check_vector(v, self.dim)
        return float(self.values_at(np.array([vec], dtype=np.int64))[0])


def build_kernel_table(alpha: float, window: LatticeWindow, quad: Optional[QuadratureSpec] = None) -> KernelTable:
    """Tabulate the Green's function R_alpha over the difference range of a window."""
    if not 0.0 < alpha < window.dim:
        raise ParameterError("alpha must lie in (0, N)")
    quad = quad or QuadratureSpec()
    grid = _green_values(alpha, window.dim, 2 * window.radius, quad, _bessel_profile)
    return KernelTable(alpha, window.dim, window.radius, quad, grid)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def _kernel_spectrum(table: KernelTable, reach: int) -> Tuple[int, np.ndarray]:
    """Grid length and real FFT of the kernel over differences in [-reach, reach]^N.

    A circular convolution of length M reads slot (y - x) mod M on each axis,
    and y - x lies in [-reach, reach].  With M >= 2 reach only d = reach and
    d = -reach can share a slot, where the kernel, even in every coordinate,
    takes one value; so the grid length is the fast FFT length of 2 reach.
    The kernel sits at index 0 with wrap-around: slot m holds
    K(min(m, M - m)) on each axis, 0 where that exceeds reach and at the
    origin (the diagonal).  One spectrum is cached per reach.
    """
    cached = table._spectra.get(reach)
    if cached is not None:
        return cached
    size = next_fast_len(2 * reach, real=True)
    fold = np.minimum(np.arange(size), size - np.arange(size))
    slots = np.flatnonzero(fold <= reach)
    kernel = np.zeros((size,) * table.dim)
    kernel[np.ix_(*[slots] * table.dim)] = table.grid[np.ix_(*[fold[slots]] * table.dim)]
    kernel[(0,) * table.dim] = 0.0
    cached = (size, rfftn(kernel))
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
    convolution of the two windows, evaluated as a circular one on the grid
    of ``_kernel_spectrum``, in O(n log n) time and O(n) memory per row.
    Input site x sits at index x + r_in and output site y at index
    (y + r_in) mod M on each axis, so slot (y - x) mod M holds K(y - x);
    a window radius of at least 1 keeps M >= 2 r_in + 1, so no two input
    sites share an index.  The transforms are pruned: the forward real FFT
    runs over the 2 r_in + 1 input rows of the last axis before the other
    axes are transformed, and the inverse transforms of the leading axes keep
    only the output rows before the last axis is inverted.
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
    size, spectrum = _kernel_spectrum(table, reach)
    lead = values.shape[:-1]
    grid = values.reshape(lead + (2 * r_in + 1,) * table.dim)
    freq = rfft(grid, n=size)
    for axis in range(-2, -table.dim - 1, -1):
        freq = fft(freq, n=size, axis=axis, overwrite_x=True)
    freq *= spectrum
    rows = np.arange(r_in - r_out, r_in + r_out + 1) % size
    for axis in range(-table.dim, -1):
        freq = ifft(freq, axis=axis, overwrite_x=True).take(rows, axis=axis)
    out = irfft(freq, n=size, overwrite_x=True).take(rows, axis=-1).reshape(lead + (-1,))
    if include_diagonal:
        out += table.diagonal * resize_rows(values, window, out_w)
    return out


def asymptotics_bracket(table: KernelTable, r_min: int = 5, r_max: int = 30) -> Tuple[float, float]:
    """Bracket [c1, c2] of value(v) * |v|_1^(N - alpha) over r_min <= |v|_1 <= r_max, r_min >= 1."""
    if r_min < 1:
        raise InputError(f"r_min must be >= 1, got {r_min}")
    norms = _axis_sums(np.arange(table.m_max + 1), table.dim)
    mask = (norms >= r_min) & (norms <= r_max)
    if not mask.any():
        raise InputError(f"table radius {table.radius} holds no vectors with |v|_1 in [{r_min}, {r_max}]")
    scaled = table.grid[mask] * norms[mask].astype(float) ** (table.dim - table.alpha)
    return float(scaled.min()), float(scaled.max())


def cross_method_deviation(table: KernelTable, r_max: int = 10) -> float:
    """Largest relative gap to the torus-spectral evaluation on |v|_1 <= r_max, r_max >= 0.

    The comparison floor 1e-14 absorbs summation round-off on values near zero.
    """
    if r_max < 0:
        raise InputError(f"r_max must be >= 0, got {r_max}")
    m = min(r_max, table.m_max)
    mask = _axis_sums(np.arange(m + 1), table.dim) <= r_max
    reference = table.grid[(slice(m + 1),) * table.dim][mask]
    other = _green_values(table.alpha, table.dim, m, table.quad, _torus_profile)[mask]
    return float(np.max(np.abs(other - reference) / np.maximum(np.abs(reference), 1.0e-14)))


# ---------------------------------------------------------------------------
# heat semigroup and fractional Laplacian
# ---------------------------------------------------------------------------


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
    if not 0.0 <= t < math.inf:
        raise InputError(f"time must be finite and >= 0, got {t}")
    if t == 0.0:
        return Field(u.window, u.values.copy())
    r = u.window.radius
    grid = u.values.reshape((2 * r + 1,) * u.window.dim)
    profile = scaled_bessel_profile(2.0 * t, 2 * r)
    return Field(u.window, _semigroup_apply(profile[None], grid, r).reshape(-1))


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
    window of u, enlarged by one site per factor -Delta.
    The operator acts on the zero-extended field, so any output window
    holds the same values at the sites it shares with another; the
    semigroup is formed only on the output rows of each axis, and a small
    output window costs a fraction of the default.  Values near the edge of
    the input window are truncation-limited; interior sites of a
    sufficiently large window are accurate.  The quadrature nodes run in
    blocks whose arrays stay near 1 MB whatever the window sizes.
    """
    if not 0.0 < alpha < math.inf:
        raise ParameterError(f"alpha must be finite and > 0, got {alpha}")
    if out_window is not None and out_window.dim != u.window.dim:
        raise InputError("output window dimension does not match the field")
    quad = quad or QuadratureSpec()
    window, values = u.window, u.values
    k = int(alpha // 2)
    frac = alpha - 2 * k
    for _ in range(k):
        values = -difference_rows(window, values)[0]
        window = window.enlarged(1)
    out_w = out_window or window
    # u on the output box: the input box cut down or zero-padded
    here = resize_rows(values, window, out_w)
    if frac == 0.0:
        return Field(out_w, here)

    s = frac / 2.0
    decades = 4  # the integral is cut at T = 1e4
    T = _T_SPLIT * _SEGMENT_RATIO**decades
    dim = window.dim
    r_in, r_out = window.radius, out_w.radius
    side_in, side_out = 2 * r_in + 1, 2 * r_out + 1
    grid = values.reshape((side_in,) * dim)

    per_node = side_out * side_in + max(side_out**a * side_in ** (dim - a) for a in range(1, dim + 1))
    block = max(1, _BLOCK_VALUES // per_node)
    total = np.zeros_like(here)
    # the head segment absorbs t^{-s} of t^{-s} g(t), g(t) = (e^{t Delta} u - u)/t
    for ts, cs in _time_segments(-s, 1.0 - s, -1.0, quad, decades):
        profiles = scaled_bessel_profile(2.0 * ts, r_in + r_out)
        for lo in range(0, ts.size, block):
            moved = _semigroup_apply(profiles[lo : lo + block], grid, r_out)
            total += cs[lo : lo + block] @ (moved.reshape(moved.shape[0], -1) - here)
    # tail: e^{t Delta} u ~ (sum u) (4 pi t)^{-N/2} and the exact -u part
    mass = float(values.sum())
    spread = mass * (4.0 * np.pi) ** (-dim / 2.0) * T ** (-(dim / 2.0 + s)) / (dim / 2.0 + s)
    total += spread - here * T**-s / s
    coef = 1.0 / math.gamma(-s)  # negative for s in (0, 1)
    return Field(out_w, coef * total)
