"""Energy functionals, the Nehari constraint, and geometry probes.

The energy is J(u) = (1/2)||u||^2 - (1/(2p)) D(u), where the squared norm is
the quadratic form of the sparse self-adjoint operator Delta^2 - Delta +
(1 + lam*a) (well mode: Delta^2 - Delta + 1 acting on fields that vanish
outside the well) and D is the kernel pair energy with the diagonal
excluded.  The constraint set is the set of nonzero fields with
(J'(u), u) = 0; every field with positive pair energy has a unique positive
scale landing on it, given in closed form, and ground states minimize J
there.

The array cores (operator_values, pair_terms, constraint_terms,
gradient_values, project_values) take rows of free-site values, one per
ProblemSpec.free_indices() site; the Field functions restrict and extend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np
from scipy import sparse

from . import calculus as _calculus
from . import kernels as _kernels
from .errors import InputError, NoProjectionError, ParameterError, ProbeInconclusiveError
from .fields import Field
from .lattice import LatticeWindow, SiteSet, get_window, stencil_rows

# random fields are drawn and checked this many rows at a time
SAMPLE_CHUNK = 8

MODE_FULL = "full"
MODE_DIRICHLET = "dirichlet"
MODES = (MODE_FULL, MODE_DIRICHLET)


@lru_cache(maxsize=None)
def _difference_operator(window: LatticeWindow) -> sparse.spmatrix:
    """Sparse Delta^2 - Delta of fields zero-extended off the window.

    Both terms read the Laplacian from the window to its enlargement by one
    site; every problem on the window adds its own weight diagonal.  The
    entries are integers of magnitude at most 4N^2 + 4N, kept as int16 so
    that the cached matrix holds no more memory than the two factors did.
    """
    shape = (window.enlarged(1).count, window.count)

    def taking(grid):
        # the 0/1 matrix reading each enlarged-window site's entry of grid
        col = grid.reshape(-1)
        at = np.flatnonzero(col)
        return sparse.csr_matrix((np.ones(at.size), (at, col[at] - 1)), shape=shape)

    # 1-based window indices on the grid, so 0 marks a site off the window
    here, around = stencil_rows(window, np.arange(1, window.count + 1))
    embed = taking(here)
    lap = sum(taking(nb) for nb in around) - 2.0 * window.dim * embed
    return (lap.T @ lap - embed.T @ lap).astype(np.int16)


@dataclass(frozen=True)
class ProblemSpec:
    """One minimization problem: mode, window, potential, kernel, and exponents.

    In full mode the norm weight is 1 + lam * a(x); in dirichlet mode the
    unknowns live on the potential well only and the weight is 1.
    """

    mode: str
    window: LatticeWindow
    potential: _calculus.PotentialSpec
    kernel: _kernels.KernelTable
    p: float
    lam: Optional[float] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        n = self.window.dim
        if self.potential.dim != n:
            raise InputError(f"potential dimension {self.potential.dim} does not match window ({n})")
        if self.kernel.dim != n:
            raise InputError(f"kernel dimension {self.kernel.dim} does not match window ({n})")
        if self.kernel.radius < self.window.radius:
            raise InputError(
                f"kernel table radius {self.kernel.radius} is too small for window radius {self.window.radius}"
            )
        critical = (n + self.kernel.alpha) / n
        if not critical < self.p < math.inf:
            raise ParameterError(f"exponent p={self.p} must be finite and exceed (N + alpha)/N = {critical}")
        if self.mode == MODE_FULL:
            if self.lam is None or not 0.0 < self.lam < math.inf:
                raise ParameterError(f"full mode requires a finite coupling lam > 0, got {self.lam}")
        elif self.lam is not None:
            raise ParameterError("dirichlet mode takes no coupling")
        coords = self.potential.well.as_array()
        idx = self.window.indices_of(coords)
        if np.any(idx < 0):
            raise InputError("the well must lie inside the window")
        margin = self.window.radius - self.window.reach(coords)
        if margin < 3:
            raise InputError(f"well needs margin >= 3 to the window edge, got {margin}")
        object.__setattr__(self, "_cache", {})

    @property
    def dim(self) -> int:
        return self.window.dim

    @property
    def well(self) -> SiteSet:
        return self.potential.well

    def _cached(self, key, build):
        value = self._cache.get(key)
        if value is None:
            value = build()
            self._cache[key] = value
        return value

    def free_indices(self) -> np.ndarray:
        """Window indices of the unknowns (all sites, or the well's sites, sorted, in dirichlet mode)."""

        def build():
            if self.mode == MODE_FULL:
                idx = np.arange(self.window.count)
            else:
                idx = np.sort(self.window.indices_of(self.potential.well.as_array()))
            idx.setflags(write=False)
            return idx

        return self._cached("free", build)

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """Values on the free sites from window values (last axis); the identity in full mode."""
        if self.mode == MODE_FULL:
            return values
        return np.take(values, self.free_indices(), axis=-1)

    def extend(self, values: np.ndarray) -> np.ndarray:
        """Window values, zero off the free sites, from free-site values (last axis).

        The identity in full mode.
        """
        if self.mode == MODE_FULL:
            return values
        out = np.zeros(values.shape[:-1] + (self.window.count,))
        out[..., self.free_indices()] = values
        return out

    def pair_window(self) -> Tuple[LatticeWindow, Optional[np.ndarray]]:
        """Window that pair_terms convolves over, and the free sites' indices in it.

        In full mode this is the problem window, and the indices are None.
        In dirichlet mode it is the smallest origin-centred box, of radius at
        least 1, that holds the well, so a well problem convolves grids the
        size of its well, not of the window.
        """

        def build():
            if self.mode == MODE_FULL:
                return self.window, None
            well = self.window.sites[self.free_indices()]
            box = get_window(self.dim, max(1, int(np.abs(well).max())))
            at = box.indices_of(well)
            at.setflags(write=False)
            return box, at

        return self._cached("pair_window", build)

    def operator_matrix(self) -> sparse.csr_matrix:
        """CSR matrix of Delta^2 - Delta + weight on the free sites."""

        def build():
            if self.mode == MODE_FULL:
                weight = 1.0 + self.lam * self.potential.values_on(self.window)
            else:
                weight = np.ones(self.window.count)
            a = (_difference_operator(self.window) + sparse.diags(weight)).tocsr()
            if self.mode == MODE_DIRICHLET:
                free = self.free_indices()
                a = a[free][:, free].tocsr()
            a.sort_indices()
            return a

        return self._cached("operator", build)

    def __repr__(self) -> str:
        tail = f", lam={self.lam!r}" if self.mode == MODE_FULL else ""
        return f"ProblemSpec({self.mode!r}, {self.window!r}, alpha={self.kernel.alpha!r}, p={self.p!r}{tail})"


def _check_window(u: Field, prob: ProblemSpec) -> None:
    if u.window != prob.window:
        raise InputError(f"field window {u.window} does not match problem window {prob.window}")


def _require_admissible(u: Field, prob: ProblemSpec) -> None:
    _check_window(u, prob)
    if np.count_nonzero(prob.restrict(u.values)) != np.count_nonzero(u.values):
        raise InputError("field must vanish outside the well in dirichlet mode")


def norm_sq(u: Field, prob: ProblemSpec) -> float:
    """Squared problem norm as the quadratic form of the sparse operator."""
    _require_admissible(u, prob)
    return float(_quadratic_form(prob.restrict(u.values), prob))


def constraint_terms(x: np.ndarray, prob: ProblemSpec) -> Tuple[np.ndarray, np.ndarray]:
    """||v||^2 and D(v) per row of free-site values x of v.

    One batched operator product and one batched convolution; a row's terms
    equal norm_sq and nonlocal_term of that row alone.
    """
    return _quadratic_form(x, prob), pair_terms(x, prob)[1]


def _free_rows(x: np.ndarray, prob: ProblemSpec) -> np.ndarray:
    """x itself, after checking that its last axis holds one value per free site."""
    if np.shape(x)[-1:] != prob.free_indices().shape:
        raise InputError(f"expected rows of {prob.free_indices().size} free-site values, got shape {np.shape(x)}")
    return x


def operator_values(x: np.ndarray, prob: ProblemSpec) -> np.ndarray:
    """A x for free-site values x, one row per leading index (at most one)."""
    return np.ascontiguousarray((prob.operator_matrix() @ _free_rows(x, prob).T).T)


def _quadratic_form(x: np.ndarray, prob: ProblemSpec) -> np.ndarray:
    return _calculus.row_dot(x, operator_values(x, prob))


def pair_terms(x: np.ndarray, prob: ProblemSpec) -> Tuple[np.ndarray, np.ndarray]:
    """K * |v|^p (diagonal excluded) on the free sites and the pair energy D(v).

    ``x`` holds the free-site values of v, one field per row of any leading
    axes.  The convolution runs over ProblemSpec.pair_window: in dirichlet
    mode the box of the well, not the whole window.  D is exactly 0 for a
    row with fewer than two nonzero sites (calculus.pair_sums).  The FFT
    rounds relative to (sum |v|^p)^2, not to D, so D loses relative
    accuracy when one site dominates |v|^p: on a 5-site well at p in
    [5, 6), D(c v) and c^(2p) D(v) differ by up to 2.9e-11 relative.
    """
    window, at = prob.pair_window()
    power = np.abs(_free_rows(x, prob)) ** prob.p
    if at is None:
        return _calculus.pair_sums(prob.kernel, window, power)
    h = np.zeros(power.shape[:-1] + (window.count,))
    h[..., at] = power
    conv, d = _calculus.pair_sums(prob.kernel, window, h)
    return conv[..., at], d


def nonlocal_term(u: Field, prob: ProblemSpec) -> float:
    """Pair energy D(u) of the problem kernel; u must vanish off the free sites."""
    _require_admissible(u, prob)
    return float(pair_terms(prob.restrict(u.values), prob)[1])


def energy(u: Field, prob: ProblemSpec) -> float:
    """J(u) = (1/2)||u||^2 - (1/(2p)) D(u)."""
    return 0.5 * norm_sq(u, prob) - nonlocal_term(u, prob) / (2.0 * prob.p)


def gradient_values(x: np.ndarray, ax: np.ndarray, conv: np.ndarray, prob: ProblemSpec) -> np.ndarray:
    """A v - (K * |v|^p) |v|^{p-2} v on the free sites, one row per field.

    ``x`` holds the free-site values of v, ``ax`` is A x (operator_values)
    and ``conv`` the free-site values of K * |v|^p (pair_terms).  This is
    the only place the |v|^{p-2} v factor is written.
    """
    factor = np.zeros_like(x)
    nz = x != 0.0
    factor[nz] = np.abs(x[nz]) ** (prob.p - 2.0) * x[nz]
    return ax - conv * factor


def euler_lagrange_residual(u: Field, prob: ProblemSpec) -> Field:
    """Coordinate gradient of J on the free sites (zero elsewhere).

    In dirichlet mode the field is read through its restriction to the well,
    matching the constrained unknowns.
    """
    _check_window(u, prob)
    x = prob.restrict(u.values)
    conv, _ = pair_terms(x, prob)
    return Field(prob.window, prob.extend(gradient_values(x, operator_values(x, prob), conv, prob)))


def nehari_defect(u: Field, prob: ProblemSpec) -> float:
    """(J'(u), u) = ||u||^2 - D(u); zero exactly on the constraint set."""
    return norm_sq(u, prob) - nonlocal_term(u, prob)


@dataclass(frozen=True)
class Projection:
    """Fields scaled onto the constraint set, with their energies and pair terms.

    Each entry has one value (or one row) per field projected; ``values``
    rows hold tv and ``conv`` rows K * |tv|^p, both on the free sites
    (pair_terms).  A field with D(v) = 0 ``vanishes``: no scale lands it on
    the constraint set, and its entries are not finite.
    """

    scale: np.ndarray
    values: np.ndarray
    energy: np.ndarray
    pair_energy: np.ndarray
    conv: np.ndarray
    vanishes: np.ndarray


def project_values(x: np.ndarray, prob: ProblemSpec) -> Projection:
    """Scale fields v, given by their free-site values x, onto the constraint set.

    ``x`` holds one field, or one field per row.  With a = ||v||^2 the
    scale is t = (a / D(v))^(1/(2(p-1))).  Both pair terms are homogeneous,
    K * |tv|^p = t^p K * |v|^p and D(tv) = t^(2p) D(v), so the one
    convolution of |v|^p also gives J(tv) = t^2 a / 2 - t^(2p) D(v) / (2p)
    and the pair terms of tv.  A field whose squared norm or pair energy
    overflows gets a non-finite energy.  The scale comes from
    calculus.row_power, and it is an array even for one field, so a row's
    projection does not depend on the batch.
    """
    p = prob.p
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = _quadratic_form(x, prob)
        conv, d = pair_terms(x, prob)
        t = _calculus.row_power(a / d, 1.0 / (2.0 * (p - 1.0)))
        pair = t ** (2.0 * p) * d
        return Projection(
            scale=t,
            values=t[..., None] * x,
            energy=0.5 * t * t * a - pair / (2.0 * p),
            pair_energy=pair,
            conv=(t**p)[..., None] * conv,
            vanishes=d == 0.0,
        )


def nehari_project(u: Field, prob: ProblemSpec) -> Tuple[float, Field]:
    """The unique scale t > 0 with (J'(tu), tu) = 0, and the scaled field.

    t = (||u||^2 / D(u))^(1/(2(p-1))); fields with vanishing pair energy
    (for example, single-site fields) admit no such scale and raise
    NoProjectionError.
    """
    _require_admissible(u, prob)
    proj = project_values(prob.restrict(u.values), prob)
    if proj.vanishes:
        raise NoProjectionError("pair energy vanishes; no scale meets the constraint")
    return float(proj.scale), Field(prob.window, prob.extend(proj.values))


def nehari_level(u: Field, prob: ProblemSpec) -> float:
    """J(u) for a field on the constraint set; candidate for the ground level.

    On the constraint set the energy reduces to (1/2 - 1/(2p)) ||u||^2; the
    field must satisfy the constraint to 1e-10 relative (level_from_terms).
    """
    return level_from_terms(norm_sq(u, prob), nonlocal_term(u, prob), prob.p)


def level_from_terms(a: float, d: float, p: float) -> float:
    """J = a/2 - d/(2p) of a field on the constraint set, from a = ||u||^2 and d = D(u).

    Raises InputError for the zero field and for a field whose defect a - d
    exceeds 1e-10 a.
    """
    if a == 0.0:
        raise InputError("level undefined for the zero field")
    defect = a - d
    if abs(defect) > 1.0e-10 * a:
        raise InputError(f"field is off the constraint set: relative defect {abs(defect) / a:.3e}")
    return 0.5 * a - d / (2.0 * p)


@dataclass(frozen=True)
class MountainPassProbe:
    """Sampled geometry of J near zero and along one escape ray."""

    theta_hat: float
    t_neg: float
    witness: Field
    rho: float
    samples: int


def sample_chunks(rng: np.random.Generator, samples: int, shape: Tuple[int, ...]):
    """Standard normal draws of the given shape, ``samples`` in all, SAMPLE_CHUNK per array.

    One draw of shape (k,) + shape takes the same numbers from the generator
    as k draws of ``shape``, so a result does not depend on the chunk size.
    """
    for start in range(0, samples, SAMPLE_CHUNK):
        yield rng.standard_normal((min(SAMPLE_CHUNK, samples - start),) + tuple(shape))


def _sampled_sphere(prob: ProblemSpec, samples: int, seed: int) -> Tuple[np.ndarray, np.ndarray, Field, float]:
    """a = ||x||^2 and D(x) of ``samples`` random fields x, the witness and its t_neg.

    Each field is drawn (sample_chunks), multiplied by the operator and
    convolved once; a field of zero norm is skipped.  The witness is the
    first field with positive pair energy, renormed to norm 1.
    """
    if samples < 1:
        raise ParameterError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    a_parts, d_parts = [], []
    witness = None
    for x in sample_chunks(rng, samples, prob.free_indices().shape):
        a = _quadratic_form(x, prob)
        keep = a != 0.0
        if not keep.any():
            continue
        x, a = x[keep], a[keep]
        d = pair_terms(x, prob)[1]
        a_parts.append(a)
        d_parts.append(d)
        hits = np.nonzero(d > 0.0)[0]
        if witness is None and hits.size:
            witness = Field(prob.window, prob.extend(x[hits[0]] / math.sqrt(a[hits[0]])))
    if witness is None:
        raise ProbeInconclusiveError("no sampled field has positive pair energy")
    a = norm_sq(witness, prob)
    d = nonlocal_term(witness, prob)
    t_neg = (2.0 * prob.p * a / d) ** (1.0 / (2.0 * prob.p - 2.0))
    return np.concatenate(a_parts), np.concatenate(d_parts), witness, t_neg


def _sphere_minimum(rho_sq: float, a: np.ndarray, d: np.ndarray, p: float) -> float:
    """Least J over the sampled fields x scaled to squared norm rho_sq.

    With a = ||x||^2 and D = D(x), the field rho x / sqrt(a) has squared
    norm rho_sq and pair energy (rho_sq / a)^p D, so its energy is
    rho_sq / 2 - (rho_sq / a)^p D / (2p), in closed form for every radius.
    D >= 0 makes the result at most rho_sq / 2 after rounding too.
    """
    return min((0.5 * rho_sq - _calculus.row_power(rho_sq / a, p) * d / (2.0 * p)).tolist())


def mountain_pass_probe(prob: ProblemSpec, rho: float, samples: int, seed: int = 0) -> MountainPassProbe:
    """Minimum of J over random fields of norm rho, plus a negative-energy scale.

    theta_hat estimates the energy barrier on the sphere of radius rho;
    t_neg scales the first sampled field with positive pair energy (renormed
    to norm 1) so that J(t_neg * witness) < 0.  A sample of zero norm is
    skipped.  Each sample is drawn, multiplied by the operator and convolved
    once (_sampled_sphere), and theta_hat follows in closed form
    (_sphere_minimum).
    """
    if not rho > 0.0:
        raise ParameterError(f"rho must be > 0, got {rho}")
    a, d, witness, t_neg = _sampled_sphere(prob, samples, seed)
    theta = _sphere_minimum(rho * rho, a, d, prob.p)
    return MountainPassProbe(theta_hat=theta, t_neg=t_neg, witness=witness, rho=rho, samples=samples)
