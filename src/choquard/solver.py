"""Ground-state solver, coupling sweep, and splitting probe.

The solver minimizes J over the constraint set by projected nonlinear
conjugate gradients, in the driver _lockstep_descent: each step solves
A z = J'(u) with the problem operator A (so z is the gradient in the problem
inner product), takes the Fletcher-Reeves direction d of _fr_direction,
backtracks along u - s d with re-projection onto the constraint set in
_line_search, and records the step or the start's outcome in _settle.
Steepest descent along z contracts the dual residual only by the second
eigenvalue of N'(u)h = mu A h per step, which nears 1 at small couplings
and at p near (N + alpha)/N; the conjugate directions take about a third
fewer steps on the radius-16 sweep.

Multi-start over a smoothed well bump plus random positive fields
approximates minimality, and all starts descend in lockstep as rows of one
array of free-site values: each step makes one product A X, one
linear_solve of every row still running, and one batched convolution per
round of line-search trials.  Each trial costs one convolved row, which
also gives the next iterate's pair energy and Euler-Lagrange term.  The
coupling sweep solves the well problem once, then the weighted problem
over an increasing grid with warm starts, reporting levels, distances,
and outside-well mass.

``restarts`` random starts run in a lone solve, on the sweep's well problem,
and in each coupling row until one coupling has converged.  Later rows run
the well bump and the two warm starts (the well state and the previous
row's state) only: the warm starts carry the least basin found so far, and
the second eigenvalue mu2 of N'(u)h = mu A h at the reported state falls as
the coupling grows (0.890, 0.672 and 0.421 at lam = 0.1, 1 and 100 for
p = 2), so the descent from a warm start contracts faster the larger the
coupling.  On the radius-16 sweeps at p = 1.55, 2, 3 and 6 no coupling
row's random start beat its warm starts by more than 4e-16 relative.

A random start leaves the descent as merged once its limit is certified to
lie near an earlier start's (see _lockstep_descent): at p = 2 the random
starts of the radius-32 solve merge after 7 of the 14 steps they take alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, is_dataclass, replace
from types import SimpleNamespace
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.sparse import diags
from scipy.sparse.linalg import cg as _scipy_cg
from scipy.sparse.linalg import splu

from . import variational as _var
from .calculus import bump_field, pair_sums, row_dot, w22_norm_sq
from .errors import ChoquardError, ConvergenceError, InitializerError, InputError, ParameterError
from .fields import Field
from .lattice import _as_site, difference_rows
from .variational import MODE_DIRICHLET, MODE_FULL, ProblemSpec

STATUS_CONVERGED = "converged"
STATUS_STALLED = "stalled"
STATUS_INADMISSIBLE = "inadmissible"
STATUS_MERGED = "merged"

_MIN_STEP = 1.0e-14
# starts whose levels lie within this relative distance of the least level
# are ties to round-off; the first of them in start order is reported
_TIE_TOL = 1.0e-12
# a random start merges into an earlier row once their limits are certified
# to lie within this relative A-distance of each other (see _lockstep_descent)
_MERGE_TOL = 1.0e-3
# CG's relative residual and iteration limit, and the widest half-bandwidth
# of A factored as a band (a box of radius 40 in dimension 2); see _operator_solver
_CG_TOL = 1.0e-10
_CG_MAX_ITERATIONS = 5000
_BAND_MAX_KD = 162
# the Armijo test's decrease factor, and the step's shrink per rejected trial
_SUFFICIENT_DECREASE = 1.0e-4
_SHRINK = 0.5
# the largest relative constraint defect |a - D| / a of a converged start
_NEHARI_TOL = 1.0e-10


@dataclass(frozen=True)
class SolverConfig:
    """Descent and restart parameters.

    ``restarts`` random positive starts join the well-bump start in a lone
    solve, on a sweep's well problem, and in its coupling rows until one
    coupling has converged (see lambda_sweep).
    """

    max_iterations: int = 400
    residual_tol: float = 1.0e-8
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.residual_tol < math.inf:
            raise ParameterError(f"residual_tol must be finite and > 0, got {self.residual_tol}")
        for name, least in (("max_iterations", 1), ("restarts", 0), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < least:
                raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    energy: float
    norm_sq: float
    nehari_defect: float
    dual_residual: float
    step: float


@dataclass(frozen=True)
class StartRecord:
    """How one start of a ground_state ended.

    ``status`` is converged, merged (the start left the descent once its
    limit was certified to lie near an earlier start's), stalled (the
    descent failed) or inadmissible (the start has no projection onto the
    constraint set).  ``level`` is set for converged starts and, at the
    merge, for merged ones; ``reason`` is set for every start that did not
    converge.
    """

    label: str
    status: str
    iterations: int
    level: Optional[float]
    reason: Optional[str]


@dataclass(frozen=True)
class SolveResult:
    """Converged minimizer with its level and per-iteration history (see ground_state)."""

    u: Field
    level: float
    dual_residual: float
    nehari_defect: float
    iterations: int
    converged: bool
    history: Tuple[IterationRecord, ...]
    start_labels: Tuple[str, ...]
    start_levels: Tuple[float, ...]
    start_index: int
    restart_spread: float
    starts: Tuple[StartRecord, ...]


@dataclass(frozen=True)
class _Outcome:
    """How one row of _lockstep_descent ended, with one record per iteration.

    ``level`` is set when the row converged (``u`` holds its free-site values) or merged (into row ``into``).
    """

    status: str
    history: Tuple[IterationRecord, ...] = ()
    level: Optional[float] = None
    reason: Optional[str] = None
    u: Optional[np.ndarray] = None
    into: int = -1


def cg_solve(rhs: np.ndarray, prob: ProblemSpec) -> np.ndarray:
    """Solve A x = rhs for one row of free-site values by diagonally preconditioned CG.

    The preconditioner is built on the first call for a problem and cached on it.
    """
    n_free = prob.free_indices().size
    if rhs.shape != (n_free,):
        raise InputError(f"expected {n_free} free-site values, got shape {rhs.shape}")
    b_norm = float(np.linalg.norm(rhs))
    if b_norm == 0.0:
        return np.zeros(n_free)
    matrix = prob.operator_matrix()
    precond = prob._cached("jacobi", lambda: diags(1.0 / matrix.diagonal()))
    x, info = _scipy_cg(matrix, rhs, rtol=_CG_TOL, atol=0.0, maxiter=_CG_MAX_ITERATIONS, M=precond)
    if info != 0:
        residual = float(np.linalg.norm(matrix @ x - rhs)) / b_norm
        raise ConvergenceError(
            f"linear solve stalled after {_CG_MAX_ITERATIONS} iterations "
            f"(relative residual {residual:.3e})",
            residual=residual,
        )
    return x


def _cg_rows(rhs: np.ndarray, prob: ProblemSpec) -> np.ndarray:
    """cg_solve of each row of rhs, with NaN in a row whose solve stalls."""
    rows = np.atleast_2d(rhs)
    out = np.empty_like(rows)
    for i, row in enumerate(rows):
        try:
            out[i] = cg_solve(row, prob)
        except ConvergenceError:
            out[i] = np.nan
    return out.reshape(rhs.shape)


def _operator_solver(prob: ProblemSpec):
    """The function (rows, prob) -> A^{-1} rows for the problem's operator A, built once and cached.

    A is symmetric positive definite and banded in the window's site order,
    with half-bandwidth kd = 2(2r + 1) on a box of radius r in dimension 2.
    Dimension >= 3 solves row by row (_cg_rows).  Up to kd = _BAND_MAX_KD a
    LAPACK band Cholesky factor solves all rows as the columns of one
    right-hand side, one column at a time; wider bands use a sparse LU
    factor, whose minimum-degree ordering of A + A^T with diagonal pivots
    keeps the fill low: 11.9M nonzeros at radius 128 in dimension 2,
    against 34M in the band.  The function takes the problem as an
    argument, so the cache holds no reference back to it.  Runs on a
    2-core VM at lam = 100 set the crossovers:

    - band Cholesky against sparse LU, in dimension 2.  The band factor
      takes 2.7 ms at radius 16 against 5.7 ms, and 12 ms at radius 32
      against 28 ms.  Each band solve reads the whole band, so past radius
      32 the solves lose what the factor gains.  In ``solve --lambda 100``
      (8 calls, 43 rows) factor and solves together take 44 against 69 ms
      at radius 36, 95 against 118 ms at radius 40 (kd = 162), 114 against
      94 ms at radius 44 and 147 against 133 ms at radius 48 (medians of
      5), so bands up to kd = 162 use the band factor.  From radius 40 on
      the band also raises the command's peak RSS: by 1.8 MB at radius 40
      and by 7.8 MB at radius 64;
    - sparse LU against CG: the LU factor takes 7 ms at radius 16, 33 ms
      at radius 32 and 0.25 s at radius 64; a solve then takes 0.20, 0.98
      and 7.3 ms against 1.7, 2.8 and 10.7 ms for CG;
    - dimension 3: the fill grows too fast.  At radius 8 the LU factor
      takes 0.40 s and 38 MB, and a solve 8.4 ms against 5.6 ms for CG; at
      radius 12 the factor takes 5.3 s and 0.53 GB, and at radius 16 36 s
      and 1.8 GB.  The whole ``solve --dim 3 --radius 8 --lambda 100``
      command took 1.0-1.2 s and 80 MB with CG against 2.3-2.4 s and
      110 MB with LU.
    """

    def build():
        if prob.dim >= 3:
            return _cg_rows
        a = prob.operator_matrix()
        # indices are sorted, so each row's first entry is its leftmost
        kd = int((np.arange(a.shape[0]) - a.indices[a.indptr[:-1]]).max())
        if kd > _BAND_MAX_KD:
            lu = splu(
                a.tocsc(),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0,
                options={"SymmetricMode": True},
            )
            return lambda rhs, _prob: lu.solve(rhs.T).T
        coo = a.tocoo()
        lower = coo.row >= coo.col
        band = np.zeros((kd + 1, a.shape[0]), order="F")
        band[(coo.row - coo.col)[lower], coo.col[lower]] = coo.data[lower]
        chol = (cholesky_banded(band, overwrite_ab=True, lower=True), True)
        return lambda rhs, _prob: cho_solve_banded(chol, rhs.T, check_finite=False).T

    return prob._cached("solver", build)


def linear_solve(rhs: np.ndarray, prob: ProblemSpec) -> np.ndarray:
    """Solve A x = rhs for every row of free-site values rhs.

    ``rhs`` holds one right-hand side per row of at most one leading axis,
    each with one value per free site (prob.free_indices()); the solutions
    come back the same way, and any other shape raises InputError.  Each
    row is solved on its own, so it does not depend on the batch, by the
    band Cholesky, sparse LU or CG path that _operator_solver picks.
    """
    n_free = prob.free_indices().size
    if rhs.ndim not in (1, 2) or rhs.shape[-1] != n_free:
        raise InputError(f"expected one or more rows of {n_free} free-site values, got shape {rhs.shape}")
    return _operator_solver(prob)(rhs, prob)


def _lockstep_descent(
    prob: ProblemSpec, cfg: SolverConfig, x0: np.ndarray, mergeable: Optional[np.ndarray] = None
) -> list:
    """Projected descent from every row of x0 (free-site values) at once.

    Returns one _Outcome per row: converged, merged into an earlier row,
    stalled, or inadmissible when the start admits no projection.  A row
    leaves the batch when it converges, merges or fails.  Rows share no
    arithmetic, so each row that does not merge ends as it would alone, and
    a merged row's history is its lone run's up to the merge.  The stopping
    test uses the dual residual delta_k = sqrt(<g_k, z_k>), z_k = A^{-1} g_k.

    A row whose entry of ``mergeable`` is true (none when it is None) merges,
    before its line search, into the first earlier row that has not merged
    once ||x_i - sigma x_j||_A + R_i + R_j <= _MERGE_TOL ||x_j||_A, with
    sigma the sign of <x_i, A x_j>.  A row's reach R = delta_k / (1 - rho),
    with rho the larger of its last two ratios delta_k / delta_{k-1}, bounds
    how far it still moves while its residual keeps contracting that fast;
    R is infinite until two ratios exist and while rho >= 1.  The terms come
    from the Gram matrix of x against A x, one k x k product per step.
    """
    outcomes = [None] * len(x0)
    histories = [[] for _ in x0]
    start = _var.project_values(x0, prob)
    admissible = np.isfinite(start.energy)
    for i in np.nonzero(~admissible)[0]:
        outcomes[i] = _Outcome(
            STATUS_INADMISSIBLE,
            reason="pair energy vanishes; no scale meets the constraint"
            if start.vanishes[i]
            else "squared norm or pair energy is not finite",
        )
    mergeable = np.zeros(len(x0), dtype=bool) if mergeable is None else np.asarray(mergeable)
    rows = np.nonzero(admissible)[0]
    x, zero = start.values[rows], np.zeros(rows.size)
    # the rows still descending, one entry per row in every array: batch
    # position, state, and the previous iteration's <g, z>, accepted step
    # s d, dual residual and its ratio (none yet: beta 0, reach infinite)
    live = SimpleNamespace(
        rows=rows, x=x, pair=start.pair_energy[rows], conv=start.conv[rows],
        gz=zero, step=np.zeros_like(x), dual=zero, ratio=zero + np.inf,
    )
    for it in range(1, cfg.max_iterations + 1):
        if live.rows.size == 0:
            break
        ax = _var.operator_values(live.x, prob)
        a = row_dot(live.x, ax)
        level = 0.5 * a - live.pair / (2.0 * prob.p)
        defect = a - live.pair
        grad = _var.gradient_values(live.x, ax, live.conv, prob)
        z = linear_solve(grad, prob)
        finite = np.isfinite(z).all(axis=1)
        gz = row_dot(grad, z)
        dual = np.sqrt(np.maximum(gz, 0.0))
        direction, slope = _fr_direction(grad, z, gz, live.gz, live.step)
        # the line search's batched convolutions set the peak memory; free
        # what it does not need
        del z
        live.step = None
        done = finite & (dual <= cfg.residual_tol * np.sqrt(a)) & (np.abs(defect) <= _NEHARI_TOL * a)
        ratio = np.divide(dual, live.dual, out=np.full_like(dual, np.inf), where=live.dual > 0.0)
        rho = np.maximum(ratio, live.ratio)
        reach = np.divide(dual, 1.0 - rho, out=np.full_like(dual, np.inf), where=rho < 1.0)
        into = _merge_targets(live.x, ax, a, reach, mergeable[live.rows] & finite & ~done)
        taken, overflow = _line_search(prob, live, level, direction, slope, finite & ~done & (into < 0))
        values = np.column_stack((level, a, defect, dual, taken)).tolist()
        keep = _settle(it, live, values, finite, done, into, overflow, histories, outcomes)
        live.gz, live.step, live.dual, live.ratio = gz, taken[:, None] * direction, dual, ratio
        live = SimpleNamespace(**{name: array[keep] for name, array in vars(live).items()})
    for i in live.rows:
        reason = f"no convergence within {cfg.max_iterations} iterations"
        outcomes[i] = _Outcome(STATUS_STALLED, tuple(histories[i]), reason=reason)
    return outcomes


def _fr_direction(
    grad: np.ndarray, z: np.ndarray, gz: np.ndarray, last_gz: np.ndarray, last_step: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's search direction d and its slope <g, d>, by Fletcher-Reeves in the A^{-1} metric.

    d = z + beta s d', where z = A^{-1} g, s d' is the row's last accepted
    step and beta = <g, z> / <g', z'> (``gz`` over ``last_gz``), 0 on the
    row's first step, where ``last_gz`` is 0.  A row whose <g, d> <= 0
    resets to d = z, with slope <g, z>.
    """
    beta = np.divide(gz, last_gz, out=np.zeros(gz.size), where=last_gz > 0.0)
    direction = z + beta[:, None] * last_step
    slope = row_dot(grad, direction)
    reset = ~(slope > 0.0)
    direction[reset] = z[reset]
    slope[reset] = gz[reset]
    return direction, slope


def _line_search(
    prob: ProblemSpec, live: SimpleNamespace, level: np.ndarray, d: np.ndarray, slope: np.ndarray, searching: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Armijo backtracking along -d of the rows marked ``searching``, one batched round of trials at a time.

    A row takes the first s = 1, 1/2, ... (down to _MIN_STEP) whose projected
    x - s d passes the Armijo test, which replaces its x, pair and conv in
    ``live``.  Near the minimizer the required decrease c*s*slope drops
    below the round-off of the energy itself, and the noise allowance keeps
    the search from rejecting the (locally contractive) full step.  Returns
    each row's step (0 where none passed) and whether a trial was not finite.
    """
    searching = searching.copy()
    overflow = np.zeros(level.size, dtype=bool)
    step = np.ones(level.size)
    taken = np.zeros(level.size)
    noise = 64.0 * np.finfo(float).eps * (1.0 + np.abs(level))
    while True:
        trying = np.nonzero(searching & (step >= _MIN_STEP))[0]
        if trying.size == 0:
            return taken, overflow
        trial = _var.project_values(live.x[trying] - step[trying, None] * d[trying], prob)
        ok = np.isfinite(trial.energy)
        bad = ~ok & ~trial.vanishes
        bound = (level - _SUFFICIENT_DECREASE * step * slope + noise)[trying]
        passed = ok & (trial.energy <= bound)
        won = trying[passed]
        live.x[won] = trial.values[passed]
        live.pair[won] = trial.pair_energy[passed]
        live.conv[won] = trial.conv[passed]
        taken[won] = step[won]
        overflow[trying[bad]] = True
        searching[trying[passed | bad]] = False
        step[trying[~passed & ~bad]] *= _SHRINK


def _settle(
    it: int,
    live: SimpleNamespace,
    values: list,
    finite: np.ndarray,
    done: np.ndarray,
    into: np.ndarray,
    overflow: np.ndarray,
    histories: list,
    outcomes: list,
) -> np.ndarray:
    """Record iteration ``it`` of each live row in ``histories``, or its outcome in ``outcomes``.

    ``values`` holds each row's (level, a, defect, dual residual, step).  A
    row whose direction is not finite stalls without a record of ``it``; the
    others converge, merge, go on (a positive step) or stall.  Returns which
    rows go on.
    """
    keep = np.zeros(live.rows.size, dtype=bool)
    for pos, (i, record) in enumerate(zip(live.rows, values)):
        history = histories[i]
        if not finite[pos]:
            reason = f"search direction is not finite at iteration {it}"
            outcomes[i] = _Outcome(STATUS_STALLED, tuple(history), reason=reason)
            continue
        history.append(IterationRecord(it, *record))
        level, a, _, dual, step = record
        if done[pos]:
            outcomes[i] = _Outcome(STATUS_CONVERGED, tuple(history), level=level, u=live.x[pos])
        elif into[pos] >= 0:
            outcomes[i] = _Outcome(STATUS_MERGED, tuple(history), level=level, into=int(live.rows[into[pos]]))
        elif step > 0.0:
            keep[pos] = True
        else:
            what = "a line-search trial is not finite" if overflow[pos] else "line search stagnated"
            reason = f"{what} at iteration {it} (relative dual residual {dual / math.sqrt(a):.3e})"
            outcomes[i] = _Outcome(STATUS_STALLED, tuple(history), reason=reason)
    return keep


def _merge_targets(
    x: np.ndarray, ax: np.ndarray, a: np.ndarray, reach: np.ndarray, eligible: np.ndarray
) -> np.ndarray:
    """Batch position of the row each eligible row merges into, else -1 (see _lockstep_descent)."""
    into = np.full(a.size, -1)
    candidates = np.nonzero(eligible & np.isfinite(reach))[0]
    if candidates.size == 0:
        return into
    gram = np.abs(x[candidates] @ ax.T)
    norm = np.sqrt(a)
    for row, i in zip(gram, candidates):
        j = np.nonzero(into[:i] < 0)[0]
        dist = np.sqrt(np.maximum(a[i] + a[j] - 2.0 * row[j], 0.0))
        hits = np.nonzero(dist + reach[i] + reach[j] <= _MERGE_TOL * norm[j])[0]
        if hits.size:
            into[i] = j[hits[0]]
    return into


def ground_state(
    prob: ProblemSpec,
    cfg: SolverConfig,
    extra_starts: Sequence[Field] = (),
) -> SolveResult:
    """Least-level minimizer over the configured starts.

    Runs projected descent from a smoothed well bump, ``cfg.restarts``
    random positive fields, and any extra starts, all in lockstep, and
    returns the first converged run, in start order, whose level is within a
    relative 1e-12 of the least converged level, so that round-off among
    tied starts cannot change the report.  The random starts alone may merge
    into an earlier start (see _lockstep_descent); a merged start whose
    target does not converge counts as stalled.  ``start_labels`` and
    ``start_levels`` list the converged and merged starts, with a merged
    start's level taken at the merge, ``restart_spread`` is their relative
    spread (max - min)/|min|, and ``starts`` records how every start ended,
    failed ones included.
    """
    rng = np.random.default_rng(cfg.seed)
    labels, starts = ["well-bump"], [bump_field(prob.window, prob.well).values]
    for k in range(cfg.restarts):
        labels.append(f"random-positive-{k + 1}")
        starts.append(rng.random(prob.window.count))
    for k, extra in enumerate(extra_starts):
        _var._check_window(extra, prob)
        labels.append(f"extra-{k}")
        starts.append(extra.values)

    position = np.arange(len(starts))
    mergeable = (position >= 1) & (position <= cfg.restarts)
    outcomes = _lockstep_descent(prob, cfg, prob.restrict(np.array(starts)), mergeable)
    records = []
    for label, out in zip(labels, outcomes):
        status, level, reason = out.status, out.level, out.reason
        # a target precedes its merged starts, so its record is made
        if status == STATUS_MERGED:
            reason = f"merged into {labels[out.into]} at iteration {len(out.history)}"
            if records[out.into].status not in (STATUS_CONVERGED, STATUS_MERGED):
                status, level, reason = STATUS_STALLED, None, f"{reason}, which did not converge"
        records.append(StartRecord(label, status, len(out.history), level, reason))
    listed = [k for k, rec in enumerate(records) if rec.status in (STATUS_CONVERGED, STATUS_MERGED)]
    if not listed:
        stalled = [k for k, rec in enumerate(records) if rec.status == STATUS_STALLED]
        if not stalled:
            raise InitializerError(f"no start is admissible; last failure [{labels[-1]}]: {records[-1].reason}")
        rec, history = records[stalled[-1]], outcomes[stalled[-1]].history
        raise ConvergenceError(
            f"no start converged ({len(stalled)} stalled, "
            f"{len(records) - len(stalled)} inadmissible); last failure [{rec.label}]: {rec.reason}",
            residual=history[-1].dual_residual / math.sqrt(history[-1].norm_sq) if history else None,
            history=history,
        )

    levels = tuple(records[k].level for k in listed)
    converged = [k for k in listed if records[k].status == STATUS_CONVERGED]
    least = min(records[k].level for k in converged)
    first = next(k for k in converged if records[k].level <= least + _TIE_TOL * abs(least))
    best = outcomes[first]
    return SolveResult(
        u=Field(prob.window, prob.extend(best.u)),
        level=best.level,
        dual_residual=best.history[-1].dual_residual,
        nehari_defect=best.history[-1].nehari_defect,
        iterations=len(best.history),
        converged=True,
        history=best.history,
        start_labels=tuple(labels[k] for k in listed),
        start_levels=levels,
        start_index=listed.index(first),
        restart_spread=(max(levels) - min(levels)) / abs(min(levels)),
        starts=tuple(records),
    )


def sign_aligned_distance(u: Field, ref: Field) -> float:
    """W^{2,2} distance to ref, minimized over the sign of u."""
    direct = w22_norm_sq(u - ref)
    flipped = w22_norm_sq(Field(u.window, -u.values) - ref)
    return math.sqrt(min(direct, flipped))


@dataclass(frozen=True)
class SweepRow:
    """One coupling of a sweep; four fields declare a report key other than their name."""

    lam: float = field(metadata={"key": "lambda"})
    converged: bool
    level: Optional[float] = field(metadata={"key": "m_lambda"})
    w22_distance: Optional[float] = field(metadata={"key": "w22_dist"})
    outside_mass: Optional[float]
    iterations: Optional[int]
    dual_residual: Optional[float] = field(metadata={"key": "residual"})
    starts: Tuple[StartRecord, ...]
    reason: Optional[str]


@dataclass(frozen=True)
class SweepVerdicts:
    """Monotonicity and limit checks over the converged sweep rows."""

    level_nondecreasing: Optional[bool]
    level_at_most_well: Optional[bool]
    distance_decreasing: Optional[bool]
    outside_mass_decreasing: Optional[bool]
    final_level_rel_gap: Optional[float]
    final_distance_rel: Optional[float]


@dataclass(frozen=True)
class ConvergenceReport:
    lambda_grid: Tuple[float, ...]
    rows: Tuple[SweepRow, ...]
    well_level: float
    well_result: SolveResult
    verdicts: SweepVerdicts
    all_converged: bool


def _sweep_verdicts(rows: Sequence[SweepRow], well_level: float, ref_norm: float) -> SweepVerdicts:
    done = [r for r in rows if r.converged]
    if not done:
        return SweepVerdicts(None, None, None, None, None, None)
    levels = [r.level for r in done]
    dists = [r.w22_distance for r in done]
    masses = [r.outside_mass for r in done]
    pairs = list(zip(levels, levels[1:]))
    return SweepVerdicts(
        level_nondecreasing=all(b >= a - 1.0e-8 for a, b in pairs),
        level_at_most_well=all(lvl <= well_level for lvl in levels),
        distance_decreasing=all(b < a for a, b in zip(dists, dists[1:])),
        outside_mass_decreasing=all(b < a for a, b in zip(masses, masses[1:])),
        final_level_rel_gap=abs(levels[-1] - well_level) / abs(well_level),
        final_distance_rel=dists[-1] / ref_norm,
    )


def lambda_sweep(base: ProblemSpec, lambda_grid: Sequence[float], cfg: SolverConfig) -> ConvergenceReport:
    """Solve the well problem once, then the weighted problem over the grid.

    Each coupling is solved with the well solution and the previous solution
    as extra starts, which warm-starts the descent and keeps the reported
    levels at or below the well level.  The well problem and every coupling
    up to the first one that converges also run ``cfg.restarts`` random
    starts; once a coupling has converged, later rows run the well bump and
    the two warm starts only, since the warm starts carry the least basin
    found so far and mu2 falls as the coupling grows.  Each row keeps the
    StartRecords of the starts it ran, where the random starts may be
    merged (see ground_state).  A row whose solve raises a package error is
    marked as not converged, with no starts and the error as its reason,
    and the sweep continues.
    """
    grid = tuple(float(x) for x in lambda_grid)
    if not grid:
        raise InputError("coupling grid is empty")
    if not all(0.0 < x < math.inf for x in grid):
        raise InputError("couplings must be finite and positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InputError("coupling grid must be strictly increasing")

    well_prob = replace(base, mode=MODE_DIRICHLET, lam=None)
    well_result = ground_state(well_prob, cfg)
    u_ref = well_result.u
    ref_norm = math.sqrt(w22_norm_sq(u_ref))

    rows = []
    previous = None
    for lam in grid:
        prob = replace(base, mode=MODE_FULL, lam=lam)
        if previous is None:
            extras, row_cfg = (u_ref,), cfg
        else:
            extras, row_cfg = (u_ref, previous), replace(cfg, restarts=0)
        try:
            res = ground_state(prob, row_cfg, extra_starts=extras)
        except ChoquardError as exc:
            rows.append(SweepRow(lam, False, None, None, None, None, None, (), f"{type(exc).__name__}: {exc}"))
            continue
        previous = res.u
        a_vals = prob.potential.values_on(prob.window)
        outside = float((a_vals * res.u.values) @ res.u.values)
        rows.append(
            SweepRow(
                lam=lam,
                converged=True,
                level=res.level,
                w22_distance=sign_aligned_distance(res.u, u_ref),
                outside_mass=outside,
                iterations=res.iterations,
                dual_residual=res.dual_residual,
                starts=res.starts,
                reason=None,
            )
        )
    rows = tuple(rows)
    return ConvergenceReport(
        lambda_grid=grid,
        rows=rows,
        well_level=well_result.level,
        well_result=well_result,
        verdicts=_sweep_verdicts(rows, well_result.level, ref_norm),
        all_converged=all(r.converged for r in rows),
    )


@dataclass(frozen=True)
class SplittingRow:
    shift: Tuple[int, ...]
    distance: int
    norm_defect: float
    nonlocal_defect: float


def brezis_lieb_probe(
    u: Field,
    v: Field,
    shifts: Sequence[Sequence[int]],
    prob: ProblemSpec,
) -> Tuple[SplittingRow, ...]:
    """Splitting defects of norms and pair energy under translations of v.

    For each integer shift z the probe forms u_z = u + v(. - z) and
    tabulates the pointwise-summed defect of the squared W^{2,2} norm
    (exactly zero once the difference stencils of u and the moved v are
    disjoint) and the pair energy defect |D(u_z) - D(u_z - u) - D(u)|, which
    decays like the kernel as the shift grows.  The moved fields leave the
    well, so D is the pair energy over the whole window in either mode; u,
    all v(. - z) and all u_z are rows of one stencil call and one convolution.
    """
    _var._check_window(u, prob)
    _var._check_window(v, prob)
    window = prob.window
    nz = np.nonzero(v.values)[0]
    v_support = window.sites[nz]
    v_reach = window.reach(v_support)
    offsets = []
    moved = np.zeros((len(shifts), window.count))
    for row, shift in zip(moved, shifts):
        offset = np.asarray(_as_site(shift), dtype=np.int64)
        if offset.shape != (prob.dim,):
            raise InputError(f"shift {shift!r} must have {prob.dim} coordinates")
        margin = window.radius - window.reach(v_support + offset)
        if margin < v_reach:
            raise InputError(
                f"shift {tuple(offset.tolist())} leaves margin {margin}, "
                f"need at least the support reach {v_reach}"
            )
        row[window.indices_of(v_support + offset)] = v.values[nz]
        offsets.append(offset)
    k = len(offsets)
    rows = np.concatenate([u.values[None], moved, u.values + moved])
    lap, gamma = difference_rows(window, rows)
    _, d = pair_sums(prob.kernel, window, np.abs(rows) ** prob.p)
    norm_defects = (
        (lap[k + 1 :] ** 2 - lap[1 : k + 1] ** 2 - lap[0] ** 2).sum(axis=-1)
        + (gamma[k + 1 :] - gamma[1 : k + 1] - gamma[0]).sum(axis=-1)
        + (rows[k + 1 :] ** 2 - moved**2 - u.values**2).sum(axis=-1)
    )
    nonlocal_defects = np.abs(d[k + 1 :] - d[1 : k + 1] - d[0])
    return tuple(
        SplittingRow(tuple(offset.tolist()), int(np.abs(offset).sum()), norm, pair)
        for offset, norm, pair in zip(offsets, norm_defects.tolist(), nonlocal_defects.tolist())
    )


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def json_form(value):
    """A result in JSON form for the reports.

    A dataclass becomes a dict keyed by each field's ``key`` metadata, or
    else its name, and a tuple becomes a list; a solution Field is left out,
    since it is written to its own file.
    """
    if is_dataclass(value):
        items = ((f.metadata.get("key", f.name), getattr(value, f.name)) for f in fields(value))
        return {key: json_form(item) for key, item in items if not isinstance(item, Field)}
    if isinstance(value, tuple):
        return [json_form(item) for item in value]
    return value


_CSV_KEYS = ("lambda", "m_lambda", "w22_dist", "outside_mass", "iterations", "residual")


def _csv_cell(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def sweep_csv(report: ConvergenceReport) -> str:
    """Flat table of the sweep with a footer recording the well level."""
    lines = [",".join(_CSV_KEYS)]
    for row in json_form(report.rows):
        lines.append(",".join(_csv_cell(row[key]) for key in _CSV_KEYS))
    lines.append(f"# m_omega = {report.well_level!r}")
    return "\n".join(lines) + "\n"
