"""Ground-state solver, coupling sweep, and splitting probe.

The solver minimizes J over the constraint set by projected nonlinear
conjugate gradients: each step solves A z = J'(u) with the problem operator
A (so z is the gradient in the problem inner product), takes the
Fletcher-Reeves direction d = z + beta * (the last accepted step), with beta
the ratio of <J'(u), z> to its value at the previous step, backtracks along
u - s d, and re-projects onto the constraint set.  A start whose d is no
descent direction (<J'(u), d> <= 0) falls back to d = z.  Steepest descent
along z contracts the dual residual only by the second eigenvalue of
N'(u)h = mu A h per step, which nears 1 at small couplings and at p near
(N + alpha)/N; the conjugate directions take about a third fewer steps on
the radius-16 sweep.

Multi-start over a smoothed well bump plus random positive fields
approximates minimality, and all starts descend in lockstep as rows of one
array of free-site values: each step makes one product A X, one
linear_solve for every row still running (a band Cholesky or sparse LU
factor of A, built once per problem, in dimension <= 2; preconditioned
CG per row in dimension >= 3) and one batched convolution per round of
line-search trials.  Each trial costs one convolved row, which also gives
the next iterate's pair energy and Euler-Lagrange term.  The coupling
sweep solves the well problem once, then the weighted problem over an
increasing grid with warm starts, reporting levels, distances, and
outside-well mass.

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
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import cg as _scipy_cg

from . import variational as _var
from .calculus import bump_field, pair_sums, row_dot, w22_norm_sq
from .errors import (
    ChoquardError,
    ConvergenceError,
    InitializerError,
    InputError,
    NoProjectionError,
    ParameterError,
)
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
# dimension >= 3 solves by CG to this relative residual within this many
# iterations; dimension <= 2 solves with a cached factor of A
_CG_TOL = 1.0e-10
_CG_MAX_ITERATIONS = 5000
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
    """Converged minimizer with its level and per-iteration history.

    ground_state sets the fields from ``start_labels`` on, and makes ``u``
    a Field; one start's descent (_lockstep_descent) leaves their defaults
    and its free-site row in ``u``.
    """

    u: Field
    level: float
    dual_residual: float
    nehari_defect: float
    iterations: int
    converged: bool
    history: Tuple[IterationRecord, ...]
    start_labels: Tuple[str, ...] = ()
    start_levels: Tuple[float, ...] = ()
    start_index: int = 0
    restart_spread: float = 0.0
    starts: Tuple[StartRecord, ...] = ()


@dataclass(frozen=True)
class _Merged:
    """A row that left the descent at iteration ``iterations`` for the earlier row ``into``."""

    into: int
    iterations: int
    level: float
    history: Tuple[IterationRecord, ...]


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


def linear_solve(rhs: np.ndarray, prob: ProblemSpec) -> np.ndarray:
    """Solve A x = rhs for every row of free-site values rhs.

    ``rhs`` holds one right-hand side per row of at most one leading axis,
    each with one value per free site (prob.free_indices()); the solutions
    come back the same way, and any other shape raises InputError.
    Dimension <= 2 solves all rows at once with the factor cached on the
    problem (ProblemSpec.operator_factor), as one (n_free, k) right-hand
    side whose columns the triangular solves treat one at a time, so a
    row's solution does not depend on the batch.  Dimension >= 3 runs
    cg_solve row by row, and a row whose solve stalls comes back as NaN,
    so that only that row fails.  Runs on a 2-core VM at lam = 100 set the
    crossovers:

    - band Cholesky against sparse LU, in dimension 2, where a box of
      radius r has half-bandwidth kd = 2(2r + 1).  The band factor takes
      2.7 ms at radius 16 against 5.7 ms, and 12 ms at radius 32 against
      28 ms.  Each band solve reads the whole band, so past radius 32 the
      solves lose what the factor gains.  In ``solve --lambda 100`` (8
      calls, 43 rows) factor and solves together take 44 against 69 ms at
      radius 36, 95 against 118 ms at radius 40 (kd = 162), 114 against
      94 ms at radius 44 and 147 against 133 ms at radius 48 (medians of
      5), so bands up to kd = 162 use the band factor.  From radius 40 on
      the band also raises the command's peak RSS: by 1.8 MB at radius 40
      and by 7.8 MB at radius 64;
    - sparse LU against CG: the LU factor takes 7 ms at radius 16, 33 ms
      at radius 32 and 0.25 s at radius 64; a solve then takes 0.20, 0.98
      and 7.3 ms against 1.7, 2.8 and 10.7 ms for CG;
    - dimension 3: the fill grows too fast.  At radius 8 the factor takes
      0.40 s and 38 MB, and a solve 8.4 ms against 5.6 ms for CG; at radius
      12 the factor takes 5.3 s and 0.53 GB, and at radius 16 36 s and
      1.8 GB.  The whole ``solve --dim 3 --radius 8 --lambda 100`` command
      took 1.0-1.2 s and 80 MB with CG against 2.3-2.4 s and 110 MB with LU.
    """
    n_free = prob.free_indices().size
    if rhs.ndim not in (1, 2) or rhs.shape[-1] != n_free:
        raise InputError(f"expected one or more rows of {n_free} free-site values, got shape {rhs.shape}")
    if prob.dim <= 2:
        return prob.operator_factor()(rhs.T).T
    rows = np.atleast_2d(rhs)
    out = np.empty_like(rows)
    for i, row in enumerate(rows):
        try:
            out[i] = cg_solve(row, prob)
        except ConvergenceError:
            out[i] = np.nan
    return out.reshape(rhs.shape)


def _lockstep_descent(
    prob: ProblemSpec, cfg: SolverConfig, x0: np.ndarray, mergeable: Optional[np.ndarray] = None
) -> list:
    """Projected descent from every row of x0 (free-site values) at once.

    Returns one outcome per row: a SolveResult when the row converges, a
    _Merged when it merges into an earlier row, a ConvergenceError when it
    stalls, and a NoProjectionError when the start admits no projection.
    All rows take their steps together: one A x, one linear_solve and one
    batched convolution per step and per line-search round, with a per-row
    Armijo test.  A row leaves the batch when it converges, merges or fails.
    Rows share no arithmetic, so each row that does not merge ends as it
    would alone, and a merged row's history is its lone run's up to the
    merge.  Every start and every line-search trial convolves one row.

    A row at step k searches along d_k = z_k + beta_k s_{k-1} d_{k-1}, where
    z_k = A^{-1} g_k, s_{k-1} d_{k-1} is its last accepted step and
    beta_k = <g_k, z_k> / <g_{k-1}, z_{k-1}> (Fletcher-Reeves in the A^{-1}
    metric, 0 on the first step).  Where <g_k, d_k> <= 0 the row resets to
    d_k = z_k.  The Armijo test takes <g_k, d_k> as its slope; the stopping
    test uses the dual residual delta_k = sqrt(<g_k, z_k>).

    A row whose entry of ``mergeable`` is true (none when it is None) merges,
    before its line search, into the first earlier row that has not merged
    once ||x_i - sigma x_j||_A + R_i + R_j <= _MERGE_TOL ||x_j||_A, with
    sigma the sign of <x_i, A x_j>.  A row's reach R = delta_k / (1 - rho),
    with rho the larger of its last two ratios delta_k / delta_{k-1}, bounds
    how far it still moves while its residual keeps contracting that fast;
    R is infinite until two ratios exist and while rho >= 1.  The terms come
    from the Gram matrix of x against A x, one k x k product per step.
    """
    two_p = 2.0 * prob.p
    outcomes = [None] * len(x0)
    histories = [[] for _ in x0]
    start = _var.project_values(x0, prob)
    admissible = np.isfinite(start.energy)
    for i in np.nonzero(~admissible)[0]:
        outcomes[i] = NoProjectionError(
            "pair energy vanishes; no scale meets the constraint"
            if start.vanishes[i]
            else "squared norm or pair energy is not finite"
        )
    rows = np.nonzero(admissible)[0]
    x = start.values[rows]
    pair = start.pair_energy[rows]
    conv = start.conv[rows]
    may_merge = np.zeros(rows.size, dtype=bool) if mergeable is None else np.asarray(mergeable)[rows]
    # <g, z>, the accepted step s d, the dual residual and its contraction
    # ratio of each row's previous iteration
    last_slope = np.zeros(rows.size)
    last_step = np.zeros_like(x)
    last_dual = np.zeros(rows.size)
    last_ratio = np.full(rows.size, np.inf)
    for it in range(1, cfg.max_iterations + 1):
        if rows.size == 0:
            break
        ax = _var.operator_values(x, prob)
        a = row_dot(x, ax)
        level = 0.5 * a - pair / two_p
        defect = a - pair
        grad = _var.gradient_values(x, ax, conv, prob)
        z = linear_solve(grad, prob)
        finite = np.isfinite(z).all(axis=1)
        gz = row_dot(grad, z)
        dual = np.sqrt(np.maximum(gz, 0.0))
        beta = np.divide(gz, last_slope, out=np.zeros(rows.size), where=last_slope > 0.0)
        direction = z + beta[:, None] * last_step
        slope = row_dot(grad, direction)
        reset = ~(slope > 0.0)
        direction[reset] = z[reset]
        slope[reset] = gz[reset]
        # the line search's batched convolutions set the peak memory; free
        # what it does not need
        del z, last_step
        done = finite & (dual <= cfg.residual_tol * np.sqrt(a)) & (np.abs(defect) <= _NEHARI_TOL * a)
        ratio = np.divide(dual, last_dual, out=np.full(rows.size, np.inf), where=last_dual > 0.0)
        rho = np.maximum(ratio, last_ratio)
        reach = np.divide(dual, 1.0 - rho, out=np.full(rows.size, np.inf), where=rho < 1.0)
        into = _merge_targets(x, ax, a, reach, may_merge & finite & ~done)

        # line search, one round of trials at a time for the rows still
        # searching; near the minimizer the required decrease c*s*slope drops
        # below the round-off of the energy itself, and the noise allowance
        # keeps the search from rejecting the (locally contractive) full step
        searching = finite & ~done & (into < 0)
        overflow = np.zeros(rows.size, dtype=bool)
        step = np.ones(rows.size)
        taken = np.zeros(rows.size)
        noise = 64.0 * np.finfo(float).eps * (1.0 + np.abs(level))
        while True:
            live = np.nonzero(searching & (step >= _MIN_STEP))[0]
            if live.size == 0:
                break
            trial = _var.project_values(x[live] - step[live, None] * direction[live], prob)
            ok = np.isfinite(trial.energy)
            bad = ~ok & ~trial.vanishes
            bound = (level - _SUFFICIENT_DECREASE * step * slope + noise)[live]
            passed = ok & (trial.energy <= bound)
            # accepted rows leave the search, so their iterate is replaced in place
            won = live[passed]
            x[won] = trial.values[passed]
            pair[won] = trial.pair_energy[passed]
            conv[won] = trial.conv[passed]
            taken[won] = step[won]
            overflow[live[bad]] = True
            searching[live[passed | bad]] = False
            step[live[~passed & ~bad]] *= _SHRINK

        keep = np.zeros(rows.size, dtype=bool)
        values = zip(rows, level.tolist(), a.tolist(), defect.tolist(), dual.tolist(), taken.tolist())
        for pos, (i, lv, av, df, du, st) in enumerate(values):
            history = histories[i]
            if not finite[pos]:
                outcomes[i] = ConvergenceError(
                    f"search direction is not finite at iteration {it}", history=tuple(history)
                )
                continue
            history.append(IterationRecord(it, lv, av, df, du, st))
            if done[pos]:
                outcomes[i] = SolveResult(
                    u=x[pos],
                    level=lv,
                    dual_residual=du,
                    nehari_defect=df,
                    iterations=it,
                    converged=True,
                    history=tuple(history),
                )
            elif into[pos] >= 0:
                outcomes[i] = _Merged(rows[into[pos]], it, lv, tuple(history))
            elif st > 0.0:
                keep[pos] = True
            else:
                what = "a line-search trial is not finite" if overflow[pos] else "line search stagnated"
                outcomes[i] = ConvergenceError(
                    f"{what} at iteration {it} (relative dual residual {du / math.sqrt(av):.3e})",
                    residual=du / math.sqrt(av),
                    history=tuple(history),
                )
        last_slope, last_step = gz[keep], taken[keep, None] * direction[keep]
        last_dual, last_ratio, may_merge = dual[keep], ratio[keep], may_merge[keep]
        rows, x, pair, conv = rows[keep], x[keep], pair[keep], conv[keep]
    for i in rows:
        history = histories[i]
        outcomes[i] = ConvergenceError(
            f"no convergence within {cfg.max_iterations} iterations",
            residual=history[-1].dual_residual / math.sqrt(history[-1].norm_sq),
            history=tuple(history),
        )
    return outcomes


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
    # a target precedes its merged starts, so it is resolved before them
    for i, out in enumerate(outcomes):
        if isinstance(out, _Merged) and not isinstance(outcomes[out.into], (SolveResult, _Merged)):
            last = out.history[-1]
            outcomes[i] = ConvergenceError(
                f"merged into {labels[out.into]} at iteration {out.iterations}, which did not converge",
                residual=last.dual_residual / math.sqrt(last.norm_sq),
                history=out.history,
            )
    records = tuple(_start_record(label, outcome, labels) for label, outcome in zip(labels, outcomes))
    listed = [(label, out) for label, out in zip(labels, outcomes) if isinstance(out, (SolveResult, _Merged))]
    if not listed:
        stalled = [(label, exc) for label, exc in zip(labels, outcomes) if isinstance(exc, ConvergenceError)]
        if not stalled:
            raise InitializerError(f"no start is admissible; last failure [{labels[-1]}]: {outcomes[-1]}")
        label, exc = stalled[-1]
        raise ConvergenceError(
            f"no start converged ({len(stalled)} stalled, "
            f"{len(outcomes) - len(stalled)} inadmissible); last failure [{label}]: {exc}",
            residual=exc.residual,
            history=exc.history,
        )

    levels = tuple(out.level for _, out in listed)
    least = min(out.level for _, out in listed if isinstance(out, SolveResult))
    best_pos = next(
        i
        for i, (_, out) in enumerate(listed)
        if isinstance(out, SolveResult) and out.level <= least + _TIE_TOL * abs(least)
    )
    best = listed[best_pos][1]
    return replace(
        best,
        u=Field(prob.window, prob.extend(best.u)),
        start_labels=tuple(label for label, _ in listed),
        start_levels=levels,
        start_index=best_pos,
        restart_spread=(max(levels) - min(levels)) / abs(min(levels)),
        starts=records,
    )


def _start_record(label: str, outcome, labels: Sequence[str]) -> StartRecord:
    if isinstance(outcome, SolveResult):
        return StartRecord(label, STATUS_CONVERGED, outcome.iterations, outcome.level, None)
    if isinstance(outcome, _Merged):
        reason = f"merged into {labels[outcome.into]} at iteration {outcome.iterations}"
        return StartRecord(label, STATUS_MERGED, outcome.iterations, outcome.level, reason)
    if isinstance(outcome, ConvergenceError):
        return StartRecord(label, STATUS_STALLED, len(outcome.history), None, str(outcome))
    return StartRecord(label, STATUS_INADMISSIBLE, 0, None, str(outcome))


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
