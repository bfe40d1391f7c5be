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
the radius-16 sweep.  So per-start iteration counts differ from versions
that used steepest descent.  Levels agree with them to about 1e-14 where
the landscape has one minimum; at p = 1.55, lam = 1, radius 16, where
several local minima lie within 5e-6, the reported level is lower.

Multi-start over a smoothed well bump plus random positive fields
approximates minimality, and all starts descend in lockstep as rows of one
array of free-site values: each step makes one product A X, one
linear_solve for every row still running (a sparse LU factor of A, built
once per problem, in dimension <= 2; preconditioned CG per row in
dimension >= 3) and one batched convolution per round of line-search
trials.  Each trial costs one convolved row, which also gives the next
iterate's pair energy and Euler-Lagrange term.  The coupling sweep solves
the well problem once, then the weighted problem over an increasing grid
with warm starts, reporting levels, distances, and outside-well mass.

``restarts`` random starts run in a lone solve, on the sweep's well problem,
and in each coupling row until one coupling has converged.  Later rows run
the well bump and the two warm starts (the well state and the previous
row's state) only: the warm starts carry the least basin found so far, and
the second eigenvalue mu2 of N'(u)h = mu A h at the reported state falls as
the coupling grows (0.890, 0.672 and 0.421 at lam = 0.1, 1 and 100 for
p = 2), so the descent from a warm start contracts faster the larger the
coupling.  On the radius-16 sweeps at p = 1.55, 2, 3 and 6 no coupling
row's random start beat its warm starts by more than 4e-16 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import cg as _scipy_cg

from . import variational as _var
from .calculus import bump_field, gradient_form, laplacian, nonlocal_energy, row_dot, w22_norm_sq
from .errors import (
    ChoquardError,
    ConvergenceError,
    InitializerError,
    InputError,
    NoProjectionError,
    ParameterError,
)
from .fields import Field
from .variational import MODE_DIRICHLET, MODE_FULL, ProblemSpec

INIT_WELL_BUMP = "well-bump"
INIT_RANDOM_POSITIVE = "random-positive"
_INITIALIZERS = (INIT_WELL_BUMP, INIT_RANDOM_POSITIVE)

STATUS_CONVERGED = "converged"
STATUS_STALLED = "stalled"
STATUS_INADMISSIBLE = "inadmissible"

_MIN_STEP = 1.0e-14
# starts whose levels lie within this relative distance of the least level
# are ties to round-off; the first of them in start order is reported
_TIE_TOL = 1.0e-12


@dataclass(frozen=True)
class SolverConfig:
    """Descent, linear-solve, and restart parameters.

    ``cg_tol`` and ``cg_max_iterations`` apply to the CG solve used in
    dimension >= 3 only; dimension <= 2 solves with a cached sparse LU factor.
    ``restarts`` random positive starts join the primary start in a lone
    solve, on a sweep's well problem, and in its coupling rows until one
    coupling has converged (see lambda_sweep).
    """

    max_iterations: int = 400
    residual_tol: float = 1.0e-8
    nehari_tol: float = 1.0e-10
    cg_tol: float = 1.0e-10
    cg_max_iterations: int = 5000
    shrink: float = 0.5
    sufficient_decrease: float = 1.0e-4
    initializer: str = INIT_WELL_BUMP
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        for name in ("residual_tol", "nehari_tol", "cg_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not 0.0 < self.shrink < 1.0:
            raise ParameterError(f"shrink must lie in (0, 1), got {self.shrink}")
        if not 0.0 < self.sufficient_decrease < 1.0:
            raise ParameterError(f"sufficient_decrease must lie in (0, 1), got {self.sufficient_decrease}")
        if self.max_iterations < 1 or self.cg_max_iterations < 1:
            raise ParameterError("iteration limits must be >= 1")
        if self.restarts < 0:
            raise ParameterError(f"restarts must be >= 0, got {self.restarts}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.initializer not in _INITIALIZERS:
            raise ParameterError(f"initializer must be one of {_INITIALIZERS}, got {self.initializer!r}")


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

    ``status`` is converged, stalled (the descent failed) or inadmissible
    (the start has no projection onto the constraint set); ``level`` is set
    for converged starts only and ``reason`` for failed ones only.
    """

    label: str
    status: str
    iterations: int
    level: Optional[float]
    reason: Optional[str]


@dataclass(frozen=True)
class SolveResult:
    """Converged minimizer with its level and per-iteration history.

    ground_state sets the fields from ``start_labels`` on; one start's
    descent leaves their defaults.
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


def apply_quadratic_operator(u: Field, prob: ProblemSpec) -> Field:
    """A u for A = Delta^2 - Delta + weight; u' A u equals the squared norm."""
    _var._require_admissible(u, prob)
    return Field(prob.window, prob.extend(_var.operator_values(prob.restrict(u.values), prob)))


def cg_solve(rhs: np.ndarray, prob: ProblemSpec, cfg: SolverConfig) -> np.ndarray:
    """Solve A x = rhs for one row of free-site values by diagonally preconditioned CG."""
    n_free = prob.free_indices().size
    if rhs.shape != (n_free,):
        raise InputError(f"expected {n_free} free-site values, got shape {rhs.shape}")
    b_norm = float(np.linalg.norm(rhs))
    if b_norm == 0.0:
        return np.zeros(n_free)
    matrix = prob.operator_matrix()
    precond = diags(1.0 / prob.operator_diagonal())
    x, info = _scipy_cg(matrix, rhs, rtol=cfg.cg_tol, atol=0.0, maxiter=cfg.cg_max_iterations, M=precond)
    if info != 0:
        residual = float(np.linalg.norm(matrix @ x - rhs)) / b_norm
        raise ConvergenceError(
            f"linear solve stalled after {cfg.cg_max_iterations} iterations "
            f"(relative residual {residual:.3e})",
            residual=residual,
        )
    return x


def linear_solve(rhs: np.ndarray, prob: ProblemSpec, cfg: SolverConfig) -> np.ndarray:
    """Solve A x = rhs for every row of free-site values rhs.

    ``rhs`` holds one right-hand side per row of at most one leading axis,
    each with one value per free site (prob.free_indices()); the solutions
    come back the same way.  Dimension <= 2 solves all rows at once with the
    sparse LU factor cached on the problem (ProblemSpec.operator_factor), as
    one (n_free, k) right-hand side whose columns the triangular solves
    treat one at a time, so a row's solution does not depend on the batch.
    Dimension >= 3 runs cg_solve row by row, and a row whose solve stalls
    comes back as NaN, so that only that row fails.  Single runs on a
    2-core VM (lam = 100, random right-hand side) set the crossover:

    - dimension 2: the factor takes 7 ms at radius 16, 33 ms at radius 32 and
      0.25 s at radius 64; a solve then takes 0.20, 0.98 and 7.3 ms against
      1.7, 2.8 and 10.7 ms for CG;
    - dimension 3: the fill grows too fast.  At radius 8 the factor takes
      0.40 s and 38 MB, and a solve 8.4 ms against 5.6 ms for CG; at radius
      12 the factor takes 5.3 s and 0.53 GB, and at radius 16 36 s and
      1.8 GB.  The whole ``solve --dim 3 --radius 8 --lambda 100`` command
      took 1.0-1.2 s and 80 MB with CG against 2.3-2.4 s and 110 MB with LU.
    """
    if prob.dim <= 2:
        return prob.operator_factor().solve(rhs.T).T
    rows = rhs.reshape(-1, rhs.shape[-1])
    out = np.empty_like(rows)
    for i, row in enumerate(rows):
        try:
            out[i] = cg_solve(row, prob, cfg)
        except ConvergenceError:
            out[i] = np.nan
    return out.reshape(rhs.shape)


def _lockstep_descent(prob: ProblemSpec, cfg: SolverConfig, x0: np.ndarray) -> list:
    """Projected descent from every row of x0 (free-site values) at once.

    Returns one outcome per row: a SolveResult when the row converges, a
    ConvergenceError when it stalls, and a NoProjectionError when the start
    admits no projection.  All rows take their steps together: one A x, one
    linear_solve and one batched convolution per step and per line-search
    round, with a per-row Armijo test.  A row leaves the batch when it
    converges or fails.  Rows share no arithmetic, so each start ends as it
    would alone.  Every start and every line-search trial convolves one row.

    A row at step k searches along d_k = z_k + beta_k s_{k-1} d_{k-1}, where
    z_k = A^{-1} g_k, s_{k-1} d_{k-1} is its last accepted step and
    beta_k = <g_k, z_k> / <g_{k-1}, z_{k-1}> (Fletcher-Reeves in the A^{-1}
    metric, 0 on the first step).  Where <g_k, d_k> <= 0 the row resets to
    d_k = z_k.  The Armijo test takes <g_k, d_k> as its slope; the stopping
    test uses the dual residual sqrt(<g_k, z_k>).
    """
    two_p = 2.0 * prob.p
    outcomes = [None] * len(x0)
    histories = [[] for _ in x0]
    start = _var.project_values(prob.extend(x0), prob)
    admissible = np.isfinite(start.energy)
    for i in np.nonzero(~admissible)[0]:
        outcomes[i] = NoProjectionError(
            "pair energy vanishes; no scale meets the constraint"
            if start.vanishes[i]
            else "squared norm or pair energy is not finite"
        )
    rows = np.nonzero(admissible)[0]
    x = prob.restrict(start.values)[rows]
    pair = start.pair_energy[rows]
    conv = start.conv[rows]
    # <g, z> and the accepted step s d of each row's previous iteration
    last_slope = np.zeros(rows.size)
    last_step = np.zeros_like(x)
    for it in range(1, cfg.max_iterations + 1):
        if rows.size == 0:
            break
        ax = _var.operator_values(x, prob)
        a = row_dot(x, ax)
        level = 0.5 * a - pair / two_p
        defect = a - pair
        grad = _var.gradient_values(x, ax, conv, prob)
        z = linear_solve(grad, prob, cfg)
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
        done = finite & (dual <= cfg.residual_tol * np.sqrt(a)) & (np.abs(defect) <= cfg.nehari_tol * a)

        # line search, one round of trials at a time for the rows still
        # searching; near the minimizer the required decrease c*s*slope drops
        # below the round-off of the energy itself, and the noise allowance
        # keeps the search from rejecting the (locally contractive) full step
        searching = finite & ~done
        overflow = np.zeros(rows.size, dtype=bool)
        step = np.ones(rows.size)
        taken = np.zeros(rows.size)
        noise = 64.0 * np.finfo(float).eps * (1.0 + np.abs(level))
        while True:
            live = np.nonzero(searching & (step >= _MIN_STEP))[0]
            if live.size == 0:
                break
            trial = _var.project_values(prob.extend(x[live] - step[live, None] * direction[live]), prob)
            ok = np.isfinite(trial.energy)
            bad = ~ok & ~trial.vanishes
            bound = (level - cfg.sufficient_decrease * step * slope + noise)[live]
            passed = ok & (trial.energy <= bound)
            # accepted rows leave the search, so their iterate is replaced in place
            won = live[passed]
            x[won] = prob.restrict(trial.values[passed])
            pair[won] = trial.pair_energy[passed]
            conv[won] = trial.conv[passed]
            taken[won] = step[won]
            overflow[live[bad]] = True
            searching[live[passed | bad]] = False
            step[live[~passed & ~bad]] *= cfg.shrink

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
                    u=Field(prob.window, prob.extend(x[pos])),
                    level=lv,
                    dual_residual=du,
                    nehari_defect=df,
                    iterations=it,
                    converged=True,
                    history=tuple(history),
                )
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
        rows, x, pair, conv = rows[keep], x[keep], pair[keep], conv[keep]
    for i in rows:
        history = histories[i]
        outcomes[i] = ConvergenceError(
            f"no convergence within {cfg.max_iterations} iterations",
            residual=history[-1].dual_residual / math.sqrt(history[-1].norm_sq),
            history=tuple(history),
        )
    return outcomes


def ground_state(
    prob: ProblemSpec,
    cfg: SolverConfig,
    extra_starts: Sequence[Field] = (),
) -> SolveResult:
    """Least-level minimizer over the configured starts.

    Runs projected descent from the primary initializer, ``cfg.restarts``
    random positive fields, and any extra starts, all in lockstep, and
    returns the first converged run, in start order, whose level is within a
    relative 1e-12 of the least level, so that round-off among tied starts
    cannot change the report.  Per-start levels of the converged starts and
    their relative spread (max - min)/|min| are recorded in the result, and
    ``starts`` records how every start ended, failed ones included.
    """
    rng = np.random.default_rng(cfg.seed)
    if cfg.initializer == INIT_RANDOM_POSITIVE:
        labels, starts = ["random-positive-0"], [rng.random(prob.window.count)]
    else:
        labels, starts = [INIT_WELL_BUMP], [bump_field(prob.window, prob.well, smoothing_time=1.0).values]
    for k in range(cfg.restarts):
        labels.append(f"random-positive-{k + 1}")
        starts.append(rng.random(prob.window.count))
    for k, extra in enumerate(extra_starts):
        _var._check_window(extra, prob)
        labels.append(f"extra-{k}")
        starts.append(extra.values)

    outcomes = _lockstep_descent(prob, cfg, prob.restrict(np.array(starts)))
    records = tuple(_start_record(label, outcome) for label, outcome in zip(labels, outcomes))
    converged = [(label, res) for label, res in zip(labels, outcomes) if isinstance(res, SolveResult)]
    if not converged:
        stalled = [(label, exc) for label, exc in zip(labels, outcomes) if isinstance(exc, ConvergenceError)]
        if not stalled:
            raise InitializerError("every start has vanishing pair energy; no admissible initial field")
        label, exc = stalled[-1]
        raise ConvergenceError(
            f"no start converged ({len(stalled)} stalled, "
            f"{len(outcomes) - len(stalled)} inadmissible); last failure [{label}]: {exc}",
            residual=exc.residual,
            history=exc.history,
        )

    levels = tuple(res.level for _, res in converged)
    least = min(levels)
    best_pos = next(i for i, level in enumerate(levels) if level <= least + _TIE_TOL * abs(least))
    best = converged[best_pos][1]
    spread = (max(levels) - least) / abs(least)
    return replace(
        best,
        start_labels=tuple(label for label, _ in converged),
        start_levels=levels,
        start_index=best_pos,
        restart_spread=spread,
        starts=records,
    )


def _start_record(label: str, outcome) -> StartRecord:
    if isinstance(outcome, SolveResult):
        return StartRecord(label, STATUS_CONVERGED, outcome.iterations, outcome.level, None)
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
    StartRecords of the starts it ran.  A row whose solve raises a package
    error is marked as not converged, with no starts, and the sweep
    continues.
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
        except ChoquardError:
            rows.append(SweepRow(lam, False, None, None, None, None, None, ()))
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

    For each shift z the probe forms u_z = u + v(. - z) and tabulates the
    pointwise-summed defect of the squared W^{2,2} norm (exactly zero once
    the difference stencils of u and the moved v are disjoint) and the pair
    energy defect |D(u_z) - D(u_z - u) - D(u)|, which decays like the kernel
    as the shift grows.  The moved fields leave the well, so D is the pair
    energy over the whole window (calculus.nonlocal_energy) in either mode.
    """
    _var._check_window(u, prob)
    _var._check_window(v, prob)
    v_support = v.support().as_array().reshape(-1, prob.dim)
    v_reach = prob.window.reach(v_support)
    d_u = nonlocal_energy(u, prob.kernel, prob.p)
    lap_u = laplacian(u)
    gam_u = gradient_form(u, u)
    rows = []
    for shift in shifts:
        offset = np.asarray(shift, dtype=np.int64)
        if offset.shape != (prob.dim,):
            raise InputError(f"shift {shift!r} must have {prob.dim} coordinates")
        moved_support = v_support + offset
        margin = prob.window.radius - prob.window.reach(moved_support)
        if margin < v_reach:
            raise InputError(
                f"shift {tuple(int(c) for c in offset)} leaves margin {margin}, "
                f"need at least the support reach {v_reach}"
            )
        vz = v.translated(offset)
        combined = u + vz
        d_vz = nonlocal_energy(vz, prob.kernel, prob.p)
        d_comb = nonlocal_energy(combined, prob.kernel, prob.p)
        lap_c, lap_v = laplacian(combined), laplacian(vz)
        gam_c, gam_v = gradient_form(combined, combined), gradient_form(vz, vz)
        norm_defect = float(
            (lap_c.values**2 - lap_v.values**2 - lap_u.values**2).sum()
            + (gam_c.values - gam_v.values - gam_u.values).sum()
            + (combined.values**2 - vz.values**2 - u.values**2).sum()
        )
        rows.append(
            SplittingRow(
                shift=tuple(int(c) for c in offset),
                distance=int(np.abs(offset).sum()),
                norm_defect=norm_defect,
                nonlocal_defect=abs(d_comb - d_vz - d_u),
            )
        )
    return tuple(rows)


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
