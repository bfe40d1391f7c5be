"""Self-checking property suites behind the ``verify`` subcommand.

Each suite exercises one analytic property of the implementation on the
configured problem (operator identities, convolution inequality sampling,
splitting defects, interpolation, constraint projection, energy geometry,
and the kernel inversion identity) and reports pass/fail with the measured
constants.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from . import calculus as _calculus
from . import kernels as _kernels
from . import variational as _var
from .errors import ChoquardError, InputError, NoProjectionError, ParameterError
from .fields import Field
from .lattice import ball, difference_rows, get_window, resize_rows
from .solver import brezis_lieb_probe
from .variational import MODE_FULL, ProblemSpec


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    details: Dict[str, object]


def _rel_gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def _suite_ops(prob: ProblemSpec, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    window = prob.window
    big, big2 = window.enlarged(1), window.enlarged(2)
    worst_parts = 0.0
    worst_dist = 0.0
    for chunk in _var.sample_chunks(rng, 50, (2,) + prob.free_indices().shape):
        u, phi = prob.extend(chunk[:, 0]), prob.extend(chunk[:, 1])
        lap, gamma = difference_rows(window, u)
        rhs = -_calculus.row_dot(resize_rows(u, window, big), lap)
        worst_parts = max(worst_parts, *_rel_gaps(gamma.sum(axis=-1), rhs).tolist())
        bi = difference_rows(big, lap)[0]
        lap_phi = difference_rows(window, phi)[0]
        lhs2 = _calculus.row_dot(bi, resize_rows(phi, window, big2))
        worst_dist = max(worst_dist, *_rel_gaps(lhs2, _calculus.row_dot(lap, lap_phi)).tolist())

    delta_norm = _calculus.w22_norm_sq(Field.delta(window))
    anchor_gap = abs(delta_norm - float((2 * prob.dim + 1) ** 2))

    worst_sym = 0.0
    worst_form = 0.0
    positive = True
    for chunk in _var.sample_chunks(rng, 20, (2,) + prob.free_indices().shape):
        u, v = prob.extend(chunk[:, 0]), prob.extend(chunk[:, 1])
        au = prob.extend(_var.operator_values(chunk[:, 0], prob))
        av = prob.extend(_var.operator_values(chunk[:, 1], prob))
        # v.Au cancels for sign-changing fields, so the gap is measured
        # against the dot product's round-off scale sum_i |v_i (Au)_i|
        gap = np.abs(_calculus.row_dot(v, au) - _calculus.row_dot(u, av))
        worst_sym = max(worst_sym, *(gap / _calculus.row_dot(np.abs(v), np.abs(au))).tolist())
        quad = _calculus.row_dot(u, au)
        if prob.mode == MODE_FULL:
            direct = _calculus.energy_norm_rows(window, u, prob.potential, prob.lam)
        else:
            direct = _calculus.w22_norm_rows(window, u, prob.well)
        worst_form = max(worst_form, *_rel_gaps(quad, direct).tolist())
        positive = positive and bool(np.all(quad >= _calculus.row_dot(u, u) - 1.0e-9 * quad))
    matrix = prob.operator_matrix()
    exactly_symmetric = (matrix != matrix.T).nnz == 0

    passed = (
        worst_parts <= 1.0e-12
        and worst_dist <= 1.0e-12
        and anchor_gap <= 1.0e-12
        and worst_sym <= 1.0e-12
        and exactly_symmetric
        and worst_form <= 1.0e-10
        and positive
    )
    return SuiteResult(
        "ops",
        passed,
        {
            "integration_by_parts_max": worst_parts,
            "distributional_identity_max": worst_dist,
            "point_mass_norm_gap": anchor_gap,
            "operator_symmetry_max": worst_sym,
            "operator_exactly_symmetric": exactly_symmetric,
            "operator_form_gap_max": worst_form,
            "operator_positive": positive,
        },
    )


def _hls_exponent(prob: ProblemSpec) -> float:
    n = prob.dim
    return 2.0 * n / (n + prob.kernel.alpha)


def _worst_hls_ratio(prob: ProblemSpec, rng: np.random.Generator, pairs: int, r: float) -> float:
    """Largest hls ratio over random pairs (u, v) of nonnegative window values."""
    worst = 0.0
    for chunk in _var.sample_chunks(rng, pairs, (2, prob.window.count)):
        chunk = np.abs(chunk)
        ratios = _calculus.hls_ratios(prob.kernel, prob.window, chunk[:, 0], chunk[:, 1], r, r)
        worst = max(worst, *ratios.tolist())
    return worst


def _suite_hls(prob: ProblemSpec, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    r = _hls_exponent(prob)
    c_hat = _worst_hls_ratio(prob, rng, 200, r)
    c_resampled = _worst_hls_ratio(prob, rng, 200, r)
    drift = abs(c_hat - c_resampled) / max(c_hat, c_resampled)

    u, v = np.abs(rng.standard_normal((2, prob.window.count)))
    base, scaled = _calculus.hls_ratios(
        prob.kernel, prob.window, np.stack([u, 3.7 * u]), np.stack([v, 0.41 * v]), r, r
    ).tolist()
    scale_gap = abs(base - scaled) / base

    passed = math.isfinite(c_hat) and drift < 0.2 and scale_gap <= 1.0e-12
    return SuiteResult(
        "hls",
        passed,
        {
            "C_hat": c_hat,
            "C_hat_resampled": c_resampled,
            "resample_drift": drift,
            "scale_invariance_gap": scale_gap,
            "exponent_r": r,
        },
    )


def _probe_fields(prob: ProblemSpec) -> Tuple[Field, Field]:
    window = prob.window
    inner = {}
    for site in ball((0,) * prob.dim, 2):
        inner[site] = 1.0 / (1.0 + sum(abs(c) for c in site))
    u = Field.from_sites(window, inner)
    small = {}
    for site in ball((0,) * prob.dim, 1):
        small[site] = 1.0 if all(c == 0 for c in site) else 0.5
    v = Field.from_sites(window, small)
    return u, v


def _suite_brezislieb(prob: ProblemSpec, seed: int) -> SuiteResult:
    radius = prob.window.radius
    if radius < 12:
        return SuiteResult("brezislieb", False, {"error": "suite requires window radius >= 12"})
    u, v = _probe_fields(prob)
    far = radius - 2
    shifts = [(6,) + (0,) * (prob.dim - 1), ((6 + far) // 2,) + (0,) * (prob.dim - 1), (far,) + (0,) * (prob.dim - 1)]
    rows = brezis_lieb_probe(u, v, shifts, prob)
    norm_defects = [row.norm_defect for row in rows]
    nonlocal_defects = [row.nonlocal_defect for row in rows]
    bound = (
        10.0
        * float(far) ** (prob.kernel.alpha - prob.dim)
        * (math.sqrt(_calculus.w22_norm_sq(u)) + math.sqrt(_calculus.w22_norm_sq(v))) ** (2.0 * prob.p)
    )
    zero_rows = brezis_lieb_probe(u, Field.zero(prob.window), shifts[:1], prob)
    passed = (
        all(d == 0.0 for d in norm_defects)
        and all(b < a for a, b in zip(nonlocal_defects, nonlocal_defects[1:]))
        and nonlocal_defects[-1] <= bound
        and zero_rows[0].norm_defect == 0.0
        and zero_rows[0].nonlocal_defect == 0.0
    )
    return SuiteResult(
        "brezislieb",
        passed,
        {
            "shifts": [row.distance for row in rows],
            "norm_defects": norm_defects,
            "nonlocal_defects": nonlocal_defects,
            "decay_bound": bound,
        },
    )


def _suite_lions(prob: ProblemSpec, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    window = prob.window
    ok = True
    for _ in range(50):
        u = Field(window, rng.standard_normal(window.count))
        for s, t in ((2.0, 4.0), (2.0, 6.0), (1.0, 2.0)):
            ok = ok and _calculus.interpolation_check(u, s, t)
    delta = Field.delta(window)
    ok = ok and _calculus.interpolation_check(delta, 2.0, 4.0)
    spikes = Field.from_sites(window, {(0,) * prob.dim: 1.0, (3,) + (0,) * (prob.dim - 1): 1.0})
    ok = ok and _calculus.interpolation_check(spikes, 1.0, 2.0)
    return SuiteResult("lions", ok, {"checked_pairs": 152})


def _self_hls_ratios(power: np.ndarray, pair: np.ndarray, r: float) -> np.ndarray:
    """hls_ratios(power, power, r, r) per row of power = |v|^p, from the pair
    energy D(v) that pair_terms made of it, in place of another convolution."""
    norm = _calculus.row_power((power**r).sum(axis=-1), 1.0 / r)
    return pair / (norm * norm)


def _suite_nehari(prob: ProblemSpec, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    r = _hls_exponent(prob)
    worst_defect = 0.0
    worst_level = 0.0
    c_hat = 0.0
    norms = []
    levels = []
    for x in _var.sample_chunks(rng, 100, prob.free_indices().shape):
        proj = _var.project_values(x, prob)
        if proj.vanishes.any():
            raise NoProjectionError("pair energy vanishes; no scale meets the constraint")
        a_rows, d_rows = _var.constraint_terms(proj.values, prob)
        ratios = _self_hls_ratios(np.abs(proj.values) ** prob.p, d_rows, r)
        for a, d, ratio in zip(a_rows.tolist(), d_rows.tolist(), ratios.tolist()):
            worst_defect = max(worst_defect, abs(a - d) / a)
            level = _var.level_from_terms(a, d, prob.p)
            worst_level = max(worst_level, abs(level - (0.5 - 0.5 / prob.p) * a) / max(1.0, abs(level)))
            c_hat = max(c_hat, ratio)
            norms.append(math.sqrt(a))
            levels.append(level)
    # each sample's own ratio makes its floor a theorem: A >= I and pr >= 2
    # give |v|_{pr} <= ||v||, so a = D <= ratio * a^p on the constraint set
    sigma_hat = (1.0 / c_hat) ** (1.0 / (2.0 * (prob.p - 1.0)))
    level_floor = (0.5 - 0.5 / prob.p) * sigma_hat**2

    single_site_rejected = False
    try:
        _var.nehari_project(Field.delta(prob.window), prob)
    except NoProjectionError:
        single_site_rejected = True

    slack = 1.0 - 1.0e-12
    passed = (
        worst_defect <= 1.0e-12
        and worst_level <= 1.0e-10
        and single_site_rejected
        and all(nn >= sigma_hat * slack for nn in norms)
        and all(lv >= level_floor * slack for lv in levels)
    )
    return SuiteResult(
        "nehari",
        passed,
        {
            "projection_defect_max": worst_defect,
            "level_identity_gap_max": worst_level,
            "C_hat": c_hat,
            "sigma_hat": sigma_hat,
            "level_floor": level_floor,
            "min_projected_norm": min(norms),
            "min_level": min(levels),
            "single_site_rejected": single_site_rejected,
        },
    )


def _suite_mountainpass(prob: ProblemSpec, seed: int) -> SuiteResult:
    # one set of samples serves both radii (variational._sphere_minimum)
    rho_sq, small_sq = 1.0e-3 * 1.0e-3, 1.0e-4 * 1.0e-4
    a, d, witness, t_neg = _var._sampled_sphere(prob, 100, seed)
    theta = _var._sphere_minimum(rho_sq, a, d, prob.p)
    neg1 = _var.energy(t_neg * witness, prob)
    neg2 = _var.energy(2.0 * t_neg * witness, prob)
    ratio = _var._sphere_minimum(small_sq, a, d, prob.p) / small_sq
    passed = theta > 0.0 and theta >= rho_sq / 4.0 and neg1 < 0.0 and neg2 < 0.0 and 0.4 <= ratio <= 0.5
    return SuiteResult(
        "mountainpass",
        passed,
        {
            "theta_hat": theta,
            "t_neg": t_neg,
            "energy_at_t_neg": neg1,
            "energy_at_2_t_neg": neg2,
            "small_rho_ratio": ratio,
        },
    )


def _suite_green(prob: ProblemSpec, seed: int) -> SuiteResult:
    table = prob.kernel
    alpha, dim = table.alpha, table.dim
    if not 0.0 < alpha < 2.0:
        return SuiteResult("green", False, {"error": "suite requires alpha in (0, 2)"})
    if prob.window.radius < 14:
        return SuiteResult(
            "green",
            False,
            {"error": "window truncation exceeds the inversion tolerance; need radius >= 14"},
        )
    in_window = get_window(dim, 2)
    f = Field.delta(in_window)
    out_window = get_window(dim, 2 * prob.window.radius - 2)
    v = _kernels.convolve(table, f, include_diagonal=True, out_window=out_window)
    w = _kernels.fractional_laplacian(alpha, v, out_window=in_window)
    # the identity is checked at the sites with |x|_1 <= 2
    checked = np.abs(in_window.sites).sum(axis=1) <= 2
    sup_error = float(np.abs(w.values - f.values)[checked].max())
    c1, c2 = _kernels.asymptotics_bracket(table, 5, min(30, table.m_max))
    ratio = c2 / c1
    passed = sup_error <= 1.0e-4 and ratio <= 10.0
    return SuiteResult(
        "green",
        passed,
        {
            "inversion_sup_error": sup_error,
            "threshold": 1.0e-4,
            "c1": c1,
            "c2": c2,
            "bracket_ratio": ratio,
        },
    )


_DISPATCH = {
    "ops": _suite_ops,
    "hls": _suite_hls,
    "brezislieb": _suite_brezislieb,
    "lions": _suite_lions,
    "nehari": _suite_nehari,
    "mountainpass": _suite_mountainpass,
    "green": _suite_green,
}
SUITE_NAMES = tuple(_DISPATCH)


def run_suites(names: Sequence[str], prob: ProblemSpec, seed: int = 0) -> Tuple[SuiteResult, ...]:
    """Run the selected suites in the given order."""
    unknown = [n for n in names if n not in _DISPATCH]
    if unknown:
        raise InputError(f"unknown suites {unknown}; choose from {list(SUITE_NAMES)}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ParameterError(f"seed must be an integer >= 0, got {seed!r}")
    return tuple(_run_suite(name, prob, seed) for name in names)


def _run_suite(name: str, prob: ProblemSpec, seed: int) -> SuiteResult:
    """One suite; a package error inside it fails that suite alone, with the message as ``error``."""
    try:
        return _DISPATCH[name](prob, seed)
    except ChoquardError as exc:
        return SuiteResult(name, False, {"error": f"{type(exc).__name__}: {exc}"})
