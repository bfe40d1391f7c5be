"""Desk-scale acceptance checks, one per shipped guarantee, with pinned tolerances.

Scale: dimension 2, kernel order alpha = 1, exponent p = 2, box window of
radius 16, well = the closed unit-radius-2 ball at the origin, distance
potential, couplings {1, 10, 100, 1000, 10000}.  Each test is one pass/fail
gate; tolerances are fixed here and nowhere else.
"""

import json
import math

import numpy as np
import pytest

import choquard as c
from choquard import Field, NoProjectionError, QuadratureSpec, get_window
from choquard.cli import main
from choquard.kernels import green_function, heat_kernel, heat_kernel_spectral


def test_criterion_01_difference_operator_identities():
    # sum of the gradient form vs -sum(u * lap u), and biharmonic pairing vs
    # sum(lap u * lap phi), 100 random compactly supported pairs, rel <= 1e-12
    rng = np.random.default_rng(100)
    w = get_window(2, 5)
    for _ in range(100):
        u = Field(w, rng.standard_normal(w.count))
        phi = Field(w, rng.standard_normal(w.count))
        lap_u, lap_phi = c.laplacian(u), c.laplacian(phi)
        gamma = float(c.gradient_form(u, u).values.sum())
        pairing = -float(lap_u.values @ u.embed(lap_u.window).values)
        assert abs(gamma - pairing) <= 1e-12 * max(1.0, abs(pairing))
        bi = c.biharmonic(u)
        lhs = float(bi.values @ phi.embed(bi.window).values)
        rhs = float(lap_u.values @ lap_phi.values)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_criterion_02_heat_kernel_mass_and_spectral_agreement():
    # mass 1 to 1e-10 for t in {0.1, 1, 10}; product evaluation vs the torus
    # spectral sum to 1e-6 relative (absolute floor 1e-12 where the values
    # sit below the round-off of the oscillatory reference sum) on |v|_1 <= 20
    for t in (0.1, 1.0, 10.0):
        one_dim = sum(heat_kernel(t, (m,), 1) for m in range(-200, 201))
        assert abs(one_dim**2 - 1.0) <= 1e-10
    for i in range(0, 21):
        for j in range(0, 21 - i):
            a = heat_kernel(1.0, (i, j), 2)
            b = heat_kernel_spectral(1.0, (i, j), 2, 256)
            assert abs(a - b) <= 1e-6 * abs(a) + 1e-12


def test_criterion_03_green_function_resolution_and_envelope(desk_table):
    # doubling the quadrature resolution moves no sampled value by more than
    # 1e-8 relative; the decay envelope c1 <= K(v) |v|_1 <= c2 over
    # 5 <= |v|_1 <= 30 has spread c2/c1 <= 10
    coarse, fine = QuadratureSpec(nodes=48), QuadratureSpec(nodes=96)
    sites = [
        (5, 0), (8, 0), (13, 0), (21, 0), (30, 0),
        (3, 3), (5, 5), (8, 8), (15, 15), (10, 5),
        (20, 10), (17, 4), (9, 16), (25, 3), (2, 28),
    ]
    for v in sites:
        a = green_function(1.0, v, 2, quad=coarse)
        b = green_function(1.0, v, 2, quad=fine)
        assert abs(a - b) <= 1e-8 * abs(b)
    c1, c2 = c.asymptotics_bracket(desk_table, 5, 30)
    assert 0.0 < c1 <= c2
    assert c2 / c1 <= 10.0


def test_criterion_04_green_table_inverts_half_laplacian(desk_table):
    # v = K * f followed by the order-1 fractional Laplacian reproduces a
    # compactly supported f with interior sup error <= 1e-4
    f = Field.delta(get_window(2, 2))
    v = c.convolve(desk_table, f, include_diagonal=True, out_window=get_window(2, 30))
    w = c.fractional_laplacian(1.0, v)
    interior = np.abs(w.window.sites).sum(axis=1) <= 2
    err = float(np.abs(w.values - f.embed(w.window).values)[interior].max())
    assert err <= 1e-4


def test_criterion_05_convolution_inequality_ratio_stability(small_table):
    # the bilinear-form ratio over 200 random nonnegative pairs is finite,
    # its max is stable under re-sampling to within 20%, and one pair is
    # scale invariant to 1e-12
    w = get_window(2, 6)
    r = s = 4.0 / 3.0

    def max_ratio(seed):
        rng = np.random.default_rng(seed)
        best = 0.0
        for _ in range(200):
            u = Field(w, rng.random(w.count))
            v = Field(w, rng.random(w.count))
            ratio = c.hls_ratio(u, v, small_table, r, s)
            assert math.isfinite(ratio)
            best = max(best, ratio)
        return best

    c_hat_1 = max_ratio(101)
    c_hat_2 = max_ratio(202)
    assert abs(c_hat_1 - c_hat_2) / c_hat_1 < 0.20
    rng = np.random.default_rng(303)
    u = Field(w, rng.random(w.count))
    v = Field(w, rng.random(w.count))
    base = c.hls_ratio(u, v, small_table, r, s)
    scaled = c.hls_ratio(3.7 * u, 0.41 * v, small_table, r, s)
    assert abs(scaled - base) <= 1e-12 * base


def test_criterion_06_constraint_projection_closed_form(desk_prob):
    # the closed-form scale lands on the constraint set to 1e-12 relative on
    # 100 random fields, point masses admit no projection, and the on-set
    # level identity J = (1/2 - 1/(2p)) ||u||^2 holds to 1e-10
    rng = np.random.default_rng(104)
    factor = 0.5 - 0.5 / desk_prob.p
    for _ in range(100):
        u = Field(desk_prob.window, rng.standard_normal(desk_prob.window.count))
        t, proj = c.nehari_project(u, desk_prob)
        assert t > 0.0
        a = c.norm_sq(proj, desk_prob)
        assert abs(c.nehari_defect(proj, desk_prob)) <= 1e-12 * a
        level = c.nehari_level(proj, desk_prob)
        assert abs(level - factor * a) <= 1e-10 * abs(level)
    with pytest.raises(NoProjectionError):
        c.nehari_project(Field.delta(desk_prob.window), desk_prob)


def test_criterion_07_ground_state_certificates(desk_prob, desk_solve):
    # the coupling-100 solve converges with relative dual residual <= 1e-8,
    # constraint defect <= 1e-10, coordinate residual <= 1e-8 ||u||, and all
    # starts agree on the level to 1e-6 relative
    res = desk_solve
    assert res.converged
    a = c.norm_sq(res.u, desk_prob)
    assert res.dual_residual <= 1e-8 * math.sqrt(a)
    assert abs(res.nehari_defect) <= 1e-10 * a
    grad = c.euler_lagrange_residual(res.u, desk_prob)
    assert float(np.linalg.norm(grad.values)) <= 1e-8 * math.sqrt(a)
    assert len(res.start_levels) >= 3
    spread = max(res.start_levels) - min(res.start_levels)
    assert spread <= 1e-6 * abs(res.level)


def test_criterion_08_deep_well_limit_sweep(desk_sweep):
    # over couplings {1, 10, 100, 1000, 10000}: levels nondecreasing within
    # 1e-8 and never above the well level; final level within 5% of the well
    # level; distance to the well state decreasing and within 5% at the end;
    # outside-well weighted mass decreasing
    report = desk_sweep
    assert report.all_converged
    v = report.verdicts
    assert v.level_nondecreasing is True
    assert v.level_at_most_well is True
    assert v.distance_decreasing is True
    assert v.outside_mass_decreasing is True
    assert v.final_level_rel_gap <= 0.05
    assert v.final_distance_rel <= 0.05


def test_criterion_09_translation_splitting_defects():
    # with supports separated beyond the stencil width the norm splits with
    # defect exactly zero; the pair-energy defect decreases over shifts
    # {8, 16, 24} and obeys the kernel-decay bound at the last shift
    window = get_window(2, 28)
    table = c.build_kernel_table(1.0, window)
    pot = c.PotentialSpec(well=c.ball((0, 0), 2))
    prob = c.ProblemSpec(mode="full", window=window, potential=pot, kernel=table, p=2.0, lam=100.0)
    u_vals = np.zeros(window.count)
    for site in c.ball((0, 0), 2):
        u_vals[window.index_of(site)] = 1.0 / (1.0 + abs(site[0]) + abs(site[1]))
    u = Field(window, u_vals)
    v_vals = np.zeros(window.count)
    v_vals[window.index_of((0, 0))] = 1.0
    for site in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
        v_vals[window.index_of(site)] = 0.5
    v = Field(window, v_vals)
    rows = c.brezis_lieb_probe(u, v, [(8, 0), (16, 0), (24, 0)], prob)
    for row in rows:
        assert row.norm_defect == 0.0
    defects = [row.nonlocal_defect for row in rows]
    assert defects[0] > defects[1] > defects[2] > 0.0
    nu = math.sqrt(c.w22_norm_sq(u))
    nv = math.sqrt(c.w22_norm_sq(v))
    alpha, dim = table.alpha, window.dim
    assert defects[-1] <= 10.0 * 24.0 ** (alpha - dim) * (nu + nv) ** (2.0 * prob.p)


def test_criterion_10_energy_barrier_and_escape(desk_prob):
    # the sampled energy barrier at radius 1e-3 over 100 sphere samples is
    # strictly positive and the witness ray reaches negative energy
    rho = 1e-3
    probe = c.mountain_pass_probe(desk_prob, rho, samples=100, seed=7)
    assert probe.theta_hat > 0.0
    assert probe.theta_hat >= rho**2 / 4.0
    assert c.energy(probe.t_neg * probe.witness, desk_prob) < 0.0


def test_criterion_11_deterministic_reports(tmp_path, capsys):
    # rerunning the identical solve command yields byte-identical report and
    # solution files
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"solver": {"restarts": 1}}))
    out = tmp_path / "run" / "report.json"
    argv = ["solve", "--config", str(cfg_path), "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    report_first = out.read_bytes()
    field_first = (out.parent / "report.field.txt").read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == report_first
    assert (out.parent / "report.field.txt").read_bytes() == field_first
