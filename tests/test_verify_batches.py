"""The batched sampling suites against per-field oracles, compared exactly.

The oracles are the per-field loops the suites ran before they drew and
checked their random fields in chunks of rows: one field, one convolution and
one Field at a time.  Batching must not change a single bit of what they
report.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import choquard as c
from choquard import calculus, kernels, variational, verify
from choquard.errors import ProbeInconclusiveError
from choquard.fields import Field
from choquard.verify import run_suites


def _random_field(prob, rng):
    values = np.zeros(prob.window.count)
    free = prob.free_indices()
    values[free] = rng.standard_normal(free.size)
    return Field(prob.window, values)


def _hls_exponent(prob):
    return 2.0 * prob.dim / (prob.dim + prob.kernel.alpha)


def _worst_ratio(prob, rng, count, r):
    worst = 0.0
    for _ in range(count):
        u = Field(prob.window, np.abs(rng.standard_normal(prob.window.count)))
        v = Field(prob.window, np.abs(rng.standard_normal(prob.window.count)))
        worst = max(worst, c.hls_ratio(u, v, prob.kernel, r, r))
    return worst


def hls_oracle(prob, seed):
    rng = np.random.default_rng(seed)
    r = _hls_exponent(prob)
    c_hat = _worst_ratio(prob, rng, 200, r)
    c_resampled = _worst_ratio(prob, rng, 200, r)
    u = Field(prob.window, np.abs(rng.standard_normal(prob.window.count)))
    v = Field(prob.window, np.abs(rng.standard_normal(prob.window.count)))
    base = c.hls_ratio(u, v, prob.kernel, r, r)
    scaled = c.hls_ratio(3.7 * u, 0.41 * v, prob.kernel, r, r)
    return {
        "C_hat": c_hat,
        "C_hat_resampled": c_resampled,
        "resample_drift": abs(c_hat - c_resampled) / max(c_hat, c_resampled),
        "scale_invariance_gap": abs(base - scaled) / base,
        "exponent_r": r,
    }


def nehari_oracle(prob, seed):
    rng = np.random.default_rng(seed)
    r = _hls_exponent(prob)
    worst_defect = worst_level = c_hat = 0.0
    norms, levels = [], []
    for _ in range(100):
        _, w = c.nehari_project(_random_field(prob, rng), prob)
        a = c.norm_sq(w, prob)
        worst_defect = max(worst_defect, abs(c.nehari_defect(w, prob)) / a)
        level = c.nehari_level(w, prob)
        worst_level = max(worst_level, abs(level - (0.5 - 0.5 / prob.p) * a) / max(1.0, abs(level)))
        # the hls ratio of (|w|^p, |w|^p) is D(w) over the squared l^r norm
        # of |w|^p; hls_ratio would convolve over the whole window, not over
        # the well's box as D does in dirichlet mode, and round otherwise
        norm = np.linalg.norm(np.abs(prob.restrict(w.values)) ** prob.p, r)
        c_hat = max(c_hat, c.nonlocal_term(w, prob) / (norm * norm))
        norms.append(math.sqrt(a))
        levels.append(level)
    sigma_hat = (1.0 / c_hat) ** (1.0 / (2.0 * (prob.p - 1.0)))
    return {
        "projection_defect_max": worst_defect,
        "level_identity_gap_max": worst_level,
        "C_hat": c_hat,
        "sigma_hat": sigma_hat,
        "level_floor": (0.5 - 0.5 / prob.p) * sigma_hat**2,
        "min_projected_norm": min(norms),
        "min_level": min(levels),
        "single_site_rejected": True,
    }


def sphere_oracle(prob, rows):
    """(a, D) of each free-site row of nonzero norm, the witness values and t_neg, one row at a time."""
    terms = []
    witness = None
    for x in rows:
        u = Field(prob.window, prob.extend(x))
        a = c.norm_sq(u, prob)
        if a == 0.0:
            continue
        d = c.nonlocal_term(u, prob)
        terms.append((a, d))
        if witness is None and d > 0.0:
            witness = u.values / math.sqrt(a)
    if witness is None:
        raise ProbeInconclusiveError("no sampled field has positive pair energy")
    w = Field(prob.window, witness)
    a, d = c.norm_sq(w, prob), c.nonlocal_term(w, prob)
    t_neg = (2.0 * prob.p * a / d) ** (1.0 / (2.0 * prob.p - 2.0))
    return terms, witness, t_neg


def sphere_level_oracle(prob, rho_sq, terms):
    """Least J(rho x / sqrt(a)) = rho_sq / 2 - (rho_sq / a)^p D / (2p) over the samples."""
    return min(0.5 * rho_sq - (rho_sq / a) ** prob.p * d / (2.0 * prob.p) for a, d in terms)


def _seeded_rows(prob, samples, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(prob.free_indices().size) for _ in range(samples)]


def mountainpass_oracle(prob, seed):
    terms, witness, t_neg = sphere_oracle(prob, _seeded_rows(prob, 100, seed))
    neg1 = c.energy(Field(prob.window, t_neg * witness), prob)
    neg2 = c.energy(Field(prob.window, 2.0 * t_neg * witness), prob)
    small_sq = 1.0e-4 * 1.0e-4
    return {
        "theta_hat": sphere_level_oracle(prob, 1.0e-3 * 1.0e-3, terms),
        "t_neg": t_neg,
        "energy_at_t_neg": neg1,
        "energy_at_2_t_neg": neg2,
        "small_rho_ratio": sphere_level_oracle(prob, small_sq, terms) / small_sq,
    }


ORACLES = {"hls": hls_oracle, "nehari": nehari_oracle, "mountainpass": mountainpass_oracle}


def _rel_gap(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _apply_operator(u, prob):
    return Field(prob.window, prob.extend(variational.operator_values(prob.restrict(u.values), prob)))


def ops_oracle(prob, seed):
    rng = np.random.default_rng(seed)
    worst_parts = worst_dist = 0.0
    for _ in range(50):
        u = _random_field(prob, rng)
        phi = _random_field(prob, rng)
        lap = c.laplacian(u)
        lhs = float(c.gradient_form(u, u).values.sum())
        rhs = -float(u.embed(lap.window).values @ lap.values)
        worst_parts = max(worst_parts, _rel_gap(lhs, rhs))
        bi = c.biharmonic(u)
        lhs2 = float(bi.values @ phi.embed(bi.window).values)
        worst_dist = max(worst_dist, _rel_gap(lhs2, float(lap.values @ c.laplacian(phi).values)))
    delta_norm = c.w22_norm_sq(Field.delta(prob.window))
    worst_sym = worst_form = 0.0
    positive = True
    for _ in range(20):
        u = _random_field(prob, rng)
        v = _random_field(prob, rng)
        au, av = _apply_operator(u, prob), _apply_operator(v, prob)
        gap = abs(float(v.values @ au.values) - float(u.values @ av.values))
        worst_sym = max(worst_sym, gap / float(np.abs(v.values) @ np.abs(au.values)))
        quad = float(u.values @ au.values)
        if prob.mode == "full":
            direct = c.energy_norm_sq(u, prob.potential, prob.lam)
        else:
            direct = c.dirichlet_norm_sq(u, prob.well)
        worst_form = max(worst_form, _rel_gap(quad, direct))
        positive = positive and quad >= float(u.values @ u.values) - 1.0e-9 * quad
    return {
        "integration_by_parts_max": worst_parts,
        "distributional_identity_max": worst_dist,
        "point_mass_norm_gap": abs(delta_norm - float((2 * prob.dim + 1) ** 2)),
        "operator_symmetry_max": worst_sym,
        "operator_exactly_symmetric": True,
        "operator_form_gap_max": worst_form,
        "operator_positive": positive,
    }


def splitting_oracle(u, v, shifts, prob):
    """(distance, norm defect, pair energy defect) per shift, one Field at a time."""
    d_u = c.nonlocal_energy(u, prob.kernel, prob.p)
    lap_u, gam_u = c.laplacian(u), c.gradient_form(u, u)
    rows = []
    for shift in shifts:
        vz = v.translated(shift)
        combined = u + vz
        lap_c, lap_v = c.laplacian(combined), c.laplacian(vz)
        gam_c, gam_v = c.gradient_form(combined, combined), c.gradient_form(vz, vz)
        norm_defect = float(
            (lap_c.values**2 - lap_v.values**2 - lap_u.values**2).sum()
            + (gam_c.values - gam_v.values - gam_u.values).sum()
            + (combined.values**2 - vz.values**2 - u.values**2).sum()
        )
        d_vz = c.nonlocal_energy(vz, prob.kernel, prob.p)
        d_comb = c.nonlocal_energy(combined, prob.kernel, prob.p)
        rows.append((int(np.abs(shift).sum()), norm_defect, abs(d_comb - d_vz - d_u)))
    return rows


def brezislieb_oracle(prob, seed):
    u, v = verify._probe_fields(prob)
    far = prob.window.radius - 2
    rest = (0,) * (prob.dim - 1)
    rows = splitting_oracle(u, v, [(6,) + rest, ((6 + far) // 2,) + rest, (far,) + rest], prob)
    norms = math.sqrt(c.w22_norm_sq(u)) + math.sqrt(c.w22_norm_sq(v))
    return {
        "shifts": [row[0] for row in rows],
        "norm_defects": [row[1] for row in rows],
        "nonlocal_defects": [row[2] for row in rows],
        "decay_bound": 10.0 * float(far) ** (prob.kernel.alpha - prob.dim) * norms ** (2.0 * prob.p),
    }


ROW_ORACLES = {"ops": ops_oracle, "brezislieb": brezislieb_oracle}


@pytest.mark.parametrize(
    "name, seed",
    [("small_prob", 0), ("small_prob", 5), ("small_dirichlet", 2), ("desk_prob", 0)],
)
def test_batched_suites_report_what_the_per_field_loops_report(request, name, seed):
    prob = request.getfixturevalue(name)
    results = run_suites(tuple(ORACLES), prob, seed=seed)
    for res in results:
        assert res.passed, f"{res.name}: {res.details}"
        assert res.details == ORACLES[res.name](prob, seed), res.name


@pytest.mark.parametrize("seed", [0, 318])
@pytest.mark.parametrize(
    "name, suites",
    [("desk_prob", ("ops", "brezislieb")), ("desk_dirichlet", ("ops", "brezislieb")), ("small_cube", ("ops",))],
)
def test_row_suites_report_what_the_per_field_loops_report(request, name, suites, seed):
    prob = request.getfixturevalue(name)
    for res in run_suites(suites, prob, seed=seed):
        assert res.passed, f"{res.name}: {res.details}"
        assert res.details == ROW_ORACLES[res.name](prob, seed), res.name


def test_ops_suite_builds_no_field_per_sample(desk_prob, monkeypatch):
    built = []
    init = Field.__init__

    def counting_init(self, window, values):
        built.append(window)
        init(self, window, values)

    monkeypatch.setattr(Field, "__init__", counting_init)
    (res,) = run_suites(("ops",), desk_prob, seed=0)
    assert res.passed
    # the point-mass anchor; a Field per sample would make 70 or more
    assert len(built) <= 2


def test_splitting_probe_rows_match_the_per_field_oracle(small_prob, small_cube):
    for prob, shifts in ((small_prob, [(3, 0), (0, -3), (2, 1)]), (small_cube, [(2, 0, 0), (0, 1, -1)])):
        rng = np.random.default_rng(17)
        u = Field.from_sites(prob.window, {(0,) * prob.dim: 1.0, (1,) + (0,) * (prob.dim - 1): -0.5})
        v = Field.from_sites(prob.window, {site: 1.0 for site in c.ball((0,) * prob.dim, 1)})
        v = Field(prob.window, v.values * rng.uniform(0.5, 1.5, prob.window.count))
        rows = c.brezis_lieb_probe(u, v, shifts, prob)
        assert [(row.distance, row.norm_defect, row.nonlocal_defect) for row in rows] == splitting_oracle(
            u, v, shifts, prob
        )
        assert [row.shift for row in rows] == [tuple(shift) for shift in shifts]


@pytest.mark.parametrize("p", [1.55, 2.0, 3.0])
def test_projection_rows_match_single_fields_exactly(small_prob, small_dirichlet, p):
    for prob in (dataclasses.replace(small_prob, p=p), dataclasses.replace(small_dirichlet, p=p)):
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((13, prob.free_indices().size))
        batch = variational.project_values(rows, prob)
        for i, row in enumerate(rows):
            alone = variational.project_values(row, prob)
            for field in ("scale", "values", "energy", "pair_energy", "conv", "vanishes"):
                assert np.array_equal(getattr(batch, field)[i], getattr(alone, field)), field


@pytest.mark.parametrize("p", [1.55, 2.0, 3.0])
def test_nehari_ratio_is_the_hls_ratio_of_the_projected_power(small_prob, desk_prob, p):
    # the nehari suite reads hls_ratios(power, power) off the pair energy
    # constraint_terms makes, without another convolution
    for prob in (dataclasses.replace(small_prob, p=p), dataclasses.replace(desk_prob, p=p)):
        r = _hls_exponent(prob)
        rows = np.random.default_rng(13).standard_normal((9, prob.window.count))
        values = variational.project_values(rows, prob).values
        _, pair = variational.constraint_terms(values, prob)
        power = np.abs(values) ** prob.p
        expected = calculus.hls_ratios(prob.kernel, prob.window, power, power, r, r)
        assert np.array_equal(verify._self_hls_ratios(power, pair, r), expected)


@pytest.mark.parametrize("p", [1.55, 2.0, 3.0])
def test_nehari_ratio_is_the_hls_ratio_up_to_round_off_in_dirichlet_mode(small_dirichlet, desk_dirichlet, p):
    # there D convolves over the well's box and hls_ratios over the window:
    # the same sum, rounded on another FFT grid
    for prob in (dataclasses.replace(small_dirichlet, p=p), dataclasses.replace(desk_dirichlet, p=p)):
        r = _hls_exponent(prob)
        rows = np.random.default_rng(13).standard_normal((9, prob.free_indices().size))
        values = variational.project_values(rows, prob).values
        _, pair = variational.constraint_terms(values, prob)
        power = np.abs(values) ** prob.p
        full = prob.extend(power)
        expected = calculus.hls_ratios(prob.kernel, prob.window, full, full, r, r)
        np.testing.assert_allclose(verify._self_hls_ratios(power, pair, r), expected, rtol=1e-13, atol=0.0)


def test_hls_ratios_rows_match_single_calls(small_prob, desk_prob):
    for prob in (small_prob, desk_prob):
        r = _hls_exponent(prob)
        rng = np.random.default_rng(7)
        u = np.abs(rng.standard_normal((11, prob.window.count)))
        v = np.abs(rng.standard_normal((11, prob.window.count)))
        ratios = calculus.hls_ratios(prob.kernel, prob.window, u, v, r, r)
        assert ratios.shape == (11,)
        for i in range(11):
            f, g = Field(prob.window, u[i]), Field(prob.window, v[i])
            assert ratios[i] == c.hls_ratio(f, g, prob.kernel, r, r)
            # the per-field formula: one convolution and two l^r norms
            pairing = float(c.convolve(prob.kernel, f).values @ g.values)
            assert ratios[i] == pairing / (np.linalg.norm(u[i], r) * np.linalg.norm(v[i], r))


def test_hls_ratios_check_every_row(small_prob):
    r = _hls_exponent(small_prob)
    rows = np.abs(np.random.default_rng(3).standard_normal((3, small_prob.window.count)))
    negative = rows.copy()
    negative[2, 5] = -1.0
    with pytest.raises(c.InputError, match="nonnegative"):
        calculus.hls_ratios(small_prob.kernel, small_prob.window, rows, negative, r, r)
    zero = rows.copy()
    zero[1] = 0.0
    with pytest.raises(c.DomainError, match="zero fields"):
        calculus.hls_ratios(small_prob.kernel, small_prob.window, zero, rows, r, r)
    with pytest.raises(c.ParameterError, match="exponents"):
        calculus.hls_ratios(small_prob.kernel, small_prob.window, rows, rows, 2.0, 2.0)


@pytest.mark.parametrize("name", ["small_prob", "small_dirichlet", "desk_prob"])
def test_mountain_pass_probe_matches_the_per_sample_oracle(request, name):
    prob = request.getfixturevalue(name)
    for rho, samples, seed in ((1.0e-3, 100, 0), (0.5, 21, 4)):
        probe = c.mountain_pass_probe(prob, rho, samples, seed=seed)
        terms, witness, t_neg = sphere_oracle(prob, _seeded_rows(prob, samples, seed))
        assert probe.theta_hat == sphere_level_oracle(prob, rho * rho, terms)
        assert probe.t_neg == t_neg
        assert np.array_equal(probe.witness.values, witness)


@pytest.mark.parametrize("name", ["small_prob", "small_dirichlet", "desk_prob"])
def test_sphere_level_is_the_energy_of_the_scaled_samples(request, name):
    # the closed form against J of each sample scaled to the sphere, at
    # radii where the pair term is a small and a large part of J
    prob = request.getfixturevalue(name)
    rows = _seeded_rows(prob, 12, 3)
    terms, _, _ = sphere_oracle(prob, rows)
    for rho in (1.0e-3, 0.5, 3.0):
        energies = []
        for x in rows:
            u = Field(prob.window, prob.extend(x))
            energies.append(c.energy((rho / math.sqrt(c.norm_sq(u, prob))) * u, prob))
        assert sphere_level_oracle(prob, rho * rho, terms) == pytest.approx(min(energies), rel=1e-12, abs=0.0)


def test_mountain_pass_probe_skips_zero_norm_samples(small_prob, monkeypatch):
    n = small_prob.window.count
    rng = np.random.default_rng(9)
    chunks = [np.zeros((2, n)), rng.standard_normal((3, n))]
    chunks[1][0] = 0.0
    monkeypatch.setattr(variational, "sample_chunks", lambda rng, samples, shape: iter(chunks))
    probe = c.mountain_pass_probe(small_prob, 1.0e-3, 5)
    terms, witness, t_neg = sphere_oracle(small_prob, [row for chunk in chunks for row in chunk])
    assert len(terms) == 2
    assert (probe.theta_hat, probe.t_neg) == (sphere_level_oracle(small_prob, 1.0e-6, terms), t_neg)
    assert np.array_equal(probe.witness.values, witness)
    first = Field(small_prob.window, chunks[1][1])
    assert np.allclose(witness, first.values / math.sqrt(c.norm_sq(first, small_prob)), rtol=1e-14, atol=0.0)


def test_small_radius_ratio_is_one_half_without_a_pair_term(desk_prob, monkeypatch):
    sampled = variational._sampled_sphere

    def no_pair_term(prob, samples, seed):
        a, d, witness, t_neg = sampled(prob, samples, seed)
        return a, np.zeros_like(d), witness, t_neg

    monkeypatch.setattr(variational, "_sampled_sphere", no_pair_term)
    (res,) = run_suites(("mountainpass",), desk_prob, seed=0)
    assert res.passed, res.details
    assert res.details["small_rho_ratio"] == 0.5
    assert res.details["theta_hat"] == 0.5 * (1.0e-3 * 1.0e-3)


@settings(max_examples=50, deadline=None)
@given(
    rho=st.floats(1.0e-6, 1.0e3),
    p=st.floats(1.5, 6.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_sphere_level_is_at_most_half_the_squared_radius(rho, p, seed):
    # D >= 0, and rounding is monotone, so theta / rho^2 <= 1/2 holds in
    # floating point too, also where the pair term is below rho^2's last bit
    rng = np.random.default_rng(seed)
    a, d = rng.uniform(0.1, 10.0, 8), rng.uniform(0.0, 1.0, 8)
    d[0] = 0.0
    rho_sq = rho * rho
    assert variational._sphere_minimum(rho_sq, a, d, p) / rho_sq <= 0.5


@pytest.mark.parametrize("name", ["desk_prob", "desk_dirichlet"])
def test_sampling_suites_do_each_samples_work_once(request, name, monkeypatch):
    prob = request.getfixturevalue(name)
    rows = {"convolved": 0, "operator": 0}

    def counted(key, fn, at):
        def wrapper(*args, **kwargs):
            rows[key] += int(np.prod(np.shape(args[at])[:-1]))
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(kernels, "convolve_values", counted("convolved", kernels.convolve_values, 2))
    monkeypatch.setattr(variational, "operator_values", counted("operator", variational.operator_values, 0))
    (res,) = run_suites(("mountainpass",), prob, seed=0)
    assert res.passed
    # each of the 100 samples once, then the witness's norm and pair energy
    # and the energies at t_neg and 2 t_neg
    assert rows == {"convolved": 103, "operator": 103}
    rows.update(convolved=0, operator=0)
    (res,) = run_suites(("nehari",), prob, seed=0)
    assert res.passed
    # the projection and the defect check per sample, then the point mass
    assert rows == {"convolved": 201, "operator": 201}


def test_sample_chunks_draw_the_per_sample_stream():
    chunks = list(variational.sample_chunks(np.random.default_rng(2), 19, (3, 5)))
    assert [chunk.shape for chunk in chunks] == [(8, 3, 5), (8, 3, 5), (3, 3, 5)]
    rng = np.random.default_rng(2)
    single = np.array([rng.standard_normal((3, 5)) for _ in range(19)])
    assert np.array_equal(np.concatenate(chunks), single)
