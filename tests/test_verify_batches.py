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

import choquard as c
from choquard import calculus, variational, verify
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
        power = Field(prob.window, np.abs(w.values) ** prob.p)
        c_hat = max(c_hat, c.hls_ratio(power, power, prob.kernel, r, r))
        norms.append(math.sqrt(a))
        levels.append(level)
    c_hat = max(c_hat, _worst_ratio(prob, rng, 100, r))
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


def probe_oracle(prob, rho, rows):
    """(theta_hat, t_neg, witness values) of mountain_pass_probe over free-site rows, one at a time."""
    theta = math.inf
    witness = None
    for x in rows:
        u = Field(prob.window, prob.extend(x))
        a = c.norm_sq(u, prob)
        if a == 0.0:
            continue
        u = (rho / math.sqrt(a)) * u
        theta = min(theta, c.energy(u, prob))
        if witness is None and c.nonlocal_term(u, prob) > 0.0:
            witness = (1.0 / rho) * u
    if witness is None:
        raise ProbeInconclusiveError("no sampled field has positive pair energy")
    a, d = c.norm_sq(witness, prob), c.nonlocal_term(witness, prob)
    t_neg = (2.0 * prob.p * a / d) ** (1.0 / (2.0 * prob.p - 2.0))
    return theta, t_neg, witness.values


def _seeded_rows(prob, samples, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(prob.free_indices().size) for _ in range(samples)]


def mountainpass_oracle(prob, seed):
    theta, t_neg, witness = probe_oracle(prob, 1.0e-3, _seeded_rows(prob, 100, seed))
    neg1 = c.energy(Field(prob.window, t_neg * witness), prob)
    neg2 = c.energy(Field(prob.window, 2.0 * t_neg * witness), prob)
    small, _, _ = probe_oracle(prob, 1.0e-4, _seeded_rows(prob, 100, seed))
    return {
        "theta_hat": theta,
        "t_neg": t_neg,
        "energy_at_t_neg": neg1,
        "energy_at_2_t_neg": neg2,
        "small_rho_ratio": small / 1.0e-8,
    }


ORACLES = {"hls": hls_oracle, "nehari": nehari_oracle, "mountainpass": mountainpass_oracle}


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


@pytest.mark.parametrize("p", [1.55, 2.0, 3.0])
def test_projection_rows_match_single_fields_exactly(small_prob, small_dirichlet, p):
    for prob in (dataclasses.replace(small_prob, p=p), dataclasses.replace(small_dirichlet, p=p)):
        rng = np.random.default_rng(11)
        rows = prob.extend(rng.standard_normal((13, prob.free_indices().size)))
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
        theta, t_neg, witness = probe_oracle(prob, rho, _seeded_rows(prob, samples, seed))
        assert probe.theta_hat == theta
        assert probe.t_neg == t_neg
        assert np.array_equal(probe.witness.values, witness)


def test_mountain_pass_probe_skips_zero_norm_samples(small_prob, monkeypatch):
    n = small_prob.window.count
    rng = np.random.default_rng(9)
    chunks = [np.zeros((2, n)), rng.standard_normal((3, n))]
    chunks[1][0] = 0.0
    monkeypatch.setattr(variational, "sample_chunks", lambda rng, samples, shape: iter(chunks))
    probe = c.mountain_pass_probe(small_prob, 1.0e-3, 5)
    theta, t_neg, witness = probe_oracle(small_prob, 1.0e-3, [row for chunk in chunks for row in chunk])
    assert (probe.theta_hat, probe.t_neg) == (theta, t_neg)
    assert np.array_equal(probe.witness.values, witness)
    first = Field(small_prob.window, chunks[1][1])
    assert np.allclose(witness, first.values / math.sqrt(c.norm_sq(first, small_prob)), rtol=1e-14, atol=0.0)


def test_sample_chunks_draw_the_per_sample_stream():
    chunks = list(variational.sample_chunks(np.random.default_rng(2), 19, (3, 5)))
    assert [chunk.shape for chunk in chunks] == [(8, 3, 5), (8, 3, 5), (3, 3, 5)]
    rng = np.random.default_rng(2)
    single = np.array([rng.standard_normal((3, 5)) for _ in range(19)])
    assert np.array_equal(np.concatenate(chunks), single)
