"""Property suites: reference-scale passes, guard rails, and reproducibility."""


import numpy as np
import pytest

import choquard as c
from choquard import InputError, ParameterError
from choquard.verify import SUITE_NAMES, run_suites


def test_all_suites_pass_at_reference_scale(desk_prob):
    results = run_suites(SUITE_NAMES, desk_prob, seed=0)
    assert tuple(r.name for r in results) == SUITE_NAMES
    for res in results:
        assert res.passed, f"{res.name}: {res.details}"
        assert res.details


def test_suites_are_reproducible(small_prob):
    first = run_suites(("ops", "hls", "nehari"), small_prob, seed=3)
    second = run_suites(("ops", "hls", "nehari"), small_prob, seed=3)
    for a, b in zip(first, second):
        assert a.details == b.details and a.passed == b.passed


def test_ops_symmetry_gap_is_read_against_the_dot_products_round_off(desk_prob):
    # v.Au cancels for random sign-changing fields; at radius 16 seed 318
    # the gap relative to max(1, |v.Au|) read 1.1e-12
    (res,) = run_suites(("ops",), desk_prob, seed=318)
    assert res.passed, res.details
    assert res.details["operator_symmetry_max"] <= 1e-15
    assert res.details["operator_exactly_symmetric"] is True


def test_ops_fails_on_one_asymmetric_operator_entry(small_prob, monkeypatch):
    tampered = small_prob.operator_matrix().copy()
    i, j = 0, tampered.indices[tampered.indptr[1] - 1]
    assert i != j
    tampered[i, j] = np.nextafter(tampered[i, j], np.inf)
    monkeypatch.setattr(c.ProblemSpec, "operator_matrix", lambda self: tampered)
    (res,) = run_suites(("ops",), small_prob, seed=0)
    assert not res.passed
    assert res.details["operator_exactly_symmetric"] is False
    # one ulp in one entry is far below what random fields can see
    assert res.details["operator_symmetry_max"] <= 1e-12


def test_unknown_suite_name_rejected(small_prob):
    with pytest.raises(InputError, match="unknown suites"):
        run_suites(("ops", "spectral"), small_prob)


def test_negative_seed_rejected_before_any_suite_runs(small_prob, monkeypatch):
    ran = []
    monkeypatch.setitem(c.verify._DISPATCH, "ops", lambda prob, seed: ran.append(seed))
    with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
        run_suites(("ops", "hls"), small_prob, seed=-1)
    for seed in (1.5, 2.0, "0"):
        with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
            run_suites(("ops", "hls"), small_prob, seed=seed)
    assert ran == []


def test_green_suite_guards(small_prob):
    (res,) = run_suites(("green",), small_prob)
    assert not res.passed
    assert "radius >= 14" in res.details["error"]


def test_brezislieb_suite_guard(small_prob):
    (res,) = run_suites(("brezislieb",), small_prob)
    assert not res.passed
    assert "radius >= 12" in res.details["error"]
