"""The comparison logic of tools/compare_reports.py, on synthetic reports."""

import json
import runpy
from pathlib import Path

import pytest

TOOL = runpy.run_path(str(Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py"))
compare = TOOL["compare"]

LEVEL = 6.957982528733369


def _solve_report(status="converged", level=LEVEL):
    starts = [
        {"label": "well-bump", "status": "converged", "iterations": 74, "level": LEVEL, "reason": None},
        {"label": "random-positive-1", "status": status, "iterations": 144, "level": level, "reason": None},
    ]
    result = {"level": level, "dual_residual": 5.1e-8, "nehari_defect": 0.0, "starts": starts}
    return json.dumps({"command": "solve", "result": result}, indent=2).encode()


def test_identical_reports_read_identical():
    cmp = compare("solve.json", _solve_report(), _solve_report())
    assert cmp.identical and not cmp.changes and not cmp.max_rel
    assert cmp.lines() == ["solve.json: identical bytes"]


def test_a_changed_status_is_listed_and_moves_no_float():
    cmp = compare("solve.json", _solve_report(), _solve_report(status="stalled"))
    assert not cmp.identical
    assert cmp.changes == ["result.starts[1].status: 'converged' -> 'stalled'"]
    assert cmp.max_rel == {"level": 0.0, "residual": 0.0}


def test_a_level_moved_by_1e_9_shows_as_a_level_change_only():
    cmp = compare("solve.json", _solve_report(), _solve_report(level=LEVEL * (1.0 + 1e-9)))
    assert not cmp.identical and not cmp.changes
    assert cmp.max_rel["level"] == pytest.approx(1e-9, rel=1e-6)
    assert cmp.max_rel["residual"] == 0.0
    assert cmp.lines()[0].startswith("solve.json: bytes differ; largest relative change: level 1e-09")


def test_text_outputs_compare_by_token():
    field = b"lattice-field v1\ndim 2\nradius 1\n0.5\n-0.25\n"
    moved = field.replace(b"-0.25", b"-0.2500001")
    cmp = compare("solve.field.txt", field, moved)
    # measured against the file's max|value|, 0.5
    assert not cmp.changes and cmp.max_rel["field"] == pytest.approx(2e-7, rel=1e-6)
    table = b"lambda,m_lambda,iterations,residual\n1.0,10.5,11,1e-08\n"
    cmp = compare("sweep.csv", table, table.replace(b",11,", b",12,").replace(b"10.5", b"10.25"))
    assert cmp.changes == ["line 2 iterations: 11 -> 12"]
    assert cmp.max_rel["level"] == pytest.approx(0.25 / 10.5)


def test_the_csv_footer_compares_the_well_level_as_a_float():
    table = b"lambda,m_lambda\n1.0,10.5\n# m_omega = 36.60104813434396\n"
    cmp = compare("sweep.csv", table, table.replace(b"396", b"395"))
    assert not cmp.changes
    assert cmp.max_rel["level"] == pytest.approx(1e-14 / 36.60104813434396, rel=1e-3)


FIELD_HEADER = "lattice-field v1\ndim 2\nradius 8\nshape box\nsupport 3\n"


def _field_file(*values):
    sites = ("0 0", "0 1", "1 0")
    return (FIELD_HEADER + "".join(f"{site} {value!r}\n" for site, value in zip(sites, values))).encode()


def test_field_tail_round_off_reads_as_round_off():
    # tail values near 1e-28 change sign and the largest value moves by
    # 3e-16 of itself, as between two orders of the same sums
    before = _field_file(1.5, 2.5e-28, 0.75)
    after = _field_file(1.5 + 4.5e-16, -2.5e-28, 0.75)
    cmp = compare("solve.field.txt", before, after)
    assert not cmp.identical and not cmp.changes
    assert cmp.max_rel["field"] <= 1e-15


def test_a_field_moved_by_1e_6_of_its_max_reads_1e_6():
    cmp = compare("solve.field.txt", _field_file(1.5, 2.5e-28, 0.75), _field_file(1.5, 2.5e-28, 0.75 + 1.5e-6))
    assert not cmp.changes
    assert cmp.max_rel["field"] == pytest.approx(1e-6, rel=1e-6)
