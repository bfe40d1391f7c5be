#!/usr/bin/env python3
"""Write choquard's fixed report set at two git revisions and compare the reports.

    python tools/compare_reports.py REV_A REV_B

Run it from a checkout.  Each revision's ``src/`` is extracted with
``git archive`` into a directory of its own, and every command of REPORTS
runs there as ``python -m choquard`` under OPENBLAS_NUM_THREADS=1, with the
same relative ``--out`` path at both revisions, so the echoed configuration
matches.  For every file either revision wrote, the script prints whether
the bytes are identical, every non-float value that differs (statuses,
labels, reasons, iteration counts, verdicts, exit codes), and the largest
relative change |a - b| / max(|a|, |b|) of each float class: levels (level,
energy and m_lambda entries), residuals (dual residuals and constraint
defects), field-file values and other floats.  The exit status is 0 when
every file is byte-identical and 1 otherwise.  To compare uncommitted work,
pass ``$(git stash create)`` as a revision.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

# CI's report set (the reports() function of .github/workflows/tests.yml),
# then the near-critical sweep and the radius-48 solve: (name, arguments);
# a command without --out has its standard output compared as <name>.txt
REPORTS = (
    ("solve", "solve --radius 8"),
    ("sweep", "sweep --radius 8 --lambda-grid 1,10,100"),
    ("verify", "verify --radius 14 --seed 0"),
    ("solve_dirichlet", "solve --mode dirichlet --radius 8"),
    (
        "verify_dirichlet",
        "verify --mode dirichlet --radius 14 --suites ops,hls,brezislieb,lions,nehari,mountainpass --seed 0",
    ),
    ("kernel3", "kernel --dim 3 --radius 6"),
    ("kernel16", "kernel --radius 16"),
    ("verify_alpha06", "verify --alpha 0.6 --radius 14 --seed 1"),
    ("solve3", "solve --dim 3 --radius 6"),
    ("solve32", "solve --radius 32 --lambda 100"),
    ("sweep3", "sweep --dim 3 --radius 5 --lambda-grid 1,100"),
    ("verify3", "verify --dim 3 --radius 6 --seed 0 --suites ops,hls,lions,nehari,mountainpass"),
    ("sweep16", "sweep --radius 16"),
    ("verify16", "verify --radius 16 --seed 0"),
    ("verify3_green", "verify --dim 3 --radius 14 --seed 0 --suites green"),
    ("solve_nc", "solve --radius 16 --p 1.55 --lambda 1"),
    ("sweep16_nc", "sweep --radius 16 --p 1.55 --lambda-grid 0.1,1,100"),
    ("solve48", "solve --radius 48 --lambda 100"),
)


@dataclass
class Comparison:
    """How one output file differs between two revisions."""

    name: str
    identical: bool
    changes: List[str] = field(default_factory=list)
    max_rel: Dict[str, float] = field(default_factory=dict)

    def add_float(self, kind: str, a: float, b: float) -> None:
        if a == b or (math.isnan(a) and math.isnan(b)):
            rel = 0.0
        else:
            rel = abs(a - b) / max(abs(a), abs(b))
            rel = rel if math.isfinite(rel) else math.inf  # an inf or a NaN on one side
        self.max_rel[kind] = max(self.max_rel.get(kind, 0.0), rel)

    def lines(self) -> List[str]:
        if self.identical:
            return [f"{self.name}: identical bytes"]
        floats = ", ".join(f"{kind} {rel:.3g}" for kind, rel in sorted(self.max_rel.items()))
        out = [f"{self.name}: bytes differ; largest relative change: {floats or 'no floats'}"]
        return out + [f"  {change}" for change in self.changes]


def float_class(key: str) -> str:
    """The float class of a report entry, from its key or column name."""
    if "residual" in key or "defect" in key:
        return "residual"
    if "level" in key or key in ("energy", "m_lambda"):
        return "level"
    return "other"


def _walk(a, b, path: str, key: str, cmp: Comparison) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for k in list(a) + [k for k in b if k not in a]:
            sub = f"{path}.{k}" if path else k
            if k in a and k in b:
                _walk(a[k], b[k], sub, k, cmp)
            else:
                cmp.changes.append(f"{sub}: {a.get(k, '<absent>')!r} -> {b.get(k, '<absent>')!r}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            cmp.changes.append(f"{path}: length {len(a)} -> {len(b)}")
        for k, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{k}]", key, cmp)
    elif isinstance(a, float) and isinstance(b, float):
        cmp.add_float(float_class(key), a, b)
    elif type(a) is not type(b) or a != b:
        cmp.changes.append(f"{path}: {a!r} -> {b!r}")


def _number(token: str):
    """The token as an int or float, or the token itself."""
    for kind in (int, float):
        try:
            return kind(token)
        except ValueError:
            pass
    return token


def _text_cells(name: str, text: str):
    """(location, float class, token) of every cell of a text output."""
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0] if rows else []
        for n, row in enumerate(rows[1:], 2):
            for column, cell in zip(header + [""] * len(row), row):
                yield f"line {n} {column}".rstrip(), float_class(column), cell
        return
    kind = "field" if name.endswith(".field.txt") else "level" if "m_lambda" in name else "other"
    for n, line in enumerate(text.splitlines(), 1):
        for token in re.split(r"[\s=]+", line.strip()):
            yield f"line {n}", kind, token


def compare(name: str, a: bytes, b: bytes) -> Comparison:
    """Compare one output file as written at two revisions (JSON by structure, text by token)."""
    cmp = Comparison(name, a == b)
    if cmp.identical:
        return cmp
    if name.endswith(".json"):
        _walk(json.loads(a), json.loads(b), "", "", cmp)
        return cmp
    cells_a = list(_text_cells(name, a.decode()))
    cells_b = list(_text_cells(name, b.decode()))
    if len(cells_a) != len(cells_b):
        cmp.changes.append(f"token count {len(cells_a)} -> {len(cells_b)}")
    for (where, kind, x), (_, _, y) in zip(cells_a, cells_b):
        x, y = _number(x), _number(y)
        if isinstance(x, float) and isinstance(y, float):
            cmp.add_float(kind, x, y)
        elif type(x) is not type(y) or x != y:
            cmp.changes.append(f"{where}: {x!r} -> {y!r}")
    return cmp


def write_reports(rev: str, root: Path) -> Dict[str, int]:
    """Extract ``rev``'s src/ under root, write every report into root/out; returns each command's exit code."""
    root.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev, "src"], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(root)], input=archive, check=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(root / "src"))
    (root / "out").mkdir()
    codes = {}
    for name, args in REPORTS:
        argv = [sys.executable, "-m", "choquard", *args.split()]
        if args.startswith("kernel"):
            with open(root / "out" / f"{name}.txt", "w") as stdout:
                codes[name] = subprocess.run(argv, cwd=root, env=env, stdout=stdout).returncode
        else:
            argv += ["--out", f"out/{name}.json"]
            codes[name] = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.DEVNULL).returncode
    return codes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        codes = [write_reports(rev, base / side) for side, rev in (("a", args.rev_a), ("b", args.rev_b))]
        same = True
        for name, _ in REPORTS:
            if codes[0][name] != codes[1][name]:
                same = False
                print(f"{name}: exit code {codes[0][name]} -> {codes[1][name]}")
        out_a, out_b = base / "a" / "out", base / "b" / "out"
        for file in sorted({p.name for p in out_a.iterdir()} | {p.name for p in out_b.iterdir()}):
            if not (out_a / file).exists() or not (out_b / file).exists():
                same = False
                print(f"{file}: written at {args.rev_b if (out_b / file).exists() else args.rev_a} only")
                continue
            cmp = compare(file, (out_a / file).read_bytes(), (out_b / file).read_bytes())
            same = same and cmp.identical
            print("\n".join(cmp.lines()))
    print("all files byte-identical" if same else "files differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
