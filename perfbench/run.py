"""Benchmark of the choquard command line: end-to-end timings, peak RSS and per-layer counts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each sample starts a fresh interpreter
(perfbench/sample.py) that runs one ``choquard.cli.main`` command, so every
cache inside the package starts cold, as it does for a user of the CLI.
Samples run one at a time until the next one would pass ``--seconds``.  The
workload seed is passed to the program as ``--seed`` and nothing else.

``--trace 0`` reports the end-to-end metrics (medians over the samples).
``--trace 1`` alternates traced and untraced samples and reports the
per-layer metrics: calls, seconds and self seconds of each wrapped function,
work counts and ratios, and the tracing overhead.  ``--radius`` overrides the
workload's window radius, for the smoke test; the stored reference is then
not compared.

Every sample is checked: exit code 0, every start set and sweep row
converged, every suite passed, and levels within 1e-10 relative of
perfbench/reference.json.  A sample that fails any check counts as failed.
The last line of standard output is the JSON result; the same result, with
each sample and the machine facts, is written to perfbench/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import END_TO_END, LAYERS, PER_LAYER, SUITES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

# Why each workload exists is in perfbench/README.md.
WORKLOADS = {
    "sweep-r16": {"radius": 16, "args": ["sweep", "--lambda-grid", "1,10,100,1000,10000"]},
    "solve-r32": {"radius": 32, "args": ["solve", "--lambda", "100"]},
    "verify-r16": {"radius": 16, "args": ["verify"]},
}
# brezislieb and green need a window of radius >= 14
SMALL_WINDOW_SUITES = "ops,hls,lions,nehari,mountainpass"
LEVEL_RTOL = 1.0e-10
# a run, samples included, ends within this many seconds
RUN_LIMIT_S = 170.0


def cli_args(workload, radius, seed):
    spec = WORKLOADS[workload]
    args = spec["args"] + ["--radius", str(radius), "--seed", str(seed)]
    if args[0] == "verify" and radius < 14:
        args += ["--suites", SMALL_WINDOW_SUITES]
    return args


def run_sample(args, threads, spans_path, timeout):
    """One sample in a fresh interpreter; returns its result dict, or one with ``error``."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    RESULTS_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS_DIR, prefix="work-") as work:
        cmd = [sys.executable, str(BENCH_DIR / "sample.py"), str(ROOT), work, spans_path or "", "--"]
        try:
            proc = subprocess.run(
                cmd + args, capture_output=True, text=True, env=env, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return {"error": f"sample exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"sample process exited {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(lines[-1])


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def check_outcome(command, outcome, reference):
    """Problems with one sample's outcome; reference is None when it does not apply."""
    if outcome is None:
        return ["the command wrote no report"]
    problems = []
    if command == "sweep":
        bad = [row["lambda"] for row in outcome["rows"] if not row["converged"]]
        if bad or not outcome["all_converged"]:
            problems.append(f"sweep rows did not converge: {bad}")
        if reference is not None:
            if _rel(outcome["well_level"], reference["well_level"]) > LEVEL_RTOL:
                problems.append(f"well level {outcome['well_level']!r} != {reference['well_level']!r}")
            got = [(r["lambda"], r["level"]) for r in outcome["rows"]]
            want = [(r["lambda"], r["level"]) for r in reference["rows"]]
            if [g[0] for g in got] != [w[0] for w in want]:
                problems.append("sweep grid differs from the reference")
            else:
                for (lam, level), (_, ref) in zip(got, want):
                    if level is None or _rel(level, ref) > LEVEL_RTOL:
                        problems.append(f"level at lambda={lam}: {level!r} != {ref!r}")
            for name, value in reference["verdicts"].items():
                if isinstance(value, bool) and outcome["verdicts"].get(name) is not value:
                    problems.append(f"verdict {name}: {outcome['verdicts'].get(name)!r} != {value!r}")
    elif command == "solve":
        if not outcome["converged"]:
            problems.append("solve did not converge")
        if reference is not None and _rel(outcome["level"], reference["level"]) > LEVEL_RTOL:
            problems.append(f"level {outcome['level']!r} != {reference['level']!r}")
    else:
        failed = [name for name, ok in outcome["suites"].items() if not ok]
        if failed:
            problems.append(f"suites failed: {failed}")
        if reference is not None and outcome["suites"] != reference["suites"]:
            problems.append(f"suites {outcome['suites']} != reference {reference['suites']}")
    return problems


def work_counts(sample):
    """The counts of a traced sample, which must repeat exactly for a given seed."""
    counts = {path: (entry["calls"] if entry else None) for path, entry in sample["layers"].items()}
    counts["starts"] = sample["starts"]
    return counts


def _median(values):
    return statistics.median(values) if values else None


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(traced, untraced):
    """Per-layer metrics: counts from the first traced sample, seconds as medians."""
    out = {}
    first = traced[0]
    for path in LAYERS:
        entry = first["layers"][path]
        out[f"{path}.calls"] = entry["calls"] if entry else None
        for stat in ("s", "self_s"):
            out[f"{path}.{stat}"] = (
                _median([s["layers"][path][stat] for s in traced]) if entry else None
            )
    for name in SUITES:
        out[f"verify.suite.{name}.s"] = (
            _median([s["suites_s"].get(name, 0.0) for s in traced])
            if first["suites_s"] is not None
            else None
        )
    starts = first["starts"] or {}
    attempted = starts.get("attempted")
    converged = starts.get("converged")
    iterations = out["solver.cg_solve.calls"]
    projections = starts.get("projections") if out["variational.nehari_project.calls"] is not None else None
    # each start projects once before its first step and stops at its last
    # iteration without a line search; all others run one
    trials = None if projections is None or attempted is None else projections - attempted
    ls_iters = None if iterations is None or attempted is None else iterations - attempted
    out["solver.starts_attempted"] = attempted
    out["solver.starts_converged"] = converged
    out["solver.line_search_trials"] = trials
    out["solver.line_search_iterations"] = ls_iters
    out["ratio.convolve_per_iteration"] = _ratio(out["kernels.convolve.calls"], iterations)
    out["ratio.line_search_trials_per_iteration"] = _ratio(trials, ls_iters)
    out["ratio.starts_converged"] = _ratio(converged, attempted)
    out["choquard.import.s"] = _median([s["import_s"] for s in traced + untraced])
    traced_run = _median([s["run_s"] for s in traced])
    untraced_run = _median([s["run_s"] for s in untraced])
    out["trace.untraced_run_s"] = untraced_run
    out["trace.overhead_s"] = traced_run - untraced_run
    return out


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--radius", type=int, help="override the window radius (smoke test)")
    return parser.parse_args(argv)


def main(argv=None):
    opts = parse_args(argv)
    if not (ROOT / "src" / "choquard" / "cli.py").is_file():
        print(f"error: no choquard sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = WORKLOADS[opts.workload]
    radius = spec["radius"] if opts.radius is None else opts.radius
    args = cli_args(opts.workload, radius, opts.seed)
    reference = None
    if radius == spec["radius"]:
        with open(BENCH_DIR / "reference.json") as fh:
            reference = json.load(fh)[opts.workload]
    threads = len(os.sched_getaffinity(0))  # nproc; BLAS is pinned to it
    scale = "" if reference is not None else f".radius{radius}"
    stem = f"{opts.workload}{scale}.seed{opts.seed}.trace{opts.trace}"
    # traced runs alternate traced and untraced samples, for the overhead
    min_samples = 2 if opts.trace else 1

    limit = min(opts.seconds, RUN_LIMIT_S)
    samples = []
    start = time.monotonic()
    while True:
        is_traced = bool(opts.trace) and len(samples) % 2 == 0
        spans_path = str(RESULTS_DIR / f"{stem}.spans.jsonl") if is_traced else None
        timeout = max(10.0, RUN_LIMIT_S - (time.monotonic() - start))
        sample = run_sample(args, threads, spans_path, timeout)
        sample["traced"] = is_traced
        sample["problems"] = (
            [sample["error"]]
            if "error" in sample
            else ([f"exit code {sample['rc']}"] if sample["rc"] != 0 else [])
            + check_outcome(args[0], sample["outcome"], reference)
        )
        samples.append(sample)
        elapsed = time.monotonic() - start
        per_sample = elapsed / len(samples)
        if elapsed + per_sample > limit and len(samples) >= min_samples:
            break

    ok = [s for s in samples if "error" not in s]
    traced = [s for s in ok if s["traced"]]
    untraced = [s for s in ok if not s["traced"]]
    counts = [work_counts(s) for s in traced]
    counts_repeat = all(c == counts[0] for c in counts)
    if not counts_repeat:
        for s in traced:
            s["problems"].append("work counts differ between samples of one seed")
    failed = sum(1 for s in samples if s["problems"])

    if opts.trace:
        names = PER_LAYER
        values = layer_metrics(traced, untraced) if traced and untraced else {}
    else:
        names = END_TO_END
        values = {name: _median([s[name] for s in untraced]) for name, _ in END_TO_END}
    metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in names}

    summary = {
        "correct": failed == 0 and bool(ok),
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }
    environment = ok[0]["environment"] if ok else {}
    record = dict(
        summary,
        workload=opts.workload,
        seed=opts.seed,
        trace=opts.trace,
        seconds=opts.seconds,
        cli_args=args,
        git_sha=git_sha(),
        nproc=threads,
        blas_threads=threads,
        environment=environment,
        work_counts=counts[0] if counts else None,
        samples=samples,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, unit in names:
        print(f"{name} {metrics[name]['value']} {unit}")
    for s in samples:
        for problem in s["problems"]:
            print(f"failed sample: {problem}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
