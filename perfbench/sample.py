"""One benchmark sample: a fresh interpreter imports choquard and runs one CLI command.

    python3 perfbench/sample.py ROOT WORK_DIR SPANS_PATH -- CLI_ARGS...

ROOT is the checkout whose ``src/`` holds the package.  The report of the
command is written into WORK_DIR.  With SPANS_PATH empty the sample is
untraced: only ``cli.build_problem`` is timed, which gives the set-up time.
Otherwise every layer in ``layers.LAYERS`` is wrapped in a span, and the
spans are written to SPANS_PATH as JSONL when the command has finished.

The last line of standard output is one JSON object with the sample's
timings, peak RSS, the command's outcome and, when traced, its layer totals.
"""

import contextlib
import functools
import importlib
import io
import json
import os
import platform
import resource
import sys
from time import perf_counter

from layers import LAYERS


class Recorder:
    """Spans (name, start, end, parent) kept in memory until the sample ends."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        record = {"id": idx, "name": name, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(idx)
        record["start"] = perf_counter()
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def totals(self):
        """Calls, inclusive seconds and self seconds per span name."""
        child_s = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_s[rec["parent"]] += rec["end"] - rec["start"]
        out = {}
        for rec, inner in zip(self.spans, child_s):
            dur = rec["end"] - rec["start"]
            entry = out.setdefault(rec["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += dur
            entry["self_s"] += dur - inner
        return out

    def write_jsonl(self, path, trace_id):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(rec, trace=trace_id)) + "\n")


def _resolve(path):
    """(owner, attribute name, function) of a layer, or None when it no longer exists."""
    parts = path.split(".")
    try:
        owner = importlib.import_module("choquard." + parts[0])
    except ImportError:
        return None
    for attr in parts[1:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    fn = getattr(owner, parts[-1], None)
    return None if fn is None else (owner, parts[-1], fn)


def _replace_everywhere(fn, replacement):
    """Rebind fn in every loaded choquard module, including names bound by ``from`` imports."""
    for name, module in list(sys.modules.items()):
        if name == "choquard" or name.startswith("choquard."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, replacement)


def _install(path, make_wrapper):
    found = _resolve(path)
    if found is None:
        return False
    owner, attr, fn = found
    wrapper = make_wrapper(fn)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
    else:
        _replace_everywhere(fn, wrapper)
    return True


def _install_layers(rec, starts):
    present = {path: _install(path, lambda fn, path=path: rec.wrap(path, fn)) for path in LAYERS}

    def count_starts(ground_state):
        # attempted starts: the primary initializer, the restarts and the extra
        # starts; converged ones are the labels the result keeps
        @functools.wraps(ground_state)
        def wrapper(prob, cfg, extra_starts=(), **kwargs):
            starts["attempted"] += 1 + cfg.restarts + len(extra_starts)
            result = ground_state(prob, cfg, extra_starts, **kwargs)
            starts["converged"] += len(result.start_labels)
            return result

        return wrapper

    present["solver.starts"] = _install("solver.ground_state", count_starts)

    def per_suite(run_suites):
        @functools.wraps(run_suites)
        def wrapper(names, prob, seed=0):
            results = []
            for name in names:
                with rec.span(f"verify.suite.{name}"):
                    results.extend(run_suites((name,), prob, seed=seed))
            return tuple(results)

        return wrapper

    present["verify.run_suites"] = _install("verify.run_suites", per_suite)
    return present


def _outcome(command, report_path):
    """The parts of the command's report that the correctness check compares."""
    if not os.path.exists(report_path):
        return None
    with open(report_path) as fh:
        report = json.load(fh)
    if command == "sweep":
        rep = report["report"]
        return {
            "well_level": rep["well_level"],
            "all_converged": rep["all_converged"],
            "rows": [
                {"lambda": row["lambda"], "converged": row["converged"], "level": row["m_lambda"]}
                for row in rep["rows"]
            ],
            "verdicts": rep["verdicts"],
        }
    if command == "solve":
        return {"level": report["result"]["level"], "converged": report["result"]["converged"]}
    return {"suites": {s["name"]: s["passed"] for s in report["suites"]}}


def _environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
    }


def main(argv):
    root, work_dir, spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: sample.py ROOT WORK_DIR SPANS_PATH -- CLI_ARGS...")
    start = perf_counter()
    sys.path.insert(0, os.path.join(root, "src"))
    import choquard.cli as cli

    import_s = perf_counter() - start

    rec = Recorder() if spans_path else None
    starts = {"attempted": 0, "converged": 0}
    present = _install_layers(rec, starts) if rec is not None else None

    setup_times = []
    build_problem = cli.build_problem

    def timed_build_problem(cfg):
        t0 = perf_counter()
        try:
            return build_problem(cfg)
        finally:
            setup_times.append(perf_counter() - t0)

    cli.build_problem = timed_build_problem
    if rec is not None:
        cli.build_problem = rec.wrap("cli.build_problem", timed_build_problem)

    report_path = os.path.join(work_dir, "report.json")
    cli_argv = list(cli_args) + ["--out", report_path]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        t0 = perf_counter()
        if rec is not None:
            with rec.span("cli.main"):
                rc = cli.main(cli_argv)
        else:
            rc = cli.main(cli_argv)
        main_s = perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    setup_s = sum(setup_times)
    result = {
        "rc": rc,
        "stderr_tail": err.getvalue()[-2000:],
        "import_s": import_s,
        "setup_s": setup_s,
        "run_s": main_s - setup_s,
        "peak_rss_mb": peak_rss_mb,
        "outcome": _outcome(cli_args[0], report_path),
        "environment": _environment(),
    }
    if rec is not None:
        totals = rec.totals()
        empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
        result["layers"] = {
            path: (totals.get(path, empty) if present[path] else None) for path in LAYERS
        }
        result["suites_s"] = (
            {
                name[len("verify.suite."):]: entry["s"]
                for name, entry in totals.items()
                if name.startswith("verify.suite.")
            }
            if present["verify.run_suites"]
            else None
        )
        # projections made by the descent itself: one per start, the rest are line-search trials
        descents = {span["id"] for span in rec.spans if span["name"] == "solver.ground_state"}
        starts["projections"] = sum(
            1
            for span in rec.spans
            if span["name"] == "variational.nehari_project" and span["parent"] in descents
        )
        result["starts"] = starts if present["solver.starts"] else None
        rec.write_jsonl(spans_path, os.path.basename(spans_path).split(".spans")[0])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
