"""Names shared by run.py and the per-sample child process it starts (sample.py).

A layer is a public function of a ``choquard`` module, named
``<module>.<function>`` (or ``<module>.<Class>.<method>``).  The child wraps
each one from outside the package; the program itself is not modified.
"""

LAYERS = (
    "kernels.build_kernel_table",
    "kernels.scaled_bessel_profile",
    "kernels.convolve",
    "kernels.heat_semigroup_apply",
    "kernels.fractional_laplacian",
    "variational.ProblemSpec.operator_matrix",
    "variational.norm_sq",
    "variational.nonlocal_term",
    "variational.energy",
    "variational.euler_lagrange_residual",
    "variational.nehari_project",
    "calculus.nonlocal_energy",
    "calculus.hls_ratio",
    "solver.cg_solve",
    "solver.ground_state",
)

# the verify suites, timed one at a time in traced samples
SUITES = ("ops", "hls", "brezislieb", "lions", "nehari", "mountainpass", "green")

# (name, unit) of every metric printed with --trace 0 and with --trace 1
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    tuple(
        (f"{layer}.{stat}", unit)
        for layer in LAYERS
        for stat, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))
    )
    + tuple((f"verify.suite.{name}.s", "s") for name in SUITES)
    + (
        ("solver.starts_attempted", "count"),
        ("solver.starts_converged", "count"),
        ("solver.line_search_trials", "count"),
        ("solver.line_search_iterations", "count"),
        ("ratio.convolve_per_iteration", "ratio"),
        ("ratio.line_search_trials_per_iteration", "ratio"),
        ("ratio.starts_converged", "ratio"),
        ("choquard.import.s", "s"),
        ("trace.untraced_run_s", "s"),
        ("trace.overhead_s", "s"),
    )
)
