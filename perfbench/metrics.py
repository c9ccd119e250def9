"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json lists the same metrics; a test keeps the two in step.
"""

from __future__ import annotations

# Public functions the benchmark calls, by layer (xchan module).  linalg is
# never called directly, so its cost shows inside its callers' spans; cli
# runs are spanned per command instead (see workloads.CliPipeline).
API = {
    "channels": ("check_trace_preserving", "check_unital", "check_trace_orthogonal",
                 "check_extremal", "choi", "choi_min_eigenvalue", "kraus_from_choi",
                 "apply"),
    "states": ("DensityMatrix", "random_density"),
    "extremal": ("sample_extremal", "sample_interior", "parameter_jacobian_rank"),
    "qubit": ("NuParams", "channel_from_nu", "bloch_affine", "predicted_translation",
              "ellipsoid_samples"),
    "dilation": ("stinespring", "evolve_via_dilation"),
    "serialize": ("dump_state", "parse_channel", "parse_state"),
}
CLI_COMMANDS = ("sample", "check", "apply", "dilate")
RESIDUAL_LAYERS = ("channels", "dilation", "qubit")

# (name, unit, better, bound): bound is the share of the parent's median by
# which a metric may worsen before a change counts as a regression.
END_TO_END = (
    ("items_per_s", "1/s", "higher", 0.25),
    ("item_ms_p50", "ms", "lower", 0.25),
    ("item_ms_p90", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_ratio", "ratio", "higher", 0.01),
)

# The N at which each function's median call time is reported: every N where
# the function took at least 1 % of some workload's traced wall time.
US_P50_AT = {
    "channels.check_trace_orthogonal": (4,),
    "channels.check_extremal": (2, 3, 4, 8, 16),
    "channels.choi": (16,),
    "channels.choi_min_eigenvalue": (4, 16),
    "channels.kraus_from_choi": (2, 3, 4, 16),
    "channels.apply": (2, 3, 4),
    "states.random_density": (2, 3, 4),
    "extremal.sample_extremal": (2, 3, 4),
    "extremal.parameter_jacobian_rank": (8,),
    "qubit.channel_from_nu": (2,),
    "qubit.bloch_affine": (2,),
    "qubit.ellipsoid_samples": (2,),
    "dilation.stinespring": (2, 3, 4, 8, 16),
    "dilation.evolve_via_dilation": (2, 3, 4, 16),
    "serialize.parse_channel": (16,),
}


def _per_layer():
    out = []
    for name, ns in US_P50_AT.items():
        out += [(f"{name}.us_p50.n{n}", "us", "lower") for n in ns]
    for layer, names in API.items():
        out += [(f"{layer}.{name}.calls", "count", "higher") for name in names]
    out += [(f"serialize.{name}.bytes", "B", "lower") for name in API["serialize"]]
    for command in CLI_COMMANDS:
        out += [(f"cli.{command}.proc_ms_p50", "ms", "lower"),
                (f"cli.{command}.inproc_ms_p50", "ms", "lower")]
    out += [(f"{layer}.busy_share", "ratio", "lower") for layer in (*API, "cli")]
    out += [(f"{layer}.max_residual", "abs", "lower") for layer in RESIDUAL_LAYERS]
    out += [("bench.self_share", "ratio", "lower"),
            ("trace.overhead_ratio", "ratio", "higher")]
    return tuple(out)


# (name, unit, better).  A metric a workload does not exercise reads 0.
PER_LAYER = _per_layer()
