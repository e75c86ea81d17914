"""Workloads and metric names of the nullwave benchmark.

Shared by the parent (run.py) and the child processes (child.py); it
imports only the standard library, so a child can load it before the
timed import of nullwave.

A workload is built from (name, seed, tiny).  Seed 0 reproduces the
reference configuration exactly; any other seed jitters the inputs
inside a band that keeps every output check valid.  tiny shrinks the
problem for the smoke tests.
"""

import random

WORKLOADS = {
    # The paper's estimate experiment: a 5-amplitude smallness scan, the
    # four ratio families, cylinder sampling and the delta-sweep.  Many
    # solves on short rows, so per-call solver overhead and the whole
    # space-time stacks in nullforms and norms dominate.
    "radial-scan": "estimate-report on defaults: many short radial solves, "
                   "null forms, slab norms, ratio report and cylinder maps",
    # The paper's setting: a convex obstacle that is not a sphere, with
    # the wave reflecting off it inside the window.  The 3-d stencil and
    # the 4-component gradient stacks dominate; memory is the limit.
    # A library call because [grid] mode = cartesian crashes the CLI.
    "ellipsoid-picard": "two-sweep Picard solve on a 49^3 masked grid "
                        "around an ellipsoid, snapshot written and read back",
    # No Picard and no null forms: velocities stored, energies read.  The
    # predicted-no-change workload for picard, nullforms and norms work.
    "radial-linear": "run-linear at n=8000: long linear solve storing u and "
                     "v, local energies and a decay fit; no Picard",
}

# (name, unit, better); also listed in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Self times are a span's duration minus its child spans; peak deltas
# charge each rise of ru_maxrss to the innermost open span.
PER_LAYER = (
    ("exterior.grid_s", "s", "lower"),
    ("exterior.data_s", "s", "lower"),
    ("exterior.compat_s", "s", "lower"),
    ("solver.solve_s", "s", "lower"),
    ("solver.calls", "count", "lower"),
    ("solver.node_steps", "count", "lower"),
    ("solver.ns_per_node_step", "ns", "lower"),
    ("solver.stored_mb", "MB", "lower"),
    ("solver.energy_s", "s", "lower"),
    ("nullforms.eval_s", "s", "lower"),
    ("nullforms.calls", "count", "lower"),
    ("norms.slab_s", "s", "lower"),
    ("norms.slab_calls", "count", "lower"),
    ("norms.sobolev_s", "s", "lower"),
    ("norms.report_s", "s", "lower"),
    ("norms.cylinder_s", "s", "lower"),
    ("penrose.map_s", "s", "lower"),
    ("penrose.calls", "count", "lower"),
    ("picard.self_s", "s", "lower"),
    ("picard.sweeps", "count", "lower"),
    ("picard.entries", "count", "lower"),
    ("picard.converged_frac", "fraction", "higher"),
    ("gridio.write_s", "s", "lower"),
    ("gridio.bytes", "B", "lower"),
    ("gridio.read_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("run.self_s", "s", "lower"),
    ("solver.peak_delta_mb", "MB", "lower"),
    ("nullforms.peak_delta_mb", "MB", "lower"),
    ("norms.peak_delta_mb", "MB", "lower"),
    ("picard.peak_delta_mb", "MB", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)

SCAN_EPS = (1e-4, 2e-4, 4e-4, 8e-4, 1.6e-3)


def _factor(rng, seed, lo, hi):
    return 1.0 if seed == 0 else rng.uniform(lo, hi)


def make(name, seed, tiny=False):
    """Inputs of one workload as a plain dict.

    CLI workloads carry the INI sections to write ("ini"); only keys
    that differ from the driver defaults are set.  The ellipsoid
    workload carries the library-call parameters.
    """
    if name not in WORKLOADS:
        raise ValueError("unknown workload %r" % (name,))
    # a string seed hashes the same way in every process
    rng = random.Random("%s:%d" % (name, seed))
    if name == "radial-scan":
        ini = {}
        if seed:
            factor = rng.uniform(0.9, 1.1)
            ini["scan"] = {"eps": " ".join(repr(e * factor)
                                           for e in SCAN_EPS)}
        if tiny:
            ini["grid"] = {"r_max": 8.0, "n": 200, "sponge_cells": 40,
                           "sponge_strength": 3.0}
            ini["run"] = {"t_end": 10.0}
            ini["report"] = {"sup_window": "2 8", "time_stride": 5}
        return {"kind": "cli", "subcommand": "estimate-report", "ini": ini}
    if name == "radial-linear":
        # below the default n=2000 the decay fit misses its log-RMS bound
        ini = {"grid": {"n": 2000 if tiny else 8000}}
        if seed:
            ini["data"] = {"center": 2.2 + rng.uniform(-0.05, 0.05)}
        if tiny:
            ini["run"] = {"t_end": 15.0}
        return {"kind": "cli", "subcommand": "run-linear", "ini": ini}
    return {
        "kind": "ellipsoid",
        "axes": (1.4, 1.0, 0.8),
        "extent": 12.0,
        "n": 24 if tiny else 48,
        "sponge_cells": 8,
        # the bump in |x| clears the obstacle, so order-1 compatibility
        # holds; at this amplitude the seed commit runs two sweeps
        "center": 3.0 * _factor(rng, seed, 0.9, 1.1),
        "width": 0.8,
        "amplitude": 0.05 * _factor(rng, seed, 0.9, 1.1),
        "t_end": 2.0 if tiny else 10.0,
    }


def ini_text(sections):
    lines = []
    for section, entries in sorted(sections.items()):
        lines.append("[%s]" % section)
        for key, value in sorted(entries.items()):
            lines.append("%s = %s" % (key, value if isinstance(value, str)
                                      else repr(value)))
        lines.append("")
    return "\n".join(lines)
