"""One run of one nullwave workload in a fresh interpreter.

run.py starts this script once per sample, with the repository's src
directory on PYTHONPATH.  It writes one JSON record to --result:

  setup_s      import of nullwave, config resolution, grid and data
  run_s        the experiment body, up to the last artifact written
  peak_rss_mb  ru_maxrss right after the experiment body
  error        None, or why the output check failed
  digests      sha256 of every artifact
  layers       per-layer metrics (--mode trace only)

Modes: setup (stop after set-up), run, trace (run with spans recorded
around the public functions, see tracer.py).  An exception exits nonzero.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time

import workloads
from tracer import Tracer, maxrss_mb


def _steps(t_end, dt, stride):
    # the step count solve_linear takes for this window
    n = max(int(math.ceil(t_end / dt - 1e-12)), 1)
    return n + (-n) % stride


# -- CLI workloads ----------------------------------------------------------

def setup_cli(spec, workdir):
    from nullwave import cli
    ini = os.path.join(workdir, "config.ini")
    cfg = cli.load_config(ini, spec["subcommand"])
    return cli.ExperimentConfig(cfg, cfg["run"]["seed"], 1)


def run_cli(spec, ec, out):
    from nullwave import cli
    command = getattr(cli, "cmd_" + spec["subcommand"].replace("-", "_"))
    return command(ec, out, True)


def check_cli(spec, ec, summary, out):
    """Acceptance-gate bounds (criteria 6 and 9) on the CLI summary."""
    from nullwave import norms
    res = summary["results"]
    if spec["subcommand"] == "run-linear":
        fit = res["fit"]
        if not (fit["rate"] > 0 and fit["residual"] < 0.2):
            return "decay fit rate %r log-RMS %r" % (fit["rate"],
                                                      fit["residual"])
        return None
    n_eps = len(ec.raw["scan"]["eps"].split())
    if len(res["rows"]) != n_eps:
        return "%d of %d scan entries converged" % (len(res["rows"]), n_eps)
    if not all(math.isfinite(row[name]) for row in res["rows"]
               for name in norms.RATIO_NAMES):
        return "non-finite ratio"
    spreads = res["ratio_spreads"]
    if sorted(spreads) != sorted(norms.RATIO_NAMES) or \
            not all(s < 10.0 for s in spreads.values()):
        return "ratio spreads %r" % (spreads,)
    sweep = res["delta_sweep"]["values"]
    gaps = [abs(v - sweep[-1]) for v in sweep[:-1]]
    if not (all(a > b for a, b in zip(gaps, gaps[1:]))
            and all(a <= b * (1 + 1e-12) for a, b in zip(sweep, sweep[1:]))):
        return "delta sweep does not converge: %r" % (sweep,)
    return None


def shape_cli(spec, ec):
    from nullwave import solver
    stride = ec.stride if spec["subcommand"] == "run-linear" else 1
    dt = ec.dt or solver.cfl_limit(ec.grid)
    return ec.grid.n_nodes, _steps(ec.t_end, dt, stride)


# -- ellipsoid Picard (library calls) ---------------------------------------

def setup_ellipsoid(spec, workdir):
    import numpy as np
    from nullwave import exterior, norms

    grid = exterior.build_masked_grid(
        exterior.Obstacle.ellipsoid(*spec["axes"]), spec["extent"],
        spec["n"], sponge_cells=spec["sponge_cells"])

    def bump(x):
        s = (np.sqrt(np.sum(x * x, axis=-1)) - spec["center"]) / spec["width"]
        out = np.zeros_like(s)
        m = np.abs(s) < 1.0
        out[m] = np.exp(-1.0 / (1.0 - s[m] ** 2)) * np.e
        return out

    data = exterior.InitialData.from_physical(grid, bump, bump)
    data, _ = norms.scale_to_data_norm(data, spec["amplitude"])
    return data


def run_ellipsoid(spec, data, out):
    import numpy as np
    from nullwave import gridio, picard
    from nullwave.nullforms import NullFormSpec
    sol, report = picard.picard_solve(
        data, NullFormSpec.scalar_q0(), spec["t_end"],
        smallness_threshold=np.inf)
    traj = sol.trajectory
    gridio.write_snapshot(os.path.join(out, "ellipsoid_final.nwb"), data.grid,
                          float(traj.times[-1]), {"u": traj.u[-1]})
    return sol, report


def check_ellipsoid(spec, data, result, out):
    """Criterion 7 contraction, exact Dirichlet pinning, NWB round trip."""
    from nullwave import gridio
    sol, report = result
    if not (report.converged and report.ratios
            and max(report.ratios) < 0.5):
        return "no contraction: residuals %r" % (report.residuals,)
    if sol.boundary_max() != 0.0:
        return "boundary_max %r" % sol.boundary_max()
    grid, time_, fields = gridio.read_snapshot(
        os.path.join(out, "ellipsoid_final.nwb"))
    traj = sol.trajectory
    if not (time_ == float(traj.times[-1])
            and grid.mask.tobytes() == data.grid.mask.tobytes()
            and fields["u"].tobytes() == traj.u[-1].tobytes()):
        return "snapshot read back differs"
    return None


def shape_ellipsoid(spec, data):
    from nullwave import solver
    return data.grid.n_nodes, _steps(spec["t_end"],
                                     solver.cfl_limit(data.grid), 1)


HANDLERS = {
    "cli": (setup_cli, run_cli, check_cli, shape_cli),
    "ellipsoid": (setup_ellipsoid, run_ellipsoid, check_ellipsoid,
                  shape_ellipsoid),
}


def _digests(out):
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    spec = workloads.make(args.workload, args.seed, args.tiny)
    setup, run, check, shape = HANDLERS[spec["kind"]]
    out = os.path.join(args.workdir, "out")
    os.makedirs(out)
    if spec["kind"] == "cli":
        with open(os.path.join(args.workdir, "config.ini"), "w") as fh:
            fh.write(workloads.ini_text(spec["ini"]))

    tracer = None
    t0 = time.perf_counter()
    import nullwave
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()
        tracer.open("setup")
    state = setup(spec, args.workdir)
    if tracer:
        tracer.close()
    setup_s = time.perf_counter() - t0
    record = {"setup_s": setup_s}

    if args.mode != "setup":
        if tracer:
            tracer.open("run")
        t1 = time.perf_counter()
        result = run(spec, state, out)
        run_s = time.perf_counter() - t1
        if tracer:
            tracer.close()
        record["run_s"] = run_s
        record["peak_rss_mb"] = maxrss_mb()
        if tracer:
            tracer.open("check")
        record["error"] = check(spec, state, result, out)
        if tracer:
            tracer.close()
            record["layers"], record["self_sum_s"] = tracer.layer_metrics()
        record["digests"] = _digests(out)
        nodes, steps = shape(spec, state)
        import numpy
        import scipy
        record["context"] = {
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nullwave": nullwave.__version__,
            "nodes": nodes, "steps_per_solve": steps,
        }

    with open(args.result, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
