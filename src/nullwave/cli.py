"""Command-line driver for the verification experiments.

Subcommands write machine-readable artifacts (JSON summaries, CSV
series, binary snapshots) into --out. Identical config and seed give
byte-identical text artifacts; nothing time- or host-dependent is
written.

Exit codes: 0 success, 2 configuration problems (nothing written),
3 numerical failure (diagnostic error.json written).
"""

import argparse
import configparser
import copy
import os
import sys

import numpy as np

from . import gridio, norms, penrose, picard, solver
from .errors import (CFLError, ConfigError, DomainError, FitError,
                     FormatError, NaNError, NoConvergence, OrderError,
                     ParamError)
from .exterior import (MAX_COMPAT_ORDER, Obstacle, build_masked_grid,
                       build_radial_grid, check_compatibility,
                       radially_reducible)
from .nullforms import NullFormSpec

SCHEMA_VERSION = 1

_NUMERICAL_ERRORS = (CFLError, DomainError, FitError, FormatError, NaNError,
                     NoConvergence, OrderError, ParamError, MemoryError)

# Base configuration; per-subcommand overlays below, user file on top.
DEFAULTS = {
    "grid": {
        "mode": "radial",
        "r0": 1.0,
        "r_max": 48.0,
        "n": 2000,
        "angular_mode": 0,
        "sponge_cells": 170,
        "sponge_strength": 4.0,
        "extent": 12.0,
    },
    "obstacle": {
        "kind": "sphere",
        "params": "1.0",
    },
    "data": {
        "center": 2.0,
        "width": 0.8,
        "velocity": "profile",
        "eps": 1e-2,
    },
    "nullform": {
        "kind": "scalar_q0",
        "components": 1,
        "terms": "",
    },
    "run": {
        "t_end": 60.0,
        "dt": 0.0,
        "stride": 20,
        "tol": 1e-8,
        "max_iter": 12,
        "seed": 0,
    },
    "scan": {
        "eps": "1e-4 2e-4 4e-4 8e-4 1.6e-3",
    },
    "fit": {
        "model": "power",
        "window": "5 40",
        "local_radius": 4.0,
    },
    "report": {
        "time_stride": 20,
        "deltas": "3.6 3.2 2.8 2.0 1.0 0.3 0.0",
        "sup_window": "5 40",
    },
    "compat": {
        "order": 2,
    },
    "geometry": {
        "samples": 10000,
        "extent": 100.0,
    },
    "output": {
        "snapshots": True,
    },
}

# run-linear defaults reproduce the sphere local-energy decay
# experiment (first angular mode, reflecting outer edge far enough out
# that the returning front cannot reach the observation ball in time).
SUBCOMMAND_DEFAULTS = {
    "run-linear": {
        "grid": {"r_max": 36.0, "angular_mode": 1, "sponge_cells": 0},
        "data": {"center": 2.2, "velocity": "zero", "eps": 1.0},
        "nullform": {"kind": "linear"},
        "run": {"stride": 4},
        "fit": {"model": "exponential", "window": "5 12"},
    },
}


def load_config(path, subcommand):
    """Merge defaults, subcommand overlay, and the user's INI file.

    Each value is read, uninterpolated, by the configparser getter of
    its DEFAULTS entry's type: getboolean, getint, getfloat or get.
    """
    cfg = copy.deepcopy(DEFAULTS)
    for section, entries in SUBCOMMAND_DEFAULTS.get(subcommand, {}).items():
        cfg[section].update(entries)
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as e:
        raise ConfigError("cannot read config: %s" % e)
    except configparser.Error as e:
        raise ConfigError("cannot parse config: %s" % e)
    get = {bool: parser.getboolean, int: parser.getint,
           float: parser.getfloat, str: parser.get}
    for section in parser.sections():
        if section not in cfg:
            raise ConfigError("unknown config section [%s]" % section)
        for key, raw in parser.items(section):
            if key not in cfg[section]:
                raise ConfigError("unknown key %r in section [%s]"
                                  % (key, section))
            try:
                cfg[section][key] = get[type(DEFAULTS[section][key])](
                    section, key)
            except ValueError:
                raise ConfigError("bad value for [%s] %s: %r"
                                  % (section, key, raw))
    return cfg


def _floats(text, what):
    try:
        vals = [float(tok) for tok in text.split()]
    except ValueError:
        raise ConfigError("cannot parse %s list: %r" % (what, text))
    if not vals:
        raise ConfigError("empty %s list" % what)
    return vals


def _pair(text, what):
    vals = _floats(text, what)
    if len(vals) != 2 or not vals[0] < vals[1]:
        raise ConfigError("%s needs two increasing values" % what)
    return tuple(vals)


def _amplitudes(eps_list, key):
    try:
        return picard.check_amplitudes(eps_list)
    except ParamError as e:
        raise ConfigError("%s: %s" % (key, e))


class ExperimentConfig:
    """Resolved experiment: grid, data family, null form, run window.

    cfg is load_config's dict and seed the run seed.  Scan entries run
    one at a time.
    """

    # perfbench/child.py still passes a third argument, which is ignored
    def __init__(self, cfg, seed, _threads=None):
        self.raw = cfg
        self.seed = int(seed)
        data = cfg["data"]
        try:
            self.grid = self._build_grid(cfg)
            self.spec = self._build_spec(cfg["nullform"])
            (self.eps,) = _amplitudes([data["eps"]], "[data] eps")
            self.scan_eps = _amplitudes(
                _floats(cfg["scan"]["eps"], "scan eps"), "[scan] eps")
            self.family = picard.bump_data_family(
                self.grid, center=data["center"], width=data["width"],
                velocity=data["velocity"])
        except (ValueError, MemoryError) as e:  # numpy's size errors too
            raise ConfigError(str(e))
        # written so that NaN fails each check
        for section, key in (("run", "t_end"), ("run", "tol"),
                             ("fit", "local_radius"), ("geometry", "extent")):
            if not 0 < cfg[section][key] < np.inf:
                raise ConfigError("[%s] %s must be positive and finite"
                                  % (section, key))
        for section, key in (("run", "dt"), ("compat", "order")):
            if not 0 <= cfg[section][key] < np.inf:
                raise ConfigError("[%s] %s must be >= 0" % (section, key))
        if cfg["compat"]["order"] > MAX_COMPAT_ORDER:
            raise ConfigError("[compat] order must be <= %d"
                              % MAX_COMPAT_ORDER)
        for section, key in (("run", "stride"), ("run", "max_iter"),
                             ("report", "time_stride"),
                             ("geometry", "samples")):
            if cfg[section][key] < 1:
                raise ConfigError("[%s] %s must be >= 1" % (section, key))
        # numpy can neither count past intp nor draw from a range past the
        # largest float
        if cfg["geometry"]["samples"] > np.iinfo(np.intp).max:
            raise ConfigError("[geometry] samples must be <= %d"
                              % np.iinfo(np.intp).max)
        if not 2 * cfg["geometry"]["extent"] < np.inf:
            raise ConfigError("[geometry] extent must be below half the "
                              "largest float")
        run = cfg["run"]
        self.t_end = float(run["t_end"])
        self.dt = float(run["dt"]) or None
        self.stride = int(run["stride"])
        self.tol = float(run["tol"])
        self.max_iter = int(run["max_iter"])
        self.compat_order = int(cfg["compat"]["order"])
        self.geometry_samples = int(cfg["geometry"]["samples"])
        self.geometry_extent = float(cfg["geometry"]["extent"])
        self.snapshots = bool(cfg["output"]["snapshots"])

        # list-valued keys are parsed here, before any command runs, so
        # that a bad one exits 2 with nothing written
        fit = cfg["fit"]
        self.fit_window = _pair(fit["window"], "[fit] window")
        if fit["model"] not in ("exponential", "power"):
            raise ConfigError("unknown fit model %r" % fit["model"])
        self.fit_model = fit["model"]
        self.local_radius = float(fit["local_radius"])
        rep = cfg["report"]
        self.sup_window = _pair(rep["sup_window"], "[report] sup_window")
        self.deltas = _floats(rep["deltas"], "delta")
        if not all(0 <= d < np.inf for d in self.deltas):
            raise ConfigError("deltas must be >= 0 and finite")
        self.time_stride = int(rep["time_stride"])

    @staticmethod
    def _build_grid(cfg):
        g = cfg["grid"]
        if g["mode"] == "radial":
            return build_radial_grid(
                g["r0"], g["r_max"], g["n"], angular_mode=g["angular_mode"],
                sponge_cells=g["sponge_cells"],
                sponge_strength=g["sponge_strength"])
        if g["mode"] == "cartesian":
            o = cfg["obstacle"]
            return build_masked_grid(
                Obstacle(o["kind"], _floats(o["params"], "obstacle params")),
                g["extent"], g["n"], sponge_cells=g["sponge_cells"],
                sponge_strength=g["sponge_strength"])
        raise ConfigError("unknown grid mode %r" % g["mode"])

    @staticmethod
    def _build_spec(nf):
        if nf["kind"] == "scalar_q0":
            return NullFormSpec.scalar_q0()
        if nf["kind"] == "linear":
            return NullFormSpec.linear(int(nf["components"]))
        if nf["kind"] == "custom":
            terms = []
            for line in nf["terms"].splitlines():
                line = line.strip()
                if not line:
                    continue
                toks = line.split()
                if len(toks) != 5:
                    raise ConfigError(
                        "custom term needs 'i j k coeff form': %r" % line)
                try:
                    terms.append((int(toks[0]), int(toks[1]), int(toks[2]),
                                  float(toks[3]), toks[4]))
                except ValueError:
                    raise ConfigError("bad custom term: %r" % line)
            return NullFormSpec(int(nf["components"]), terms)
        raise ConfigError("unknown nullform kind %r" % nf["kind"])

    def data(self, eps=None):
        return self.family(self.eps if eps is None else eps)

    def summary_header(self, subcommand):
        return {
            "schema_version": SCHEMA_VERSION,
            "subcommand": subcommand,
            "seed": self.seed,
            "config": self.raw,
        }


def _say(quiet, msg):
    if not quiet:
        print(msg)


def cmd_verify_geometry(ec, out, quiet):
    rng = np.random.default_rng(ec.seed)
    n = ec.geometry_samples
    extent = ec.geometry_extent
    t = rng.uniform(-extent, extent, size=n)
    x = rng.normal(size=(n, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= rng.uniform(0.0, extent, size=(n, 1))

    p = penrose.MinkowskiPoint(t, x)
    q = penrose.to_einstein(p)
    back = penrose.from_einstein(q)
    scale = 1.0 + np.abs(p.t) + p.r
    round_trip = float(np.max(np.maximum(
        np.abs(back.t - p.t),
        np.max(np.abs(back.x - p.x), axis=-1)) / scale))

    om = penrose.conformal_factor(p)
    dual = float(np.max(np.abs(om - penrose.conformal_factor_cylinder(q))
                        / np.abs(om)))

    residuals = {}
    cases = {
        "mode1": (lambda T, X: np.cos(0.7 * T) * X[..., 0],
                  lambda T, X: 3.51 * np.cos(0.7 * T) * X[..., 0]),
        "mode2": (lambda T, X: np.sin(1.1 * T) * X[..., 1] * X[..., 2],
                  lambda T, X: 7.79 * np.sin(1.1 * T) * X[..., 1] * X[..., 2]),
        "mode2b": (lambda T, X: np.cos(0.5 * T)
                   * (X[..., 0] ** 2 - X[..., 3] ** 2),
                   lambda T, X: 8.75 * np.cos(0.5 * T)
                   * (X[..., 0] ** 2 - X[..., 3] ** 2)),
    }
    x0 = np.array([1.1, -0.6, 1.4])
    for name, (phi, phiw) in cases.items():
        res = [abs(float(penrose.intertwine_residual(phi, phiw, 0.7, x0, h)))
               for h in (0.08, 0.04, 0.02)]
        orders = [float(np.log2(res[m] / res[m + 1])) for m in range(2)]
        residuals[name] = {"residuals": res, "orders": orders}

    summary = ec.summary_header("verify-geometry")
    summary["results"] = {
        "samples": n,
        "max_round_trip_rel": round_trip,
        "max_conformal_dual_rel": dual,
        "intertwine": residuals,
    }
    gridio.write_json(os.path.join(out, "geometry.json"), summary)
    _say(quiet, "round-trip %.3e  conformal dual %.3e" % (round_trip, dual))
    return summary


def _fit_json(fit):
    return {"model": fit.model, "rate": fit.rate, "amplitude": fit.amplitude,
            "window": list(fit.window), "residual": fit.residual}


def _write_final_snapshot(ec, out, traj, name, velocity):
    if not ec.snapshots:
        return
    fields = {"u": traj.u[-1]}
    if velocity:
        fields["v"] = traj.v[-1]
    gridio.write_snapshot(os.path.join(out, name), traj.grid,
                          float(traj.times[-1]), fields)


def cmd_run_linear(ec, out, quiet):
    # the local energy of each snapshot is taken during the run; only the
    # first and the last state are kept
    energy_at = solver.local_energy_fn(ec.grid, ec.local_radius)
    energies = []
    traj = solver.solve_linear(
        ec.data(), None, ec.t_end, dt=ec.dt, stride=ec.stride,
        observe=lambda i, u, v: energies.append(energy_at(u, v)))
    # the snapshot times, dt * stride * arange, one per energy
    times = traj.dt * ec.stride * np.arange(len(energies))
    energies = np.array(energies)
    fit = solver.fit_decay((times, energies), ec.fit_model,
                           window=ec.fit_window)
    _say(quiet, "decay rate %.4f residual %.4f" % (fit.rate, fit.residual))

    summary = ec.summary_header("run-linear")
    summary["results"] = {
        "t_end": ec.t_end,
        "local_radius": ec.local_radius,
        "fit": _fit_json(fit),
    }
    gridio.write_json(os.path.join(out, "linear.json"), summary)
    gridio.write_csv(os.path.join(out, "local_energy.csv"),
                     ["t", "local_energy"], zip(times, energies))
    _write_final_snapshot(ec, out, traj, "linear_final.nwb", True)
    return summary


def cmd_run_nonlinear(ec, out, quiet):
    sol, report = picard.picard_solve(
        ec.data(), ec.spec, ec.t_end, dt=ec.dt, tol=ec.tol,
        max_iter=ec.max_iter)
    _say(quiet, "converged in %d iterations (last residual %.3e)"
         % (report.iterations, report.residuals[-1]))
    fit = picard.measure_sup_decay(sol, window=ec.fit_window)

    summary = ec.summary_header("run-nonlinear")
    summary["results"] = {
        "iterations": report.iterations,
        "converged": report.converged,
        "residuals": report.residuals,
        "ratios": report.ratios,
        "boundary_max": sol.boundary_max(),
        "sup_fit": _fit_json(fit),
    }
    gridio.write_json(os.path.join(out, "nonlinear.json"), summary)
    gridio.write_csv(os.path.join(out, "sup_series.csv"), ["t", "sup"],
                     zip(sol.sup_times, sol.sup_values))
    gridio.write_csv(os.path.join(out, "residuals.csv"),
                     ["iteration", "residual"],
                     enumerate(report.residuals, start=1))
    _write_final_snapshot(ec, out, sol.trajectory, "nonlinear_final.nwb",
                          False)
    return summary


def _run_scan(ec, time_stride=None, deltas=()):
    return picard.smallness_scan(
        ec.family, ec.spec, ec.scan_eps, ec.t_end, dt=ec.dt, tol=ec.tol,
        max_iter=ec.max_iter, time_stride=time_stride, deltas=deltas)


def _table_row(row, quiet):
    _say(quiet, "eps %.3e  converged %s  iterations %d"
         % (row["eps"], row["converged"], row["iterations"]))
    return {key: row[key] for key in ("eps", "converged", "iterations",
                                      "final_residual", "final_ratio")}


def cmd_scan_smallness(ec, out, quiet):
    # map drops each row, and its solution, before the next entry runs
    table = list(map(lambda row: _table_row(row, quiet), _run_scan(ec)))

    summary = ec.summary_header("scan-smallness")
    summary["results"] = {"rows": table}
    gridio.write_json(os.path.join(out, "scan.json"), summary)
    gridio.write_csv(
        os.path.join(out, "scan.csv"),
        ["eps", "converged", "iterations", "final_residual", "final_ratio"],
        [(r["eps"], r["converged"], r["iterations"], r["final_residual"],
          r["final_ratio"]) for r in table])
    return summary


def cmd_estimate_report(ec, out, quiet):
    reports = norms.estimate_ratio_report(
        _run_scan(ec, ec.time_stride, ec.deltas), sup_window=ec.sup_window)
    if not reports:
        raise FitError("no converged scan entries with nonzero data to "
                       "report on")

    columns = ["eps"] + list(reports[0].values)
    csv_rows = [[r.metadata["eps"]] + [r[k] for k in r.values]
                for r in reports]
    spreads = norms.ratio_spreads(reports)
    for r in reports:
        _say(quiet, "eps %.3e  " % r.metadata["eps"] + "  ".join(
            "%s %.3e" % (k, r[k]) for k in norms.RATIO_NAMES))

    # truncation sweep on the largest converged entry: scan rows come in
    # ascending eps and only converged rows are reported, so it is the
    # last report's
    last = reports[-1].metadata
    sweep = last["delta_sweep"]

    summary = ec.summary_header("estimate-report")
    summary["results"] = {
        "ratio_spreads": spreads,
        "rows": [dict(r.values, eps=r.metadata["eps"]) for r in reports],
        "delta_sweep": {"eps": last["eps"], "deltas": ec.deltas,
                        "values": list(sweep)},
    }
    gridio.write_json(os.path.join(out, "estimates.json"), summary)
    gridio.write_csv(os.path.join(out, "estimates.csv"), columns, csv_rows)
    gridio.write_csv(os.path.join(out, "delta_sweep.csv"),
                     ["delta", "tip_norm"], zip(ec.deltas, sweep))
    return summary


def cmd_check_compat(ec, out, quiet):
    order = ec.compat_order
    data = ec.data()
    residuals = check_compatibility(data, ec.spec, order)
    for j, res in enumerate(residuals):
        _say(quiet, "order %d boundary residual %.3e" % (j, res))

    summary = ec.summary_header("check-compat")
    summary["results"] = {
        "order": order,
        "boundary_residuals": [float(r) for r in residuals],
    }
    gridio.write_json(os.path.join(out, "compat.json"), summary)
    return summary


COMMANDS = {
    "verify-geometry": cmd_verify_geometry,
    "run-linear": cmd_run_linear,
    "run-nonlinear": cmd_run_nonlinear,
    "scan-smallness": cmd_scan_smallness,
    "estimate-report": cmd_estimate_report,
    "check-compat": cmd_check_compat,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nullwave",
        description="Verification experiments for null-form waves outside "
                    "a convex obstacle.")
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="INI experiment configuration")
    parser.add_argument("--out", default=".", help="artifact directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (overrides [run] seed)")
    parser.add_argument("--quiet", action="store_true")
    return parser


def _check_for_subcommand(subcommand, ec):
    """Refuse a config that this subcommand cannot run.

    Each problem here would otherwise surface only after the whole run,
    as a numerical failure; found here, it exits 2 with nothing written.
    """
    picard_run = subcommand in ("run-nonlinear", "scan-smallness",
                                "estimate-report")
    if picard_run and ec.spec.n_components != 1:
        raise ConfigError("[nullform] components must be 1 for bump data")
    # the others run the compatibility recursion
    if subcommand not in ("verify-geometry", "run-linear") \
            and not radially_reducible(ec.grid, ec.spec):
        raise ConfigError("a nonlinear [nullform] on a radial grid needs q0 "
                          "terms and [grid] angular_mode = 0")
    if picard_run:
        try:
            picard.check_data(ec.family(1.0), ec.spec)
        except ParamError as e:
            raise ConfigError("the [data] center = %g, width = %g bump does "
                              "not suit the grid of spacing h = %g: %s"
                              % (ec.raw["data"]["center"],
                                 ec.raw["data"]["width"], ec.grid.h, e))
        dt = ec.dt or solver.cfl_limit(ec.grid)
        try:
            n = picard.snapshot_count(ec.t_end, dt)
        except ParamError as e:
            raise ConfigError("[run] t_end = %g is too %s at step %g: %s"
                              % (ec.t_end, "long" if ec.t_end > dt
                                 else "short", dt, e))
    if subcommand == "estimate-report":
        if not any(ec.scan_eps):
            raise ConfigError("[scan] eps has no nonzero entry, and zero "
                              "data have no ratios to report")
        try:
            norms.local_linear_rows(n, dt)
        except ParamError as e:
            raise ConfigError("estimate-report cannot take the local-linear "
                              "norm ([run] t_end = %g, step %g): %s"
                              % (ec.t_end, dt, e))
        try:
            norms.CylinderNorms(ec.grid, n, dt, ec.time_stride, ec.deltas)
        except ParamError as e:
            raise ConfigError("estimate-report cannot sample the cylinder "
                              "([grid] mode = %s, [report] time_stride = %d)"
                              ": %s" % (ec.grid.kind, ec.time_stride, e))
        window, name = ec.sup_window, "[report] sup_window"
    elif subcommand in ("run-linear", "run-nonlinear"):
        window, name = ec.fit_window, "[fit] window"
    else:
        return
    if window[0] > ec.t_end:
        raise ConfigError("%s starts at %g, after [run] t_end = %g"
                          % (name, window[0], ec.t_end))


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.subcommand)
        seed = args.seed if args.seed is not None else cfg["run"]["seed"]
        if seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        cfg["run"]["seed"] = int(seed)
        ec = ExperimentConfig(cfg, seed)
        _check_for_subcommand(args.subcommand, ec)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2

    # every configuration check has run: commands raise no ConfigError
    os.makedirs(args.out, exist_ok=True)
    try:
        COMMANDS[args.subcommand](ec, args.out, args.quiet)
    except _NUMERICAL_ERRORS as e:
        diag = ec.summary_header(args.subcommand)
        diag["error"] = {"type": type(e).__name__, "message": str(e)}
        if isinstance(e, NoConvergence):
            diag["error"]["iterations"] = e.iterations
            diag["error"]["residuals"] = e.residuals
        gridio.write_json(os.path.join(args.out, "error.json"), diag)
        print("numerical failure: %s" % e, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
