"""Spans and counters recorded from outside nullwave.

The tracer replaces public functions at each module boundary with
wrappers that open a span (name, start, end, parent) and update counters.
Wrappers go on the names the caller resolves: picard binds solve_linear,
slab_norm and evaluate_nullform_series into its own namespace, so those
are wrapped in picard as well as in their defining modules.

A span's self time is its duration minus its child spans.  Every rise of
the process's peak RSS is charged to the innermost span open when it
happened, measured at each span boundary.
"""

import collections
import functools
import inspect
import os
import resource
import time


def maxrss_mb():
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.counts = collections.Counter()
        self.rss_charge = collections.Counter()
        self._rss = maxrss_mb()

    def _charge_rss(self):
        rss = maxrss_mb()
        if rss > self._rss and self.stack:
            self.rss_charge[self.spans[self.stack[-1]][0]] += rss - self._rss
        self._rss = rss

    def open(self, name):
        self._charge_rss()
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack[-1]][2] = time.perf_counter()
        self._charge_rss()
        self.stack.pop()

    def wrap(self, owner, attr, name, count=None):
        """Replace owner.attr by a spanning wrapper; absent names are skipped.

        count(counts, args, result, error) runs after every call; error
        is the exception raised, or None.
        """
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            return
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close()
                if count:
                    count(self.counts, args, None, exc)
                raise
            self.close()
            if count:
                count(self.counts, args, result, None)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod
                else wrapper)

    def install(self):
        """Wrap the public functions the workloads reach."""
        from nullwave import (cli, exterior, gridio, norms, penrose, picard,
                              solver)

        for owner in (cli, exterior):
            self.wrap(owner, "build_radial_grid", "exterior.grid")
            self.wrap(owner, "build_masked_grid", "exterior.grid")
        self.wrap(picard, "bump_data_family", "exterior.data")
        self.wrap(exterior.InitialData, "from_physical", "exterior.data")
        self.wrap(exterior.InitialData, "scaled", "exterior.data")
        self.wrap(picard, "check_compatibility", "exterior.compat")

        for owner in (picard, solver):
            self.wrap(owner, "solve_linear", "solver.solve", _count_solve)
        self.wrap(solver.Trajectory, "local_energy_series", "solver.energy")

        for owner in (picard, norms):
            self.wrap(owner, "evaluate_nullform_series", "nullforms.eval",
                      _counter("nullforms.calls"))
            self.wrap(owner, "slab_norm", "norms.slab",
                      _counter("norms.slab_calls"))
        self.wrap(norms, "weighted_sobolev_norm", "norms.sobolev")
        self.wrap(norms, "estimate_ratio_report", "norms.report")
        for attr in ("forcing_cylinder_samples", "solution_cylinder_samples",
                     "weighted_energy_sup", "delta_sweep"):
            self.wrap(norms, attr, "norms.cylinder")
        for attr in ("forward_tr", "conformal_factor_tr",
                     "conformal_gradient_tr"):
            self.wrap(penrose, attr, "penrose.map",
                      _counter("penrose.calls"))

        self.wrap(picard, "picard_solve", "picard.self", _count_picard)
        self.wrap(picard, "smallness_scan", "picard.self")

        for attr in ("write_json", "write_csv", "write_snapshot"):
            self.wrap(gridio, attr, "gridio.write", _count_write)
        self.wrap(gridio, "read_snapshot", "gridio.read")

        for attr in ("cmd_estimate_report", "cmd_run_linear"):
            self.wrap(cli, attr, "cli.self")

    def layer_metrics(self):
        """Per-layer metrics of the finished trace (roots: setup, run, check)."""
        n = len(self.spans)
        children = [0.0] * n
        root = [0] * n
        for i, (_, start, end, parent) in enumerate(self.spans):
            root[i] = i if parent is None else root[parent]
            if parent is not None:
                children[parent] += end - start
        self_s = collections.Counter()
        run_self_sum = 0.0
        run_s = 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            own = (end - start) - children[i]
            self_s[name] += own
            if self.spans[root[i]][0] == "run":
                run_self_sum += own
                if root[i] == i:
                    run_s += end - start
        c = self.counts
        out = {name + "_s": self_s[name] for name in (
            "exterior.grid", "exterior.data", "exterior.compat",
            "solver.solve", "solver.energy", "nullforms.eval", "norms.slab",
            "norms.sobolev", "norms.report", "norms.cylinder", "penrose.map",
            "picard.self", "gridio.write", "gridio.read", "cli.self")}
        out["run.self_s"] = self_s["run"]
        for name in ("solver.calls", "solver.node_steps", "nullforms.calls",
                     "norms.slab_calls", "penrose.calls", "picard.sweeps",
                     "picard.entries", "gridio.bytes"):
            out[name] = c[name]
        out["solver.stored_mb"] = c["solver.stored_bytes"] / 2.0 ** 20
        out["solver.ns_per_node_step"] = (
            1e9 * self_s["solver.solve"] / c["solver.node_steps"]
            if c["solver.node_steps"] else 0.0)
        out["picard.converged_frac"] = (
            c["picard.converged"] / c["picard.entries"]
            if c["picard.entries"] else 0.0)
        layer_rss = collections.Counter()
        for name, mb in self.rss_charge.items():
            layer_rss[name.split(".")[0]] += mb
        for layer in ("solver", "nullforms", "norms", "picard"):
            out[layer + ".peak_delta_mb"] = layer_rss[layer]
        out["trace.run_s"] = run_s
        return out, run_self_sum


def _counter(key):
    def count(counts, args, result, error):
        counts[key] += 1
    return count


def _count_solve(counts, args, traj, error):
    if error is not None:
        return
    counts["solver.calls"] += 1
    steps = (len(traj.times) - 1) * traj.stride
    counts["solver.node_steps"] += traj.u[0].size * steps
    counts["solver.stored_bytes"] += sum(
        a.nbytes for a in (traj.u, traj.v, getattr(traj, "forcing", None))
        if a is not None)


def _count_picard(counts, args, result, error):
    counts["picard.entries"] += 1
    if error is not None:
        counts["picard.sweeps"] += getattr(error, "iterations", 0)
        return
    report = result[1]
    counts["picard.sweeps"] += report.iterations
    counts["picard.converged"] += int(report.converged)


def _count_write(counts, args, result, error):
    if error is None:
        counts["gridio.bytes"] += os.path.getsize(args[0])
