"""nullwave benchmark: one workload, timed end to end in child processes.

Run from the repository root:

    python3 perfbench/run.py --workload radial-scan --seed 0 --seconds 30 \\
        --trace 0

Every sample is a fresh child process (child.py), started one at a time
and single-threaded, so its peak RSS belongs to that run alone.  A
warm-up child that only sets up comes first and is not counted; it also
fails fast when the program is missing.  Full runs repeat while the
next one fits in --seconds; set-up-only runs, at least three, fill the
rest, and setup_s is taken over both kinds.  Medians are reported.

--trace 1 adds one traced run (tracer.py) ahead of the timed runs and
reports its per-layer metrics instead of the end-to-end ones.

A sample fails when its child exits nonzero, its output check fails, or
its artifact digests differ from those of the first run of the set.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Every sample, the digests and
the run context go to perfbench/out/<workload>-seed<seed>-trace<t>.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# a run must end within 180 s; stop starting children well before
HARD_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 170.0
MIN_SETUP_ONLY = 3


def run_child(workload, seed, mode, tiny, started):
    """One child process; returns (record or None, error or None, wall)."""
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    result = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--workdir", os.path.join(workdir, "run"), "--result", result]
    if tiny:
        cmd.append("--tiny")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    timeout = max(1.0, CHILD_TIMEOUT_S - (time.monotonic() - started))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        wall = time.monotonic() - t0
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or [""]
            return None, "exit %d: %s" % (proc.returncode, lines[-1]), wall
        with open(result) as fh:
            record = json.load(fh)
    except subprocess.TimeoutExpired:
        return None, "timed out after %.0f s" % timeout, time.monotonic() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return record, record.get("error"), wall


def _cache_sizes():
    sizes = {}
    for name in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE",
                 "LEVEL3_CACHE_SIZE"):
        try:
            text = subprocess.run(["getconf", name], capture_output=True,
                                  text=True, timeout=10).stdout.strip()
            sizes[name] = int(text) if text.isdigit() else None
        except (OSError, subprocess.TimeoutExpired):
            sizes[name] = None
    return sizes


def _stats(values):
    return {"median": statistics.median(values), "n": len(values),
            "min": min(values), "max": max(values)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the smoke tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "nullwave",
                                       "__init__.py")):
        print("perfbench: no nullwave sources under %s" % ROOT,
              file=sys.stderr)
        return 2
    started = time.monotonic()
    _, error, _ = run_child(args.workload, args.seed, "setup", args.tiny,
                            started)
    if error:
        print("perfbench: warm-up failed: %s" % error, file=sys.stderr)
        return 1

    samples = []    # (mode, record, error)
    digests = None

    def sample(mode):
        nonlocal digests
        record, error, wall = run_child(args.workload, args.seed, mode,
                                        args.tiny, started)
        if record is not None and mode != "setup":
            if digests is None:
                digests = record["digests"]
            elif record["digests"] != digests and error is None:
                error = "artifact digests differ from the first run"
            if mode == "trace" and error is None and abs(
                    record["self_sum_s"]
                    - record["layers"]["trace.run_s"]) > 1e-6:
                error = "span self times do not add up to run_s"
        samples.append((mode, record, error))
        return wall

    def time_left(walls):
        elapsed = time.monotonic() - started
        return (elapsed + statistics.median(walls) <= args.seconds
                and elapsed < HARD_LIMIT_S)

    if args.trace:
        sample("trace")
    walls = [sample("run")]
    while time_left(walls):
        walls.append(sample("run"))
    # set-up-only runs fill the rest of the budget
    walls = [sample("setup")]
    while len(walls) < MIN_SETUP_ONLY or time_left(walls):
        walls.append(sample("setup"))

    # a run that finished but failed its check still has valid timings;
    # correct is false then
    failed = sum(err is not None for _, _, err in samples)
    finished = [(mode, rec) for mode, rec, _ in samples if rec is not None]
    runs = [rec for mode, rec in finished if mode == "run"]
    traced = [rec for mode, rec in finished if mode == "trace"]
    if not runs or (args.trace and not traced):
        print("perfbench: no run finished", file=sys.stderr)
        return 1
    end_to_end = {
        "setup_s": _stats([rec["setup_s"] for mode, rec in finished
                           if mode != "trace"]),
        "run_s": _stats([r["run_s"] for r in runs]),
        "peak_rss_mb": _stats([r["peak_rss_mb"] for r in runs]),
    }
    if args.trace:
        values = dict(traced[0]["layers"])
        values["trace.overhead_frac"] = (
            values["trace.run_s"] / end_to_end["run_s"]["median"] - 1.0)
        names = workloads.PER_LAYER
    else:
        values = {k: v["median"] for k, v in end_to_end.items()}
        names = workloads.END_TO_END

    context = dict(runs[0]["context"], nproc=os.cpu_count(),
                   cpus_usable=len(os.sched_getaffinity(0)),
                   caches=_cache_sizes())
    context["field_mb"] = context["nodes"] * 8 / 2.0 ** 20
    llc = context["caches"]["LEVEL3_CACHE_SIZE"]
    context["note"] = (
        "one field is %.2f MB against a %s MB last-level cache; no "
        "bandwidth or roofline ratio is reported" % (
            context["field_mb"],
            "?" if llc is None else "%.0f" % (llc / 2.0 ** 20)))
    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "inputs": workloads.make(args.workload, args.seed, args.tiny),
        "end_to_end": end_to_end,
        "failed_frac": failed / len(samples),
        "digests": digests, "context": context,
        "samples": [{"mode": m, "error": e, "record": r}
                    for m, r, e in samples],
    }
    if args.trace:
        details["per_layer"] = values
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(details, fh, indent=2, sort_keys=True)

    for name, st in end_to_end.items():
        print("%-12s median %.4f  min %.4f  max %.4f  (n=%d)"
              % (name, st["median"], st["min"], st["max"], st["n"]))
    print("failed_frac  %d/%d" % (failed, len(samples)))
    for mode, _, err in samples:
        if err is not None:
            print("failure (%s): %s" % (mode, err))
    for name, digest in sorted((digests or {}).items()):
        print("digest %s %s" % (name, digest[:16]))
    print("nodes %d, steps per solve %d, nproc %d; %s"
          % (context["nodes"], context["steps_per_solve"], context["nproc"],
             context["note"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
