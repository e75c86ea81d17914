"""The benchmark harness still runs against the package.

Each workload's setup, run and check handlers from perfbench/child.py
run in-process on the tiny inputs, so a change to the API the harness
calls fails here rather than only when the benchmark runs.  A traced
child run checks that the tracer still finds the entry points it spans.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_handlers_pass_their_check(tmp_path, monkeypatch, name):
    # child.py imports workloads and tracer by their bare names
    monkeypatch.syspath_prepend(PERFBENCH)
    child = _load("child")
    spec = workloads.make(name, 0, tiny=True)
    setup, run, check, shape = child.HANDLERS[spec["kind"]]
    out = tmp_path / "out"
    out.mkdir()
    if spec["kind"] == "cli":
        (tmp_path / "config.ini").write_text(workloads.ini_text(spec["ini"]))
    state = setup(spec, str(tmp_path))
    result = run(spec, state, str(out))
    assert check(spec, state, result, str(out)) is None
    assert os.listdir(str(out))
    nodes, steps = shape(spec, state)
    assert nodes > 0 and steps > 0


@pytest.mark.parametrize("name", ["radial-scan", "ellipsoid-picard"])
def test_traced_child_counts_the_spanned_layers(tmp_path, name):
    # the tracer skips a name it cannot find, so a renamed entry point
    # would read 0 here instead of failing
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, os.path.join(PERFBENCH, "child.py"),
                    "--workload", name, "--seed", "0", "--mode", "trace",
                    "--tiny", "--workdir", str(tmp_path / "work"),
                    "--result", str(result)], check=True, env=env)
    record = json.loads(result.read_text())
    assert record["error"] is None
    layers = record["layers"]
    for key in ("nullforms.calls", "norms.slab_calls", "solver.calls",
                "picard.sweeps"):
        assert layers[key] > 0, key
