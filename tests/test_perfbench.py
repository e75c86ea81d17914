"""The benchmark harness still runs against the package.

Each workload's setup, run and check handlers from perfbench/child.py
run in-process on the tiny inputs, so a change to the API the harness
calls fails here rather than only when the benchmark runs.
"""

import importlib.util
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


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
