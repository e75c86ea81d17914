"""Smoke tests of the benchmark itself.

    python3 perfbench/smoke.py

Each workload runs at a tiny size, untraced and traced, and must pass
its output checks and emit exactly the metrics that BENCHMARK.json
lists, each with its unit and a valid name.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _listed(entries):
    return [(m["name"], m["unit"], m["better"]) for m in entries]


class BenchmarkSmoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.bench = json.load(fh)

    def test_benchmark_json_lists_the_metrics(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual(_listed(self.bench["end_to_end"]),
                         list(workloads.END_TO_END))
        self.assertEqual(_listed(self.bench["per_layer"]),
                         list(workloads.PER_LAYER))
        names = [m[0] for m in workloads.END_TO_END + workloads.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit, better in workloads.END_TO_END + workloads.PER_LAYER:
            self.assertRegex(name, NAME)
            self.assertRegex(unit, UNIT)
            self.assertIn(better, ("lower", "higher"))

    def test_tiny_workloads_pass_and_emit_every_metric(self):
        for workload in workloads.WORKLOADS:
            for trace, expected in ((0, workloads.END_TO_END),
                                    (1, workloads.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"),
                         "--workload", workload, "--seed", "7",
                         "--seconds", "1", "--trace", str(trace), "--tiny"],
                        cwd=ROOT, capture_output=True, text=True, timeout=170)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct",
                                                      "failed", "metrics"])
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(sorted(metrics),
                                     sorted(m[0] for m in expected))
                    for name, unit, _ in expected:
                        self.assertEqual(metrics[name]["unit"], unit)
                        self.assertTrue(math.isfinite(metrics[name]["value"]))

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "radial-scan", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
