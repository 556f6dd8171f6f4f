#!/usr/bin/env python3
"""Smoke tests of the benchmark itself.

Run from the repository root (builds the benchmark first, about a minute):

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each workload runs at tiny size (`--tiny`, one second of measurement).
The tests check that every workload emits exactly the end-to-end metrics
of `BENCHMARK.json` (and, traced, exactly its per-layer metrics) with the
declared units, that no two end-to-end metrics of a workload coincide,
that the workload-specific figures are printed on their own workloads only,
and that a forced result-check failure is counted and fails the command.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ["constructs", "kernels", "serve", "cluster"]

# Printed, unbounded figures each workload reports (and only it).
INFO = {
    "constructs": {"construct_us"},
    "kernels": {"solve_s"},
    "serve": {"latency_p50_us", "latency_p99_us", "hi_p99_us", "throughput_rps"},
    "cluster": {"latency_p50_us", "latency_p99_us", "hi_p99_us", "throughput_rps"},
}
ALL_INFO = set().union(*INFO.values())


def run(workload, trace, *extra):
    """Run one tiny benchmark; returns (exit code, parsed last line, stdout lines)."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", str(trace), "--tiny", *extra,
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload}: no output\n{done.stderr[-3000:]}")
    return done.returncode, json.loads(lines[-1]), lines


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        cls.e2e_units = {m["name"]: m["unit"] for m in cls.bench["end_to_end"]}
        cls.layer_units = {m["name"]: m["unit"] for m in cls.bench["per_layer"]}

    def test_declared_workloads(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], WORKLOADS)

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, res, lines = run(workload, 0)
                self.assertEqual(code, 0)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                metrics = res["metrics"]
                self.assertEqual(set(metrics), set(self.e2e_units))
                printed = {w[0] for w in map(str.split, lines[:-1]) if w and w[0] in ALL_INFO}
                self.assertEqual(printed, INFO[workload])
                for name, m in metrics.items():
                    self.assertEqual(m["unit"], self.e2e_units[name], name)
                    self.assertTrue(math.isfinite(m["value"]) and m["value"] > 0, name)
                for a, b in itertools.combinations(metrics, 2):
                    self.assertNotEqual(metrics[a]["value"], metrics[b]["value"], f"{a} == {b}")

    def test_traced_run_emits_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, res, _ = run(workload, 1)
                self.assertEqual(code, 0)
                self.assertTrue(res["correct"])
                self.assertEqual(set(res["metrics"]), set(self.layer_units))
                for name, m in res["metrics"].items():
                    self.assertEqual(m["unit"], self.layer_units[name], name)
                    self.assertTrue(math.isfinite(m["value"]), name)

    def test_forced_failure_is_counted(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, res, lines = run(workload, 0, "--inject-failure")
                self.assertEqual(code, 1)
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)
                frac = [l.split() for l in lines if l.startswith("failed_frac ")]
                self.assertEqual(len(frac), 1)
                self.assertAlmostEqual(float(frac[0][1]), res["failed"] / res["attempted"], places=5)


if __name__ == "__main__":
    unittest.main()
