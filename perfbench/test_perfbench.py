#!/usr/bin/env python3
"""Self-tests of the perfbench harness, at tiny scale (about a minute).

    python3 perfbench/test_perfbench.py        # from the repository root

They check that every metric BENCHMARK.json declares prints with its unit
on every workload in both modes, that a planted non-finite loss or a
corrupted served output makes the run fail, and that compare.py refuses
to judge runs from different hosts and fails a candidate whose output
checks failed.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
COMPARE = os.path.join(ROOT, "perfbench", "compare.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)


def run(workload, trace=0, inject=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise AssertionError(f"no result from {cmd}:\n{proc.stderr[-2000:]}")
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


class EveryMetricPrints(unittest.TestCase):
    def test_every_declared_metric_prints_with_its_unit(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, context, result = run(workload, trace)
                    self.assertEqual(code, 0, context["failures"])
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in SPEC[section]})
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)
                    self.assertEqual(
                        set(context["host"]),
                        {"cpu", "simd", "hw_threads", "build_type",
                         "compiler"})


class FaultsFailTheRun(unittest.TestCase):
    def test_non_finite_loss_fails(self):
        code, _, result = run("mnist_select", inject="nan_loss")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_corrupted_served_output_fails(self):
        code, _, result = run("serve_mix", inject="corrupt_output")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)


class CompareJudgesOnlyLikeRuns(unittest.TestCase):
    def write_runs(self, directory, name, cpu, rate, failed=0):
        path = os.path.join(directory, name)
        host = {"cpu": cpu, "simd": "avx2", "hw_threads": 4,
                "build_type": "Release", "compiler": "GNU 12"}
        with open(path, "w") as f:
            for seed in range(3):
                f.write(json.dumps({"workload": "serve_mix", "seed": seed,
                                    "trace": 0, "host": host}) + "\n")
                f.write(json.dumps({
                    "correct": not failed, "attempted": 1, "failed": failed,
                    "metrics": {"samples_per_s": {"value": rate + seed,
                                                  "unit": "1/s"}}}) + "\n")
        return path

    def compare(self, *args):
        return subprocess.run([sys.executable, COMPARE, *args],
                              stdout=subprocess.PIPE, text=True, timeout=60)

    def test_hosts(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as d:
            base = self.write_runs(d, "base", "cpu A", 1000.0)
            same = self.write_runs(d, "same", "cpu A", 500.0)
            other = self.write_runs(d, "other", "cpu B", 500.0)
            refused = self.compare(base, other)
            self.assertEqual(refused.returncode, 3)
            self.assertIn("different hosts", refused.stdout)
            self.assertNotIn("REGRESSION", refused.stdout)
            judged = self.compare(base, same)
            self.assertEqual(judged.returncode, 1)
            self.assertIn("REGRESSION", judged.stdout)
            self.assertEqual(self.compare(base, base).returncode, 0)

    def test_failed_candidate(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as d:
            base = self.write_runs(d, "base", "cpu A", 1000.0)
            wrong = self.write_runs(d, "wrong", "cpu A", 2000.0, failed=1)
            judged = self.compare(base, wrong)
            self.assertEqual(judged.returncode, 1)
            self.assertIn("failed its checks", judged.stdout)


if __name__ == "__main__":
    unittest.main()
