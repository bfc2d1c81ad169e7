#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark, on tiny inputs:

  * every workload emits exactly the metrics BENCHMARK.json names, each
    with its unit, with answers all checked correct (error rate 0), both
    untraced and traced;
  * a deliberately corrupted answer makes the checker report failures,
    which shows the checker is live;
  * without the library sources beside it, run.py fails without
    printing a result.

    python3 e2ebench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace, *extra, cwd=ROOT, run_py=RUN):
    proc = subprocess.run(
        [sys.executable, run_py, "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"] + list(extra),
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1])


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = load_spec()

    def check_metrics(self, result, specs):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        want = {m["name"]: m["unit"] for m in specs}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"}, name)
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_metric_emitted_with_zero_errors(self):
        for w in self.spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    proc = run_bench(w["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = result_of(proc)
                    self.check_metrics(result, self.spec[key])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    if trace == 0:
                        self.assertEqual(
                            result["metrics"]["ok_rate"]["value"], 1.0)
                        record = json.loads(
                            proc.stdout.strip().splitlines()[-2])
                        self.assertEqual(record["error_rate"], 0)

    def test_corrupted_answer_raises_error_rate(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = run_bench(w["name"], 0, "--corrupt")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLess(result["metrics"]["ok_rate"]["value"], 1.0)

    def test_fails_without_library_sources(self):
        lonely = os.path.join(ROOT, ".bench_build", "selftest-lonely")
        shutil.rmtree(lonely, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(lonely, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lonely)
        try:
            proc = run_bench("bgp_mix", 0, cwd=lonely,
                             run_py=os.path.join(lonely, "e2ebench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(lonely, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
