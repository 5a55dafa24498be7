#!/usr/bin/env python3
"""Smoke tests for the broker benchmark.

    python3 perfbench/test_bench.py

Runs every workload of BENCHMARK.json for a few hundred requests
(`--seconds 0.01`) through run.py (the first call builds the benchmark), end
to end and traced.  Checks that each run
prints exactly the metrics BENCHMARK.json declares, each with its unit, that
every correctness check passed, and that two runs with one seed give
identical counter-derived metrics.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec_file:
    SPEC = json.load(spec_file)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
DETERMINISTIC = ("uplink_bytes_per_purchase", "epsilon_per_purchase",
                 "sold_share")


def run(workload, seed=3, trace=0):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=False)
    lines = result.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if lines else None
    return result.returncode, summary, result.stdout


class BrokerBenchmarkTest(unittest.TestCase):

    def assert_run(self, workload, trace, declared):
        code, summary, output = run(workload, trace=trace)
        self.assertEqual(code, 0, output)
        self.assertEqual(set(summary),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(summary["correct"], output)
        self.assertEqual(summary["failed"], 0)
        self.assertGreaterEqual(summary["attempted"], 1)
        printed = {name: metric["unit"]
                   for name, metric in summary["metrics"].items()}
        self.assertEqual(printed, {m["name"]: m["unit"] for m in declared})
        self.assertNotIn("FAIL", output)
        return summary

    def test_end_to_end_metrics_and_checks(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assert_run(workload, 0, SPEC["end_to_end"])

    def test_per_layer_metrics_and_checks(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                summary = self.assert_run(workload, 1, SPEC["per_layer"])
                metrics = summary["metrics"]
                self.assertEqual(metrics["trace.spans_dropped"]["value"], 0)
                self.assertGreater(metrics["trace.coverage_share"]["value"],
                                   0.5)

    def test_one_seed_gives_identical_counters(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run(workload)[1]["metrics"]
                second = run(workload)[1]["metrics"]
                for name in DETERMINISTIC:
                    self.assertEqual(first[name]["value"],
                                     second[name]["value"], name)


if __name__ == "__main__":
    unittest.main()
