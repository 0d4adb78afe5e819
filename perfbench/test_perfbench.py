#!/usr/bin/env python3
"""Tests of the benchmark itself, run at its small size:

    python3 perfbench/test_perfbench.py

They check that every metric BENCHMARK.json names is printed, that the
outputs pass the reference check, and that the exact counts (victims,
purged bytes, users re-evaluated, evictions, faults, checkpoints) repeat
between two runs at one seed.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("purge_steady", "rank_refresh", "serve_wal")


def run_bench(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "10", "--trace", str(trace),
         "--size", "small"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    if proc.returncode != 0:
        raise AssertionError("run.py failed:\n" + proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    counts = next(json.loads(line[len("counts "):]) for line in lines
                  if line.startswith("counts "))
    return json.loads(lines[-1]), counts


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check_result(self, result, metrics):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_end_to_end_metrics_are_printed_and_nonzero(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = run_bench(workload, trace=0)
                self.check_result(result, self.spec["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_per_layer_metrics_are_printed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = run_bench(workload, trace=1)
                self.check_result(result, self.spec["per_layer"])

    def test_counts_repeat_exactly_at_one_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first = run_bench(workload, trace=0, seed=11)
                _, second = run_bench(workload, trace=0, seed=11)
                self.assertEqual(first, second)
                self.assertGreater(first["victims"], 0)

    def test_layers_are_exercised_where_expected(self):
        _, counts = run_bench("serve_wal", trace=0)
        self.assertGreater(counts["evictions"], 0)
        self.assertGreater(counts["faults"], 0)
        self.assertGreater(counts["checkpoints"], 0)
        _, counts = run_bench("purge_steady", trace=0)
        self.assertEqual(counts["evictions"], 0)


if __name__ == "__main__":
    unittest.main()
