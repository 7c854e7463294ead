#!/usr/bin/env python3
"""The benchmark's own tests: smoke runs and oracle negative controls.

Run from the repository root (about two minutes; builds first if needed):

    python3 perfbench/tests/test_perfbench.py

Smoke runs check that each workload emits every metric BENCHMARK.json
declares, with its unit, and passes its oracles. Negative controls plant a
fault (--inject) and check that the matching oracle fails the run, and that
a run too short to support a p99 is not reported as correct.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Every workload the binary runs; explore is runnable (and feeds the traced
# runs' verification layer) though BENCHMARK.json does not list it.
WORKLOADS = ("universal_combine", "sharded_store", "explore")


def perfbench(*args, timeout=300):
    """Runs the built binary; returns (exit code, report, result)."""
    cmd = [os.path.join(run.build_dir(), "perfbench"), *args,
           "--trace-dir", os.path.join(run.build_dir(), "traces")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2]) if len(lines) >= 2 else None
    return proc.returncode, report, result


def untraced(workload, *extra):
    return perfbench("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", "0", *extra)


class Smoke(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        for metric in declared:
            self.assertIn(metric["name"], result["metrics"])
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float), metric["name"])

    def test_every_workload_emits_every_end_to_end_metric(self):
        self.assertTrue({w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS))
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, report, result = untraced(workload)
                # A 1 s sharded_store run makes 1000-2000 audits, which can
                # be too few for a p99 (test_unsupported_p99_fails_the_run).
                if workload != "sharded_store":
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.check_metrics(result, SPEC["end_to_end"])
                for metric in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][metric["name"]]["value"], 0)
                self.assertEqual(report["failed_frac"], 0)
                for key in ("nproc", "compiler", "flags",
                            "universal_is_lock_free", "threads", "seed",
                            "comparable"):
                    self.assertIn(key, report["provenance"])
                if workload != "explore":
                    self.assertEqual(report["allocs_per_op"], 0)

    def test_traced_run_emits_every_per_layer_metric(self):
        code, report, result = perfbench(
            "--workload", "universal_combine", "--seed", "7", "--seconds", "1",
            "--trace", "1")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.check_metrics(result, SPEC["per_layer"])
        self.assertTrue(report["trace_written"])
        with open(report["trace_file"]) as f:
            trace = json.load(f)
        self.assertGreater(trace["totals"]["universal.update"]["spans"], 0)
        self.assertGreater(trace["totals"]["explore.lincheck"]["calls"], 0)


class NegativeControls(unittest.TestCase):
    def assert_caught(self, workload, fault):
        code, _, result = untraced(workload, "--inject", fault)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_corrupted_final_count_fails(self):
        self.assert_caught("universal_combine", "corrupt_count")

    def test_flipped_memory_image_bit_fails(self):
        self.assert_caught("sharded_store", "flip_image_bit")

    def test_wrong_pinned_execution_count_fails(self):
        self.assert_caught("explore", "wrong_pin")

    def test_unsupported_p99_fails_the_run(self):
        code, report, result = perfbench(
            "--workload", "sharded_store", "--seed", "7", "--seconds", "0.2",
            "--trace", "0")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertLess(report["latency_p99_us_min_beyond"], 10)
        self.assertGreater(report["audit_samples"], 0)

    def test_watchdog_ends_a_run_with_a_stuck_op(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, _, result = perfbench(
                    "--workload", workload, "--seed", "7", "--seconds", "30",
                    "--trace", "0", "--inject", "hang",
                    "--watchdog-s", "1", timeout=60)
                self.assertEqual(code, 3)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    if not run.build(run.build_dir()):
        sys.exit("perfbench build failed")
    unittest.main()
