"""The benchmark's own tests: small-n runs of every workload, traced and
untraced, and the oracle's self-check.

Run from the repository root (builds into $CARGO_TARGET_DIR, default
.bench_build):

    python3 -m unittest perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra):
    """One smoke-sized run; returns (exit code, stdout lines, result)."""
    command = ["python3", "perfbench/run.py", "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, lines, result


class SmokeRuns(unittest.TestCase):
    def test_every_workload_is_correct_and_prints_every_end_to_end_metric(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = run(workload, 0)
                self.assertEqual(code, 0, "\n".join(lines))
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), names)
                printed = {line.split()[0] for line in lines[1:-1]}
                self.assertLessEqual(names | {"error_rate", "read_p99_ms"}, printed)
                if workload == "line-update":
                    self.assertLessEqual({"write_p50_ms", "write_p99_ms"}, printed)
                error_rate = next(l for l in lines if l.split()[0] == "error_rate")
                self.assertEqual(float(error_rate.split()[1]), 0.0)

    def test_every_workload_traces_every_layer_and_reconciles(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = run(workload, 1)
                self.assertEqual(code, 0, "\n".join(lines))
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), names)


class Oracle(unittest.TestCase):
    def test_a_wrong_reference_value_fails_the_run(self):
        # A static reference and the mutable dataset's replayed model.
        for workload in ("line-solve", "line-update"):
            with self.subTest(workload=workload):
                code, lines, result = run(workload, 0, "--corrupt-reference")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
