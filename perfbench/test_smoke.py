#!/usr/bin/env python3
"""Smoke self-test of the benchmark: every workload at a tiny size, in both
trace modes, must print exactly the metrics `BENCHMARK.json` names, each
with its unit, and pass its own output checks.

    python3 perfbench/test_smoke.py        # from the repository root
"""

import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, env=None):
    argv = [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900, env=env)


class Smoke(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_its_unit(self):
        spec = load_spec()
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[group]}
            for workload in (w["name"] for w in spec["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    out = run(workload, trace)
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(result["correct"], True)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    for name, m in result["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)
                        if trace == 0:
                            self.assertGreater(m["value"], 0, name)

    def test_edn_knobs_are_refused(self):
        env = dict(os.environ, EDN_SHARDS="4")
        out = run("corpus_churn", 0, env)
        self.assertNotEqual(out.returncode, 0)
        self.assertIn("EDN_SHARDS", out.stderr)
        self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
