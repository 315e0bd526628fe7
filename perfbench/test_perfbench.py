#!/usr/bin/env python3
"""The benchmark's own checks: input determinism and a short oracle run.

    python3 perfbench/test_perfbench.py

Run from the root of a source checkout; builds the benchmark first (see
run.py). Asserts that the same seed gives the same input digest, that a
different seed gives a different one, and that a short run of every
workload, untraced and traced, passes the oracle and the conservation
checks and prints every metric BENCHMARK.json names.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (perfbench/run.py)

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def build():
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    return run.build(ROOT, os.path.join(build_root, "perfbench"))


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = build()
        with open(SPEC_PATH) as f:
            cls.spec = json.load(f)

    def digest(self, workload, seed):
        out = subprocess.run(
            [self.binary, "--workload", workload, "--seed", str(seed),
             "--input-digest"],
            capture_output=True, text=True, check=True, timeout=120)
        return out.stdout.split()[-1]

    def test_inputs_depend_only_on_seed(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.digest(workload, 7)
                self.assertEqual(first, self.digest(workload, 7))
                self.assertNotEqual(first, self.digest(workload, 8))

    def test_short_runs_pass_the_oracle(self):
        for workload in run.WORKLOADS:
            for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"),
                         "--workload", workload, "--seed", "3",
                         "--seconds", "2", "--trace", trace],
                        cwd=ROOT, capture_output=True, text=True, timeout=170)
                    self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    wanted = {m["name"]: m["unit"] for m in self.spec[section]}
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, wanted)


if __name__ == "__main__":
    unittest.main()
