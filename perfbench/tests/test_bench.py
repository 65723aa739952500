"""Tests of the benchmark itself, over its smoke mode (one short run of
each workload):

    python3 -m unittest discover -s perfbench/tests

They build `perfbench` first and take a few minutes: the traced
`fig6_cpu_omp` run still serves the hundred jobs its p90 needs.
"""

import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 5


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.spec = run.load_spec()
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def measure(self, workload, trace, flip=False):
        return run.measure(workload, SEED, 1, trace, flip=flip, binary=self.binary)

    def test_every_workload_prints_every_metric_correctly(self):
        for workload in self.workloads:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, details = self.measure(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], result)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()}, want)
                    for name in result["metrics"]:
                        self.assertIsNotNone(NAME.fullmatch(name), name)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)
                    # End to end, a job is one configuration and a run has only
                    # a few, whose percentiles are reported with their sample
                    # count instead.
                    if trace == 0:
                        continue
                    for name, (samples, _, _, beyond) in details.items():
                        if beyond is not None:
                            self.assertGreaterEqual(beyond, 10, f"{name}: {samples} samples")

    def test_a_flipped_output_bit_counts_as_a_failure(self):
        cases = [(w, 0) for w in self.workloads] + [("fig6_cpu_omp", 1)]
        for workload, trace in cases:
            with self.subTest(workload=workload, trace=trace):
                result, _ = self.measure(workload, trace, flip=True)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                if trace == 0:
                    self.assertLess(result["metrics"]["ok_ratio"]["value"], 1)


if __name__ == "__main__":
    unittest.main()
