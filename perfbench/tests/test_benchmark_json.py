"""The metric catalogue the benchmark binary emits matches BENCHMARK.json.

    python3 -m unittest discover -s perfbench/tests

Builds the binary like run.py does, then compares its --list-metrics
catalogue (every name a run can emit; a run rejects any other) with
BENCHMARK.json.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class BenchmarkJsonTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        binary = run.build(run.build_dir())
        if binary is None:
            raise RuntimeError("perfbench build failed")
        lines = subprocess.run([binary, "--list-metrics"], check=True,
                               capture_output=True, text=True).stdout
        cls.catalogue = {"end_to_end": [], "per_layer": [], "workload": []}
        for line in lines.splitlines():
            kind, *rest = line.split()
            cls.catalogue[kind].append(tuple(rest))

    def test_end_to_end_metrics_match(self):
        want = [(m["name"], m["unit"]) for m in self.spec["end_to_end"]]
        self.assertEqual(self.catalogue["end_to_end"], want)

    def test_per_layer_metrics_match(self):
        want = [(m["name"], m["unit"]) for m in self.spec["per_layer"]]
        self.assertEqual(self.catalogue["per_layer"], want)

    def test_workloads_match(self):
        want = [(w["name"],) for w in self.spec["workloads"]]
        self.assertEqual(self.catalogue["workload"], want)

    def test_names_use_allowed_characters(self):
        for kind in ("end_to_end", "per_layer", "workload"):
            for entry in self.catalogue[kind]:
                self.assertRegex(entry[0], NAME)


if __name__ == "__main__":
    unittest.main()
