"""Tests that BENCHMARK.json names exactly the metrics the benchmark prints,
with the same units, and keeps the format's limits.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import re
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkJsonTest(unittest.TestCase):
    def test_keys_and_workloads(self):
        bench = load()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        for w in bench["workloads"]:
            self.assertIn(w["name"], workloads.WORKLOADS)
        for w in bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_end_to_end_matches_run_py(self):
        bench = load()
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.E2E_UNITS)
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        for m in bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_per_layer_matches_layers_py(self):
        bench = load()
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         layers.UNITS)

    def test_names_and_units_are_well_formed(self):
        bench = load()
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        names += [w["name"] for w in bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))


if __name__ == "__main__":
    unittest.main()
