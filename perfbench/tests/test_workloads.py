"""Tests that a seed fixes the request bytes, and that the schedules keep
the invariants the load client and the checks rely on.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import layers  # noqa: E402
import workloads  # noqa: E402


class DeterminismTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name in workloads.WORKLOADS:
            a = workloads.script_text(workloads.make(name, 7, 3))
            b = workloads.script_text(workloads.make(name, 7, 3))
            self.assertEqual(a, b, name)

    def test_other_seed_other_bytes(self):
        for name in workloads.WORKLOADS:
            a = workloads.script_text(workloads.make(name, 7, 3))
            b = workloads.script_text(workloads.make(name, 8, 3))
            self.assertNotEqual(a, b, name)

    def test_coverage_phase_is_seeded(self):
        line = lambda seed: [r.line for r in layers.coverage_phase(seed).reqs]
        self.assertEqual(line(3), line(3))
        self.assertNotEqual(line(3), line(4))

    def test_reference_release_does_not_depend_on_seed(self):
        for name in workloads.WORKLOADS:
            lines = []
            for seed in (1, 2):
                w = workloads.make(name, seed, 3)
                lines.append([r.line for r in w.phases[0].reqs
                              if r.release == w.reference_release
                              or '"name": "ref"' in r.line])
            self.assertEqual(lines[0], lines[1], name)
            self.assertTrue(lines[0], name)


class ScheduleTest(unittest.TestCase):
    def test_lines_are_single_json_objects(self):
        for name in workloads.WORKLOADS:
            for phase in workloads.make(name, 1, 3).phases:
                for req in phase.reqs:
                    self.assertNotIn("\n", req.line)
                    self.assertNotIn("\t", req.line)
                    self.assertIsInstance(json.loads(req.line), dict)

    def test_queries_name_released_names_and_valid_ids(self):
        for name in workloads.WORKLOADS:
            released = set()
            for phase in workloads.make(name, 2, 3).phases:
                for req in phase.reqs:
                    if req.kind == "release":
                        released.add(req.release)
                    elif req.kind in ("ids", "all"):
                        self.assertIn(req.release, released, name)
                    if req.kind == "ids":
                        self.assertEqual(len(req.ids),
                                         workloads.IDS_PER_QUERY)

    def test_churn_plans_hits_and_second_spends(self):
        w = workloads.make("release_churn", 3, 3)
        timed = next(p for p in w.phases if p.timed)
        hits = [r for r in timed.reqs if r.kind == "release" and r.from_cache]
        again = [r for r in timed.reqs if r.kind == "release"
                 and not r.from_cache and r.release.startswith("cnt")
                 and r.step != int(r.release[3:])]
        self.assertTrue(hits)
        self.assertTrue(again)


if __name__ == "__main__":
    unittest.main()
