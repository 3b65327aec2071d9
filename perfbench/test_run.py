#!/usr/bin/env python3
"""Self-tests of the benchmark harness, on tiny stand-ins for its graphs.

    python3 perfbench/test_run.py

Builds like run.py does (first use takes a minute), then runs every
workload once untraced and once traced on small planted graphs.
"""

import json
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Same shapes, a few hundred times less work.
run.GRAPHS["heavy"] = {
    "spec": "n=3000,communities=8,size=12..16,density=0.92,overlap=0.3",
    "gamma": "0.85", "min_size": "9"}
run.GRAPHS["wide"] = {
    "spec": "n=20000,communities=200,size=14..16,density=0.97",
    "gamma": "0.9", "min_size": "12"}


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.results = {(w, t): run.measure(w, seed=7, seconds=0, trace=t)
                       for w in run.WORKLOADS for t in (0, 1)}

    def test_names_are_well_formed(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]),
                         sorted(run.WORKLOADS))

    def test_every_metric_present_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in run.WORKLOADS:
                result = self.results[(w, trace)]
                self.assertTrue(result["correct"], (w, trace))
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want, (w, trace))

    def test_end_to_end_metrics_are_positive(self):
        for w in run.WORKLOADS:
            for name, m in self.results[(w, 0)]["metrics"].items():
                self.assertGreater(m["value"], 0, (w, name))

    def test_layers_add_up_to_no_more_than_wall(self):
        for w in run.WORKLOADS:
            metrics = self.results[(w, 1)]["metrics"]
            self.assertGreaterEqual(metrics["unaccounted_s"]["value"], 0, w)

    def test_wrong_reference_digest_is_a_failed_run(self):
        result = run.measure("sim_heavy", seed=7, seconds=0, trace=0,
                             reference_digest="0123456789abcdef")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
