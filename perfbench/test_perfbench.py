#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Builds the runner if needed (about a minute the first time), then runs a few
short workload processes (about a minute in total).
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py)

SHORT = 0.1  # seconds: one warm-up and one timed pass


def sim_metrics(result):
    """Simulated end-to-end metrics of the fixed-rate pass (the rate search
    runs only untraced, so sim_max_rps_at_slo is left out)."""
    return {k: v["value"] for k, v in result["e2e"].items()
            if k.startswith("sim_") and k != "sim_max_rps_at_slo"}


def counts(result):
    return {k: v["value"] for k, v in result["layers"].items()
            if v["unit"] in ("count", "bytes", "ps")}


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("cannot build the benchmark runner")
        cls.cache = {}

    def result(self, workload, seed, trace):
        key = (workload, seed, trace)
        if key not in self.cache:
            code, result = run.run_workload(workload, seed, SHORT, trace)
            self.assertEqual(code, 0, f"{key} exited {code}")
            self.assertIsNotNone(result)
            self.assertTrue(result["correct"], result.get("failures"))
            self.assertTrue(result["deterministic"])
            self.cache[key] = result
        return self.cache[key]

    def test_same_seed_repeats_simulated_metrics(self):
        first = self.result("serve-hot", 3, 0)
        code, again = run.run_workload("serve-hot", 3, SHORT, 0)
        self.assertEqual(code, 0)
        self.assertEqual(sim_metrics(first), sim_metrics(again))
        self.assertEqual(first["e2e"]["sim_max_rps_at_slo"],
                         again["e2e"]["sim_max_rps_at_slo"])
        self.assertEqual(first["search"], again["search"])
        self.assertEqual(counts(first), counts(again))

    def test_other_seed_moves_serve_metrics(self):
        a = sim_metrics(self.result("serve-hot", 3, 0))
        b = sim_metrics(self.result("serve-hot", 4, 0))
        for name in ("sim_p50_us", "sim_p99_us", "sim_energy_uj_per_req"):
            self.assertNotEqual(a[name], b[name], name)

    def test_traced_run_leaves_simulated_metrics_alone(self):
        plain = self.result("serve-hot", 3, 0)
        traced = self.result("serve-hot", 3, 1)
        self.assertEqual(sim_metrics(plain), sim_metrics(traced))
        self.assertEqual(counts(plain), counts(traced))
        self.assertGreater(traced["layers"]["obs.self_s"]["value"], 0.0)

    def test_self_times_sum_to_traced_pass_time(self):
        for workload in ("serve-hot", "pb-cim"):
            result = self.result(workload, 3, 1)
            selfs = {k: v["value"] for k, v in result["layers"].items()
                     if k.endswith(".self_s")}
            self.assertIn("unattributed.self_s", selfs)
            self.assertEqual(len(selfs), 11)
            for name, value in selfs.items():
                self.assertGreaterEqual(value, 0.0, name)
            self.assertAlmostEqual(sum(selfs.values()),
                                   result["traced_pass_s"], delta=1e-6)
            self.assertGreater(result["samples"], 0)

    def test_metrics_match_benchmark_json(self):
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for workload in ("serve-hot", "pb-cim"):
            for trace, group, key in ((0, "e2e", "end_to_end"),
                                      (1, "layers", "per_layer")):
                printed = self.result(workload, 3, trace)[group]
                self.assertEqual(
                    [(m["name"], m["unit"]) for m in declared[key]],
                    [(name, m["unit"]) for name, m in printed.items()])

    def test_result_line(self):
        result = self.result("serve-hot", 3, 0)
        line = run.result_line(result, 0)
        self.assertEqual(sorted(json.loads(line)),
                         ["attempted", "correct", "failed", "metrics"])


if __name__ == "__main__":
    unittest.main()
