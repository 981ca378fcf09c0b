"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The `EndToEnd` cases build the benchmark and run every workload briefly in
both modes (about three minutes on a 2-core machine).
"""

import os
import re
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def raw_line(metrics, correct=True, attempted=5, failed=0):
    """A line as the binary prints it."""
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


class Spec(unittest.TestCase):
    spec = run.load_spec()

    def test_shape_and_limits(self):
        s = self.spec
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertEqual(s["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(s["paths"], ["perfbench"])
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        self.assertTrue(1 <= len(s["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(s["per_layer"]) <= 128)
        names = [w["name"] for w in s["workloads"]] + [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        with open(run.BENCHMARK, "rb") as f:
            self.assertLessEqual(len(f.read()), 64 * 1024)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m for m in self.spec["end_to_end"]}
        setup = bounds["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in bounds.values()))

    def test_every_crate_has_a_layer_metric(self):
        prefixes = {m["name"].split(".")[0] for m in self.spec["per_layer"]}
        for layer in ("simcore", "sim", "core", "net", "node", "workload", "runner", "agile", "trace"):
            self.assertIn(layer, prefixes)


class ResultChecks(unittest.TestCase):
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s"}, {"name": "n", "unit": "count"}],
            "per_layer": [{"name": "a.x", "unit": "ns"}, {"name": "b.y", "unit": "ratio"}]}

    def test_units_are_attached_in_declared_order(self):
        result, problems = run.to_result(raw_line({"n": 3, "wall_s": 1.5}), self.spec, False)
        self.assertEqual(problems, [])
        self.assertEqual(result, {"correct": True, "attempted": 5, "failed": 0,
                                  "metrics": {"wall_s": {"value": 1.5, "unit": "s"},
                                              "n": {"value": 3, "unit": "count"}}})
        self.assertEqual(list(result["metrics"]), ["wall_s", "n"])

    def test_an_unmeasured_layer_reads_zero(self):
        result, problems = run.to_result(raw_line({"b.y": 0.5}), self.spec, True)
        self.assertEqual(problems, [])
        self.assertEqual(result["metrics"]["a.x"], {"value": 0, "unit": "ns"})

    def test_problems_are_named(self):
        line = raw_line({"wall_s": float("inf"), "extra": 1}, attempted=0)
        result, problems = run.to_result(line, self.spec, False)
        self.assertIsNone(result)
        self.assertIn("nothing was attempted", problems)
        self.assertIn("metric n is missing", problems)
        self.assertIn("metric extra is not declared", problems)
        self.assertIn("metric wall_s has no finite value", problems)
        self.assertEqual(run.to_result({"metrics": {}}, self.spec, False),
                         (None, ["result keys are ['metrics']"]))
        _, problems = run.to_result(raw_line({"wall_s": 1, "n": True}, failed=1.5), self.spec, False)
        self.assertEqual(problems, ["failed is not a whole number", "metric n has no finite value"])
        _, problems = run.to_result(raw_line([]), self.spec, True)
        self.assertEqual(problems, ["metrics is not an object"])


class Steadiness(unittest.TestCase):
    def test_spread_is_the_quartile_distance_over_the_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(run.quartiles(values), (q1, 5.5, q3))
        self.assertAlmostEqual(run.spread(values), (q3 - q1) / 5.5)

    def test_shift_is_signed_by_direction(self):
        self.assertAlmostEqual(run.worse_shift([10, 10, 10], [11, 11, 11], "lower"), 0.1)
        self.assertAlmostEqual(run.worse_shift([10, 10, 10], [11, 11, 11], "higher"), -0.1)

    def test_report_names_metrics_out_of_bound(self):
        spec = {"workloads": [{"name": "w"}],
                "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.1},
                               {"name": "setup_s", "better": "lower", "bound": 0.2},
                               {"name": "ok", "better": "higher", "bound": 0.1}]}
        steady = [1.0, 1.0, 1.01, 0.99, 1.0]
        sets = [{"w": {"wall_s": steady, "setup_s": [1, 2, 3, 4, 5], "ok": steady}},
                {"w": {"wall_s": [x * 1.2 for x in steady], "setup_s": [1, 2, 3, 4, 5], "ok": steady}}]
        lines, exceeded = run.steadiness_report(spec, sets)
        self.assertEqual(exceeded, ["w/wall_s"])
        self.assertEqual(len(lines), 1 + 3 * 2)
        setup = [line for line in lines if " setup_s " in line]
        self.assertIn("set 1 spread exceeds bound (not bounded)", setup[-1])


class EndToEnd(unittest.TestCase):
    """Build the benchmark and run every workload briefly on seeds that
    the steadiness runs do not start with."""

    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec()
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("the benchmark did not build")

    def run_ok(self, workload, seed, trace, measured=None):
        """Run one workload for a second; the metric values of its result.
        The names the binary measured are added to `measured`."""
        code, _, raw = run.invoke(self.binary, workload, seed, 1, trace)
        self.assertEqual(code, 0, f"{workload} seed {seed} trace {trace}")
        result, problems = run.to_result(raw, self.spec, trace)
        self.assertEqual(problems, [])
        self.assertTrue(result["correct"])
        # Every workload is chosen so that no operation fails.
        self.assertEqual(result["failed"], 0, f"{workload} seed {seed} trace {trace}")
        if measured is not None:
            measured.update(raw["metrics"])
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_every_declared_metric_on_every_workload(self):
        traced, measured = {}, set()
        for w in self.spec["workloads"]:
            plain = self.run_ok(w["name"], 12, False)
            for name, value in plain.items():
                self.assertGreater(value, 0, f"{w['name']}: {name}")
            traced[w["name"]] = self.run_ok(w["name"], 12, True, measured)
        # A per-layer metric no workload measures would read 0 everywhere.
        self.assertEqual(measured, {m["name"] for m in self.spec["per_layer"]})
        self.assertEqual(traced["mesh400_lossy_partition"]["sim.handle.flood_deliver.calls"], 0)
        self.assertGreater(traced["mesh256_flood"]["sim.handle.flood_deliver.calls"], 0)
        self.assertGreater(traced["mesh400_lossy_partition"]["sim.handle.deliver.calls"], 0)
        self.assertGreater(traced["mesh400_lossy_partition"]["sim.handle.chaos.calls"], 0)
        self.assertGreater(traced["paper_sweep"]["runner.cells"], 0)
        self.assertGreater(traced["cluster_crash"]["agile.client_latency.samples"], 0)

    def test_a_seed_fixes_the_simulated_statistics(self):
        stats = ("admission_probability", "messages_per_admitted")
        first = self.run_ok("mesh400_lossy_partition", 13, False)
        again = self.run_ok("mesh400_lossy_partition", 13, False)
        other = self.run_ok("mesh400_lossy_partition", 14, False)
        self.assertEqual([first[s] for s in stats], [again[s] for s in stats])
        self.assertNotEqual([first[s] for s in stats], [other[s] for s in stats])


if __name__ == "__main__":
    unittest.main()
