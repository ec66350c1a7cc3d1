"""Tests for compare.py: quartiles, the worse-direction check, the spread
flag, grouping by workload, the layer table and the exit codes.

Run from this directory: python3 -m unittest -v test_compare
"""

import io
import json
import os
import tempfile
import unittest
from contextlib import redirect_stdout

import compare

BENCHMARK = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "sweep_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "qps_max", "unit": "1/s", "better": "higher",
         "bound": 0.1},
    ],
    "per_layer": [],
}


def run(workload, sweep_ms, qps, setup_s=1.0):
    return {
        "workload": workload, "seed": 1, "trace": 0,
        "end_to_end": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "sweep_ms": {"value": sweep_ms, "unit": "ms"},
            "qps_max": {"value": qps, "unit": "1/s"},
        },
    }


def rows_by_metric(rows, workload="w"):
    return {r["metric"]: r for r in rows if r["workload"] == workload}


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        q1, med, q3 = compare.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((q1, med, q3), (1.5, 3.0, 4.5))

    def test_single_value_has_no_spread(self):
        self.assertEqual(compare.quartiles([7.0]), (7.0, 7.0, 7.0))
        self.assertEqual(compare.spread([7.0]), 0.0)

    def test_spread_is_relative_to_median(self):
        self.assertAlmostEqual(compare.spread([9.0, 10.0, 10.0, 11.0]),
                               (10.75 - 9.25) / 10.0)


class WorseningTest(unittest.TestCase):
    def test_lower_is_better(self):
        metric = {"better": "lower"}
        self.assertAlmostEqual(compare.worsening(metric, 10.0, 11.0), 0.1)
        self.assertAlmostEqual(compare.worsening(metric, 10.0, 9.0), -0.1)

    def test_higher_is_better(self):
        metric = {"better": "higher"}
        self.assertAlmostEqual(compare.worsening(metric, 100.0, 90.0), 0.1)
        self.assertAlmostEqual(compare.worsening(metric, 100.0, 110.0), -0.1)


class CompareTest(unittest.TestCase):
    def test_same_runs_agree(self):
        base = {"w": [run("w", 100.0 + i, 5000.0 - i) for i in range(5)]}
        rows, ok = compare.compare(BENCHMARK, base, base)
        self.assertTrue(ok)
        for row in rows:
            self.assertEqual(row["worse_by"], 0.0)
            self.assertEqual(row["flags"], [])

    def test_slower_sweep_beyond_bound_is_worse(self):
        base = {"w": [run("w", 100.0, 5000.0)] * 3}
        other = {"w": [run("w", 120.0, 5000.0)] * 3}
        rows, ok = compare.compare(BENCHMARK, base, other)
        self.assertFalse(ok)
        sweep = rows_by_metric(rows)["sweep_ms"]
        self.assertIn("WORSE", sweep["flags"])
        self.assertAlmostEqual(sweep["worse_by"], 0.2)

    def test_better_beyond_bound_is_not_a_failure(self):
        base = {"w": [run("w", 100.0, 5000.0)] * 3}
        other = {"w": [run("w", 50.0, 8000.0)] * 3}
        _, ok = compare.compare(BENCHMARK, base, other)
        self.assertTrue(ok)

    def test_lower_throughput_is_worse(self):
        base = {"w": [run("w", 100.0, 5000.0)] * 3}
        other = {"w": [run("w", 100.0, 4000.0)] * 3}
        rows, ok = compare.compare(BENCHMARK, base, other)
        self.assertFalse(ok)
        self.assertIn("WORSE", rows_by_metric(rows)["qps_max"]["flags"])

    def test_spread_above_bound_is_noisy_except_setup(self):
        runs = [run("w", v, 5000.0, setup_s=s)
                for v, s in [(80, 1), (100, 2), (120, 3), (140, 4), (90, 5)]]
        rows, ok = compare.compare(BENCHMARK, {"w": runs})
        self.assertFalse(ok)
        by = rows_by_metric(rows)
        self.assertIn("NOISY(a)", by["sweep_ms"]["flags"])
        self.assertEqual(by["setup_s"]["flags"], [])

    def test_spread_of_few_runs_is_not_judged(self):
        runs = [run("w", v, 5000.0) for v in (80, 100, 140)]
        rows, ok = compare.compare(BENCHMARK, {"w": runs})
        self.assertTrue(ok)
        self.assertGreater(rows_by_metric(rows)["sweep_ms"]["a"]["spread"],
                           0.1)

    def test_workloads_are_compared_separately(self):
        base = {"a": [run("a", 100.0, 5000.0)], "b": [run("b", 10.0, 9.0)]}
        rows, ok = compare.compare(BENCHMARK, base, base)
        self.assertTrue(ok)
        self.assertEqual(rows_by_metric(rows, "a")["sweep_ms"]["a"]["median"],
                         100.0)
        self.assertEqual(rows_by_metric(rows, "b")["sweep_ms"]["a"]["median"],
                         10.0)

    def test_missing_workload_fails(self):
        base = {"a": [run("a", 100.0, 5000.0)]}
        rows, ok = compare.compare(BENCHMARK, base, {})
        self.assertFalse(ok)
        self.assertIn("MISSING(b)", rows[0]["flags"])


class CliTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)
        self.benchmark = self.write("BENCHMARK.json", BENCHMARK)

    def write(self, name, obj):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(obj, f)
        return path

    def main(self, *argv):
        out = io.StringIO()
        with redirect_stdout(out):
            code = compare.main(list(argv))
        return code, out.getvalue()

    def test_exit_codes(self):
        a = [self.write(f"a{i}.json", run("w", 100.0, 5000.0))
             for i in range(3)]
        b = [self.write(f"b{i}.json", run("w", 130.0, 5000.0))
             for i in range(3)]
        code, text = self.main("--benchmark", self.benchmark, *a, "--vs", *a)
        self.assertEqual(code, 0)
        self.assertIn("sweep_ms", text)
        code, text = self.main("--benchmark", self.benchmark, *a, "--vs", *b)
        self.assertEqual(code, 1)
        self.assertIn("WORSE", text)

    def test_bad_input_exits_2(self):
        bad = self.write("bad.json", {"metrics": {}})
        code, _ = self.main("--benchmark", self.benchmark, bad)
        self.assertEqual(code, 2)

    def test_layers_table(self):
        traced = run("w", 100.0, 5000.0)
        traced["layers"] = {"core": {"spans": 10, "self_ms": 75.0},
                            "serve": {"spans": 4, "self_ms": 25.0}}
        traced["per_layer"] = {"core.query_us": {"value": 12.5,
                                                 "unit": "us"}}
        code, text = self.main("--layers", self.write("t.json", traced))
        self.assertEqual(code, 0)
        lines = text.splitlines()
        core = next(line for line in lines if line.startswith("core "))
        self.assertIn("75.00%", core)
        self.assertLess(lines.index(core),
                        next(i for i, line in enumerate(lines)
                             if line.startswith("serve ")))
        self.assertIn("core.query_us", text)


if __name__ == "__main__":
    unittest.main()
