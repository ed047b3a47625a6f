#!/usr/bin/env python3
"""Unit tests for benchmark/compare.py.  Run: python3 benchmark/compare_test.py"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

BENCHMARK = {
    "end_to_end": [
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "latency_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]
}


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.benchmark = self.write("BENCHMARK.json", BENCHMARK)
        self.count = 0
        self.saved = compare.BENCHMARK
        compare.BENCHMARK = self.benchmark

    def tearDown(self):
        compare.BENCHMARK = self.saved
        self.dir.cleanup()

    def write(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            f.write(doc if isinstance(doc, str) else json.dumps(doc))
        return path

    def result(self, metrics, workload="serve-miss", correct=True, failed=0):
        self.count += 1
        return self.write(f"r{self.count}.json", {
            "workload": workload, "correct": correct, "attempted": 1000,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": "-"} for name, v in metrics.items()}})

    def results(self, throughputs, latencies, workload="serve-miss"):
        return [self.result({"throughput_per_s": t, "latency_p50_us": l}, workload)
                for t, l in zip(throughputs, latencies)]

    def run_compare(self, a, b, *extra):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = compare.main(["compare.py", *a, "--", *b, *extra])
        return code, out.getvalue(), err.getvalue()

    def test_agreement_within_bounds_passes(self):
        a = self.results([100, 101, 99, 100, 102], [10, 10.1, 9.9, 10, 10.2])
        b = self.results([101, 100, 102, 99, 100], [10.1, 10, 10.2, 9.9, 10])
        code, out, _ = self.run_compare(a, b)
        self.assertEqual(code, 0, out)
        self.assertIn("PASS", out)

    def test_disagreement_fails(self):
        a = self.results([100, 101, 99, 100, 102], [10] * 5)
        b = self.results([80, 81, 79, 80, 82], [10] * 5)
        code, out, _ = self.run_compare(a, b)
        self.assertEqual(code, 1)
        self.assertIn("disagree", out)

    def test_regression_against_parent_fails(self):
        parent = self.results([100 + i % 2 for i in range(10)], [10] * 10)
        change = self.results([100 + i % 2 for i in range(10)], [12] * 10)
        code, out, _ = self.run_compare(
            parent, change, "--claim", "serve-miss:throughput_per_s")
        self.assertEqual(code, 1)
        self.assertIn("regression", out)
        self.assertIn("claim not met", out)

    def test_claim_met_needs_nine_of_ten_wins(self):
        parent = self.results([100, 101, 100, 99, 100, 101, 100, 99, 100, 101], [10] * 10)
        change = self.results([120, 121, 119, 120, 122, 120, 121, 119, 120, 98], [10] * 10)
        code, out, _ = self.run_compare(
            parent, change, "--claim", "serve-miss:throughput_per_s")
        self.assertEqual(code, 0, out)
        self.assertIn("claim met", out)
        self.assertIn("wins 9/10", out)

    def test_claim_with_eight_wins_fails(self):
        parent = self.results([100] * 10, [10] * 10)
        change = self.results([120] * 8 + [90, 90], [10] * 10)
        code, out, _ = self.run_compare(
            parent, change, "--claim", "serve-miss:throughput_per_s")
        self.assertEqual(code, 1)
        self.assertIn("wins 8/10", out)

    def test_wide_spread_is_unresolved(self):
        a = self.results([100, 60, 140, 100, 80, 120], [10] * 6)
        b = self.results([100, 61, 139, 100, 81, 119], [10] * 6)
        code, out, _ = self.run_compare(a, b)
        self.assertEqual(code, 1)
        self.assertIn("unresolved", out)

    def setups(self, seconds):
        return [self.result({"setup_s": v}, "sim-mcmp") for v in seconds]

    def test_setup_noise_below_its_floor_agrees(self):
        # Microsecond set-ups: a relative spread far over the 0.25 bound,
        # but the interquartile range and the shift stay under 5 ms.
        a = self.setups([v * 1e-6 for v in (10, 20, 30, 15, 25)])
        b = self.setups([v * 1e-6 for v in (12, 32, 38, 26, 34)])
        code, out, _ = self.run_compare(a, b)
        self.assertEqual(code, 0, out)
        self.assertIn("agree", out)

    def test_setup_growth_beyond_its_floor_disagrees(self):
        a = self.setups([v * 1e-6 for v in (10, 20, 30, 15, 25)])
        b = self.setups([v * 1e-3 for v in (8, 8.1, 7.9, 8, 8.2)])
        code, out, _ = self.run_compare(a, b)
        self.assertEqual(code, 1)
        self.assertIn("disagree", out)

    def test_setup_growth_beyond_its_floor_is_a_regression(self):
        parent = [self.result({"throughput_per_s": 100 + i % 2, "setup_s": 0.010})
                  for i in range(10)]
        change = [self.result({"throughput_per_s": 120 + i % 2, "setup_s": 0.020})
                  for i in range(10)]
        code, out, _ = self.run_compare(
            parent, change, "--claim", "serve-miss:throughput_per_s")
        self.assertEqual(code, 1)
        self.assertIn("claim met", out)
        self.assertIn("regression", out)

    def test_claim_fails_when_the_change_fails_more_operations(self):
        parent = self.results([100 + i % 2 for i in range(10)], [10] * 10)
        change = [self.result({"throughput_per_s": 120 + i % 2, "latency_p50_us": 10},
                              failed=1 if i == 0 else 0)
                  for i in range(10)]
        code, out, _ = self.run_compare(
            parent, change, "--claim", "serve-miss:throughput_per_s")
        self.assertEqual(code, 1)
        self.assertIn("claim met", out)
        self.assertIn("B failed 1 operations and A 0", out)

    def test_claim_on_a_layer_metric_is_refused(self):
        parent = [self.result({"networks.cache_hit_rate": 0.5})] * 10
        change = [self.result({"networks.cache_hit_rate": 0.4})] * 10
        code, _, err = self.run_compare(
            parent, change, "--claim", "serve-miss:networks.cache_hit_rate")
        self.assertEqual(code, 2)
        self.assertIn("not an end-to-end metric", err)

    def test_incorrect_run_is_refused_naming_the_file(self):
        good = self.results([100], [10])
        bad = self.result({"throughput_per_s": 100}, correct=False)
        code, _, err = self.run_compare(good, [bad])
        self.assertEqual(code, 2)
        self.assertIn(os.path.basename(bad), err)
        self.assertIn("correctness", err)

    def test_malformed_input_names_the_file(self):
        good = self.results([100], [10])
        bad = self.write("broken.json", "{not json")
        code, _, err = self.run_compare(good, [bad])
        self.assertEqual(code, 2)
        self.assertIn("broken.json", err)

        no_value = self.write("novalue.json", {
            "workload": "serve-miss", "correct": True, "failed": 0,
            "metrics": {"latency_p50_us": {"unit": "us"}}})
        code, _, err = self.run_compare(good, [no_value])
        self.assertEqual(code, 2)
        self.assertIn("novalue.json", err)
        self.assertIn("latency_p50_us", err)

    def test_missing_separator_is_a_usage_error(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            self.assertEqual(compare.main(["compare.py", "a.json"]), 2)


if __name__ == "__main__":
    unittest.main()
