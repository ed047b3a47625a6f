#!/usr/bin/env python3
"""Unit tests for scripts/compare_bench.py, run by ctest.

Covers the gate semantics (invariant mismatch, rate regression, missing
rows) and the malformed-input paths: each bad file must produce a one-line
error naming the offending file, never a traceback.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "scripts", "compare_bench.py")

GOOD = {
    # "kernel_tier" is deliberate: the key contains the identity field "k"
    # as a substring, which used to crash compare() when the meta section
    # was keyed as if it were a row array (regression test).
    "meta": {"compiler": "12.2.0", "kernel_tier": "avx2"},
    "engine": [
        {"name": "batch", "k": 5, "hops_agree": 1, "route_rps": 100.0},
        {"name": "scalar", "k": 5, "hops_agree": 1, "route_rps": 50.0},
    ],
}


def run(baseline, fresh, *extra):
    """Runs the gate on two JSON-serialisable values; returns (rc, output)."""
    with tempfile.TemporaryDirectory() as d:
        paths = []
        for name, data in (("baseline.json", baseline), ("fresh.json", fresh)):
            path = os.path.join(d, name)
            with open(path, "w") as f:
                if isinstance(data, str):
                    f.write(data)  # raw (possibly invalid) text
                else:
                    json.dump(data, f)
            paths.append(path)
        proc = subprocess.run(
            [sys.executable, SCRIPT, *paths, *extra],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr


class CompareBenchTest(unittest.TestCase):
    def test_identical_files_pass(self):
        rc, out = run(GOOD, GOOD)
        self.assertEqual(rc, 0, out)
        self.assertIn("within tolerance", out)

    def test_invariant_mismatch_fails(self):
        fresh = json.loads(json.dumps(GOOD))
        fresh["engine"][0]["hops_agree"] = 0
        rc, out = run(GOOD, fresh)
        self.assertEqual(rc, 1, out)
        self.assertIn("hops_agree", out)
        self.assertIn("must be identical", out)

    def test_simulator_counters_are_invariants(self):
        base = {"workloads": [{"name": "MS(2,2)", "workload": "rand",
                               "offchip_hops": 10, "events": 20,
                               "queue_peak": 30, "route_chunks": 4,
                               "p50_latency": 5, "p99_latency": 9}]}
        for field in ("offchip_hops", "events", "queue_peak",
                      "route_chunks", "p50_latency", "p99_latency"):
            with self.subTest(field=field):
                fresh = json.loads(json.dumps(base))
                fresh["workloads"][0][field] += 1
                rc, out = run(base, fresh)
                self.assertEqual(rc, 1, out)
                self.assertIn(f"{field}: ", out)
                self.assertIn("must be identical", out)

    def test_rate_regression_fails(self):
        fresh = json.loads(json.dumps(GOOD))
        fresh["engine"][0]["route_rps"] = 1.0
        rc, out = run(GOOD, fresh)
        self.assertEqual(rc, 1, out)
        self.assertIn("route_rps", out)

    def test_rate_within_tolerance_passes(self):
        fresh = json.loads(json.dumps(GOOD))
        fresh["engine"][0]["route_rps"] = 60.0  # 0.6x, tolerance 0.5
        rc, out = run(GOOD, fresh)
        self.assertEqual(rc, 0, out)

    def test_missing_row_fails(self):
        fresh = json.loads(json.dumps(GOOD))
        del fresh["engine"][1]
        rc, out = run(GOOD, fresh)
        self.assertEqual(rc, 1, out)
        self.assertIn("missing from fresh results", out)

    def test_extra_fresh_row_is_ignored(self):
        fresh = json.loads(json.dumps(GOOD))
        fresh["engine"].append({"name": "new", "k": 9, "route_rps": 1.0})
        rc, out = run(GOOD, fresh)
        self.assertEqual(rc, 0, out)

    def test_invalid_json_names_the_file(self):
        rc, out = run("{not json", GOOD)
        self.assertEqual(rc, 1, out)
        self.assertIn("baseline file", out)
        self.assertIn("not valid JSON", out)
        self.assertNotIn("Traceback", out)

    def test_top_level_array_names_the_file(self):
        rc, out = run([1, 2, 3], GOOD)
        self.assertEqual(rc, 1, out)
        self.assertIn("baseline file", out)
        self.assertIn("malformed", out)
        self.assertIn("expected an object of row arrays", out)
        self.assertNotIn("Traceback", out)

    def test_non_object_row_names_file_and_row(self):
        fresh = {"engine": [{"name": "batch"}, 7]}
        rc, out = run(GOOD, fresh)
        self.assertEqual(rc, 1, out)
        self.assertIn("fresh file", out)
        self.assertIn("engine[1]", out)
        self.assertNotIn("Traceback", out)

    def test_meta_object_section_is_allowed(self):
        rc, out = run(GOOD, GOOD)
        self.assertEqual(rc, 0, out)


if __name__ == "__main__":
    unittest.main()
