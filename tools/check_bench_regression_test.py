#!/usr/bin/env python3
"""Cases for check_bench_regression.py, run on reports built inline.

Run directly (python3 tools/check_bench_regression_test.py) or through
ctest as CheckBenchRegression.Cases.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_bench_regression.py")
RELEASE = {"stagger_audit": "off", "stagger_assertions": "off"}


def row(name, cpu_ns, items_per_second=None, run_type="iteration"):
    r = {"name": name, "run_type": run_type, "iterations": 1000,
         "real_time": cpu_ns, "cpu_time": cpu_ns, "time_unit": "ns"}
    if items_per_second is not None:
        r["items_per_second"] = items_per_second
    return r


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.count = 0

    def tearDown(self):
        self.dir.cleanup()

    def report(self, rows, context=RELEASE):
        self.count += 1
        path = os.path.join(self.dir.name, f"run{self.count}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"context": context, "benchmarks": rows}, f)
        return path

    def check(self, base, change):
        proc = subprocess.run(
            [sys.executable, CHECKER, "--base", *base, "--change", *change],
            cwd=self.dir.name, capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout + proc.stderr

    def combined(self):
        with open(os.path.join(self.dir.name, "BENCH_scheduler.json"),
                  encoding="utf-8") as f:
            return {r["name"]: r for r in json.load(f)["benchmarks"]}

    def test_passes_within_bound(self):
        code, out = self.check([self.report([row("BM_A", 100.0)])],
                               [self.report([row("BM_A", 120.0)])])
        self.assertEqual(code, 0, out)
        self.assertAlmostEqual(self.combined()["BM_A"]["ratio"], 1.2)

    def test_fails_at_1_3x(self):
        code, out = self.check([self.report([row("BM_A", 100.0)])],
                               [self.report([row("BM_A", 130.0)])])
        self.assertEqual(code, 1, out)
        self.assertIn("BM_A: 130.0 ns/item exceeds base 100.0", out)

    def test_minimum_over_repetitions_ignores_aggregates(self):
        # Per item: 1e9 / items_per_second.  The change's slow first
        # repetition and its (fast, bogus) mean row must not count.
        base = [self.report([row("BM_T", 5e5, items_per_second=1e6)]),
                self.report([row("BM_T", 5e5, items_per_second=2e6)])]
        change = [self.report([
            row("BM_T", 5e5, items_per_second=1e6),
            row("BM_T", 5e5, items_per_second=1.8e6),
            row("BM_T_mean", 5e5, items_per_second=1e9,
                run_type="aggregate")])]
        code, out = self.check(base, change)
        self.assertEqual(code, 0, out)
        combined = self.combined()
        self.assertAlmostEqual(combined["BM_T"]["base_ns_per_item"], 500.0)
        self.assertAlmostEqual(combined["BM_T"]["change_ns_per_item"],
                               1e9 / 1.8e6)
        self.assertNotIn("BM_T_mean", combined)

    def test_fails_when_base_row_missing_from_change(self):
        code, out = self.check(
            [self.report([row("BM_A", 100.0), row("BM_B", 10.0)])],
            [self.report([row("BM_A", 100.0)])])
        self.assertEqual(code, 1, out)
        self.assertIn("BM_B: missing from the change", out)

    def test_passes_when_row_is_new_in_change(self):
        code, out = self.check(
            [self.report([row("BM_A", 100.0)])],
            [self.report([row("BM_A", 100.0), row("BM_New", 50.0)])])
        self.assertEqual(code, 0, out)
        self.assertIn("new  BM_New", out)

    def test_fails_when_change_has_audits_or_assertions_on(self):
        for key in ("stagger_audit", "stagger_assertions"):
            with self.subTest(key=key):
                context = dict(RELEASE, **{key: "on"})
                code, out = self.check(
                    [self.report([row("BM_A", 100.0)])],
                    [self.report([row("BM_A", 100.0)], context)])
                self.assertEqual(code, 1, out)
                self.assertIn(f"{key} on", out)

    def test_passes_when_base_context_lacks_the_keys(self):
        code, out = self.check(
            [self.report([row("BM_A", 100.0)], {"library_build_type": "release"})],
            [self.report([row("BM_A", 100.0)])])
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
