#!/usr/bin/env python3
"""Unit tests for the summary arithmetic of tools/bench_ledger.py.

The comparison decides whether a change kept every end-to-end metric
inside its bound and whether a claimed gain is resolved, so its quartiles,
win counts and bound checks are pinned here on hand-computed samples.

Run directly (``python3 tests/tools/bench_ledger_test.py``) or through
ctest as ``bench_ledger_unittests``.
"""

import importlib.util
import pathlib
import unittest

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_ledger", REPO / "tools" / "bench_ledger.py")
ledger = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ledger)


class QuantileTest(unittest.TestCase):
    def test_linear_interpolation_between_order_statistics(self):
        self.assertEqual(ledger.quartiles([1, 2, 3, 4, 5]), (2, 3, 4))
        self.assertEqual(ledger.quartiles([4, 1, 3, 2]), (1.75, 2.5, 3.25))

    def test_single_value(self):
        self.assertEqual(ledger.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            ledger.quantile([], 0.5)


class SummarizeTest(unittest.TestCase):
    def test_higher_is_better_gain(self):
        base = [100, 110, 90, 105, 95]
        head = [150, 160, 140, 100, 145]
        s = ledger.summarize(base, head, "higher", 0.25)
        self.assertEqual(s["base"], (95, 100, 105))
        self.assertEqual(s["head"], (140, 145, 150))
        self.assertEqual(s["wins"], 4)  # pair 4 lost: 100 < 105
        self.assertEqual(s["pairs"], 5)
        self.assertAlmostEqual(s["ratio"], 1.45)
        self.assertTrue(s["resolved"])  # 45 apart > base spread 10
        self.assertTrue(s["within_bound"])

    def test_lower_is_better_loss_outside_bound(self):
        base = [1.0, 1.0, 1.0]
        head = [1.3, 1.2, 1.25]
        s = ledger.summarize(base, head, "lower", 0.2)
        self.assertEqual(s["wins"], 0)
        self.assertFalse(s["within_bound"])  # 1.25 > 1.0 * 1.2
        s = ledger.summarize(base, head, "lower", 0.25)
        self.assertTrue(s["within_bound"])  # the bound is inclusive

    def test_higher_is_better_loss_at_the_bound(self):
        s = ledger.summarize([100, 100], [75, 75], "higher", 0.25)
        self.assertTrue(s["within_bound"])
        s = ledger.summarize([100, 100], [74, 74], "higher", 0.25)
        self.assertFalse(s["within_bound"])

    def test_a_move_inside_the_base_spread_is_unresolved(self):
        s = ledger.summarize([90, 100, 110, 120], [100, 100, 112, 118], "higher", 0.25)
        self.assertFalse(s["resolved"])  # medians 105 vs 106, base spread 15
        self.assertEqual(s["wins"], 2)  # ties count for neither side

    def test_unpaired_samples_are_an_error(self):
        with self.assertRaises(ValueError):
            ledger.summarize([1, 2], [1], "higher", 0.25)
        with self.assertRaises(ValueError):
            ledger.summarize([], [], "higher", 0.25)


class ParseRunTest(unittest.TestCase):
    def test_last_line_and_slowdown(self):
        stdout = 'noise\n{"correct": true, "attempted": 3, "failed": 0, ' \
                 '"metrics": {"setup_s": {"value": 1.5, "unit": "s"}}}\n'
        stderr = "run.py: build\nhost slowdown: median 1.0375 over 41 calibration samples\n"
        result, slowdown = ledger.parse_run(stdout, stderr)
        self.assertTrue(result["correct"])
        self.assertEqual(ledger.metric_values(result), {"setup_s": 1.5})
        self.assertEqual(slowdown, 1.0375)

    def test_missing_slowdown_and_missing_result(self):
        _, slowdown = ledger.parse_run('{"metrics": {}}', "")
        self.assertIsNone(slowdown)
        with self.assertRaises(ValueError):
            ledger.parse_run("\n", "")


class ComparisonDumpTest(unittest.TestCase):
    def test_keeps_the_revision_beside_both_sides(self):
        samples = {"base": [{"setup_s": 1.5}], "head": [{"setup_s": 1.4}]}
        dump = ledger.comparison_dump("HEAD~1", "3abe9ac", 100, samples)
        self.assertEqual((dump["rev"], dump["rev_sha"], dump["first_seed"]),
                         ("HEAD~1", "3abe9ac", 100))
        self.assertEqual((dump["base"], dump["head"]), (samples["base"], samples["head"]))


if __name__ == "__main__":
    unittest.main()
