"""Tests for the benchmark's statistics (stats.py).

Run with `python3 perfbench/test_stats.py`; `dune runtest` runs it too."""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class MedianQuartiles(unittest.TestCase):
    def test_median_odd_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_module(self):
        xs = [7.1, 3.2, 9.9, 4.4, 5.0, 6.3, 8.8, 1.2, 2.5, 10.0]
        self.assertEqual(stats.quartiles(xs), tuple(statistics.quantiles(xs, n=4)))

    def test_quartiles_exclusive_method(self):
        # n = 10: positions 2.75, 5.5 and 8.25 of the sorted sample.
        xs = list(range(1, 11))
        self.assertEqual(stats.quartiles(xs), (2.75, 5.5, 8.25))

    def test_single_sample(self):
        self.assertEqual(stats.quartiles([4.0]), (4.0, 4.0, 4.0))
        self.assertEqual(stats.spread([4.0]), 0.0)

    def test_spread(self):
        xs = list(range(1, 11))
        self.assertAlmostEqual(stats.spread(xs), (8.25 - 2.75) / 5.5)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 201))
        self.assertEqual(stats.percentile(xs, 50), 100)
        self.assertEqual(stats.percentile(xs, 95), 190)
        self.assertEqual(stats.percentile(xs, 100), 200)
        self.assertEqual(stats.percentile([5, 1, 3], 50), 3)

    def test_beyond(self):
        self.assertEqual(stats.beyond(200, 95), 10)
        self.assertEqual(stats.beyond(199, 95), 9)
        self.assertEqual(stats.beyond(1000, 99), 10)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.highest_percentile(200), 95)
        self.assertEqual(stats.highest_percentile(1000), 99)
        self.assertEqual(stats.highest_percentile(100), 90)
        self.assertEqual(stats.highest_percentile(220), 95)
        self.assertEqual(stats.highest_percentile(199), 94)
        self.assertIsNone(stats.highest_percentile(15))

    def test_highest_percentile_is_tight(self):
        for n in range(20, 2000, 37):
            p = stats.highest_percentile(n)
            self.assertGreaterEqual(stats.beyond(n, p), 10)
            if p < 99:
                self.assertLess(stats.beyond(n, p + 1), 10)


class Pairs(unittest.TestCase):
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.2, 10.0]

    def test_nine_of_ten_with_clear_margin_is_a_gain(self):
        change = [x - 1.0 for x in self.parent]
        change[3] = 11.0  # one lost pair
        v = stats.pairs_verdict(self.parent, change, better="lower")
        self.assertEqual((v["wins"], v["losses"]), (9, 1))
        self.assertTrue(v["gain"])

    def test_eight_of_ten_is_not_a_gain(self):
        change = [x - 1.0 for x in self.parent]
        change[3] = change[4] = 11.0
        self.assertFalse(stats.pairs_verdict(self.parent, change)["gain"])

    def test_ties_count_for_neither_side(self):
        change = [x - 1.0 for x in self.parent]
        change[0] = self.parent[0]
        v = stats.pairs_verdict(self.parent, change)
        self.assertEqual((v["wins"], v["losses"]), (9, 0))
        self.assertTrue(v["gain"])

    def test_margin_must_exceed_parent_spread(self):
        change = [x - 0.05 for x in self.parent]
        v = stats.pairs_verdict(self.parent, change)
        self.assertEqual(v["wins"], 10)
        self.assertFalse(v["gain"])

    def test_higher_is_better(self):
        change = [x + 1.0 for x in self.parent]
        self.assertTrue(stats.pairs_verdict(self.parent, change, better="higher")["gain"])
        self.assertFalse(stats.pairs_verdict(self.parent, change, better="lower")["gain"])

    def test_worse_by(self):
        self.assertAlmostEqual(stats.worse_by([10.0], [11.0], "lower"), 0.1)
        self.assertAlmostEqual(stats.worse_by([10.0], [9.0], "higher"), 0.1)

    def test_unequal_sides_rejected(self):
        with self.assertRaises(ValueError):
            stats.pairs_verdict([1.0, 2.0], [1.0])


if __name__ == "__main__":
    unittest.main()
