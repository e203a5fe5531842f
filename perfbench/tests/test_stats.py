"""Tests for the benchmark's percentile and spread helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_endpoints_and_median(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(stats.percentile(values, 0.0), 1.0)
        self.assertEqual(stats.percentile(values, 1.0), 5.0)
        self.assertEqual(stats.percentile(values, 0.5), 3.0)

    def test_interpolates_between_order_statistics(self):
        self.assertAlmostEqual(stats.percentile([0.0, 10.0], 0.25), 2.5)
        self.assertAlmostEqual(stats.percentile([1.0, 2.0, 3.0, 4.0], 0.5),
                               2.5)
        # 0.8 * (11 - 1) = 8: exactly the ninth order statistic.
        self.assertEqual(stats.percentile(list(range(11)), 0.8), 8)

    def test_median_matches_statistics_module(self):
        values = [3.2, 9.1, 0.4, 7.7, 5.5, 2.0]
        self.assertAlmostEqual(stats.percentile(values, 0.5),
                               statistics.median(values))

    def test_rejects_empty_and_bad_q(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 1.5)

    def test_tail_support_needs_ten_beyond(self):
        self.assertEqual(stats.beyond(100, 0.9), 10)
        self.assertEqual(stats.beyond(11, 0.5), 5)
        self.assertTrue(stats.tail_supported(92, 0.9))
        self.assertFalse(stats.tail_supported(91, 0.9))
        self.assertTrue(stats.tail_supported(47, 0.8))
        self.assertFalse(stats.tail_supported(46, 0.8))


class IqrShareTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
        q1, median, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.iqr_share(values), (q3 - q1) / median)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.iqr_share([2.0] * 10), 0.0)

    def test_scale_free(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        self.assertAlmostEqual(stats.iqr_share(values),
                               stats.iqr_share([100 * v for v in values]))

    def test_rejects_too_few_or_zero_median(self):
        with self.assertRaises(ValueError):
            stats.iqr_share([1.0])
        with self.assertRaises(ValueError):
            stats.iqr_share([-1.0, 0.0, 1.0])


if __name__ == "__main__":
    unittest.main()
