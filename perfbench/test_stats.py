"""Self-tests of the benchmark's statistics and of its metric registry.

run.py runs these before every measurement; standalone:
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7], 90), 7)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 60), 3)

    def test_empty_and_out_of_range_raise(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], 0)
        with self.assertRaises(ValueError):
            stats.median([])


class TailRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail(list(range(19))))
        self.assertEqual(stats.tail(list(range(1, 21))), (50, 10))
        self.assertEqual(stats.tail(list(range(1, 100)))[0], 50)

    def test_exact_thresholds_use_integer_arithmetic(self):
        # 100 samples leave exactly 10 beyond p90; 1000 exactly 10 beyond p99.
        self.assertEqual(stats.tail(list(range(1, 101))), (90, 90))
        self.assertEqual(stats.tail(list(range(1, 1001))), (99, 990))


class Shares(unittest.TestCase):
    def test_share(self):
        self.assertEqual(stats.share(0, 10), 0)
        self.assertEqual(stats.share(3, 4), 0.75)
        self.assertEqual(stats.share(0, 0), 0)

    def test_share_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.share(5, 4)
        with self.assertRaises(ValueError):
            stats.share(-1, 4)

    def test_relative_change(self):
        self.assertAlmostEqual(stats.relative_change(1.1, 1.0), 0.1)
        self.assertAlmostEqual(stats.relative_change(0.9, 1.0), -0.1)
        with self.assertRaises(ValueError):
            stats.relative_change(1, 0)


class Registry(unittest.TestCase):
    """BENCHMARK.json and run.py name the same metrics with the same units."""

    def test_metric_tables_match_benchmark_json(self):
        spec_path = HERE.parent / "BENCHMARK.json"
        if not spec_path.is_file():
            self.skipTest("no BENCHMARK.json beside perfbench/")
        import run
        spec = json.loads(spec_path.read_text())
        for key, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            self.assertEqual(declared,
                             {name: unit for name, (unit, _) in table.items()})
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
