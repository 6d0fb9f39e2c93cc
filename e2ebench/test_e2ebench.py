#!/usr/bin/env python3
"""Tests of the benchmark's own arithmetic and input generation.

    python3 e2ebench/test_e2ebench.py

The arithmetic tests need nothing built. SeedDeterminism builds the
driver (as run.py does) and compares digests of generated inputs.
"""

import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchstats as bs  # noqa: E402
import run  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        self.assertEqual(bs.percentile(list(range(1, 101)), 90), 90)
        self.assertEqual(bs.percentile(list(range(1, 101)), 50), 50)
        self.assertEqual(bs.percentile([5, 1, 3], 50), 3)
        self.assertEqual(bs.percentile([7], 99), 7)

    def test_samples_beyond(self):
        self.assertEqual(bs.samples_beyond(100, 90), 10)
        self.assertEqual(bs.samples_beyond(99, 90), 9)
        self.assertEqual(bs.samples_beyond(1000, 99.9), 1)
        self.assertEqual(bs.samples_beyond(10000, 99.9), 10)

    def test_tail_percentile_keeps_ten_beyond(self):
        self.assertEqual(bs.tail_percentile(100), 90)
        self.assertEqual(bs.tail_percentile(99), 75)
        self.assertEqual(bs.tail_percentile(1000), 99)
        self.assertEqual(bs.tail_percentile(10000), 99.9)
        self.assertIsNone(bs.tail_percentile(9))

    def test_p90_refused_below_100_samples(self):
        doc = {"workload": "object-latency", "frames_timed": 99,
               "wall_timed_s": 9.9, "frame_s": [0.1] * 99,
               "setup_s": [0.3], "peak_rss_mib": [1.0]}
        with self.assertRaises(run.BenchError):
            run.e2e_metrics(doc)
        doc["frame_s"] = [i / 1000 for i in range(1, 101)]
        doc["frames_timed"], doc["wall_timed_s"] = 100, 5.05
        m = run.e2e_metrics(doc)
        self.assertAlmostEqual(m["frame_ms_p90"][0], 90.0)
        self.assertAlmostEqual(m["frame_ms_p50"][0], 50.0)
        self.assertAlmostEqual(m["fps"][0], 100 / 5.05)


class SelfTime(unittest.TestCase):
    def test_overlapping_and_clipped_children(self):
        # Covered inside (0, 10): [1, 4] and [8, 10] -> 5 of 10.
        self.assertEqual(
            bs.self_time((0, 10), [(1, 3), (2, 4), (8, 12), (20, 30)]), 5)

    def test_no_children(self):
        self.assertEqual(bs.self_time((2, 7), []), 5)

    def test_children_and_self_add_up_to_the_frame(self):
        spans = [("frame", 0, 0, 100), ("octree", 0, 0, 40),
                 ("sampling", 0, 40, 45), ("nn", 0, 50, 98),
                 ("sim", 0, 101, 103),  # after the frame: not covered
                 ("frame", 1, 200, 260), ("nn", 1, 210, 250)]
        selfs = bs.frame_self_times(spans)
        self.assertEqual(selfs, [7, 20])
        self.assertEqual(selfs[0] + 40 + 5 + 48, 100)


class RatiosAndFailures(unittest.TestCase):
    def test_ratio_carries_its_base(self):
        self.assertEqual(bs.ratio_pct(30, 32), (93.75, 32))
        self.assertEqual(bs.ratio_pct(0, 0), (0.0, 0))
        with self.assertRaises(ValueError):
            bs.ratio_pct(5, 3)

    def test_failed_frac(self):
        self.assertEqual(bs.failed_frac(224, 0), 0.0)
        self.assertEqual(bs.failed_frac(10, 1), 0.1)
        with self.assertRaises(ValueError):
            bs.failed_frac(0, 0)
        with self.assertRaises(ValueError):
            bs.failed_frac(5, 6)

    def test_max_over_mean(self):
        self.assertEqual(bs.max_over_mean([8, 24]), 1.5)
        self.assertEqual(bs.max_over_mean([12]), 1.0)

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(bs.spread([1, 2, 3, 4, 5]), 1.0)
        self.assertEqual(bs.spread([2.0] * 10), 0.0)


class SeedDeterminism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def digest(self, workload, seed):
        out = subprocess.run(
            [str(self.binary), "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--digest"],
            capture_output=True, text=True, check=True, timeout=300)
        return out.stdout.strip()

    def test_same_seed_same_frames_other_seed_other_frames(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.digest(workload, 1)
                self.assertEqual(first, self.digest(workload, 1))
                self.assertNotEqual(first, self.digest(workload, 2))


if __name__ == "__main__":
    unittest.main()
