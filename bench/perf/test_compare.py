"""Tests of `run.py compare` on synthetic reports.

  python3 -m unittest discover -s bench/perf -p 'test_*.py'
"""

from __future__ import annotations

import json
import random
import tempfile
import unittest
from pathlib import Path
from typing import Any

import compare

BENCH = {"workloads": [{"name": "w"}], "end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.10},
    {"name": "ops", "unit": "1/s", "better": "higher", "bound": 0.10},
]}
HOST = {"cpu_model": "cpu", "nproc": 4, "l3_cache": "32M", "simd": "avx2", "compiler": "c++ 1"}


def report(values: list[float], host: dict[str, Any] | None = None,
           first_seed: int = 1, failed: int = 0) -> dict[str, Any]:
    """One run of workload "w" per value; `values` are wall_s, ops is 100 / wall_s."""
    return {"fingerprint": dict(host or HOST), "runs": [
        {"workload": "w", "seed": first_seed + i, "trace": False, "failed": failed,
         "metrics": {"wall_s": {"value": v, "unit": "s"}, "ops": {"value": 100 / v, "unit": "1/s"}}}
        for i, v in enumerate(values)]}


def noisy(center: float, rel: float, n: int = 10, seed: int = 0) -> list[float]:
    rng = random.Random(seed)
    return [center * (1 + rng.uniform(-rel, rel)) for _ in range(n)]


class CompareTest(unittest.TestCase):
    def verdicts(self, parent: dict[str, Any],
                 change: dict[str, Any]) -> tuple[dict[str, str], bool]:
        rows, ok = compare.compare(parent, change, BENCH)
        return {r[1]: r[6] for r in rows}, ok

    def test_same_code_is_same(self) -> None:
        v, ok = self.verdicts(report(noisy(1.0, 0.02, seed=1)), report(noisy(1.0, 0.02, seed=2)))
        self.assertEqual(v, {"wall_s": "same", "ops": "same", "failed": "same"})
        self.assertTrue(ok)

    def test_faster_in_every_pair_is_a_gain(self) -> None:
        base = noisy(1.0, 0.02, seed=3)
        v, ok = self.verdicts(report(base), report([x * 0.8 for x in base]))
        self.assertEqual(v, {"wall_s": "gain", "ops": "gain", "failed": "same"})
        self.assertTrue(ok)

    def test_small_gap_is_not_a_gain(self) -> None:
        # Wins every pair, but by less than the parent's interquartile range.
        base = noisy(1.0, 0.05, seed=4)
        v, _ = self.verdicts(report(base), report([x * 0.995 for x in base]))
        self.assertEqual(v["wall_s"], "same")

    def test_slower_beyond_bound_is_a_regression(self) -> None:
        base = noisy(1.0, 0.02, seed=5)
        v, ok = self.verdicts(report(base), report([x * 1.2 for x in base]))
        self.assertEqual(v, {"wall_s": "regression", "ops": "regression", "failed": "same"})
        self.assertFalse(ok)

    def test_wide_spread_is_unresolved(self) -> None:
        v, ok = self.verdicts(report(noisy(1.0, 0.6, seed=6)), report(noisy(1.0, 0.6, seed=7)))
        self.assertEqual(v["wall_s"], "unresolved")
        self.assertFalse(ok)

    def test_wide_spread_but_every_run_better(self) -> None:
        # The gap of the medians (4.1) is below the parent's IQR (8): no gain.
        parent = [1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0, 9.0, 9.0, 9.0]
        v, _ = self.verdicts(report(parent), report([0.9] * 10))
        self.assertEqual(v["wall_s"], "better")

    def test_fewer_than_ten_pairs(self) -> None:
        v, ok = self.verdicts(report(noisy(1.0, 0.02, n=9)), report(noisy(1.0, 0.02, n=9)))
        self.assertEqual(v["wall_s"], "too-few-pairs")
        self.assertFalse(ok)

    def test_pairs_follow_seeds(self) -> None:
        # Only seeds 6..10 are in both reports: too few pairs.
        v, _ = self.verdicts(report(noisy(1.0, 0.02)), report(noisy(1.0, 0.02), first_seed=6))
        self.assertEqual(v["wall_s"], "too-few-pairs")

    def test_other_host_is_refused(self) -> None:
        other = {**HOST, "simd": "avx512"}
        with self.assertRaisesRegex(compare.CompareError, "simd"):
            compare.compare(report(noisy(1.0, 0.02)), report(noisy(1.0, 0.02), host=other),
                            BENCH)

    def test_load_merges_a_directory(self) -> None:
        with tempfile.TemporaryDirectory() as d:
            Path(d, "a.json").write_text(json.dumps(report([1.0] * 5)))
            Path(d, "b.json").write_text(json.dumps(report([1.0] * 5, first_seed=6)))
            self.assertEqual(len(compare.load(d)["runs"]), 10)
            Path(d, "c.json").write_text(json.dumps(report([1.0], host={**HOST, "nproc": 8})))
            with self.assertRaises(compare.CompareError):
                compare.load(d)

    def test_missing_metric_fails(self) -> None:
        change = report(noisy(1.0, 0.02, seed=8))
        for r in change["runs"]:
            del r["metrics"]["ops"]
        v, ok = self.verdicts(report(noisy(1.0, 0.02, seed=9)), change)
        self.assertEqual(v["ops"], "missing")
        self.assertEqual(v["wall_s"], "same")
        self.assertFalse(ok)

    def test_missing_workload_fails(self) -> None:
        bench = {**BENCH, "workloads": [{"name": "w"}, {"name": "other"}]}
        rows, ok = compare.compare(report(noisy(1.0, 0.02, seed=10)),
                                   report(noisy(1.0, 0.02, seed=11)), bench)
        self.assertEqual({r[6] for r in rows if r[0] == "other"}, {"missing"})
        self.assertEqual({r[6] for r in rows if r[0] == "w"}, {"same"})
        self.assertFalse(ok)

    def test_more_failures_void_a_gain(self) -> None:
        base = noisy(1.0, 0.02, seed=12)
        v, ok = self.verdicts(report(base), report([x * 0.8 for x in base], failed=1))
        self.assertEqual(v, {"wall_s": "void-gain", "ops": "void-gain", "failed": "more-failed"})
        self.assertFalse(ok)

    def test_fewer_failures_pass(self) -> None:
        base = noisy(1.0, 0.02, seed=13)
        v, ok = self.verdicts(report(base, failed=2), report(base))
        self.assertEqual(v["failed"], "same")
        self.assertTrue(ok)

    def test_quantiles_interpolate_within_the_values(self) -> None:
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(compare.summarize(values), (1.75, 2.5, 3.25))
        self.assertEqual(compare.percentile(values, 50), 2.5)
        self.assertAlmostEqual(compare.percentile(values, 99), 3.97)
        self.assertEqual(compare.summarize([7.0]), (7.0, 7.0, 7.0))

if __name__ == "__main__":
    unittest.main()
