#!/usr/bin/env python3
"""Unit tests of perf_gate.py's arithmetic.

    python3 -m unittest discover -s scripts -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perf_gate  # noqa: E402

SAMPLE = [6.1, 5.8, 7.2, 6.4, 6.6]


class Quartiles(unittest.TestCase):
    def test_iqr_uses_statistics_quantiles(self) -> None:
        for values in (SAMPLE, [1.0, 2.0, 3.0, 4.0, 5.0], [3.0, 1.0, 2.0, 9.0]):
            q1, _, q3 = statistics.quantiles(values, n=4)
            self.assertEqual(perf_gate.iqr(values), q3 - q1)

    def test_iqr_of_five_points(self) -> None:
        # The exclusive method puts Q1 and Q3 half-way between the outer pairs.
        self.assertAlmostEqual(perf_gate.iqr([1.0, 2.0, 3.0, 4.0, 5.0]), 3.0)


class Bound(unittest.TestCase):
    """A shift of the change just past k x the base IQR fails, one just
    inside passes."""

    def shifted(self, delta: float) -> list[float]:
        return [value + delta for value in SAMPLE]

    def verdicts(self, k: float, sign: float,
                 higher_is_worse: bool) -> tuple[str, str]:
        bound = k * perf_gate.iqr(SAMPLE)
        inside, past = (
            perf_gate.compare("x", SAMPLE, self.shifted(sign * f * bound), k,
                              higher_is_worse)["status"]
            for f in (0.99, 1.01))
        return inside, past

    def test_share_growth(self) -> None:
        self.assertEqual(self.verdicts(perf_gate.K_SHARE, 1.0, True),
                         ("pass", "fail"))

    def test_ratio_drop(self) -> None:
        self.assertEqual(self.verdicts(perf_gate.K_RATIO, -1.0, False),
                         ("pass", "fail"))

    def test_improvement_passes(self) -> None:
        for sign, higher_is_worse in ((1.0, False), (-1.0, True)):
            verdict = perf_gate.compare("x", SAMPLE, self.shifted(sign * 10.0),
                                        perf_gate.K_SHARE, higher_is_worse)
            self.assertEqual(verdict["status"], "pass")

    def test_noisy_change_does_not_widen_the_bound(self) -> None:
        noisy = [SAMPLE[0] - 4.0, *SAMPLE[1:4], SAMPLE[4] + 4.0]
        verdict = perf_gate.compare("x", SAMPLE, noisy, perf_gate.K_SHARE, True)
        self.assertEqual(verdict["bound"],
                         perf_gate.K_SHARE * perf_gate.iqr(SAMPLE))


class Scaling(unittest.TestCase):
    BASE = [0.70, 0.65, 0.75, 0.72, 0.68]

    def test_one_cpu_is_skipped(self) -> None:
        verdict = perf_gate.scaling_check([], [], 1, True)
        self.assertEqual(verdict["status"], "skip")

    def test_lost_gain_past_the_noise_fails(self) -> None:
        # The base ratios' IQR is 0.07, so the bound is 2.5 x 0.07 = 0.175.
        self.assertAlmostEqual(perf_gate.iqr(self.BASE), 0.07)
        bound = perf_gate.K_RATIO * perf_gate.iqr(self.BASE)
        for f, status in ((0.99, "pass"), (1.01, "fail")):
            change = [r + f * bound for r in self.BASE]
            verdict = perf_gate.scaling_check(self.BASE, change, 4, True)
            self.assertEqual(verdict["status"], status)

    def test_one_worker_fails(self) -> None:
        verdict = perf_gate.scaling_check(self.BASE, [1.0] * 5, 4, True)
        self.assertEqual(verdict["status"], "fail")

    def test_differing_aggregates_fail(self) -> None:
        verdict = perf_gate.scaling_check(self.BASE, self.BASE, 4, False)
        self.assertEqual(verdict["status"], "fail")


class Passes(unittest.TestCase):
    def write_pass(self, directory: str, name: str, workload: str,
                   correct: bool, rk4_ns: float = 600.0) -> str:
        metrics = {"thermal.rk4_substep_ns": rk4_ns,
                   "thermal.propagator_substep_ns": 100.0}
        metrics.update({phase: 25.0 for phase in perf_gate.PHASES})
        result = {"correct": correct, "attempted": 10, "failed": 0,
                  "metrics": {key: {"value": value, "unit": "-"}
                              for key, value in metrics.items()}}
        path = os.path.join(directory, name)
        with open(path, "w") as f:
            f.write(f"digest {workload} seed 1 0123456789abcdef\n")
            f.write(json.dumps(result) + "\n")
        return path

    def test_reads_workload_and_ratio(self) -> None:
        with tempfile.TemporaryDirectory() as directory:
            path = self.write_pass(directory, "a.out", "sweep-paper", True)
            workload, quantities = perf_gate.read_pass(path)
        self.assertEqual(workload, "sweep-paper")
        self.assertEqual(quantities[perf_gate.RATIO], 6.0)
        self.assertEqual(quantities["sim.phase_plant"], 25.0)

    def test_ratio_pools_both_workloads(self) -> None:
        with tempfile.TemporaryDirectory() as directory:
            paths = [self.write_pass(directory, f"{w}-{i}.out", w, True,
                                     rk4_ns=100.0 * (i + 1))
                     for w in perf_gate.WORKLOADS
                     for i in range(perf_gate.N)]
            values = perf_gate.read_passes(paths)
        self.assertEqual(len(values[perf_gate.RATIO]), 2 * perf_gate.N)
        for workload in perf_gate.WORKLOADS:
            self.assertEqual(len(values[workload]["sim.phase_sensor"]),
                             perf_gate.N)

    def test_incorrect_pass_is_rejected(self) -> None:
        with tempfile.TemporaryDirectory() as directory:
            path = self.write_pass(directory, "a.out", "fleet-smoke", False)
            with self.assertRaises(perf_gate.InputError):
                perf_gate.read_pass(path)

    def test_fewer_than_n_passes_are_rejected(self) -> None:
        with tempfile.TemporaryDirectory() as directory:
            paths = [self.write_pass(directory, f"{w}-{i}.out", w, True)
                     for w in perf_gate.WORKLOADS
                     for i in range(perf_gate.N - 1)]
            with self.assertRaises(perf_gate.InputError):
                perf_gate.read_passes(paths)


if __name__ == "__main__":
    unittest.main()
