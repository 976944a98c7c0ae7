"""The A/B perf gate's judgement (``benchmarks/ab.py``) on synthetic run records.

No subprocess runs here: records are what ``perfbench_runner`` builds
from a perfbench summary, and the top-up is driven by a fake runner.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab", pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "ab.py"
)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

END_TO_END = [
    {"name": "wall_s", "better": "lower", "bound": 0.24},
    {"name": "qps", "better": "higher", "bound": 0.24},
]


def _record(wall, qps=100.0, *, seed=1, exit=0, correct=True, failed=0):
    return {"seed": seed, "exit": exit, "correct": correct, "attempted": 100,
            "failed": failed, "metrics": {"wall_s": wall, "qps": qps}}


def _pairs(base_walls, head_walls, **head_kw):
    return [(_record(b), _record(h, **head_kw)) for b, h in zip(base_walls, head_walls)]


class TestRegression:
    def test_past_bound_and_lost_most_pairs_is_flagged(self):
        verdict = ab.judge_workload(_pairs([1.0, 1.02, 0.98], [1.5, 1.4, 1.3]), END_TO_END)
        assert verdict["regressions"] == ["wall_s"]
        assert not verdict["pass"]
        wall = verdict["metrics"]["wall_s"]
        assert (wall["wins"], wall["losses"], wall["verdict"]) == (0, 3, "regression")
        assert wall["change"] == pytest.approx(0.4)

    def test_past_bound_but_won_most_pairs_is_not_flagged(self):
        # noisy pairs: the head median reads 5x the base's, yet the
        # change won three of five pairs
        verdict = ab.judge_workload(
            _pairs([10.0, 10.0, 1.0, 1.0, 1.0], [9.0, 9.0, 0.9, 5.0, 5.0]), END_TO_END
        )
        wall = verdict["metrics"]["wall_s"]
        assert wall["change"] > wall["bound"]
        assert (wall["wins"], wall["verdict"]) == (3, "ok")
        assert verdict["pass"]

    def test_lost_every_pair_within_bound_is_not_flagged(self):
        verdict = ab.judge_workload(_pairs([1.0] * 3, [1.2] * 3), END_TO_END)
        assert verdict["metrics"]["wall_s"]["losses"] == 3
        assert verdict["pass"]

    @pytest.mark.parametrize("head_qps, flagged", [(70.0, True), (80.0, False), (130.0, False)])
    def test_higher_is_better(self, head_qps, flagged):
        runs = [(_record(1.0, 100.0), _record(1.0, head_qps)) for _ in range(3)]
        verdict = ab.judge_workload(runs, END_TO_END)
        assert (verdict["regressions"] == ["qps"]) is flagged
        assert verdict["metrics"]["wall_s"]["verdict"] == "ok"

    def test_ties_count_for_neither_side(self):
        m = ab.judge_metric([1.0, 1.0, 1.0], [1.0, 0.5, 2.0], "lower", 0.24)
        assert (m["wins"], m["losses"]) == (1, 1)


class TestBrokenRuns:
    @pytest.mark.parametrize("side", [0, 1])
    def test_incorrect_run_fails(self, side):
        runs = _pairs([1.0] * 3, [1.0] * 3)
        runs[1][side]["correct"] = False
        verdict = ab.judge_workload(runs, END_TO_END)
        assert not verdict["pass"]
        assert "reported correct: false" in verdict["errors"][0]

    def test_nonzero_exit_fails(self):
        runs = _pairs([1.0] * 3, [1.0] * 3)
        runs[2] = (runs[2][0], {**runs[2][1], "exit": 1, "correct": False, "metrics": {}})
        verdict = ab.judge_workload(runs, END_TO_END)
        assert not verdict["pass"]
        assert verdict["errors"] == ["head run (seed 1) exited 1"]
        assert verdict["metrics"]["wall_s"]["pairs"] == 2  # the complete pairs

    def test_more_failed_operations_fail(self):
        runs = [(_record(1.0, failed=1), _record(1.0, failed=2)) for _ in range(2)]
        verdict = ab.judge_workload(runs, END_TO_END)
        assert verdict["errors"] == ["the change failed 4 operations, the base 2"]

    def test_as_many_failed_operations_pass(self):
        runs = [(_record(1.0, failed=2), _record(1.0, failed=2))]
        assert ab.judge_workload(runs, END_TO_END)["pass"]


class TestGain:
    def _gain(self, wins, *, shift=0.3, pairs=10):
        base = [1.0 + 0.01 * i for i in range(pairs)]  # IQR 0.045
        head = [b - shift if i < wins else b + 0.01 for i, b in enumerate(base)]
        return ab.judge_metric(base, head, "lower", 0.24)

    def test_nine_of_ten_by_more_than_the_base_iqr(self):
        m = self._gain(9)
        assert m["base_iqr"] == pytest.approx(0.045)
        assert m["verdict"] == "gain"

    def test_eight_of_ten_is_no_gain(self):
        assert self._gain(8)["verdict"] == "ok"

    def test_medians_within_the_base_iqr_is_no_gain(self):
        assert self._gain(10, shift=0.02)["verdict"] == "ok"

    def test_fewer_than_ten_pairs_is_no_gain(self):
        assert self._gain(3, pairs=3)["verdict"] == "ok"

    def test_higher_is_better_gain(self):
        m = ab.judge_metric([100.0 + i for i in range(10)], [200.0] * 10, "higher", 0.24)
        assert m["verdict"] == "gain"


class TestSeeds:
    def test_reproducible_for_one_pair_of_commits(self):
        assert ab.pair_seeds("a" * 40, "b" * 40, 10) == ab.pair_seeds("a" * 40, "b" * 40, 10)

    def test_differ_for_another_pair_of_commits(self):
        seeds = ab.pair_seeds("a" * 40, "b" * 40, 10)
        assert set(seeds).isdisjoint(ab.pair_seeds("a" * 40, "c" * 40, 10))
        assert set(seeds).isdisjoint(ab.pair_seeds("b" * 40, "a" * 40, 10))
        assert len(set(seeds)) == 10

    def test_a_top_up_continues_the_sequence(self):
        assert ab.pair_seeds("a", "b", 3) == ab.pair_seeds("a", "b", 10)[:3]


class TestTopUp:
    @staticmethod
    def _runner(walls):
        """A fake perfbench: ``walls[side](i)`` is the wall of the side's i-th run."""
        calls = []

        def run(side, workload, seed):
            i = sum(1 for s, _ in calls if s == side)
            calls.append((side, seed))
            return _record(walls[side](i), seed=seed)

        return run, calls

    def test_flagged_workload_is_topped_up_and_fails(self):
        run, calls = self._runner({"base": lambda i: 1.0, "head": lambda i: 2.0})
        seeds = ab.pair_seeds("a", "b", 10)
        verdict = ab.run_workload("w", 3, seeds, run, END_TO_END)
        assert verdict["pairs"] == 10 and verdict["regressions"] == ["wall_s"]
        assert [seed for _, seed in calls] == [s for s in seeds for _ in range(2)]
        # the side that runs first alternates from pair to pair
        assert [side for side, _ in calls[:4]] == ["base", "head", "head", "base"]

    def test_noise_in_the_first_pairs_is_cleared_by_the_top_up(self):
        run, _ = self._runner({"base": lambda i: 1.0, "head": lambda i: 2.0 if i < 3 else 0.9})
        verdict = ab.run_workload("w", 3, ab.pair_seeds("a", "b", 10), run, END_TO_END)
        assert verdict["pairs"] == 10 and verdict["pass"]

    def test_a_workload_that_passes_is_not_topped_up(self):
        run, calls = self._runner({"base": lambda i: 1.0, "head": lambda i: 1.0})
        verdict = ab.run_workload("w", 3, ab.pair_seeds("a", "b", 10), run, END_TO_END)
        assert verdict["pairs"] == 3 and len(calls) == 6 and verdict["pass"]
        assert [set(pair) for pair in verdict["runs"]] == [{"base", "head"}] * 3
