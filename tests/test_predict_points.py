"""Batched prediction (`predict_points` / `winner_details_at_points`).

The serving layer's correctness rests on two properties pinned here:

* the batched scan decides winners exactly like the dense
  ``winner_grid`` (same tie rule: model_keys order, strict improvement
  only), and adding runner-up tracking did not perturb it;
* a point's record is *identical* — same floats, bit for bit — whether
  it was evaluated alone or inside any batch, because every value comes
  from the same elementwise expressions.
"""

import numpy as np
import pytest

from repro.core.machine import NCUBE2_LIKE, PRESETS, MachineParams
from repro.core.models import COMPARISON_MODELS, MODELS
from repro.core.prediction import predict, predict_points, prediction_counts
from repro.core.refine import winner_at_points, winner_details_at_points
from repro.core.regions import winner_grid

MACHINES = [PRESETS[k] for k in ("ncube2-like", "future-mimd", "simd-cm2-like", "cm5")]


def _random_points(count, seed):
    rng = np.random.default_rng(seed)
    n = 2.0 ** rng.uniform(0.0, 16.0, size=count)
    p = 2.0 ** rng.uniform(0.0, 30.0, size=count)
    return n, p


class TestWinnerDetails:
    def test_empty_batch(self):
        winner, gap, runner_up, best_to = winner_details_at_points(
            NCUBE2_LIKE, [], []
        )
        assert winner.size == gap.size == runner_up.size == best_to.size == 0

    def test_single_point(self):
        winner, gap, runner_up, best_to = winner_details_at_points(
            NCUBE2_LIKE, [256.0], [64.0]
        )
        assert winner.shape == (1,)
        k = len(COMPARISON_MODELS)
        assert 0 <= winner[0] < k
        assert 0 <= runner_up[0] <= k
        assert winner[0] != runner_up[0]
        assert np.isfinite(best_to[0])

    def test_duplicate_points_get_identical_answers(self):
        n = np.array([512.0, 512.0, 512.0])
        p = np.array([1024.0, 1024.0, 1024.0])
        winner, gap, runner_up, best_to = winner_details_at_points(NCUBE2_LIKE, n, p)
        assert len(set(winner.tolist())) == 1
        assert len(set(runner_up.tolist())) == 1
        assert len(set(best_to.tolist())) == 1

    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    def test_matches_dense_winner_grid(self, machine):
        n_values = tuple(float(2**k) for k in range(0, 17))
        p_values = tuple(float(2**k) for k in range(0, 31))
        dense = winner_grid(machine, n_values, p_values)
        nn, pp = np.meshgrid(n_values, p_values, indexing="ij")
        winner, _ = winner_at_points(machine, nn, pp)
        assert np.array_equal(winner, dense)

    def test_tie_rule_earliest_key_on_all_tie_machine(self):
        # with no communication cost every model's overhead collapses to
        # the same value wherever all apply: the scan must keep the
        # first applicable key in model_keys order at every such point
        zero = MachineParams(ts=0.0, tw=0.0, name="zero")
        n = np.full(8, 4096.0)
        p = np.full(8, 16.0)
        winner, gap, runner_up, _ = winner_details_at_points(zero, n, p)
        applicable = [
            i for i, key in enumerate(COMPARISON_MODELS)
            if bool(MODELS[key].applicable(n[:1], p[:1])[0])
        ]
        assert winner.tolist() == [applicable[0]] * 8
        # the runner-up tie falls the same way: earliest remaining key
        assert runner_up.tolist() == [applicable[1]] * 8

    def test_runner_up_against_brute_force(self):
        n, p = _random_points(50, seed=3)
        winner, _, runner_up, best_to = winner_details_at_points(NCUBE2_LIKE, n, p)
        k = len(COMPARISON_MODELS)
        for i in range(50):
            cands = []
            for j, key in enumerate(COMPARISON_MODELS):
                if not bool(MODELS[key].applicable(n[i : i + 1], p[i : i + 1])[0]):
                    continue
                with np.errstate(over="ignore", invalid="ignore"):
                    to = float(
                        np.asarray(
                            MODELS[key].overhead(n[i : i + 1], p[i : i + 1], NCUBE2_LIKE)
                        ).ravel()[0]
                    )
                cands.append((to, j))
            cands.sort()  # ties broken by index, mirroring the scan
            expect_w = cands[0][1] if cands else k
            expect_r = cands[1][1] if len(cands) > 1 else k
            assert int(winner[i]) == expect_w
            assert int(runner_up[i]) == expect_r
            if cands:
                assert float(best_to[i]) == cands[0][0]

    def test_winner_gap_unperturbed_by_runner_up_tracking(self):
        # winner_at_points delegates to the detailed scan; its results
        # must match an independent minimal reimplementation bit for bit
        n, p = _random_points(200, seed=11)
        winner, gap = winner_at_points(NCUBE2_LIKE, n, p)
        best = np.full(n.shape, np.inf)
        second = np.full(n.shape, np.inf)
        ref = np.full(n.shape, len(COMPARISON_MODELS), dtype=np.intp)
        with np.errstate(over="ignore", invalid="ignore"):
            for i, key in enumerate(COMPARISON_MODELS):
                to = np.broadcast_to(
                    MODELS[key].overhead(n, p, NCUBE2_LIKE), n.shape
                )
                ok = np.broadcast_to(MODELS[key].applicable(n, p), n.shape)
                cand = np.where(ok, to, np.inf)
                better = cand < best
                second = np.where(better, best, np.minimum(second, cand))
                ref = np.where(better, i, ref)
                best = np.where(better, cand, best)
            ref_gap = np.where(
                np.isfinite(second),
                (second - best) / np.maximum(np.abs(best), 1.0),
                np.inf,
            )
        assert np.array_equal(winner, ref)
        assert np.array_equal(gap, ref_gap, equal_nan=True)


class TestPredictPoints:
    def test_empty_batch(self):
        batch = predict_points(NCUBE2_LIKE, [], [])
        assert len(batch) == 0
        assert batch.overhead_split == ()

    def test_single_point_record_shape(self):
        batch = predict_points(NCUBE2_LIKE, [256.0], [64.0])
        rec = batch.point(0)
        assert rec["algorithm"] in COMPARISON_MODELS
        assert rec["runner_up"] in COMPARISON_MODELS
        assert rec["algorithm"] != rec["runner_up"]
        assert rec["predicted_time"] > 0
        assert 0 < rec["predicted_efficiency"] <= 1
        assert rec["overhead_split"]  # winner's named terms present
        # the record round-trips through strict JSON (no inf/nan)
        import json

        json.dumps(rec, allow_nan=False)

    def test_batched_records_bit_identical_to_singletons(self):
        # the coalescer's contract: evaluating a point inside any batch
        # yields the same record — same floats — as evaluating it alone
        for seed in range(5):
            n, p = _random_points(64, seed=seed)
            batch = predict_points(NCUBE2_LIKE, n, p)
            for i in np.random.default_rng(seed).choice(64, size=8, replace=False):
                single = predict_points(NCUBE2_LIKE, [n[i]], [p[i]])
                assert batch.point(int(i)) == single.point(0)

    def test_mixed_machine_batches_differ(self):
        # one scan is valid for one machine only: the same points on two
        # machines may pick different winners (why the batcher groups by
        # machine fingerprint instead of coalescing across machines)
        n_values = tuple(float(2**k) for k in range(0, 17))
        p_values = tuple(float(2**k) for k in range(0, 31))
        a = winner_grid(PRESETS["ncube2-like"], n_values, p_values)
        b = winner_grid(PRESETS["simd-cm2-like"], n_values, p_values)
        assert not np.array_equal(a, b)

    def test_agrees_with_scalar_predict(self):
        # the scalar path computes T_p as compute + comm while the batch
        # derives it from the overhead identity (W + T_o)/p — equal
        # mathematically, compared with tolerance, not bitwise
        n, p = _random_points(32, seed=9)
        batch = predict_points(NCUBE2_LIKE, n, p)
        for i in range(32):
            key = batch.key_at(i)
            if key is None:
                continue
            scalar = predict(key, float(n[i]), float(p[i]), NCUBE2_LIKE)
            rec = batch.point(i)
            if rec["predicted_time"] is not None and np.isfinite(scalar["parallel_time"]):
                assert np.isclose(
                    rec["predicted_time"], scalar["parallel_time"], rtol=1e-9
                )

    def test_sentinel_points_serialize_as_none(self):
        # p far above every model's applicability: no winner anywhere
        batch = predict_points(NCUBE2_LIKE, [2.0], [2.0**40])
        rec = batch.point(0)
        assert rec["algorithm"] is None
        assert rec["overhead"] is None
        assert rec["overhead_split"] == {}

    def test_prediction_counters_advance(self):
        before = prediction_counts()
        predict_points(NCUBE2_LIKE, [4.0, 8.0], [4.0, 4.0])
        after = prediction_counts()
        assert after["calls"] == before["calls"] + 1
        assert after["points"] == before["points"] + 2

    def test_broadcasting_scalar_p(self):
        batch = predict_points(NCUBE2_LIKE, [16.0, 32.0, 64.0], [256.0])
        assert len(batch) == 3
        assert all(batch.point(i)["p"] == 256.0 for i in range(3))
