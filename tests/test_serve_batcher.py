"""MicroBatcher: coalescing, the next-turn flush, grouping, and bit-identity.

No pytest-asyncio here: every test drives its own event loop through
``asyncio.run`` — the batcher only needs a running loop while requests
are in flight.
"""

import asyncio

import numpy as np
import pytest

from repro.core.machine import PRESETS, MachineParams
from repro.core.prediction import predict_points, prediction_counts
from repro.serve.batcher import MicroBatcher
from repro.serve.protocol import ProtocolError

NCUBE = PRESETS["ncube2-like"]
MIMD = PRESETS["future-mimd"]


def _points(count, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (float(2.0 ** rng.uniform(0, 16)), float(2.0 ** rng.uniform(0, 30)))
        for _ in range(count)
    ]


class TestCoalescing:
    def test_concurrent_requests_share_one_scan(self):
        batcher = MicroBatcher(max_batch=256)
        pts = _points(50)

        async def go():
            before = prediction_counts()["calls"]
            records = await asyncio.gather(
                *(batcher.predict_one(NCUBE, n, p) for n, p in pts)
            )
            return records, prediction_counts()["calls"] - before

        records, calls = asyncio.run(go())
        assert len(records) == 50
        assert calls == 1  # one vectorized scan for all 50 requests
        stats = batcher.stats()
        assert stats["batches"] == 1
        assert stats["batched_points"] == 50
        assert stats["max_batch_seen"] == 50
        assert stats["turn_flushes"] == 1
        assert stats["pending_groups"] == 0

    def test_full_batch_flushes_immediately(self):
        batcher = MicroBatcher(max_batch=8)
        pts = _points(20, seed=1)

        async def go():
            futures = [
                asyncio.ensure_future(batcher.predict_one(NCUBE, n, p))
                for n, p in pts
            ]
            await asyncio.sleep(0)
            # 20 requests with max_batch=8: two groups flushed on fill,
            # before the loop's next turn flushes the 4-point remainder
            assert batcher.stats()["full_flushes"] == 2
            assert batcher.stats()["turn_flushes"] == 0
            return await asyncio.gather(*futures)

        records = asyncio.run(go())
        assert len(records) == 20
        stats = batcher.stats()
        assert stats["full_flushes"] == 2
        assert stats["turn_flushes"] == 1
        assert stats["batched_points"] == 20
        assert stats["max_batch_seen"] == 8

    def test_predict_many_joins_one_group(self):
        batcher = MicroBatcher(max_batch=256)
        pts = _points(12, seed=2)

        async def go():
            return await batcher.predict_many(NCUBE, pts)

        records = asyncio.run(go())
        assert len(records) == 12
        assert batcher.stats()["batches"] == 1

    def test_mixed_machines_use_separate_batches(self):
        batcher = MicroBatcher(max_batch=256)
        pts = _points(10, seed=3)

        async def go():
            a = asyncio.gather(*(batcher.predict_one(NCUBE, n, p) for n, p in pts))
            b = asyncio.gather(*(batcher.predict_one(MIMD, n, p) for n, p in pts))
            return await a, await b

        asyncio.run(go())
        stats = batcher.stats()
        assert stats["batches"] == 2  # one scan per machine fingerprint
        assert stats["batched_points"] == 20

    def test_fingerprint_collision_is_refused(self, monkeypatch):
        batcher = MicroBatcher(max_batch=256)
        monkeypatch.setattr(
            "repro.serve.batcher.machine_fingerprint", lambda machine: "same"
        )

        async def go():
            first = asyncio.ensure_future(batcher.predict_one(NCUBE, 8.0, 4.0))
            await asyncio.sleep(0)  # let the first request open the group
            with pytest.raises(ProtocolError, match="collision"):
                await batcher.predict_one(MIMD, 8.0, 4.0)
            return await first

        rec = asyncio.run(go())
        assert rec["n"] == 8.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0)

    def test_lone_request_flushes_on_the_next_turn(self):
        batcher = MicroBatcher(max_batch=256)

        async def go():
            fut = asyncio.ensure_future(batcher.predict_one(NCUBE, 16.0, 4.0))
            await asyncio.sleep(0)  # the request is parsed and enqueued
            assert batcher.stats()["pending_groups"] == 1
            await asyncio.sleep(0)  # one more turn: flushed, nothing waited for
            assert batcher.stats()["pending_groups"] == 0
            assert batcher.stats()["turn_flushes"] == 1
            return await fut

        rec = asyncio.run(go())
        assert rec["algorithm"] is not None


class TestBitIdentity:
    @pytest.mark.parametrize("seed", range(3))
    def test_batched_equals_direct_single_point(self, seed):
        """Fuzz: a batched record equals the per-request record exactly.

        Both routes end in ``predict_points``; the batcher must not
        perturb a single float anywhere in the record (tie rule
        included — it lives inside the shared winner scan).
        """
        pts = _points(40, seed=seed)
        batcher = MicroBatcher(max_batch=64)

        async def go():
            return await asyncio.gather(
                *(batcher.predict_one(NCUBE, n, p) for n, p in pts)
            )

        batched = asyncio.run(go())
        for (n, p), rec in zip(pts, batched):
            direct = predict_points(NCUBE, [n], [p]).point(0)
            assert rec == direct  # exact equality, not approx

    def test_duplicate_points_in_one_batch(self):
        batcher = MicroBatcher(max_batch=64)

        async def go():
            return await asyncio.gather(
                *(batcher.predict_one(NCUBE, 512.0, 256.0) for _ in range(5))
            )

        records = asyncio.run(go())
        assert all(r == records[0] for r in records)
