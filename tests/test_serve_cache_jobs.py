"""The process memory tier behind the server, warm preloading, and JobQueue."""

import asyncio

import pytest

from repro.core import crossover, regions
from repro.core.cache import configure_disk_cache, disk_cache, result_cache
from repro.core.machine import PRESETS
from repro.core.prediction import simulated_prediction
from repro.serve import ReproServer, ServeConfig
from repro.serve.cache import (
    DEFAULT_CURVE_P,
    DEFAULT_CURVE_PAIRS,
    DEFAULT_PRELOAD_MACHINES,
    DEFAULT_REGION_SPEC,
    ServeTier,
)
from repro.serve.jobs import JobQueue

NCUBE = PRESETS["ncube2-like"]


def _serve(scenario, **config_kw):
    """Run *scenario(server)* against a started server (no preload)."""

    async def go():
        server = ReproServer(ServeConfig(preload=False, **config_kw))
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()

    return asyncio.run(go())


def _region(k, n=8):
    return {"machine": "ncube2-like", "log2_p_max": k, "log2_n_max": n}


class TestMemoryTier:
    """Served maps and curves live in the one process memory tier."""

    def test_repeated_map_is_a_memory_hit(self):
        async def scenario(server):
            first = await server.dispatch("POST", "/regions", _region(10))
            hits = result_cache().stats()["hits"]
            second = await server.dispatch("POST", "/regions", _region(10))
            return first, second, result_cache().stats()["hits"] - hits, result_cache().maxsize

        first, second, hits, bound = _serve(scenario, cache_entries=8)
        assert first == second
        assert hits == 1  # the second map came from the memory tier
        assert bound == 8  # the server's bound, while it runs

    @pytest.mark.parametrize("outer", [None, 1000])
    def test_stop_restores_the_bound_it_found(self, outer):
        result_cache().resize(outer)

        async def scenario(server):
            return result_cache().maxsize

        assert _serve(scenario, cache_entries=4) == 4
        assert result_cache().maxsize == outer

    @pytest.mark.parametrize("outer", [None, 1000])
    @pytest.mark.parametrize("bounds", [(8, 4), (4, 8), (8, 8)])
    @pytest.mark.parametrize("first_started_stops_first", [True, False])
    def test_two_servers_restore_the_bound_in_either_order(
        self, outer, bounds, first_started_stops_first
    ):
        result_cache().resize(outer)

        async def go():
            a, b = (ReproServer(ServeConfig(preload=False, cache_entries=k)) for k in bounds)
            seen = []
            for server in (a, b):
                await server.start()
                seen.append(result_cache().maxsize)
            first, last = (a, b) if first_started_stops_first else (b, a)
            await first.stop()
            seen.append(result_cache().maxsize)
            await first.stop()  # a second stop changes nothing
            seen.append(result_cache().maxsize)
            await last.stop()
            seen.append(result_cache().maxsize)
            return seen

        remaining = bounds[1] if first_started_stops_first else bounds[0]
        # both bounds hold while both run; the one still running keeps its own
        assert asyncio.run(go()) == [bounds[0], min(bounds), remaining, remaining, outer]

    def test_distinct_specs_are_distinct_entries(self):
        async def scenario(server):
            a = await server.dispatch("POST", "/regions", _region(10))
            b = await server.dispatch("POST", "/regions", _region(12))
            return a[1], b[1]

        a, b = _serve(scenario, cache_entries=8)
        assert len(result_cache()) == 2
        assert len(a["rows"][0]) != len(b["rows"][0])  # different p extents

    def test_bounded_eviction(self):
        async def scenario(server):
            for k in (8, 9, 10):
                await server.dispatch("POST", "/regions", _region(k, n=6))
            full = result_cache().stats()
            # the newest map still hits; the evicted (oldest) one reloads
            # its disk shard, with no model re-evaluated
            computes = regions.region_compute_count()
            await server.dispatch("POST", "/regions", _region(10, n=6))
            after_newest = result_cache().stats()
            disk_hits = disk_cache().stats()["hits"]
            await server.dispatch("POST", "/regions", _region(8, n=6))
            return full, after_newest, disk_cache().stats()["hits"] - disk_hits, computes

        full, after_newest, disk_hits, computes = _serve(scenario, cache_entries=2)
        assert full["size"] == 2
        assert full["evictions"] == 1
        assert after_newest["hits"] == full["hits"] + 1
        assert disk_hits == 1
        assert regions.region_compute_count() == computes

    def test_repeated_curve_is_a_hit(self):
        body = {"machine": "ncube2-like", "a": "cannon", "b": "gk",
                "p_values": [16, 256, 4096]}

        async def scenario(server):
            first = await server.dispatch("POST", "/crossover", body)
            hits = result_cache().stats()["hits"]
            second = await server.dispatch("POST", "/crossover", body)
            return first, second, result_cache().stats()["hits"] - hits

        first, second, hits = _serve(scenario)
        assert first == second
        assert len(first[1]["curve"]) == 3
        assert hits == 1


class TestServeTier:
    def test_preload_warm_from_disk_is_free(self):
        # populate the disk tier the way a previous server run would,
        # then drop the memory tier: the restart-shaped state
        for name in DEFAULT_PRELOAD_MACHINES:
            machine = PRESETS[name]
            regions.region_map(machine, **DEFAULT_REGION_SPEC)
            for a, b in DEFAULT_CURVE_PAIRS:
                crossover.crossover_curve(a, b, machine, DEFAULT_CURVE_P)
        result_cache().clear()
        before = regions.region_compute_count() + crossover.crossover_compute_count()
        tier = ServeTier()
        summary = tier.preload()
        after = regions.region_compute_count() + crossover.crossover_compute_count()
        assert summary["computed_fresh"] == 0
        assert after == before  # not one model evaluation
        assert summary["entries"] == len(DEFAULT_PRELOAD_MACHINES) * (
            1 + len(DEFAULT_CURVE_PAIRS)
        )
        assert summary["disk_tier"] == "enabled"
        # the preloaded artifacts now serve straight from the memory tier
        hits = result_cache().stats()["hits"]
        regions.region_map(PRESETS[DEFAULT_PRELOAD_MACHINES[0]], **DEFAULT_REGION_SPEC)
        assert result_cache().stats()["hits"] == hits + 1

    def test_preload_cold_computes_once_and_still_warms(self, monkeypatch):
        # REPRO_NO_DISK_CACHE: nothing persisted — preload pays the
        # compute now, but the server still starts warm
        configure_disk_cache(None, enabled=False)
        tier = ServeTier()
        summary = tier.preload(machines=("cm5",), curves=False)
        assert summary["disk_tier"] == "disabled"
        assert summary["computed_fresh"] == 1
        before = regions.region_compute_count()
        hits = result_cache().stats()["hits"]
        regions.region_map(PRESETS["cm5"], **DEFAULT_REGION_SPEC)
        assert regions.region_compute_count() == before  # served from memory
        assert result_cache().stats()["hits"] == hits + 1


class TestJobQueue:
    def test_lifecycle_and_cached_resubmit(self):
        async def go():
            queue = JobQueue(workers=1)
            await queue.start()
            try:
                params = {"algorithm": "cannon", "n": 8, "p": 4, "seed": 0}

                def run():
                    return simulated_prediction("cannon", 8, 4, NCUBE, seed=0)

                job = queue.submit("simulate", params, run)
                assert job.status == "queued"
                for _ in range(500):
                    if job.status in ("done", "error"):
                        break
                    await asyncio.sleep(0.01)
                assert job.status == "done", job.error
                assert job.result["verified"] is True
                # same params resolve instantly from the result cache
                again = queue.submit("simulate", params, run)
                assert again.status == "done"
                assert again.cached is True
                assert again.result == job.result
                assert queue.stats()["cache_hits"] == 1
            finally:
                await queue.stop()

        asyncio.run(go())

    def test_failed_job_records_error(self):
        async def go():
            queue = JobQueue(workers=1)
            await queue.start()
            try:
                def boom():
                    raise RuntimeError("engine exploded")

                job = queue.submit("simulate", {"x": 1}, boom)
                for _ in range(500):
                    if job.status in ("done", "error"):
                        break
                    await asyncio.sleep(0.01)
                assert job.status == "error"
                assert "engine exploded" in job.error
                assert queue.stats()["failed"] == 1
                # a failure is not cached: resubmission queues again
                again = queue.submit("simulate", {"x": 1}, boom)
                assert again.cached is False
            finally:
                await queue.stop()

        asyncio.run(go())

    def test_queue_full_raises(self):
        async def go():
            queue = JobQueue(workers=1, max_pending=2)
            # workers never started: submissions pile up in the queue
            for i in range(2):
                queue.submit("simulate", {"i": i}, lambda: None)
            with pytest.raises(asyncio.QueueFull):
                queue.submit("simulate", {"i": 99}, lambda: None)

        asyncio.run(go())

    def test_history_bound_forgets_finished_first(self):
        async def go():
            queue = JobQueue(workers=1, max_pending=64, history=3)
            await queue.start()
            try:
                jobs = [
                    queue.submit("simulate", {"i": i}, lambda i=i: i) for i in range(6)
                ]
                for job in jobs:
                    for _ in range(500):
                        if job.status == "done":
                            break
                        await asyncio.sleep(0.01)
                # trimming happens at submit time and spares live jobs;
                # now that everything finished, the next submit prunes
                last = queue.submit("simulate", {"i": 99}, lambda: 99)
                assert queue.stats()["tracked"] <= 3
                # the newest job is always still pollable
                assert queue.get(last.id) is not None
            finally:
                await queue.stop()

        asyncio.run(go())

    def test_deterministic_ids(self):
        async def go():
            queue = JobQueue(workers=1)
            a = queue.submit("simulate", {"i": 1}, lambda: 1)
            b = queue.submit("simulate", {"i": 2}, lambda: 2)
            assert (a.id, b.id) == ("job-000001", "job-000002")

        asyncio.run(go())

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            JobQueue(workers=0)
