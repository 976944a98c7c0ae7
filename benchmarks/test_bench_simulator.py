"""Micro-benchmarks of the simulator substrate itself.

These time the wall-clock cost of simulating the paper's workloads —
useful for tracking regressions in the engine, and for documenting what
a full Figure 4/5-scale run costs on a laptop.
"""

import numpy as np
import pytest

from repro.algorithms.cannon import run_cannon
from repro.algorithms.gk import run_gk_cm5
from repro.core.cache import configure_disk_cache, result_cache
from repro.core.machine import CM5, NCUBE2_LIKE
from repro.experiments.scaling import run_large_p
from repro.experiments.sweep import sweep
from repro.simulator.collectives import allgather_recursive_doubling
from repro.simulator.engine import Engine, run_spmd
from repro.simulator.faults import FaultPlan
from repro.simulator.request import Recv, Send
from repro.simulator.topology import FullyConnected, Hypercube


def _mats(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


def test_bench_cannon_p64(benchmark):
    A, B = _mats(96)
    res = benchmark(run_cannon, A, B, 64, NCUBE2_LIKE)
    assert np.allclose(res.C, A @ B)


def test_bench_compile_cannon_p16384(benchmark):
    # unverified, so the product is never computed: the time is the trace
    # compiler's front end (probe recording, lowering) and the driver's set-up
    res = benchmark.pedantic(
        run_large_p, kwargs=dict(p_values=(16384,), n0=2, verify=False), rounds=3, iterations=1
    )
    (row,) = res["scaled_cannon"]
    assert row["compiled"], row["compile_fallback"]


def test_bench_gk_p512(benchmark):
    A, B = _mats(64)
    res = benchmark.pedantic(
        run_gk_cm5, args=(A, B, 512), kwargs={"machine": CM5}, rounds=2, iterations=1
    )
    assert np.allclose(res.C, A @ B)


def test_bench_engine_allgather_p256(benchmark):
    topo = Hypercube(8)
    group = list(range(256))

    def factory(info):
        def body():
            out = yield from allgather_recursive_doubling(
                info, group, np.zeros(16)
            )
            return len(out)

        return body()

    def run():
        return run_spmd(topo, NCUBE2_LIKE, factory)

    res = benchmark.pedantic(run, rounds=2, iterations=1)
    assert all(v == 256 for v in res.returns)


def test_bench_engine_message_churn(benchmark):
    # a tight ring of 64 ranks exchanging 200 rounds: ~12.8k messages
    topo = FullyConnected(64)

    def factory(info):
        from repro.simulator.request import Compute, Recv, Send

        def body():
            nxt = (info.rank + 1) % 64
            prv = (info.rank - 1) % 64
            x = info.rank
            for _ in range(200):
                yield Send(dst=nxt, data=x, nwords=1)
                x = yield Recv(src=prv)
                yield Compute(1.0)
            return x

        return body()

    res = benchmark.pedantic(lambda: run_spmd(topo, NCUBE2_LIKE, factory), rounds=2, iterations=1)
    assert res.total_messages == 64 * 200


def _relay_ring(p):
    """One token around a ring of *p* ranks, toward decreasing ranks.

    Every rescan pass steps ranks in increasing order, so it advances
    the token one hop per O(p) scan; the heap's cost follows the events.
    """

    def prog(info):
        down, up = (info.rank - 1) % p, (info.rank + 1) % p
        if info.rank == 0:
            yield Send(dst=down, data=0, nwords=8, tag=0)
            got = yield Recv(src=up, tag=0)
        else:
            got = yield Recv(src=up, tag=0)
            yield Send(dst=down, data=got, nwords=8, tag=0)
        return got

    return prog


def test_bench_engine_heap_fault_ring_p1024(benchmark):
    # a run with a fault plan never compiles: heap is the production
    # loop that charges it, and rescan the reference it must equal
    p = 1024
    topo = FullyConnected(p)
    plan = FaultPlan(seed=1, horizon=1e9, degrade_rate=0.05, degrade_factor=1.5)

    def run(scheduler, fault_plan=None):
        engine = Engine(topo, NCUBE2_LIKE, scheduler=scheduler, fault_plan=fault_plan)
        return engine.run([_relay_ring(p)] * p).parallel_time

    t_p = benchmark.pedantic(run, args=("heap", plan), rounds=2, iterations=1)
    assert t_p == run("rescan", plan)
    assert run("heap") == run("rescan") != t_p


@pytest.fixture
def _no_disk_tier():
    """The disk tier off, so a sweep's first pass simulates every row."""
    configure_disk_cache(None, enabled=False)
    yield
    configure_disk_cache(None)


def test_bench_sweep_pipeline(benchmark, _no_disk_tier):
    # a sweep and its re-query (a figure re-export): the result cache
    # serves every row of the second pass
    grid = (("cannon", "gk", "berntsen", "dns"), (8, 16), (4, 16, 64), NCUBE2_LIKE)

    def pipeline():
        result_cache().clear()
        first = sweep(*grid)
        hits = result_cache().stats()["hits"]
        second = sweep(*grid)
        return first, second, result_cache().stats()["hits"] - hits

    first, second, hits = benchmark.pedantic(pipeline, rounds=2, iterations=1)
    assert first == second
    assert hits == len(second) > 0
