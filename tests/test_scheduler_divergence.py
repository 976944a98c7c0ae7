"""Cross-scheduler equivalence on the paper's CM-5 configurations.

The fuzz suite (``test_engine_fuzz.py``) checks heap-vs-rescan
equivalence on random schedules; this file pins the production
schedulers against the rescan reference on the *real* workloads the
paper's Section 9 figures are built from — GK and Cannon on the fully
connected CM-5 model at the Figure 4 (``p = 64``) and Figure 5
(``p = 512`` / ``p = 484``) processor counts.  Every observable
``SimResult`` field must be bit-identical: ``T_p``, every per-rank
stats account, message/word conservation, and the computed product.
The heap runs collectives as messages, exactly as rescan does; the
compiled runs charge them as whole-machine rounds.

The heap loop charges every request through the same helpers as
rescan, so heap-vs-rescan checks scheduling order and confluence; the
arithmetic itself is checked against compiled replay, which charges
separately.  The runs that cannot compile take the same workloads on
heap: a traced run (recording every event), a null fault plan and an
active plan (crashes with checkpoint rollback, stragglers, degraded
links and dropped messages).  Each must match rescan run under the same
options, event for event and fault counter for fault counter.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.simulator.engine as engine_mod
from repro.algorithms.cannon import run_cannon
from repro.algorithms.gk import run_gk_cm5
from repro.core.machine import CM5
from repro.simulator.faults import FaultPlan
from repro.simulator.topology import FullyConnected

#: (figure, algorithm, n, p) — matrix sizes drawn from the figures'
#: plotted ranges, including each figure's crossover neighborhood; GK's
#: Fig. 5 points at n = 44 and 110 partition unevenly (blocks of four
#: shapes, one stack per shape), n = 264 evenly.  Every one compiles.
CM5_CONFIGS = [
    ("fig4", "gk", 8, 64),
    ("fig4", "gk", 64, 64),
    ("fig4", "gk", 96, 64),
    ("fig4", "cannon", 8, 64),
    ("fig4", "cannon", 64, 64),
    ("fig4", "cannon", 96, 64),
    ("fig5", "gk", 44, 512),
    ("fig5", "gk", 110, 512),
    ("fig5", "gk", 264, 512),
    ("fig5", "cannon", 44, 484),
    ("fig5", "cannon", 110, 484),
]


def _run(algorithm: str, n: int, p: int, scheduler: str | None, **kw):
    """One figure point under the given engine scheduler (and driver
    options *kw*: ``trace``, ``fault_plan``)."""
    rng = np.random.default_rng((0, n))
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    if algorithm == "gk":
        return run_gk_cm5(A, B, p, machine=CM5, scheduler=scheduler, **kw)
    return run_cannon(
        A, B, p, machine=CM5, topology=FullyConnected(p), scheduler=scheduler, **kw
    )


@pytest.mark.parametrize("scheduler", ["heap", "compiled"])
@pytest.mark.parametrize("figure,algorithm,n,p", CM5_CONFIGS)
def test_schedulers_and_rescan_identical_on_cm5_configs(
    figure, algorithm, n, p, scheduler
):
    fast = _run(algorithm, n, p, scheduler)
    assert fast.sim.compiled == (scheduler == "compiled"), fast.sim.compile_fallback
    rescan = _run(algorithm, n, p, "rescan")

    # headline number: T_p bit-identical, not approximately equal
    assert fast.parallel_time == rescan.parallel_time
    assert fast.sim.nprocs == rescan.sim.nprocs == p

    # every per-rank account, field for field
    assert len(fast.sim.stats) == p
    for s_fast, s_rescan in zip(fast.sim.stats, rescan.sim.stats):
        assert s_fast == s_rescan, f"rank {s_fast.rank} stats diverge"

    # conservation totals and the derived Section-2 metrics
    work = float(n) ** 3
    assert fast.sim.total_messages == rescan.sim.total_messages
    assert fast.sim.total_words == rescan.sim.total_words
    assert fast.sim.speedup(work) == rescan.sim.speedup(work)
    assert fast.sim.efficiency(work) == rescan.sim.efficiency(work)
    assert fast.sim.total_overhead(work) == rescan.sim.total_overhead(work)

    # the product itself: bit-identical under both schedulers, and correct
    assert np.array_equal(fast.C, rescan.C)
    rng = np.random.default_rng((0, n))
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    np.testing.assert_allclose(fast.C, A @ B, atol=1e-8 * n)


def _active_plan(horizon: float) -> FaultPlan:
    """Every fault kind at once, scaled to the fault-free ``T_p``."""
    return FaultPlan(
        seed=19,
        horizon=horizon,
        crash_rate=0.25,
        checkpoint_interval=horizon / 4,
        checkpoint_cost=CM5.ts,
        recovery_cost=2 * CM5.ts,
        straggler_rate=0.25,
        straggler_factor=1.5,
        degrade_rate=0.25,
        degrade_factor=2.0,
        drop_rate=0.05,
        timeout=2 * CM5.ts,
    )


def _events_by_rank(trace):
    """Every event's observable fields, each rank's in recording order."""
    return [
        (e.rank, e.start, e.end, e.kind, e.detail, e.tag)
        for e in sorted(trace.events, key=lambda e: e.rank)
    ]


@pytest.mark.parametrize("regime", ["traced", "null-plan", "faulted"])
@pytest.mark.parametrize("figure,algorithm,n,p", CM5_CONFIGS)
def test_heap_regimes_and_rescan_identical_on_cm5_configs(
    figure, algorithm, n, p, regime
):
    if regime == "traced":
        kw = {"trace": True}
        blocker = "tracing enabled"
    else:
        if regime == "null-plan":
            plan = FaultPlan()
        else:
            fault_free = _run(algorithm, n, p, "compiled").parallel_time
            plan = _active_plan(fault_free)
        kw = {"fault_plan": plan}
        blocker = "active fault plan"
    # the default scheduler cannot compile these runs and takes heap
    heap = _run(algorithm, n, p, None, **kw)
    assert not heap.sim.compiled and heap.sim.compile_fallback == blocker
    rescan = _run(algorithm, n, p, "rescan", **kw)

    assert heap.parallel_time == rescan.parallel_time
    assert len(heap.sim.stats) == p
    for s_heap, s_rescan in zip(heap.sim.stats, rescan.sim.stats):
        assert s_heap == s_rescan, f"rank {s_heap.rank} stats diverge"
    assert heap.sim.total_messages == rescan.sim.total_messages
    assert heap.sim.total_words == rescan.sim.total_words
    for counter in ("retransmits", "faults_injected", "checkpoint_time", "recovery_time"):
        assert getattr(heap.sim, counter) == getattr(rescan.sim, counter), counter
    if regime == "traced":
        events = _events_by_rank(heap.sim.trace)
        assert events and events == _events_by_rank(rescan.sim.trace)
    if regime == "faulted":
        # the plan fired, so the helpers' fault hooks were exercised
        assert heap.sim.faults_injected > 0
        assert heap.parallel_time > fault_free

    # faults and tracing move clocks, never data
    assert np.array_equal(heap.C, rescan.C)
    rng = np.random.default_rng((0, n))
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    np.testing.assert_allclose(heap.C, A @ B, atol=1e-8 * n)


def test_scheduler_default_is_compiled():
    """Trace compilation (falling back to heap) is the default; rescan
    stays the reference, and heap is the one generator loop beside it."""
    assert engine_mod.DEFAULT_SCHEDULER == "compiled"
    assert engine_mod.SCHEDULERS == ("rescan", "heap", "compiled")
