"""Cross-scheduler equivalence on the paper's CM-5 configurations.

The fuzz suite (``test_engine_fuzz.py``) checks ready-vs-rescan
equivalence on random schedules; this file pins it on the *real*
workloads the paper's Section 9 figures are built from — GK and Cannon
on the fully connected CM-5 model at the Figure 4 (``p = 64``) and
Figure 5 (``p = 512`` / ``p = 484``) processor counts.  Every observable
``SimResult`` field must be bit-identical: ``T_p``, every per-rank
stats account, message/word conservation, and the computed product.

Each configuration runs with the macro-collective fast path both off
and forced on (``MACRO_GROUP_MIN`` pinned to 2, so even the figures'
small row/column groups take the macro executors): the ready scheduler
with macro collectives must match the rescan reference — which always
simulates message level — exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.simulator.collectives as collectives_mod
import repro.simulator.engine as engine_mod
from repro.algorithms.cannon import run_cannon
from repro.algorithms.gk import run_gk_cm5
from repro.core.machine import CM5
from repro.simulator.topology import FullyConnected

#: (figure, algorithm, n, p) — matrix sizes drawn from the figures'
#: plotted ranges, including each figure's crossover neighborhood.
CM5_CONFIGS = [
    ("fig4", "gk", 8, 64),
    ("fig4", "gk", 64, 64),
    ("fig4", "gk", 96, 64),
    ("fig4", "cannon", 8, 64),
    ("fig4", "cannon", 64, 64),
    ("fig4", "cannon", 96, 64),
    ("fig5", "gk", 44, 512),
    ("fig5", "gk", 110, 512),
    ("fig5", "cannon", 44, 484),
    ("fig5", "cannon", 110, 484),
]


def _run(algorithm: str, n: int, p: int, scheduler: str, macro: bool, monkeypatch):
    """One figure point under the given engine scheduler.

    The process-wide default is flipped the same way
    ``benchmarks/perf_guard.py`` does (the engine's contract is that the
    choice is unobservable; the drivers' ``scheduler=`` kwarg covers
    explicit selection elsewhere).  With *macro*, the group-size cutoff
    is pinned to 2 so the figures' row/column groups (8–64 ranks) take
    the macro executors.
    """
    monkeypatch.setattr(engine_mod, "DEFAULT_SCHEDULER", scheduler)
    monkeypatch.setattr(engine_mod, "DEFAULT_MACRO_COLLECTIVES", macro)
    if macro:
        monkeypatch.setattr(collectives_mod, "MACRO_GROUP_MIN", 2)
    rng = np.random.default_rng((0, n))
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    if algorithm == "gk":
        return run_gk_cm5(A, B, p, machine=CM5)
    return run_cannon(A, B, p, machine=CM5, topology=FullyConnected(p))


@pytest.mark.parametrize("scheduler", ["ready", "heap", "compiled"])
@pytest.mark.parametrize("macro", [False, True], ids=["message-level", "macro"])
@pytest.mark.parametrize("figure,algorithm,n,p", CM5_CONFIGS)
def test_ready_and_rescan_identical_on_cm5_configs(
    figure, algorithm, n, p, macro, scheduler, monkeypatch
):
    ready = _run(algorithm, n, p, scheduler, macro, monkeypatch)
    # the rescan reference always simulates message level (the engine
    # rejects macro requests there), so with macro=True this pins the
    # fast path against the reference on the real figure workloads
    rescan = _run(algorithm, n, p, "rescan", False, monkeypatch)

    # headline number: T_p bit-identical, not approximately equal
    assert ready.parallel_time == rescan.parallel_time
    assert ready.sim.nprocs == rescan.sim.nprocs == p

    # every per-rank account, field for field
    assert len(ready.sim.stats) == p
    for s_ready, s_rescan in zip(ready.sim.stats, rescan.sim.stats):
        assert s_ready == s_rescan, f"rank {s_ready.rank} stats diverge"

    # conservation totals and the derived Section-2 metrics
    work = float(n) ** 3
    assert ready.sim.total_messages == rescan.sim.total_messages
    assert ready.sim.total_words == rescan.sim.total_words
    assert ready.sim.speedup(work) == rescan.sim.speedup(work)
    assert ready.sim.efficiency(work) == rescan.sim.efficiency(work)
    assert ready.sim.total_overhead(work) == rescan.sim.total_overhead(work)

    # the product itself: bit-identical under both schedulers, and correct
    assert np.array_equal(ready.C, rescan.C)
    rng = np.random.default_rng((0, n))
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    np.testing.assert_allclose(ready.C, A @ B, atol=1e-8 * n)


def test_scheduler_default_is_compiled():
    """Trace compilation (falling back to heap) is the default; rescan
    stays the reference."""
    assert engine_mod.DEFAULT_SCHEDULER == "compiled"
    assert engine_mod.SCHEDULERS == ("ready", "rescan", "heap", "compiled")
