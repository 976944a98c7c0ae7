"""PairHopCache edge cases: clamping, sharing, and hash-seed independence.

The hop tables feed both the heap scheduler's batch charging and the
trace compiler's replay, so three properties are load-bearing: the
``max(hops, 1)`` clamp must match the scalar message path exactly (a
self-message still pays one link), the per-topology cache must be shared
across Engine instances (:meth:`PairHopCache.shared`), and the tables
must not depend on ``PYTHONHASHSEED`` (a hash-ordered table would make
batch charging nondeterministic across processes).
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np

from repro.simulator.engine import Engine
from repro.simulator.request import Compute
from repro.simulator.topology import (
    FullyConnected,
    Hypercube,
    Mesh2D,
    PairHopCache,
    Topology,
)


class _ScalarOnlyLine(Topology):
    """A topology that answers only the scalar metric (no vectorized
    ``distances`` override), so the cache takes its memoizing loop."""

    def __init__(self, size: int) -> None:
        self._size = size

    @property
    def size(self) -> int:
        return self._size

    def distance(self, a: int, b: int) -> int:
        return abs(a - b)

    def neighbors(self, rank: int) -> list[int]:
        return [r for r in (rank - 1, rank + 1) if 0 <= r < self._size]


def test_single_rank_topology():
    """p=1: the only pair is (0, 0) and it still clamps to one hop."""
    for topo in (FullyConnected(1), Hypercube(0), _ScalarOnlyLine(1)):
        cache = PairHopCache(topo)
        assert cache.hop(0, 0) == 1
        out = cache.bulk(np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64))
        assert out.tolist() == [1, 1, 1]


def test_clamp_matches_scalar_path_on_all_topologies():
    """bulk() == max(distance, 1) pairwise, including zero-distance pairs
    and the non-power-of-two mesh (the 3x5 wraparound has asymmetric
    row/col distances that a pow2-only shortcut would get wrong)."""
    topos = [Hypercube(3), FullyConnected(7), Mesh2D(3, 5), _ScalarOnlyLine(9)]
    rng = np.random.default_rng(0)
    for topo in topos:
        cache = PairHopCache(topo)
        src = rng.integers(0, topo.size, size=64)
        dst = rng.integers(0, topo.size, size=64)
        # force some self-pairs so the clamp is exercised
        dst[::7] = src[::7]
        out = cache.bulk(src.astype(np.int64), dst.astype(np.int64))
        expect = [max(topo.distance(int(a), int(b)), 1) for a, b in zip(src, dst)]
        assert out.tolist() == expect
        assert (out >= 1).all()


def test_shared_cache_survives_across_engines():
    """Two engines on one topology instance reuse one cache object, and
    the memoized scalar table carries over (no re-deriving per run)."""
    topo = _ScalarOnlyLine(8)
    c1 = PairHopCache.shared(topo)
    c2 = PairHopCache.shared(topo)
    assert c1 is c2
    c1.hop(2, 5)
    assert (2, 5) in c1._pairs

    def make(rank):
        def body(info):
            yield Compute(1.0)
            return None

        return body

    from repro.core.machine import NCUBE2_LIKE

    for _ in range(2):
        Engine(topo, NCUBE2_LIKE, scheduler="heap").run([make(r) for r in range(8)])
    assert PairHopCache.shared(topo) is c1
    # a different instance gets its own cache
    assert PairHopCache.shared(_ScalarOnlyLine(8)) is not c1


def test_shared_cache_is_weakly_keyed():
    """Dropping the topology drops its entry, without a collector pass:
    the cache must not keep its own key alive."""
    import weakref

    topo = _ScalarOnlyLine(4)
    cache = PairHopCache.shared(topo)
    assert PairHopCache._shared.get(topo) is cache
    assert cache.hop(0, 3) == 3
    n_before = len(PairHopCache._shared)
    topo_ref = weakref.ref(topo)
    del topo, cache
    assert topo_ref() is None
    assert len(PairHopCache._shared) == n_before - 1


def test_engine_runs_leave_no_shared_caches_behind():
    """Each run on a fresh topology, on heap or compiled, leaves the
    process-wide table as it found it once the topology is dropped."""
    import gc

    from repro.algorithms.cannon import run_cannon
    from repro.algorithms.gk import run_gk_cm5

    rng = np.random.default_rng(3)
    A, B = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
    n_before = len(PairHopCache._shared)
    for _ in range(3):
        res = run_cannon(A, B, 16, topology=FullyConnected(16))
        assert res.sim.compiled
        assert not run_gk_cm5(A, B, 8).sim.compiled
        del res
    gc.collect()
    assert len(PairHopCache._shared) == n_before


_HASHSEED_SNIPPET = """
import numpy as np
from repro.simulator.topology import Hypercube, Mesh2D, PairHopCache
rng = np.random.default_rng(42)
for topo in (Hypercube(4), Mesh2D(4, 4)):
    cache = PairHopCache(topo)
    src = rng.integers(0, topo.size, size=128).astype(np.int64)
    dst = rng.integers(0, topo.size, size=128).astype(np.int64)
    print(cache.bulk(src, dst).tolist())
"""


def test_hop_tables_independent_of_pythonhashseed():
    """Identical bulk tables under two different hash seeds."""
    outputs = []
    for seed in ("0", "424242"):
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SNIPPET],
            capture_output=True, text=True,
            env={"PYTHONHASHSEED": seed, "PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=".",
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
