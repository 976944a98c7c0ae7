"""Heap-vs-reference equivalence for the collective helpers.

On the generator schedulers every collective runs as the point-to-point
messages of :mod:`repro.simulator.collectives`.  The heap scheduler
charges them in batches, the rescan reference one request at a time;
the contract is *bit-identity*: same ``T_p``, same per-rank accounts,
same message/word totals, and the same payload objects delivered to
every rank.  This file pins that contract three ways:

* a deterministic sweep of all seven collectives across machine models
  (store-and-forward vs cut-through, hop costs, all-port) and
  topologies;
* a property-based fuzz over random group shapes, member permutations,
  payload shapes, staggered entry times, and collective sequences;
* payload-aliasing tests for the zero-copy ndarray handoff — which
  objects the helpers share between ranks, and where they copy
  (reduce-scatter) so that no two ranks end up with memory-sharing
  views.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.machine import CM5, NCUBE2_LIKE, MachineParams
from repro.simulator.collectives import (
    allgather_recursive_doubling,
    allgather_ring,
    barrier,
    bcast_binomial,
    reduce_binomial,
    reduce_scatter_halving,
    shift_cyclic,
)
from repro.simulator.engine import run_spmd
from repro.simulator.topology import FullyConnected, Hypercube, Mesh2D


def deep_eq(a, b) -> bool:
    """Bitwise-exact structural equality (arrays compare dtype + contents)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and np.array_equal(a, b)
        )
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(deep_eq(x, y) for x, y in zip(a, b))
        )
    return type(a) is type(b) and a == b


def assert_identical(res_a, res_b, label: str):
    """Every observable SimResult field, bit for bit."""
    assert res_a.parallel_time == res_b.parallel_time, label
    assert res_a.total_messages == res_b.total_messages, label
    assert res_a.total_words == res_b.total_words, label
    assert len(res_a.stats) == len(res_b.stats)
    for s_a, s_b in zip(res_a.stats, res_b.stats):
        assert s_a == s_b, f"{label}: rank {s_a.rank} stats diverge"
    assert len(res_a.returns) == len(res_b.returns)
    for r, (v_a, v_b) in enumerate(zip(res_a.returns, res_b.returns)):
        assert deep_eq(v_a, v_b), f"{label}: rank {r} return value diverges"


def run_both(topo, machine, factory):
    """(heap, rescan) runs of one program."""
    heap = run_spmd(topo, machine, factory, scheduler="heap")
    rescan = run_spmd(topo, machine, factory, scheduler="rescan")
    return heap, rescan


# -- deterministic sweep: all collectives x machine models x topologies ------------

MACHINES = [
    NCUBE2_LIKE,
    CM5,
    MachineParams(ts=10.0, tw=2.0, th=1.0, routing="ct"),
    MachineParams(ts=10.0, tw=2.0, th=3.0, routing="sf"),
    MachineParams(ts=0.0, tw=1.0, all_port=True),
]

TOPOLOGIES = [
    lambda p: Hypercube.of_size(p),
    lambda p: FullyConnected(p),
]


def _all_collectives_body(info, group):
    """One program touching all seven collectives with distinct payloads."""
    rng = np.random.default_rng((1234, info.rank))
    a = rng.standard_normal(6)
    results = []
    got = yield from bcast_binomial(info, group, 1, a if info.rank == group[1] else None)
    results.append(got)
    got = yield from reduce_binomial(
        info, group, 0, a.copy(), charge_op=lambda x: float(np.asarray(x).size)
    )
    results.append(got)
    got = yield from allgather_recursive_doubling(info, group, a * 2.0)
    results.append(got)
    got = yield from allgather_ring(info, group, a + 1.0)
    results.append(got)
    got = yield from reduce_scatter_halving(info, group, rng.standard_normal((4, 4)))
    results.append(got)
    got = yield from shift_cyclic(info, group, 3, a - 3.0)
    results.append(got)
    yield from barrier(info)
    return results


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name or m.routing)
@pytest.mark.parametrize("make_topo", TOPOLOGIES, ids=["hypercube", "fully-connected"])
def test_all_collectives_bit_identical(machine, make_topo):
    p = 8
    topo = make_topo(p)
    group = list(range(p))

    def factory(info):
        return _all_collectives_body(info, group)

    heap, rescan = run_both(topo, machine, factory)
    assert_identical(heap, rescan, "heap vs rescan reference")


def test_subgroup_and_permuted_group_bit_identical():
    """Disjoint concurrent subgroups with permuted member orders."""
    p = 16
    topo = Hypercube.of_size(p)
    groups = [
        [3, 1, 7, 5],
        [0, 4, 2, 6],
        [15, 11, 13, 9],
        [8, 12, 10, 14],
    ]

    def factory(info):
        def body():
            group = next(g for g in groups if info.rank in g)
            data = np.full(4, float(info.rank))
            got1 = yield from bcast_binomial(
                info, group, 2, data if group[2] == info.rank else None
            )
            got2 = yield from allgather_recursive_doubling(info, group, data)
            got3 = yield from reduce_scatter_halving(info, group, data)
            return got1, got2, got3

        return body()

    heap, rescan = run_both(topo, NCUBE2_LIKE, factory)
    assert_identical(heap, rescan, "subgroups heap vs rescan")


def test_mesh_topology_distances_bit_identical():
    p = 16
    topo = Mesh2D(4, 4)
    group = list(range(p))

    def factory(info):
        def body():
            got = yield from allgather_ring(info, group, np.arange(3.0) + info.rank)
            return got

        return body()

    heap, rescan = run_both(topo, MachineParams(ts=5.0, tw=1.5, th=2.0), factory)
    assert_identical(heap, rescan, "mesh heap vs rescan")


# -- property-based fuzz -----------------------------------------------------------


def _build_schedule(seed: int, p: int, rounds: int):
    """Random rounds of (kind, group, params) plus per-rank entry stagger."""
    rng = np.random.default_rng(seed)
    kinds = ("bcast", "reduce", "allgather_rd", "allgather_ring", "reduce_scatter", "shift")
    schedule = []
    for r in range(rounds):
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind in ("allgather_rd", "reduce_scatter"):
            gs = int(2 ** rng.integers(1, int(np.log2(p)) + 1))
        else:
            gs = int(rng.integers(2, p + 1))
        members = [int(x) for x in rng.permutation(p)[:gs]]
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        schedule.append(
            {
                "kind": kind,
                "group": members,
                "root_index": int(rng.integers(gs)),
                "offset": int(rng.integers(0, 2 * gs)),
                "shape": shape,
                "nwords": None if rng.integers(2) else int(rng.integers(0, 30)),
                "tag": int(rng.integers(3)),
                "costs": [float(rng.integers(0, 500)) for _ in range(p)],
                "charge": bool(rng.integers(2)),
            }
        )
    return schedule


def _fuzz_factory(schedule, seed: int):
    from repro.simulator.request import Compute

    def factory(info):
        def body():
            results = []
            for i, rnd in enumerate(schedule):
                cost = rnd["costs"][info.rank]
                if cost:
                    yield Compute(cost)
                if info.rank not in rnd["group"]:
                    continue
                rng = np.random.default_rng((seed, i, info.rank))
                data = rng.standard_normal(rnd["shape"])
                kind, group, tag = rnd["kind"], rnd["group"], rnd["tag"]
                if kind == "bcast":
                    root = group[rnd["root_index"]]
                    got = yield from bcast_binomial(
                        info, group, rnd["root_index"],
                        data if info.rank == root else None,
                        nwords=rnd["nwords"], tag=tag,
                    )
                elif kind == "reduce":
                    got = yield from reduce_binomial(
                        info, group, rnd["root_index"], data,
                        nwords=rnd["nwords"], tag=tag,
                        charge_op=(lambda x: float(np.asarray(x).size))
                        if rnd["charge"] else None,
                    )
                elif kind == "allgather_rd":
                    got = yield from allgather_recursive_doubling(
                        info, group, data, nwords=rnd["nwords"], tag=tag
                    )
                elif kind == "allgather_ring":
                    got = yield from allgather_ring(
                        info, group, data, nwords=rnd["nwords"], tag=tag
                    )
                elif kind == "reduce_scatter":
                    got = yield from reduce_scatter_halving(
                        info, group, data, tag=tag, charge_adds=rnd["charge"]
                    )
                else:
                    got = yield from shift_cyclic(
                        info, group, rnd["offset"], data,
                        nwords=rnd["nwords"], tag=tag,
                    )
                results.append(got)
            return results

        return body()

    return factory


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    p=st.sampled_from([4, 8, 16]),
    rounds=st.integers(min_value=1, max_value=4),
    machine=st.sampled_from(MACHINES),
    fully_connected=st.booleans(),
)
def test_fuzz_heap_matches_reference(seed, p, rounds, machine, fully_connected):
    topo = FullyConnected(p) if fully_connected else Hypercube.of_size(p)
    schedule = _build_schedule(seed, p, rounds)
    factory = _fuzz_factory(schedule, seed)
    heap, rescan = run_both(topo, machine, factory)
    assert_identical(heap, rescan, f"seed={seed} heap vs rescan reference")


# -- payload aliasing: the zero-copy contract --------------------------------------


def _run_heap(p, factory, machine=NCUBE2_LIKE):
    return run_spmd(Hypercube.of_size(p), machine, factory, scheduler="heap")


def _run_reference(p, factory, machine=NCUBE2_LIKE):
    return run_spmd(Hypercube.of_size(p), machine, factory, scheduler="rescan")


class TestPayloadAliasing:
    """Broadcasts, all-gathers and shifts hand over the objects the ranks
    passed in; a reduce-scatter copies, so in-place mutation stays
    private to a rank."""

    def test_bcast_delivers_the_root_object_zero_copy(self):
        p = 8
        group = list(range(p))
        payload = np.arange(5.0)

        def factory(info):
            def body():
                got = yield from bcast_binomial(
                    info, group, 0, payload if info.rank == 0 else None
                )
                return got

            return body()

        for runner in (_run_heap, _run_reference):
            res = runner(p, factory)
            for r in range(p):
                assert res.returns[r] is payload

    def test_allgather_returns_original_contribution_objects(self):
        p = 8
        group = list(range(p))
        contributions = [np.full(3, float(r)) for r in range(p)]

        def factory(info):
            def body():
                got = yield from allgather_recursive_doubling(
                    info, group, contributions[info.rank]
                )
                return got

            return body()

        for runner in (_run_heap, _run_reference):
            res = runner(p, factory)
            for r in range(p):
                # fresh list per rank...
                assert res.returns[r] is not res.returns[(r + 1) % p]
                # ...of the exact objects each member contributed
                for j in range(p):
                    assert res.returns[r][j] is contributions[j]

    def test_shift_hands_over_the_sender_object(self):
        p = 8
        group = list(range(p))
        payloads = [np.full(2, float(r)) for r in range(p)]

        def factory(info):
            def body():
                got = yield from shift_cyclic(info, group, 3, payloads[info.rank])
                return got

            return body()

        for runner in (_run_heap, _run_reference):
            res = runner(p, factory)
            for r in range(p):
                assert res.returns[r] is payloads[(r - 3) % p]

    def test_reduce_scatter_slices_share_no_memory(self):
        """Each rank's piece is a private copy: no cross-rank views, and
        no view of any rank's input array."""
        p = 8
        group = list(range(p))
        inputs = [np.full((4, 4), float(r + 1)) for r in range(p)]

        def factory(info):
            def body():
                piece, lo, hi = yield from reduce_scatter_halving(
                    info, group, inputs[info.rank]
                )
                return piece, lo, hi

            return body()

        for runner in (_run_heap, _run_reference):
            res = runner(p, factory)
            pieces = [res.returns[r][0] for r in range(p)]
            for r in range(p):
                for other in pieces[r + 1:]:
                    assert not np.shares_memory(pieces[r], other)
                for inp in inputs:
                    assert not np.shares_memory(pieces[r], inp)

    def test_reduce_scatter_inplace_mutation_stays_private(self):
        """A rank scribbling over its returned piece (and its own input)
        must not corrupt any other rank's result."""
        p = 8
        group = list(range(p))
        expected_total = sum(float(r + 1) for r in range(p))

        def make_inputs():
            return [np.full((4, 4), float(r + 1)) for r in range(p)]

        for runner in (_run_heap, _run_reference):
            inputs = make_inputs()

            def factory(info):
                def body():
                    piece, lo, hi = yield from reduce_scatter_halving(
                        info, group, inputs[info.rank]
                    )
                    # scribble: in-place mutation of everything this rank holds
                    snapshot = piece.copy()
                    piece[:] = -1e9
                    inputs[info.rank][:] = -1e9
                    return snapshot, lo, hi

                return body()

            res = runner(p, factory)
            for r in range(p):
                snapshot, lo, hi = res.returns[r]
                assert np.array_equal(snapshot, np.full(hi - lo, expected_total))

    def test_reduce_scatter_input_copied_at_call_time(self):
        """The working copy is taken when the helper is invoked, so the
        returned piece never aliases the caller's array."""
        p = 4
        group = list(range(p))
        inputs = [np.ones(8) for _ in range(p)]

        def factory(info):
            def body():
                piece, lo, hi = yield from reduce_scatter_halving(
                    info, group, inputs[info.rank]
                )
                return np.shares_memory(piece, inputs[info.rank])

            return body()

        for runner in (_run_heap, _run_reference):
            res = runner(p, factory)
            assert res.returns == [False] * p

    def test_reduce_root_gets_folded_value_others_none(self):
        p = 8
        group = list(range(p))

        def factory(info):
            def body():
                got = yield from reduce_binomial(
                    info, group, 3, np.full(4, float(info.rank))
                )
                return got

            return body()

        for runner in (_run_heap, _run_reference):
            res = runner(p, factory)
            for r in range(p):
                if r == 3:
                    assert np.array_equal(res.returns[r], np.full(4, float(sum(range(p)))))
                else:
                    assert res.returns[r] is None
