"""Property-based fuzzing of the discrete-event engine.

Generates random-but-matched communication schedules (every send has a
corresponding receive) and checks the engine's global invariants:
no deadlock, clock monotonicity, exact payload delivery, conservation
of messages/words, and determinism.  The same schedules also drive the
scheduler-equivalence property: the event-heap ``heap`` scheduler must
produce bit-identical clocks, stats, and return values to the reference
``rescan`` scheduler on every program — tracing on, link contention and
active ``FaultPlan``s included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.machine import MachineParams
from repro.simulator.engine import Engine
from repro.simulator.faults import FaultPlan
from repro.simulator.request import Barrier, Compute, Recv, Send, SendAll
from repro.simulator.topology import FullyConnected, Hypercube


def _build_schedule(rng: np.random.Generator, p: int, nops: int, barriers: bool = False):
    """A random schedule of matched sends/recvs plus computes.

    Returns per-rank op lists.  Messages are generated in a global
    causal order (sender op appended before receiver op), which a
    round-robin engine must be able to execute without deadlock as long
    as receives on each rank happen in the order generated.  With
    *barriers*, global barriers are occasionally appended to every rank
    at once — matched pairs are always complete before a barrier, so
    the schedule stays deadlock-free.
    """
    ops: list[list[tuple]] = [[] for _ in range(p)]
    msg_id = 0
    for _ in range(nops):
        kind = rng.choice(["send", "compute"])
        if kind == "compute":
            r = int(rng.integers(p))
            ops[r].append(("compute", float(rng.integers(1, 50))))
        else:
            src = int(rng.integers(p))
            dst = int(rng.integers(p - 1))
            if dst >= src:
                dst += 1
            nwords = int(rng.integers(0, 40))
            ops[src].append(("send", dst, msg_id, nwords))
            ops[dst].append(("recv", src, msg_id))
            msg_id += 1
        if barriers and rng.integers(8) == 0:
            for rank_ops in ops:
                rank_ops.append(("barrier",))
    return ops


def _factory_for(ops):
    def make(rank_ops):
        def factory(info):
            def body():
                got = []
                for op in rank_ops:
                    if op[0] == "compute":
                        yield Compute(op[1])
                    elif op[0] == "send":
                        _, dst, mid, nwords = op
                        yield Send(dst=dst, data=("msg", mid), nwords=nwords, tag=mid)
                    elif op[0] == "barrier":
                        yield Barrier()
                    else:
                        _, src, mid = op
                        data = yield Recv(src=src, tag=mid)
                        got.append((data[1], mid))
                return got

            return body()

        return factory

    return [make(rank_ops) for rank_ops in ops]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    p=st.sampled_from([2, 3, 4, 8]),
    nops=st.integers(min_value=1, max_value=60),
    ts=st.floats(min_value=0.0, max_value=100.0),
)
def test_random_matched_schedules_complete(seed, p, nops, ts):
    rng = np.random.default_rng(seed)
    ops = _build_schedule(rng, p, nops)
    machine = MachineParams(ts=ts, tw=1.0)
    res = Engine(FullyConnected(p), machine).run(_factory_for(ops))
    # every receive got the payload of its own message id
    for got in res.returns:
        assert all(received_id == mid for received_id, mid in got)
    # conservation: messages/words sent match schedule
    sends = [op for rank_ops in ops for op in rank_ops if op[0] == "send"]
    assert res.total_messages == len(sends)
    assert res.total_words == sum(op[3] for op in sends)
    # clocks non-negative, Tp is the max finish time
    assert all(s.finish_time >= 0 for s in res.stats)
    assert res.parallel_time == max(s.finish_time for s in res.stats)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    nops=st.integers(min_value=5, max_value=40),
)
def test_fuzz_determinism(seed, nops):
    rng = np.random.default_rng(seed)
    ops = _build_schedule(rng, 4, nops)
    machine = MachineParams(ts=3.0, tw=2.0)
    r1 = Engine(Hypercube(2), machine).run(_factory_for(ops))
    r2 = Engine(Hypercube(2), machine).run(_factory_for(ops))
    assert r1.parallel_time == r2.parallel_time
    assert [s.finish_time for s in r1.stats] == [s.finish_time for s in r2.stats]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    p=st.sampled_from([2, 4, 8]),
    nops=st.integers(min_value=1, max_value=60),
    ts=st.floats(min_value=0.0, max_value=100.0),
    routing=st.sampled_from(["sf", "ct"]),
    barriers=st.booleans(),
    topo=st.sampled_from(["full", "hypercube"]),
)
def test_schedulers_bit_identical(seed, p, nops, ts, routing, barriers, topo):
    """The heap scheduler is clock-identical to the seed rescan scheduler.

    Not approximately equal — bit-identical: both paths must perform the
    same float operations in the same order per rank, so parallel_time,
    every per-rank stats field, and the programs' return values match
    exactly on arbitrary matched schedules with and without barriers.
    """
    rng = np.random.default_rng(seed)
    ops = _build_schedule(rng, p, nops, barriers=barriers)
    machine = MachineParams(ts=ts, tw=1.7, th=0.3, routing=routing)
    make_topo = (lambda: FullyConnected(p)) if topo == "full" else (
        lambda: Hypercube(int(np.log2(p)))
    )
    r_fast = Engine(make_topo(), machine, scheduler="heap").run(_factory_for(ops))
    r_rescan = Engine(make_topo(), machine, scheduler="rescan").run(_factory_for(ops))
    assert r_fast.parallel_time == r_rescan.parallel_time
    assert r_fast.stats == r_rescan.stats
    assert r_fast.returns == r_rescan.returns
    assert r_fast.total_messages == r_rescan.total_messages
    assert r_fast.total_words == r_rescan.total_words


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_schedulers_identical_traces(seed):
    """With tracing on, heap and rescan emit the same per-rank events.

    This pins the heap's traced runs (timings, kinds, labels, tags)
    against the reference event for event.
    """
    rng = np.random.default_rng(seed)
    ops = _build_schedule(rng, 4, 30, barriers=True)
    machine = MachineParams(ts=3.0, tw=2.0)
    r1 = Engine(FullyConnected(4), machine, trace=True, scheduler="heap").run(_factory_for(ops))
    r2 = Engine(FullyConnected(4), machine, trace=True, scheduler="rescan").run(_factory_for(ops))
    for rank in range(4):
        e1, e2 = r1.trace.for_rank(rank), r2.trace.for_rank(rank)
        assert [(e.start, e.end, e.kind, e.detail, e.tag) for e in e1] == [
            (e.start, e.end, e.kind, e.detail, e.tag) for e in e2
        ]


def _fault_plan(shape: str, seed: int) -> FaultPlan:
    """One of the fault-model shapes PR 4 introduced, deterministically keyed."""
    if shape == "crash":
        return FaultPlan(
            seed=seed, horizon=400.0, crash_times=((1, 37.0),),
            checkpoint_interval=50.0, checkpoint_cost=2.0, recovery_cost=5.0,
        )
    if shape == "straggler":
        return FaultPlan(seed=seed, horizon=400.0, straggler_rate=0.4, straggler_factor=2.5)
    if shape == "drop":
        return FaultPlan(seed=seed, horizon=400.0, drop_rate=0.25, timeout=9.0)
    return FaultPlan(
        seed=seed, horizon=400.0, degrade_rate=0.3, degrade_factor=1.8,
        drop_rate=0.15, timeout=6.0, crash_times=((0, 61.0),),
        checkpoint_interval=40.0, checkpoint_cost=1.0, recovery_cost=3.0,
    )


def _fault_fingerprint(res):
    return (
        res.parallel_time, res.stats, res.returns,
        res.total_messages, res.total_words,
        res.retransmits, res.faults_injected,
        res.checkpoint_time, res.recovery_time,
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    p=st.sampled_from([2, 4, 8]),
    nops=st.integers(min_value=5, max_value=50),
    shape=st.sampled_from(["crash", "straggler", "drop", "combined"]),
    traced=st.booleans(),
)
def test_heap_matches_rescan_under_faults(seed, p, nops, shape, traced):
    """Fault-active runs: heap is bit-identical to rescan, fault field by field.

    The recovery timeline (crashes, stragglers, drops/retransmits,
    checkpoints) must come out identical because the heap's exact
    regime charges every request through the same reference helpers,
    just in heap order.
    """
    rng = np.random.default_rng(seed)
    ops = _build_schedule(rng, p, nops, barriers=True)
    machine = MachineParams(ts=4.0, tw=1.5, th=0.25)
    plan = _fault_plan(shape, seed % 1000)
    r_heap = Engine(
        FullyConnected(p), machine, fault_plan=plan, trace=traced, scheduler="heap"
    ).run(_factory_for(ops))
    r_rescan = Engine(
        FullyConnected(p), machine, fault_plan=plan, trace=traced, scheduler="rescan"
    ).run(_factory_for(ops))
    assert _fault_fingerprint(r_heap) == _fault_fingerprint(r_rescan)
    if traced:
        for rank in range(p):
            e1 = r_heap.trace.for_rank(rank)
            e2 = r_rescan.trace.for_rank(rank)
            assert [(e.start, e.end, e.kind, e.detail) for e in e1] == [
                (e.start, e.end, e.kind, e.detail) for e in e2
            ]


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    p=st.sampled_from([2, 4, 8]),
    nops=st.integers(min_value=5, max_value=50),
)
def test_heap_matches_rescan_under_contention(seed, p, nops):
    """Link contention on a fully connected machine: heap == rescan.

    Single-hop routes make contention confluent (each directed link is
    fed by one sender in program order), so the heap's event order must
    reserve the same link windows the rescan reference does.
    """
    rng = np.random.default_rng(seed)
    ops = _build_schedule(rng, p, nops)
    machine = MachineParams(ts=4.0, tw=1.5)
    r_heap = Engine(
        FullyConnected(p), machine, link_contention=True, scheduler="heap"
    ).run(_factory_for(ops))
    r_rescan = Engine(
        FullyConnected(p), machine, link_contention=True, scheduler="rescan"
    ).run(_factory_for(ops))
    assert r_heap.parallel_time == r_rescan.parallel_time
    assert r_heap.stats == r_rescan.stats
    assert r_heap.returns == r_rescan.returns


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    p=st.sampled_from([4, 8, 32]),
    k=st.integers(min_value=1, max_value=4),
    all_port=st.booleans(),
    routing=st.sampled_from(["sf", "ct"]),
)
def test_sendall_exchange_bit_identical(seed, p, k, all_port, routing):
    """Neighbor exchanges through SendAll: heap == rescan.

    ``p = 32`` with ``k = 4`` destinations pushes the heap scheduler's
    batched SendAll charging onto its vectorized path; the smaller
    configurations stay on the scalar path — both must match the
    reference under one-port and all-port models.
    """
    rng = np.random.default_rng(seed)
    k = min(k, p - 1)  # SendAll destinations must be distinct
    offsets = [int(d) + 1 for d in rng.choice(p - 1, size=k, replace=False)]
    nwords = [int(w) for w in rng.integers(0, 30, size=k)]

    def prog(info):
        dsts = [(info.rank + d) % p for d in offsets]
        yield Compute(float((info.rank * 13) % 7))
        yield SendAll([
            Send(dst=dst, data=(info.rank, i), nwords=nwords[i], tag=info.rank * 10 + i)
            for i, dst in enumerate(dsts)
        ])
        got = []
        for i, d in enumerate(offsets):
            src = (info.rank - d) % p
            got.append((yield Recv(src=src, tag=src * 10 + i)))
        return got

    machine = MachineParams(ts=5.0, tw=1.3, th=0.2, routing=routing, all_port=all_port)
    results = {
        s: Engine(FullyConnected(p), machine, scheduler=s).run(
            [prog for _ in range(p)]
        )
        for s in ("heap", "rescan")
    }
    ref = results["rescan"]
    assert results["heap"].parallel_time == ref.parallel_time
    assert results["heap"].stats == ref.stats
    assert results["heap"].returns == ref.returns


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_trace_times_monotone_per_rank(seed):
    rng = np.random.default_rng(seed)
    ops = _build_schedule(rng, 4, 30)
    machine = MachineParams(ts=3.0, tw=2.0)
    res = Engine(FullyConnected(4), machine, trace=True).run(_factory_for(ops))
    for rank in range(4):
        events = res.trace.for_rank(rank)
        for a, b in zip(events, events[1:]):
            assert a.end <= b.start + 1e-9
        for e in events:
            assert e.start <= e.end
