"""The compiled (record→replay) scheduler: bit-identity and fallback rules.

The trace compiler's contract has two halves and both are load-bearing:

* when it engages, every observable of the run — ``T_p``, all per-rank
  accounts, message/word totals — must be **bit-identical** to the
  generator schedulers (heap and the rescan reference), because the
  replay path evaluates the exact same IEEE expressions via
  :mod:`repro.simulator.charging`;
* when the program is not provably rank-symmetric (position-dependent
  traffic, unsupported collectives, tracing/faults/contention), it must
  fall back to the heap scheduler **silently and correctly**, recording
  the reason in ``SimResult.compile_fallback``.

Driver-level cases run all six algorithms; program-level cases poke the
fallback taxonomy and fuzz random machine models (sf routing, per-hop
costs, all-port) against the reference.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.simulator.collectives as coll
import repro.simulator.engine as engine_mod
from repro.algorithms import registry
from repro.core.machine import MachineParams, NCUBE2_LIKE
from repro.simulator.compile import SymmetrySpec, compile_spmd
from repro.simulator.engine import Engine, RankInfo
from repro.simulator.faults import FaultPlan
from repro.simulator.request import (
    Barrier,
    Compute,
    Recv,
    Send,
    SendAll,
    SymCollective,
    SymRecv,
)
from repro.simulator.topology import FullyConnected, Hypercube, Mesh2D


def _assert_identical(compiled, reference, p):
    """Every observable of two SimResults, field for field, bitwise."""
    assert compiled.parallel_time == reference.parallel_time
    assert compiled.nprocs == reference.nprocs == p
    assert len(compiled.stats) == p
    for s_c, s_r in zip(compiled.stats, reference.stats):
        assert s_c == s_r, f"rank {s_r.rank} stats diverge"
    assert compiled.total_messages == reference.total_messages
    assert compiled.total_words == reference.total_words
    assert compiled.total_compute_time == reference.total_compute_time
    assert compiled.total_comm_time == reference.total_comm_time


# ---------------------------------------------------------------------------
# driver-level equivalence: all six algorithms
# ---------------------------------------------------------------------------

#: (key, n, p) — smallest instances that exercise each driver's traffic
DRIVER_CASES = [
    ("cannon", 16, 16),
    ("simple", 16, 16),
    ("fox", 16, 16),
    ("berntsen", 8, 8),
    ("dns", 4, 16),
    ("gk", 16, 8),
]


def _run_driver(key, n, p, scheduler):
    rng = np.random.default_rng((hash(key) & 0xFFFF, n))
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    return registry.run(key, A, B, p, machine=NCUBE2_LIKE, scheduler=scheduler)


@pytest.mark.parametrize("macro", [False, True], ids=["message-level", "macro"])
@pytest.mark.parametrize("key,n,p", DRIVER_CASES)
def test_compiled_matches_heap_and_rescan_on_drivers(key, n, p, macro, monkeypatch):
    if macro:
        monkeypatch.setattr(coll, "MACRO_GROUP_MIN", 2)
    res_c = _run_driver(key, n, p, "compiled")
    res_h = _run_driver(key, n, p, "heap")
    res_r = _run_driver(key, n, p, "rescan")
    _assert_identical(res_c.sim, res_h.sim, p)
    _assert_identical(res_c.sim, res_r.sim, p)
    if res_c.sim.compiled:
        assert res_c.sim.compile_fallback is None
    else:
        assert res_c.sim.compile_fallback
    # compiled or not, the product is the generator schedulers', bit for bit
    assert np.array_equal(res_c.C, res_h.C)
    assert np.array_equal(res_c.C, res_r.C)
    rng = np.random.default_rng((hash(key) & 0xFFFF, n))
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    np.testing.assert_allclose(res_c.C, A @ B, atol=1e-8 * n)


@pytest.mark.parametrize("key,n,p", DRIVER_CASES)
def test_compiled_engagement_matches_registry_annotation(key, n, p, monkeypatch):
    """With the macro path available, engagement == the library annotation.

    ``rank_symmetric`` advertises whether the default driver config
    compiles; the group-size cutoff is pinned to 2 so the small test
    grids take the same macro executors the 64k runs do.
    """
    monkeypatch.setattr(coll, "MACRO_GROUP_MIN", 2)
    res = _run_driver(key, n, p, "compiled")
    assert res.sim.compiled == registry.get(key).rank_symmetric, (
        res.sim.compile_fallback
    )


#: (driver, n, p): the drivers at a common size, GK at its native cube,
#: and the largest Fig. 5 points of both figure algorithms
BOUND_CASES = [
    ("cannon", 64, 64),
    ("simple", 64, 64),
    ("fox", 64, 64),
    ("berntsen", 64, 64),
    ("gk", 64, 512),
    ("gk-cm5", 264, 512),
    ("cannon-cm5", 440, 484),
]


@pytest.mark.parametrize("scheduler", ["compiled", "heap"])
@pytest.mark.parametrize("key,n,p", BOUND_CASES)
def test_words_moved_meet_the_communication_lower_bound(key, n, p, scheduler):
    """A check no scheduler can pass by agreeing with another one.

    Loomis-Whitney (Demmel et al., arXiv:1202.3177): a rank doing F of
    the n^3 multiply-adds touches at least 3*F^(2/3) words of A, B and
    C, so all it did not start with or keep must cross the network.
    With balanced shares, F = n^3/p and every rank starts with n^2/p
    words each of A and B and ends with n^2/p of C.  Summed over ranks
    that is a floor on the words received, and 2*total_words counts each
    message at its sender and at its receiver.
    """
    from repro.algorithms.cannon import run_cannon
    from repro.algorithms.gk import run_gk_cm5
    from repro.core.machine import CM5

    rng = np.random.default_rng((n, p))
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    if key == "gk-cm5":
        res = run_gk_cm5(A, B, p, machine=CM5, scheduler=scheduler)
    elif key == "cannon-cm5":
        res = run_cannon(A, B, p, machine=CM5, topology=FullyConnected(p),
                         scheduler=scheduler)
    else:
        res = registry.run(key, A, B, p, machine=NCUBE2_LIKE, scheduler=scheduler)
    flops = n**3 / p
    resident = n * n / p
    floor = p * (3 * flops ** (2 / 3) - 3 * resident)
    assert floor > 0
    assert 2 * res.sim.total_words >= floor


def test_cannon_p1024_compiled_bit_identical(monkeypatch):
    """A mid-scale point on the real 64k path (macro collectives active)."""
    monkeypatch.setattr(coll, "MACRO_GROUP_MIN", 2)
    res_c = _run_driver("cannon", 32, 1024, "compiled")
    res_h = _run_driver("cannon", 32, 1024, "heap")
    assert res_c.sim.compiled
    _assert_identical(res_c.sim, res_h.sim, 1024)
    assert np.array_equal(res_c.C, res_h.C)


@pytest.mark.parametrize("all_port", [False, True], ids=["one-port", "all-port"])
def test_cannon_overlap_shifts_compiled(all_port, monkeypatch):
    """SendAll replay: the all-port max-fold and one-port serialization."""
    from repro.algorithms.cannon import run_cannon

    machine = MachineParams(ts=30.0, tw=2.0, th=1.0, all_port=all_port, name="m")
    rng = np.random.default_rng(7)
    A = rng.standard_normal((16, 16))
    B = rng.standard_normal((16, 16))
    res_c = run_cannon(A, B, 16, machine=machine, overlap_shifts=True,
                       scheduler="compiled")
    res_h = run_cannon(A, B, 16, machine=machine, overlap_shifts=True,
                       scheduler="heap")
    assert res_c.sim.compiled
    _assert_identical(res_c.sim, res_h.sim, 16)
    assert np.array_equal(res_c.C, res_h.C)


def test_simple_on_mesh_ring_allgather_compiles():
    """The ring all-gather compiles at message level (no macro needed)."""
    from repro.algorithms.simple import run_simple

    rng = np.random.default_rng(3)
    A = rng.standard_normal((16, 16))
    B = rng.standard_normal((16, 16))
    topo = Mesh2D(4, 4)
    res_c = run_simple(A, B, 16, machine=NCUBE2_LIKE, topology=topo,
                       scheduler="compiled")
    res_h = run_simple(A, B, 16, machine=NCUBE2_LIKE, topology=topo,
                       scheduler="heap")
    assert res_c.sim.compiled, res_c.sim.compile_fallback
    _assert_identical(res_c.sim, res_h.sim, 16)


# ---------------------------------------------------------------------------
# program-level: fallback taxonomy
# ---------------------------------------------------------------------------


def _ring_spec(p):
    return SymmetrySpec(partitions={"ring": np.arange(p, dtype=np.int64)[None, :]})


def _ring_factories(p, nwords=10, tag=5):
    """Symmetric: every rank sends right, receives from the left."""

    def make(rank):
        def body(info: RankInfo):
            yield Compute(3.0)
            yield Send(dst=(rank + 1) % p, data=None, nwords=nwords, tag=tag)
            yield Recv(src=(rank - 1) % p, tag=tag)
            yield Barrier(label="done")
            return None

        return body

    return [make(r) for r in range(p)]


def _relay_factories(p, nwords=10, tag=5):
    """Asymmetric: a bucket-brigade line, every position behaves differently."""

    def make(rank):
        def body(info: RankInfo):
            if rank == 0:
                yield Send(dst=1, data=None, nwords=nwords, tag=tag)
            elif rank < p - 1:
                got = yield Recv(src=rank - 1, tag=tag)
                yield Send(dst=rank + 1, data=got, nwords=nwords, tag=tag)
            else:
                yield Recv(src=rank - 1, tag=tag)
            return rank

        return body

    return [make(r) for r in range(p)]


def test_rank_asymmetric_program_falls_back_bit_identically():
    """Acceptance criterion: the relay line is NOT rank-symmetric; the
    compiler must notice (probe traces diverge) and the heap fallback
    must agree with an explicit heap run on every field."""
    p = 16
    topo = Hypercube(4)
    res_c = Engine(topo, NCUBE2_LIKE, scheduler="compiled",
                   symmetry=_ring_spec(p)).run(_relay_factories(p))
    res_h = Engine(topo, NCUBE2_LIKE, scheduler="heap").run(_relay_factories(p))
    assert not res_c.compiled
    assert res_c.compile_fallback  # reason recorded
    _assert_identical(res_c, res_h, p)
    assert res_c.returns == list(range(p))  # real generators actually ran


def test_symmetric_program_compiles():
    p = 16
    topo = Hypercube(4)
    res_c = Engine(topo, NCUBE2_LIKE, scheduler="compiled",
                   symmetry=_ring_spec(p)).run(_ring_factories(p))
    res_h = Engine(topo, NCUBE2_LIKE, scheduler="heap").run(_ring_factories(p))
    assert res_c.compiled and res_c.compile_fallback is None
    assert res_c.arrays is not None
    assert res_c.returns == [None] * p
    _assert_identical(res_c, res_h, p)


@pytest.mark.parametrize(
    "kwargs,reason",
    [
        (dict(symmetry=None), "no SymmetrySpec"),
        (dict(trace=True), "tracing"),
        (dict(link_contention=True), "contention"),
        (dict(fault_plan=FaultPlan(seed=1)), "fault plan"),
    ],
)
def test_pre_probe_blockers_fall_back(kwargs, reason):
    p = 8
    topo = Hypercube(3)
    kwargs.setdefault("symmetry", _ring_spec(p))
    res = Engine(topo, NCUBE2_LIKE, scheduler="compiled", **kwargs).run(
        _ring_factories(p)
    )
    assert not res.compiled
    assert reason in res.compile_fallback


def _block_ring(p, arithmetic, return_partial=False):
    """A ring of 2x2 blocks: rank r starts with A[r] and B[r], multiplies
    them by *arithmetic*, rolls A one step, and returns its product
    (after the partial product it summed, with *return_partial*)."""
    rng = np.random.default_rng(p)
    a_stack = rng.standard_normal((p, 2, 2))
    b_stack = rng.standard_normal((p, 2, 2))
    own = np.arange(p)
    spec = SymmetrySpec(
        partitions={"ring": own[None, :]},
        inputs={"a": (a_stack, own), "b": (b_stack, own)},
    )

    def body(info: RankInfo):
        a, b = info.input("a"), info.input("b")
        yield Compute(8.0)
        c = arithmetic(info, a, b)
        yield Send(dst=(info.rank + 1) % p, data=a, nwords=4, tag=1)
        left = yield Recv(src=(info.rank - 1) % p, tag=1)
        total = c + left @ b
        return (c, total) if return_partial else total

    return body, spec


def _assert_same_returns(compiled, reference):
    assert len(compiled.returns) == len(reference.returns)
    for got, want in zip(compiled.returns, reference.returns):
        assert np.array_equal(got, want)


# returning the partial product checks that its last reader, the add,
# does not overwrite it
@pytest.mark.parametrize("return_partial", [False, True], ids=["sum", "partial-and-sum"])
def test_block_ring_payloads_compile(return_partial):
    p = 16
    program, spec = _block_ring(p, lambda info, a, b: a @ b, return_partial)
    res_c = Engine(Hypercube(4), NCUBE2_LIKE, scheduler="compiled",
                   symmetry=spec).run(program)
    res_h = Engine(Hypercube(4), NCUBE2_LIKE, scheduler="heap",
                   symmetry=spec).run(program)
    assert res_c.compiled, res_c.compile_fallback
    _assert_identical(res_c, res_h, p)
    _assert_same_returns(res_c, res_h)


@pytest.mark.parametrize(
    "arithmetic,reason",
    [
        # the operand order depends on the rank's position
        (lambda info, a, b: a @ b if info.rank % 2 else b @ a, "dataflow diverges"),
        # the program reads a payload value
        (lambda info, a, b: a @ b if float(a.sum()) > 0 else b @ a, "AttributeError"),
    ],
    ids=["position-dependent", "reads-values"],
)
def test_dataflow_that_is_not_symmetric_falls_back(arithmetic, reason):
    p = 16
    program, spec = _block_ring(p, arithmetic)
    res_c = Engine(Hypercube(4), NCUBE2_LIKE, scheduler="compiled",
                   symmetry=spec).run(program)
    res_h = Engine(Hypercube(4), NCUBE2_LIKE, scheduler="heap",
                   symmetry=spec).run(program)
    assert not res_c.compiled
    assert reason in res_c.compile_fallback
    _assert_identical(res_c, res_h, p)
    _assert_same_returns(res_c, res_h)


def test_uneven_partition_falls_back_with_reason():
    """Cannon at n = 30 on a 4x4 grid: blocks differ in shape, no stack."""
    rng = np.random.default_rng(5)
    A = rng.standard_normal((30, 30))
    B = rng.standard_normal((30, 30))
    from repro.algorithms.cannon import run_cannon

    res_c = run_cannon(A, B, 16, scheduler="compiled")
    res_h = run_cannon(A, B, 16, scheduler="heap")
    assert not res_c.sim.compiled
    assert "uneven" in res_c.sim.compile_fallback
    _assert_identical(res_c.sim, res_h.sim, 16)
    assert np.array_equal(res_c.C, res_h.C)


def test_malformed_symmetry_spec_raises():
    p = 8
    topo = Hypercube(3)
    bad = SymmetrySpec(
        partitions={"ring": np.arange(p - 1, dtype=np.int64)[None, :]}
    )
    with pytest.raises(ValueError):
        Engine(topo, NCUBE2_LIKE, scheduler="compiled", symmetry=bad).run(
            _ring_factories(p)
        )


def test_fallback_reruns_generators_fresh():
    """Recording probes must not consume the real factories' effects:
    after a fallback every rank's return value is intact."""
    p = 8
    res = Engine(Hypercube(3), NCUBE2_LIKE, scheduler="compiled",
                 symmetry=_ring_spec(p)).run(_relay_factories(p))
    assert res.returns == list(range(p))


# ---------------------------------------------------------------------------
# random-machine fuzz: the charging helpers under every cost regime
# ---------------------------------------------------------------------------


def _collective_program(seed):
    """Every lowered collective kind, over two 8-rank axes of a 16-rank machine.

    Each collective takes the rank's original block, so the trace stays
    rank-symmetric; the reduce-scatters cover odd and even flat lengths,
    whose recursive halves differ in size from rank to rank.
    """
    halves = [list(range(8)), list(range(8, 16))]
    strides = [list(range(0, 16, 2)), list(range(1, 16, 2))]
    k = 3 + seed % 4

    def body(info: RankInfo):
        half = halves[info.rank // 8]
        stride = strides[info.rank % 2]
        blk = np.ones(k)
        yield Compute(float(2 + seed))
        for offset in (1, 3, len(half) - 1):
            yield from coll.shift_cyclic(info, half, offset, blk, tag=10 + offset)
        yield from coll.allgather_ring(info, stride, blk, tag=20)
        yield from coll.allgather_recursive_doubling(
            info, half, blk, nwords=k + seed, tag=21
        )
        for size in (5, 7, 13, 64):
            yield from coll.reduce_scatter_halving(
                info, stride, np.ones(size), tag=30 + size,
                charge_adds=bool((seed + size) % 2),
            )
        return None

    symmetry = SymmetrySpec(partitions={
        "half": np.asarray(halves, dtype=np.int64),
        "stride": np.asarray(strides, dtype=np.int64),
    })
    return body, symmetry


@pytest.mark.parametrize("seed", range(6))
def test_compiled_fuzz_random_machines(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    machine = MachineParams(
        ts=float(rng.uniform(1, 200)),
        tw=float(rng.uniform(0.1, 8)),
        th=float(rng.uniform(0, 5)),
        routing=("ct", "sf")[seed % 2],
        all_port=bool(seed % 3 == 0),
        name=f"fuzz{seed}",
    )
    p = 16
    topo = (Hypercube(4), FullyConnected(16), Mesh2D(4, 4))[seed % 3]

    def make(rank):
        def body(info: RankInfo):
            yield Compute(float(5 + seed))
            yield SendAll([
                Send(dst=(rank + 1) % p, data=None, nwords=17, tag=1),
                Send(dst=(rank - 1) % p, data=None, nwords=9, tag=2),
            ])
            yield Recv(src=(rank - 1) % p, tag=1)
            yield Recv(src=(rank + 1) % p, tag=2)
            yield Barrier(label="b")
            yield Send(dst=(rank + 3) % p, data=None, nwords=33, tag=3)
            yield Recv(src=(rank - 3) % p, tag=3)
            return None

        return body

    factories = [make(r) for r in range(p)]
    res_c = Engine(topo, machine, scheduler="compiled",
                   symmetry=_ring_spec(p)).run(factories)
    res_h = Engine(topo, machine, scheduler="heap").run(factories)
    res_r = Engine(topo, machine, scheduler="rescan").run(factories)
    assert res_c.compiled, res_c.compile_fallback
    _assert_identical(res_c, res_h, p)
    _assert_identical(res_c, res_r, p)

    # the lowered collectives: compiled replays their send/receive rounds,
    # heap runs the per-group macro executors, rescan the message-level
    # reference
    monkeypatch.setattr(coll, "MACRO_GROUP_MIN", 2)
    program, symmetry = _collective_program(seed)
    res_c = Engine(topo, machine, scheduler="compiled", symmetry=symmetry).run(program)
    res_h = Engine(topo, machine, scheduler="heap").run(program)
    res_r = Engine(topo, machine, scheduler="rescan").run(program)
    assert res_c.compiled, res_c.compile_fallback
    _assert_identical(res_c, res_h, p)
    _assert_identical(res_c, res_r, p)


@pytest.mark.parametrize("macro", [False, True], ids=["message-level", "macro"])
def test_replay_drops_arrival_vectors(macro, monkeypatch):
    """A send's arrival vector lives only until its receive has read it.

    Keeping one per send would hold 510 x 512 KB at 64k ranks; here every
    matched send of a replayed p = 1024 Cannon schedule must be empty.
    """
    if macro:
        monkeypatch.setattr(coll, "MACRO_GROUP_MIN", 2)
    schedules = []

    def keep(*args, **kwargs):
        schedules.append(compile_spmd(*args, **kwargs))
        return schedules[-1]

    monkeypatch.setattr(engine_mod, "compile_spmd", keep)
    res = _run_driver("cannon", 32, 1024, "compiled")
    assert res.sim.compiled, res.sim.compile_fallback
    (schedule,) = schedules
    recvs = [
        ph
        for top in schedule.phases
        for ph in (top.phases if isinstance(top, SymCollective) else (top,))
        if isinstance(ph, SymRecv)
    ]
    assert len(recvs) == 2 * 31  # one per roll of A and of B
    assert all(ph.source.arrival is None for ph in recvs)


# ---------------------------------------------------------------------------
# satellite: SimResult totals are numpy reductions pinned to per-rank views
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheduler", ["ready", "rescan", "heap", "compiled"])
def test_totals_match_per_rank_stats(scheduler, monkeypatch):
    monkeypatch.setattr(coll, "MACRO_GROUP_MIN", 2)
    res = _run_driver("cannon", 16, 16, scheduler)
    sim = res.sim
    # int totals: exact equality against the Python sum over the views
    assert sim.total_messages == sum(s.messages_sent for s in sim.stats)
    assert sim.total_words == sum(s.words_sent for s in sim.stats)
    # float totals: the reduction must agree with the per-rank accounts
    assert sim.total_compute_time == pytest.approx(
        sum(s.compute_time for s in sim.stats), rel=1e-12
    )
    assert sim.total_comm_time == pytest.approx(
        sum(s.send_time + s.recv_wait_time + s.barrier_wait_time for s in sim.stats),
        rel=1e-12,
    )
    # every scheduler path now exposes its RankArrays
    assert sim.arrays is not None
    assert sim.arrays.nprocs == 16


def test_totals_fall_back_to_python_sums_without_arrays():
    res = _run_driver("cannon", 16, 16, "heap")
    sim = res.sim
    with_arrays = (sim.total_messages, sim.total_words,
                   sim.total_compute_time, sim.total_comm_time)
    sim.arrays = None
    assert sim.total_messages == with_arrays[0]
    assert sim.total_words == with_arrays[1]
    assert sim.total_compute_time == pytest.approx(with_arrays[2], rel=1e-12)
    assert sim.total_comm_time == pytest.approx(with_arrays[3], rel=1e-12)
