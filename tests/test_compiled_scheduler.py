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

import operator
import zlib

import numpy as np
import pytest

import repro.simulator.collectives as coll
import repro.simulator.engine as engine_mod
from repro.algorithms import registry
from repro.algorithms.base import grid_layout
from repro.core.machine import MachineParams, NCUBE2_LIKE
from repro.simulator.compile import CompileFallback, SymmetrySpec, _build_axes, compile_spmd
from repro.simulator.engine import Engine, RankInfo
from repro.simulator.faults import FaultPlan
from repro.simulator.request import (
    Barrier,
    CollectiveOp,
    Compute,
    Recv,
    Send,
    SendAll,
    SymCollective,
    SymRecv,
    SymSend,
)
from repro.simulator.topology import FullyConnected, Hypercube, Mesh2D
from repro.simulator.trace import RankArrays


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

#: (key, n, p) — smallest instances that exercise each driver's traffic;
#: DNS at p = 16 is the block form, at p = 64 the one-element cube program
EVEN_CASES = [
    ("cannon", 16, 16),
    ("simple", 16, 16),
    ("fox", 16, 16),
    ("berntsen", 8, 8),
    ("dns", 4, 16),
    ("dns", 4, 64),
    ("gk", 16, 8),
]

#: (key, n, p, fallback) — each driver at an uneven partition (n not a
#: multiple of the grid or cube side; both DNS forms need r | n, so DNS
#: has none), with why it falls back, or None where it compiles
UNEVEN_CASES = [
    ("cannon", 18, 16, None),
    ("simple", 18, 16, "'allgather_rd' of a block whose size differs"),
    ("fox", 18, 16, "no SymmetrySpec"),
    ("berntsen", 9, 8, "'reduce_scatter' of a block whose size differs"),
    # a 4-cube: broadcast rounds forward from non-roots, at the root's size
    ("gk", 18, 64, None),
]

DRIVER_CASES = EVEN_CASES + [case[:3] for case in UNEVEN_CASES]


def _operands(key, n):
    # a stable seed: str hashes are salted per process
    rng = np.random.default_rng((zlib.crc32(key.encode()), n))
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


def _run_driver(key, n, p, scheduler, machine=NCUBE2_LIKE):
    A, B = _operands(key, n)
    return registry.run(key, A, B, p, machine=machine, scheduler=scheduler)


def _check_driver(key, n, p, machine=NCUBE2_LIKE):
    """Compiled, heap and rescan agree bit for bit; returns the compiled run."""
    res_c = _run_driver(key, n, p, "compiled", machine)
    res_h = _run_driver(key, n, p, "heap", machine)
    res_r = _run_driver(key, n, p, "rescan", machine)
    _assert_identical(res_c.sim, res_h.sim, p)
    _assert_identical(res_c.sim, res_r.sim, p)
    if res_c.sim.compiled:
        assert res_c.sim.compile_fallback is None
    else:
        assert res_c.sim.compile_fallback
    # compiled or not, the product is the generator schedulers', bit for bit
    assert np.array_equal(res_c.C, res_h.C)
    assert np.array_equal(res_c.C, res_r.C)
    A, B = _operands(key, n)
    np.testing.assert_allclose(res_c.C, A @ B, atol=1e-8 * n)
    return res_c


@pytest.mark.parametrize("key,n,p", DRIVER_CASES)
def test_compiled_matches_heap_and_rescan_on_drivers(key, n, p):
    _check_driver(key, n, p)


#: machine models whose charges depend on more than ``ts + tw*m``: per-hop
#: costs under store-and-forward and cut-through routing (multi-hop
#: routes on the drivers' meshes and cubes), and all-port injection
MACHINE_MODELS = [
    MachineParams(ts=40.0, tw=2.5, th=7.0, routing="sf", name="sf-hops"),
    MachineParams(ts=25.0, tw=1.5, th=3.0, all_port=True, name="ct-all-port"),
]


@pytest.mark.parametrize("machine", MACHINE_MODELS, ids=lambda m: m.name)
@pytest.mark.parametrize("key,n,p", DRIVER_CASES)
def test_compiled_matches_heap_and_rescan_across_machine_models(key, n, p, machine):
    res_c = _check_driver(key, n, p, machine)
    # whether a driver compiles is a property of its program, not of the
    # cost constants it is charged with
    expected = _run_driver(key, n, p, "compiled")
    assert res_c.sim.compiled == expected.sim.compiled
    assert res_c.sim.compile_fallback == expected.sim.compile_fallback


@pytest.mark.parametrize("key,n,p", EVEN_CASES)
def test_compiled_engagement_matches_registry_annotation(key, n, p):
    """Engagement == the library annotation.

    ``rank_symmetric`` advertises whether the default driver config
    compiles.
    """
    res = _run_driver(key, n, p, "compiled")
    # the registry's dns entry describes its block form (p < n^3); the
    # one-element form is the cube program GK runs, which compiles
    expected = registry.get(key).rank_symmetric or (key == "dns" and p == n**3)
    assert res.sim.compiled == expected, res.sim.compile_fallback


@pytest.mark.parametrize("key,n,p,fallback", UNEVEN_CASES)
def test_uneven_partitions_compile_or_say_why(key, n, p, fallback):
    """Cannon and GK compile at uneven partitions; all-gathers and
    reduce-scatters of blocks whose size varies within a group do not."""
    res = _run_driver(key, n, p, "compiled")
    assert res.sim.compiled == (fallback is None), res.sim.compile_fallback
    if fallback is not None:
        assert fallback in res.sim.compile_fallback


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
    # a compiled case must not pass on a silent heap fallback; Fox's
    # default ring broadcast forwards by position and runs on heap
    assert res.sim.compiled == (scheduler == "compiled" and key != "fox"), (
        res.sim.compile_fallback
    )


def test_cannon_p1024_compiled_bit_identical():
    """A mid-scale point on the real 64k path."""
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
    """Simple on a mesh all-gathers on a ring, which compiles too."""
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


def _ungroupable_spec(p):
    """The ring, with an input list whose blocks differ in dtype."""
    blocks = [np.ones((2, 2), dtype=np.float64 if r % 2 else np.float32) for r in range(p)]
    return SymmetrySpec(
        partitions={"ring": np.arange(p, dtype=np.int64)[None, :]},
        inputs={"a": (blocks, np.arange(p))},
    )


@pytest.mark.parametrize(
    "kwargs,reason",
    [
        (dict(symmetry=None), "no SymmetrySpec"),
        (dict(trace=True), "tracing"),
        (dict(link_contention=True), "contention"),
        (dict(fault_plan=FaultPlan(seed=1)), "fault plan"),
        (dict(symmetry=_ungroupable_spec(8)), "cannot be grouped into stacks"),
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


def test_uneven_partition_compiles_bit_identically():
    """Cannon at n = 30 on a 4x4 grid: blocks of 8 or 7 rows and columns,
    evaluated on one stack per shape, bit for bit heap's and rescan's."""
    rng = np.random.default_rng(5)
    A = rng.standard_normal((30, 30))
    B = rng.standard_normal((30, 30))
    from repro.algorithms.cannon import run_cannon

    res_c = run_cannon(A, B, 16, scheduler="compiled")
    res_h = run_cannon(A, B, 16, scheduler="heap")
    res_r = run_cannon(A, B, 16, scheduler="rescan")
    assert res_c.sim.compiled, res_c.sim.compile_fallback
    _assert_identical(res_c.sim, res_h.sim, 16)
    _assert_identical(res_c.sim, res_r.sim, 16)
    assert np.array_equal(res_c.C, res_h.C)
    assert np.array_equal(res_c.C, res_r.C)


def _uneven_ring(p, rows, case):
    """A ring whose A blocks have ``rows[r % len(rows)]`` rows at rank r
    (a list input, so the row count is an extent) and whose B blocks are
    one 3x3 stack.  *case* picks what the program does with them."""
    rng = np.random.default_rng((p, len(rows)))
    a_blocks = [rng.standard_normal((rows[r % len(rows)], 3)) for r in range(p)]
    own = np.arange(p)
    spec = SymmetrySpec(
        partitions={"ring": own[None, :]},
        inputs={"a": (a_blocks, own), "b": (rng.standard_normal((p, 3, 3)), own)},
    )
    ring = own.tolist()

    def body(info: RankInfo):
        a, b = info.input("a"), info.input("b")
        if case == "int":
            yield Compute(float(int(a.shape[0])))
        elif case == "branch" and a.shape[0] > 1:
            yield Compute(1.0)
        elif case == "negative":
            yield Compute(2.0 - a.shape[0])
        if case == "reduce":
            total = yield from coll.reduce_binomial(info, ring, 0, a, tag=2)
            return total
        yield Compute(9.0 * a.shape[0])
        yield Send(dst=(info.rank + 1) % p, data=a, nwords=a.size, tag=1)
        left = yield Recv(src=(info.rank - 1) % p, tag=1)
        if case == "add":
            return a + left
        # sizes and costs from extents come back as the reference's numbers
        return left @ b, left.size, 1.0 * left.shape[0] * 3
    return body, spec


def test_uneven_ring_compiles_sizes_and_products():
    p = 8
    program, spec = _uneven_ring(p, (2, 3, 3, 5), "ok")
    res_c = Engine(Hypercube(3), NCUBE2_LIKE, scheduler="compiled", symmetry=spec).run(program)
    res_h = Engine(Hypercube(3), NCUBE2_LIKE, scheduler="heap", symmetry=spec).run(program)
    res_r = Engine(Hypercube(3), NCUBE2_LIKE, scheduler="rescan", symmetry=spec).run(program)
    assert res_c.compiled, res_c.compile_fallback
    _assert_identical(res_c, res_h, p)
    _assert_identical(res_c, res_r, p)
    for (c, size, cost), (c_h, size_h, cost_h) in zip(res_c.returns, res_h.returns):
        assert np.array_equal(c, c_h)
        assert (size, cost) == (size_h, cost_h)
        assert (type(size), type(cost)) == (int, float)


# rows 1 and 3 alternate: heap's numpy broadcasts (1, 3) + (3, 3), but
# the traced + and the reduce demand one shape at every rank
@pytest.mark.parametrize(
    "case,reason",
    [
        ("int", "differs from rank to rank"),
        ("branch", "differs from rank to rank"),
        ("add", "the operands of a traced + differ in shape at some ranks"),
        ("reduce", "the members of a reduce differ in shape at some ranks"),
    ],
)
def test_uneven_programs_that_do_not_compile_fall_back(case, reason):
    p = 8
    program, spec = _uneven_ring(p, (1, 3), case)
    res_c = Engine(Hypercube(3), NCUBE2_LIKE, scheduler="compiled", symmetry=spec).run(program)
    res_h = Engine(Hypercube(3), NCUBE2_LIKE, scheduler="heap", symmetry=spec).run(program)
    assert not res_c.compiled
    assert reason in res_c.compile_fallback
    _assert_identical(res_c, res_h, p)
    for got, want in zip(res_c.returns, res_h.returns):
        got, want = (got, want) if isinstance(want, tuple) else ((got,), (want,))
        for x, y in zip(got, want):
            assert (x is None) == (y is None)
            assert y is None or np.array_equal(x, y)


def test_a_cost_negative_at_some_ranks_falls_back():
    """Heap raises where a rank's cost is negative; compiling must not hide it."""
    p = 8
    program, spec = _uneven_ring(p, (1, 3), "negative")
    topo = Hypercube(3)
    with pytest.raises(CompileFallback, match="negative at some ranks"):
        compile_spmd(
            [program] * p, topo, NCUBE2_LIKE, spec,
            make_info=lambda r, inputs: RankInfo(
                rank=r, nprocs=p, topology=topo, machine=NCUBE2_LIKE,
                inputs=inputs, recording=True,
            ),
        )
    for scheduler in ("compiled", "heap"):
        with pytest.raises(ValueError, match="non-negative"):
            Engine(topo, NCUBE2_LIKE, scheduler=scheduler, symmetry=spec).run(program)


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1, 2, 3], [4, 5, 6, 6]],
        [[-1, 1, 2, 3], [4, 5, 6, 7]],
        [[8, 1, 2, 3], [4, 5, 6, 7]],
        np.arange(7)[None, :],
        [[0, 1, 2, 3, 4], [5, 6, 7, 0, 1]],
        np.arange(8),
        np.arange(8).reshape(2, 2, 2),
    ],
    ids=["duplicate", "rank-minus-one", "rank-p", "too-few", "too-many", "1-d", "3-d"],
)
def test_malformed_symmetry_spec_raises(rows):
    p = 8
    topo = Hypercube(3)
    bad = SymmetrySpec(partitions={"ring": np.asarray(rows, dtype=np.int64)})
    with pytest.raises(ValueError, match="rows partition ranks 0..7"):
        Engine(topo, NCUBE2_LIKE, scheduler="compiled", symmetry=bad).run(
            _ring_factories(p)
        )


def test_a_transposed_axis_builds_the_same_axis_as_its_copy():
    """The grid drivers pass a layout's transpose, a view, as their column axis."""
    lay = np.asarray(grid_layout(Hypercube(5), 4, 8, scheme="gray"))
    assert not lay.T.flags.c_contiguous
    (got,) = _build_axes(SymmetrySpec(partitions={"col": lay.T}), 32).values()
    (want,) = _build_axes(SymmetrySpec(partitions={"col": lay.T.copy()}), 32).values()
    assert (got.name, got.g) == (want.name, want.g) == ("col", 4)
    for field in ("mat", "pos", "row"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def test_a_collective_posted_by_hand_on_untraced_data_falls_back():
    """Only the helpers post a CollectiveOp, and only for traced payloads;
    one a program yields itself with plain data is not compiled."""
    p = 8
    topo = Hypercube(3)

    def program(info):
        yield CollectiveOp(kind="shift", group=list(range(p)), data=np.ones(2), offset=1)

    with pytest.raises(CompileFallback, match="untraced payload"):
        compile_spmd(
            [program] * p, topo, NCUBE2_LIKE, _ring_spec(p),
            make_info=lambda r, inputs: RankInfo(
                rank=r, nprocs=p, topology=topo, machine=NCUBE2_LIKE,
                inputs=inputs, recording=True,
            ),
        )


def _shift_around(p, partitions, group_of, rounds=1, reverse=False):
    """Every rank shifts its 2x2 block one step around ``group_of(rank)``,
    a list of its own, *rounds* times and returns what it received last;
    with *reverse* it reverses that list each time a shift has returned."""
    own = np.arange(p)
    spec = SymmetrySpec(
        partitions={name: np.asarray(rows, dtype=np.int64) for name, rows in partitions.items()},
        inputs={"a": (np.random.default_rng(p).standard_normal((p, 2, 2)), own)},
    )

    def body(info: RankInfo):
        group = group_of(info.rank)
        got = info.input("a")
        for t in range(rounds):
            got = yield from coll.shift_cyclic(info, group, 1, got, tag=3 + t)
            if reverse:
                group.reverse()
        yield Compute(1.0)
        return got

    return body, spec


def _compiled_and_heap(p, program, spec):
    topo = FullyConnected(p)
    res_c = Engine(topo, NCUBE2_LIKE, scheduler="compiled", symmetry=spec).run(program)
    res_h = Engine(topo, NCUBE2_LIKE, scheduler="heap", symmetry=spec).run(program)
    _assert_identical(res_c, res_h, p)
    _assert_same_returns(res_c, res_h)
    return res_c


@pytest.mark.parametrize(
    "group_of",
    [
        # the ranks of one parity: no row of the axis
        lambda r: list(range(r % 2, 8, 2)),
        # the members of the rank's row, in reverse order
        lambda r: list(range(r // 4 * 4 + 3, r // 4 * 4 - 1, -1)),
    ],
    ids=["no-row", "row-reordered"],
)
def test_a_group_that_is_no_axis_row_falls_back(group_of):
    program, spec = _shift_around(8, {"half": [[0, 1, 2, 3], [4, 5, 6, 7]]}, group_of)
    res = _compiled_and_heap(8, program, spec)
    assert not res.compiled
    assert "collective 'shift' group is not a symmetry-axis row" in res.compile_fallback


def test_a_group_compiles_on_the_axis_every_probe_matches():
    """At ranks 0 and 1 the group [0, 1] is a row of both axes; at ranks 2
    and 3 the group [2, 3] is a row of "b" only ("a" has [3, 2])."""
    program, spec = _shift_around(
        4, {"a": [[0, 1], [3, 2]], "b": [[0, 1], [2, 3]]}, lambda r: [0, 1] if r < 2 else [2, 3]
    )
    res = _compiled_and_heap(4, program, spec)
    assert res.compiled, res.compile_fallback


@pytest.mark.parametrize("rounds", [1, 2])
def test_a_group_rewritten_after_its_collective_keeps_the_posted_schedule(rounds):
    """The first shift compiles on the row it posted; a second one posts
    the reversed list, which is no axis row."""
    program, spec = _shift_around(
        8, {"ring": [list(range(8))]}, lambda r: list(range(8)), rounds, reverse=True
    )
    res = _compiled_and_heap(8, program, spec)
    if rounds == 1:
        assert res.compiled, res.compile_fallback
    else:
        assert not res.compiled
        assert "step 1: collective 'shift' group is not a symmetry-axis row" in res.compile_fallback


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


#: The flat lengths of the fuzz's reduce-scatters: odd and even, so the
#: recursive halves differ in size from rank to rank.
_RS_SIZES = (5, 7, 13, 64)


def _collective_program(seed):
    """Every lowered collective kind, over two 8-rank axes of a 16-rank machine.

    Each collective takes one of the rank's declared input blocks (read
    with ``info.input``, so probes hold traced stand-ins and post every
    collective), and the trace stays rank-symmetric; the reduce-scatters
    cover odd and even flat lengths.
    """
    p = 16
    halves = [list(range(8)), list(range(8, 16))]
    strides = [list(range(0, 16, 2)), list(range(1, 16, 2))]
    k = 3 + seed % 4
    rng = np.random.default_rng((7, seed))
    own = np.arange(p)
    inputs = {"blk": (rng.standard_normal((p, k)), own)}
    for size in _RS_SIZES:
        inputs[f"rs{size}"] = (rng.standard_normal((p, size)), own)

    def body(info: RankInfo):
        half = halves[info.rank // 8]
        stride = strides[info.rank % 2]
        blk = info.input("blk")
        yield Compute(float(2 + seed))
        for offset in (1, 3, len(half) - 1):
            yield from coll.shift_cyclic(info, half, offset, blk, tag=10 + offset)
        yield from coll.allgather_ring(info, stride, blk, tag=20)
        yield from coll.allgather_recursive_doubling(
            info, half, blk, nwords=k + seed, tag=21
        )
        for size in _RS_SIZES:
            yield from coll.reduce_scatter_halving(
                info, stride, info.input(f"rs{size}"), tag=30 + size,
                charge_adds=bool((seed + size) % 2),
            )
        return None

    symmetry = SymmetrySpec(
        partitions={
            "half": np.asarray(halves, dtype=np.int64),
            "stride": np.asarray(strides, dtype=np.int64),
        },
        inputs=inputs,
    )
    return body, symmetry


@pytest.mark.parametrize("seed", range(6))
def test_compiled_fuzz_random_machines(seed):
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
    # heap and rescan run the message-level helpers
    program, symmetry = _collective_program(seed)
    res_c = Engine(topo, machine, scheduler="compiled", symmetry=symmetry).run(program)
    res_h = Engine(topo, machine, scheduler="heap", symmetry=symmetry).run(program)
    res_r = Engine(topo, machine, scheduler="rescan", symmetry=symmetry).run(program)
    assert res_c.compiled, res_c.compile_fallback
    _assert_identical(res_c, res_h, p)
    _assert_identical(res_c, res_r, p)


# ---------------------------------------------------------------------------
# rooted collectives: masked rounds around roots a position law gives
# ---------------------------------------------------------------------------


def _grid_spec(rows, g, shape, seed):
    """A rows x g grid, rank = row * g + col: axis "row" holds the groups,
    axis "col" the columns (a rank's position there is its row).  Every
    rank starts with its own two blocks; rows 0 and 1 probe in full, so
    every root of every law has a probe holding its block."""
    p = rows * g
    rng = np.random.default_rng(seed)
    own = np.arange(p)
    grid = own.reshape(rows, g)
    spec = SymmetrySpec(
        partitions={"row": grid, "col": grid.T.copy()},
        inputs={
            "a": (rng.standard_normal((p,) + shape), own),
            "b": (rng.standard_normal((p,) + shape), own),
        },
        extra_probes=tuple(range(min(2, rows) * g)),
    )
    return spec, grid.tolist()


def _law(kind, c, g):
    """A root position per grid row: constant, or the row plus a constant."""
    return (lambda row: c % g) if kind == "const" else (lambda row: (row + c) % g)


def _rooted_program(groups, g, laws, relay, nwords, reuse_product, default_op=False):
    bcast_root, reduce_root, src, dst = laws
    # reduce_binomial's default op is operator.add
    op = {} if default_op else {"op": operator.add}

    def body(info: RankInfo):
        row, col = divmod(info.rank, g)
        group = groups[row]
        a, b = info.input("a"), info.input("b")
        yield Compute(3.0)
        root = bcast_root(row)
        got = yield from coll.bcast_binomial(
            info, group, root, a if col == root else None, nwords=nwords, tag=1
        )
        yield Compute(float(a.size))
        c = got @ b
        total = yield from coll.reduce_binomial(
            info, group, reduce_root(row), c, tag=2, charge_op=lambda x: 0.5 * x.size, **op
        )
        # an allreduce: the reduce's roots broadcast its sums
        summed = yield from coll.bcast_binomial(info, group, reduce_root(row), total, tag=3)
        # a product the reduce alone reads is computed inside it; one
        # read again is a stack of its own
        payload = (c if reuse_product else a) + summed
        moved = yield from coll.route(
            info, group, src(row), dst(row), payload, nwords=a.size, tag=4, relay=relay
        )
        return total, moved

    return body


def _assert_same_optional_returns(compiled, reference):
    assert len(compiled.returns) == len(reference.returns)
    for got, want in zip(compiled.returns, reference.returns):
        for x, y in zip(got, want):
            assert (x is None) == (y is None)
            if x is not None:
                assert np.array_equal(x, y)


@pytest.mark.parametrize("seed", range(8))
def test_rooted_collectives_compile_bit_identically(seed):
    """bcast, reduce and route (direct and relay) on random machines,
    group sizes (non-powers of two too) and root laws of both kinds."""
    _check_rooted(seed, default_op=False)


@pytest.mark.parametrize("seed", range(4))
def test_reduce_with_the_default_op_compiles(seed):
    """reduce_binomial's default op is a plain add: compiled runs match
    heap and rescan with it."""
    _check_rooted(seed, default_op=True)


def _check_rooted(seed, default_op):
    rng = np.random.default_rng(100 + seed)
    relay = seed % 4 == 3
    g = int(rng.choice([4, 8])) if relay else int(rng.choice([2, 3, 5, 6, 7, 8]))
    rows = int(rng.integers(1, 4)) if seed else 1
    p = rows * g
    machine = MachineParams(
        ts=float(rng.uniform(1, 200)),
        tw=float(rng.uniform(0.1, 8)),
        th=float(rng.uniform(0, 5)),
        routing=("ct", "sf")[seed % 2],
        all_port=bool(seed % 3 == 0),
        name=f"rooted{seed}",
    )
    if relay:
        # rank = row * g + col with g a power of two: relay hops stay in the row
        topo = Hypercube(p.bit_length() - 1) if p & (p - 1) == 0 and seed == 3 else Mesh2D(rows, g)
    else:
        topo = FullyConnected(p) if seed % 2 else Mesh2D(rows, g)
    kinds = ("const", "row")
    laws = tuple(
        _law(kinds[int(rng.integers(2))], int(rng.integers(g)), g) for _ in range(4)
    )
    nwords = None if seed % 3 else 7
    spec, groups = _grid_spec(rows, g, (2, 2), seed)
    program = _rooted_program(
        groups, g, laws, relay, nwords, reuse_product=bool(seed % 2), default_op=default_op
    )
    res_c = Engine(topo, machine, scheduler="compiled", symmetry=spec).run(program)
    res_h = Engine(topo, machine, scheduler="heap", symmetry=spec).run(program)
    res_r = Engine(topo, machine, scheduler="rescan", symmetry=spec).run(program)
    assert res_c.compiled, res_c.compile_fallback
    _assert_identical(res_c, res_h, p)
    _assert_identical(res_c, res_r, p)
    _assert_same_optional_returns(res_c, res_h)


def _fallback_program(case, groups, g):
    def body(info: RankInfo):
        row = info.rank // g
        group = groups[row]
        a, b = info.input("a"), info.input("b")
        if case == "route-arithmetic":
            moved = yield from coll.route(info, group, 0, 1, a, nwords=a.size, tag=4)
            return moved + b
        root = (row * 2) % g if case == "no-law" else 0
        op = (lambda x, y: x @ y) if case == "not-add" else operator.add
        total = yield from coll.reduce_binomial(info, group, root, a @ b, op=op, tag=2)
        if case == "root-branch" and total is not None:
            yield Compute(1.0)
        return total

    return body


@pytest.mark.parametrize(
    "case,reason",
    [
        ("root-branch", "probe traces diverge"),
        ("no-law", "no position law explains the reduce's"),
        ("not-add", "is not a plain add"),
    ],
)
def test_rooted_programs_that_do_not_compile_fall_back(case, reason):
    rows, g = 3, 5
    spec, groups = _grid_spec(rows, g, (2, 2), 7)
    program = _fallback_program(case, groups, g)
    res_c = Engine(FullyConnected(rows * g), NCUBE2_LIKE, scheduler="compiled",
                   symmetry=spec).run(program)
    res_h = Engine(FullyConnected(rows * g), NCUBE2_LIKE, scheduler="heap",
                   symmetry=spec).run(program)
    assert not res_c.compiled
    assert reason in res_c.compile_fallback
    _assert_identical(res_c, res_h, rows * g)
    assert [x is None for x in res_c.returns] == [x is None for x in res_h.returns]
    for got, want in zip(res_c.returns, res_h.returns):
        if want is not None:
            assert np.array_equal(got, want)


def test_arithmetic_on_a_route_result_at_non_targets_falls_back():
    """Heap raises on the None a non-target holds; compiling must not hide it."""
    rows, g = 2, 4
    spec, groups = _grid_spec(rows, g, (2, 2), 8)
    program = _fallback_program("route-arithmetic", groups, g)
    topo = FullyConnected(rows * g)
    with pytest.raises(CompileFallback, match="raised TypeError"):
        compile_spmd(
            [program] * (rows * g), topo, NCUBE2_LIKE, spec,
            make_info=lambda r, inputs: RankInfo(
                rank=r, nprocs=rows * g, topology=topo, machine=NCUBE2_LIKE,
                inputs=inputs, recording=True,
            ),
        )
    for scheduler in ("compiled", "heap"):
        with pytest.raises(TypeError):
            Engine(topo, NCUBE2_LIKE, scheduler=scheduler, symmetry=spec).run(program)


#: (blocks, side) of every GK point the paper pipeline compiles: Fig. 4
#: at p = 64, ``scaling``'s fixed-size curve, and Fig. 5's even points
STACKED_BLOCKS = [
    *((64, n // 4) for n in (8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 160, 192)),
    (8, 24), (64, 12), (512, 6),
    *((512, n // 8) for n in (88, 176, 264, 352, 440)),
]

#: (n, side) of every uneven partition the paper pipeline compiles: GK's
#: Fig. 5 points on the 8-cube, ``iso_gk`` (cube sides 2, 4, 8) and
#: ``iso_cannon`` (grid sides 2, 4, 8).  Their blocks are q or q + 1 wide,
#: q = n // side, so a class product is any (rows, inner, cols) triple
#: of the two.
UNEVEN_POINTS = [
    *((n, 8) for n in (44, 66, 110, 132, 220, 308)),
    (15, 2), (47, 4), (130, 8),
    (9, 2), (17, 4), (34, 8),
]
CLASS_TRIPLES = sorted(
    {
        (r, k, c)
        for n, side in UNEVEN_POINTS
        for r in (n // side, n // side + 1)
        for k in (n // side, n // side + 1)
        for c in (n // side, n // side + 1)
    }
)


@pytest.mark.parametrize(
    "count,b",
    [
        *STACKED_BLOCKS,
        # one stack per class, of 1 to 81 blocks (a chunk's share of a class)
        *(
            pytest.param(count, triple, id=f"{count}-{'x'.join(map(str, triple))}")
            for triple in CLASS_TRIPLES
            for count in (1, 3, 81)
        ),
    ],
)
def test_stacked_matmul_equals_per_block_products(count, b):
    """Compiled payloads multiply on stacks; heap multiplies block by block."""
    rows, inner, cols = (b, b, b) if isinstance(b, int) else b
    rng = np.random.default_rng((count, rows, inner, cols))
    a = rng.standard_normal((count, rows, inner))
    c = rng.standard_normal((count, inner, cols))
    stacked = np.matmul(a, c)
    assert all(np.array_equal(stacked[k], a[k] @ c[k]) for k in range(count))


def test_replay_drops_arrival_vectors(monkeypatch):
    """A send's arrival vector lives only until its receive has read it.

    Keeping one per send would hold 510 x 512 KB at 64k ranks; here every
    matched send of a replayed p = 1024 Cannon schedule must be empty.
    """
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


@pytest.mark.parametrize("scheduler", ["rescan", "heap", "compiled"])
def test_totals_match_per_rank_stats(scheduler):
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


# ---------------------------------------------------------------------------
# lockstep ranks are charged once: accounts stay one value until ranks differ
# ---------------------------------------------------------------------------

_ACCOUNTS = (
    "clock",
    "compute_time",
    "send_time",
    "recv_wait_time",
    "barrier_wait_time",
    "messages_sent",
    "words_sent",
)

#: (key, n, p, driver options) — every driver that compiles, at even and
#: (where it compiles there) uneven partitions, and Cannon on a mesh
#: without wraparound, whose wrapping rolls are longer routes than the
#: others, so its hops differ from rank to rank
LOCKSTEP_CASES = [
    *(pytest.param(*case, {}, id="-".join(map(str, case))) for case in [
        ("cannon", 16, 16),
        ("cannon", 18, 16),
        ("simple", 16, 16),
        ("berntsen", 8, 8),
        ("gk", 16, 8),
        ("gk", 18, 64),
        ("dns", 4, 64),
    ]),
    pytest.param("cannon", 16, 16, {"topology": Mesh2D(4, 4, wraparound=False)},
                 id="cannon-16-16-open-mesh"),
    pytest.param("fox", 16, 16, {"broadcast": "binomial"}, id="fox-binomial-16-16"),
    pytest.param("fox", 18, 16, {"broadcast": "binomial"}, id="fox-binomial-18-16"),
]


def _compiled_schedule(monkeypatch, key, n, p, machine=NCUBE2_LIKE, **kw):
    """The schedule a compiled driver run replayed, and that run."""
    schedules = []

    def keep(*args, **kwargs):
        schedules.append(compile_spmd(*args, **kwargs))
        return schedules[-1]

    monkeypatch.setattr(engine_mod, "compile_spmd", keep)
    A, B = _operands(key, n)
    res = registry.run(key, A, B, p, machine=machine, scheduler="compiled", **kw)
    assert res.sim.compiled, res.sim.compile_fallback
    (schedule,) = schedules
    return schedule, res


@pytest.mark.parametrize("machine", [NCUBE2_LIKE, *MACHINE_MODELS], ids=lambda m: m.name)
@pytest.mark.parametrize("key,n,p,kw", LOCKSTEP_CASES)
def test_lockstep_replay_equals_per_rank_replay(monkeypatch, key, n, p, kw, machine):
    """Replaying into one value per account until ranks differ gives, account
    by account, the arrays of a replay into ``(p,)`` arrays from the start."""
    schedule, res = _compiled_schedule(monkeypatch, key, n, p, machine, **kw)
    lockstep = RankArrays(p)
    schedule.replay(lockstep, machine)
    lockstep.spread()
    per_rank = RankArrays(p)
    per_rank.spread()
    schedule.replay(per_rank, machine)
    per_rank.spread()
    for name in _ACCOUNTS:
        got, want = getattr(lockstep, name), getattr(per_rank, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
        assert np.array_equal(getattr(res.sim.arrays, name), want), name


def test_lockstep_cannon_accounts_stay_scalars(monkeypatch):
    """Every rank of Cannon's p = 4096 schedule takes the same rolls over
    one-hop routes, so replay keeps each account one Python or numpy
    scalar (never a 0-d array) and ``Engine.run`` spreads them."""
    p = 4096
    schedule, res = _compiled_schedule(monkeypatch, "cannon", 64, p)
    sends = [
        ph
        for top in schedule.phases
        for ph in (top.phases if isinstance(top, SymCollective) else (top,))
        if isinstance(ph, SymSend)
    ]
    assert sends and all(isinstance(ph.hops, int) for ph in sends)
    arr = RankArrays(p)
    schedule.replay(arr, NCUBE2_LIKE)
    for name in _ACCOUNTS:
        value = getattr(arr, name)
        assert not isinstance(value, np.ndarray), f"{name} is {type(value).__name__}"
        assert np.ndim(value) == 0
    assert arr.clock == res.sim.parallel_time
    for name in _ACCOUNTS:
        spread = getattr(res.sim.arrays, name)
        assert isinstance(spread, np.ndarray) and spread.shape == (p,), name
        assert (spread == getattr(arr, name)).all(), name


def test_stats_are_built_on_first_read(monkeypatch):
    """A compiled run builds no per-rank records until ``stats`` is read;
    once read, they equal heap's field by field, and are built once."""
    calls = []
    snapshot = RankArrays.snapshot

    def counted(self):
        calls.append(self.nprocs)
        return snapshot(self)

    monkeypatch.setattr(RankArrays, "snapshot", counted)
    compiled = _run_driver("gk", 18, 64, "compiled").sim
    assert compiled.compiled, compiled.compile_fallback
    assert (compiled.total_messages, compiled.total_words) > (0, 0)
    assert compiled.total_comm_time > 0.0
    assert calls == []
    stats = compiled.stats
    assert calls == [64]
    assert compiled.stats is stats
    assert calls == [64]
    heap = _run_driver("gk", 18, 64, "heap").sim
    assert len(stats) == len(heap.stats) == 64
    for s_c, s_h in zip(stats, heap.stats):
        assert s_c == s_h, f"rank {s_h.rank} stats diverge"


# ---------------------------------------------------------------------------
# the paper pipeline compiles everywhere, uneven partitions included
# ---------------------------------------------------------------------------


def test_paper_pipeline_never_falls_back_after_probing(monkeypatch):
    """Figs. 4 and 5 (Fig. 5's n = 44 partitions unevenly on the 8-cube)
    and the scaling experiment (its iso points are all uneven), with any
    ``CompileFallback`` raised while compiling turned into a failure.

    perfbench's 65,536-rank watch rebinds ``compile_spmd`` this way for
    the rest of its process and runs the paper workload there afterwards,
    so a run that falls back after probing fails that benchmark.
    """
    from repro.experiments import figures45, scaling

    def strict(*args, **kwargs):
        try:
            return compile_spmd(*args, **kwargs)
        except CompileFallback as exc:
            raise AssertionError(f"fell back after probing: {exc}") from exc

    monkeypatch.setattr(engine_mod, "compile_spmd", strict)
    figs = [figures45.run_fig4(sizes=(8, 16)), figures45.run_fig5(sizes=(44,))]
    parts = scaling.run()
    assert all(r["gk_compiled"] and r["cannon_compiled"] for f in figs for r in f.rows)
    assert all(r["compiled"] for rows in parts.values() for r in rows)
