"""The Dekel–Nassimi–Sahni (DNS) algorithm — paper Section 4.5.

Processors form a logical ``r x r x r`` cube.  Stage 1 routes and
broadcasts the operand blocks so that processor ``(i, j, k)`` holds
``A[j, i]`` and ``B[i, k]``; stage 2 multiplies locally; stage 3 sums the
partial products along the *i* axis into plane ``i = 0``.

Two forms are implemented:

* :func:`run_dns_one_per_element` — the original ``p = n^3`` version
  (one matrix element per processor, ``O(log n)`` time);
* :func:`run_dns_block` — the §4.5.2 adaptation to ``p = n^2 * r``
  processors (``1 <= r <= n``): an ``r^3`` cube of *superprocessors*,
  each an ``(n/r) x (n/r)`` grid running one-element-per-processor
  Cannon for the block products.  Modeled time (Eq. 6)::

      T_p = n^3/p + (ts + tw) * (5*log(p/n^2) + 2*n^3/p)

The cube program (stage 1 route/broadcast + stage 3 reduce) is shared
with the GK algorithm (:mod:`repro.algorithms.gk`), which differs only
in using ``(n/p^{1/3})^2``-element blocks on a ``p^{1/3}`` cube.  With
the binomial broadcast it is rank-symmetric: every root and route end
follows one position law per group, so it runs on the trace compiler
(:mod:`repro.simulator.compile`) with its products computed on stacked
blocks.  The block variant runs on the ``heap`` scheduler.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Mapping

import numpy as np

from repro.algorithms.base import (
    MatmulResult,
    check_same_shape,
    default_topology,
    matmul_cost,
)
from repro.blockops.partition import BlockSpec
from repro.core.machine import MachineParams, NCUBE2_LIKE
from repro.simulator.collectives import (
    bcast_binomial,
    reduce_binomial,
    route,
    shift_cyclic,
    words_of,
)
from repro.simulator.engine import Engine, RankInfo, SymmetrySpec
from repro.simulator.faults import FaultPlan
from repro.simulator.request import Compute
from repro.simulator.topology import Hypercube, Topology, gray_code

__all__ = [
    "run_dns_one_per_element",
    "run_dns_block",
    "make_cube_program",
    "T_ADD",
]

#: Split of the unit multiply-add cost used when an add occurs alone
#: (stage-3 merges): ``t_mult + t_add = 1`` per Section 4.6.
T_ADD = 0.5

# spread out so multi-tag collectives (scatter-allgather uses tag and
# tag+1) cannot collide across phases
_TAG_ROUTE_A, _TAG_BCAST_A, _TAG_ROUTE_B, _TAG_BCAST_B, _TAG_REDUCE = 10, 20, 30, 40, 50


def make_cube_program(
    r: int,
    route_mode: str,
    broadcast: str = "binomial",
    blocks: Mapping[str, Any] | None = None,
):
    """The rank-generic SPMD program of the DNS/GK data flow on an ``r^3`` cube.

    Rank ``(i, j, k)`` (see :func:`_cube_axes`) starts with block
    ``(j, k)`` of A and of B, read with ``info.input("a")``/``("b")``,
    or as ``blocks[name][j * r + k]`` when *blocks* is given.  Stage 1
    routes A's block from ``(0, j, k)`` to ``(k, j, k)`` and B's to
    ``(j, j, k)``, then broadcasts them from position ``i`` along the
    third and second axes, so ``(i, j, k)`` holds ``A[j, i]`` and
    ``B[i, k]``; stage 2 multiplies them, and stage 3 sums the products
    along the *i* axis into plane ``i == 0``.  ``route_mode`` is
    ``"relay"`` (one message per hypercube dimension, the paper's
    ``log r``-step routing) or ``"direct"`` (a single message — the CM-5
    form behind Eq. 18).  ``broadcast`` selects the stage-1 one-to-all
    scheme: ``"binomial"`` (the naive scheme the paper's CM-5 code uses,
    Eq. 7), ``"scatter-allgather"`` or ``"pipelined"`` (the §5.4.1
    "improved GK" large-message schemes; see :mod:`repro.simulator.jho`).
    Returns the ``C`` block on plane ``i == 0`` and ``None`` elsewhere.
    """
    if route_mode not in ("relay", "direct"):
        raise ValueError(f"route_mode must be 'relay' or 'direct', got {route_mode!r}")
    if broadcast not in ("binomial", "scatter-allgather", "pipelined"):
        raise ValueError(f"unknown broadcast scheme {broadcast!r}")
    along_i, along_l, along_m = (axis.tolist() for axis in _cube_axes(r))
    relay = route_mode == "relay"

    def bcast(info, grp, root_idx, payload, tag):
        if broadcast == "binomial":
            out = yield from bcast_binomial(info, grp, root_idx, payload, tag=tag)
        elif broadcast == "scatter-allgather":
            from repro.simulator.jho import bcast_scatter_allgather

            out = yield from bcast_scatter_allgather(info, grp, root_idx, payload, tag=tag)
        else:
            from repro.simulator.jho import bcast_pipelined_binomial

            out = yield from bcast_pipelined_binomial(info, grp, root_idx, payload, tag=tag)
        return out

    def body(info: RankInfo, i: int, j: int, k: int, a0: Any, b0: Any):
        group_i = along_i[j * r + k]
        # Stage 1, matrix A: (0,j,k) -> (k,j,k), then broadcast along the third axis.
        a_routed = yield from route(
            info, group_i, 0, k, a0, nwords=words_of(a0), tag=_TAG_ROUTE_A, relay=relay
        )
        # the broadcast block is A[j,i], not A[j,k]; under uneven partitions
        # their sizes differ, so the collectives size the payload themselves
        a = yield from bcast(info, along_l[i * r + j], i, a_routed, _TAG_BCAST_A)
        # Stage 1, matrix B: (0,j,k) -> (j,j,k), then broadcast along the second axis.
        b_routed = yield from route(
            info, group_i, 0, j, b0, nwords=words_of(b0), tag=_TAG_ROUTE_B, relay=relay
        )
        b = yield from bcast(info, along_m[i * r + k], i, b_routed, _TAG_BCAST_B)
        # Stage 2: local block product.  This rank now holds A[j,i] and B[i,k].
        yield Compute(matmul_cost(a.shape[0], a.shape[1], b.shape[1]), label="gemm")
        c = a @ b
        # Stage 3: sum partial products along the i axis into plane i == 0.
        # The accumulator is the rank's own product, which no other rank
        # sees before it is sent, so summing in place changes no value.
        total = yield from reduce_binomial(
            info, group_i, 0, c, op=operator.iadd, tag=_TAG_REDUCE, charge_op=_add_cost
        )
        return total

    def program(info: RankInfo):
        i, plane = divmod(info.rank, r * r)
        j, k = divmod(plane, r)
        if blocks is None:
            a0, b0 = info.input("a"), info.input("b")
        else:
            a0, b0 = blocks["a"][j * r + k], blocks["b"][j * r + k]
        return body(info, i, j, k, a0, b0)

    return program


def _add_cost(x: np.ndarray) -> float:
    """Basic-op units of one stage-3 merge: an add per word."""
    return T_ADD * x.size


def _cube_axes(r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cube's groups along ``i`` (row ``j*r + k``), ``l`` (``i*r + j``) and ``m`` (``i*r + k``).

    Rank ``(i, j, k)`` is ``(i*r + j)*r + k``; with ``r`` a power of two
    each coordinate is a contiguous bit field of the rank, so every axis
    group is a hypercube subcube.
    """
    cube = np.arange(r**3, dtype=np.int64).reshape(r, r, r)
    return (
        cube.transpose(1, 2, 0).reshape(r * r, r),
        cube.reshape(r * r, r),
        cube.transpose(0, 2, 1).reshape(r * r, r),
    )


def _run_cube(
    A: np.ndarray,
    B: np.ndarray,
    r: int,
    machine: MachineParams,
    topo: Topology,
    algorithm: str,
    *,
    route_mode: str | None = None,
    broadcast: str = "binomial",
    trace: bool = False,
    scheduler: str | None = None,
    fault_plan: FaultPlan | None = None,
) -> MatmulResult:
    """Shared driver for the one-element DNS and GK algorithms."""
    n = A.shape[0]
    p = r**3
    if topo.size != p:
        raise ValueError(f"topology size {topo.size} != r^3 = {p}")
    if isinstance(topo, Hypercube) and r & (r - 1):
        raise ValueError("cube side must be a power of two on a hypercube")
    if route_mode is None:
        route_mode = "relay" if isinstance(topo, Hypercube) else "direct"

    spec = BlockSpec(n, n, r, r)
    a_stack = spec.stack(A)
    b_stack = spec.stack(B)

    # the binomial broadcast's roots, the reduce's root and the routes'
    # ends follow one position law per group, so the program is
    # rank-symmetric over the cube's three axes (rows in natural cube
    # order); rank (i, j, k) starts with block (j, k) of A and of B
    symmetry = None
    blocks = None
    if broadcast == "binomial":
        along_i, along_l, along_m = _cube_axes(r)
        start = np.arange(p, dtype=np.int64) % (r * r)
        symmetry = SymmetrySpec(
            partitions={"i": along_i, "l": along_l, "m": along_m},
            inputs={"a": (a_stack, start), "b": (b_stack, start)},
        )
    else:
        blocks = {"a": a_stack, "b": b_stack}
    program = make_cube_program(r, route_mode, broadcast, blocks)

    sim = Engine(
        topo, machine, trace=trace, scheduler=scheduler, fault_plan=fault_plan,
        symmetry=symmetry,
    ).run(program)

    # plane i == 0 holds the sums: rank j*r + k has block (j, k)
    return MatmulResult(
        sim=sim, n=n, p=p, machine=machine, algorithm=algorithm,
        assemble=lambda returns: spec.gather([returns[j * r:(j + 1) * r] for j in range(r)]),
    )


def run_dns_one_per_element(
    A: np.ndarray,
    B: np.ndarray,
    machine: MachineParams = NCUBE2_LIKE,
    topology: Topology | None = None,
    *,
    trace: bool = False,
    scheduler: str | None = None,
    fault_plan: FaultPlan | None = None,
) -> MatmulResult:
    """Multiply with the original DNS formulation: ``p = n^3``, one element per PE.

    Accomplishes the ``O(n^3)`` computation in ``O(log n)`` simulated
    time.  *n* must be a power of two on the (default) hypercube.
    """
    n = check_same_shape(A, B)
    topo = topology or default_topology(n**3)
    return _run_cube(
        A, B, n, machine, topo, "dns",
        trace=trace, scheduler=scheduler, fault_plan=fault_plan,
    )


def _dns_block_rank_of(r: int, s: int) -> Callable[[int, int, int, int, int], int]:
    lbits = max(s - 1, 0).bit_length()
    cube_bits = 3 * max(r - 1, 0).bit_length()
    del cube_bits
    rbits = max(r - 1, 0).bit_length()

    def rank_of(i: int, j: int, k: int, li: int, lj: int) -> int:
        cube = (((i << rbits) | j) << rbits) | k
        local = (gray_code(li) << lbits) | gray_code(lj)
        return (cube << (2 * lbits)) | local

    return rank_of


def _dns_block_program(
    i: int,
    j: int,
    k: int,
    li: int,
    lj: int,
    r: int,
    s: int,
    rank_of: Callable[..., int],
    a0: float | None,
    b0: float | None,
    route_mode: str,
):
    """SPMD body of the §4.5.2 block-DNS variant for one hypercube processor.

    The processor is element ``(li, lj)`` of superprocessor ``(i, j, k)``.
    Stage 1 moves single elements along the superprocessor axes; stage 2
    is one-element-per-processor Cannon inside the superprocessor (the
    host pre-skews the operands, mirroring ``run_cannon(align="pre")``);
    stage 3 reduces scalars along the superprocessor *i* axis.
    """

    group_i = [rank_of(t, j, k, li, lj) for t in range(r)]
    relay = route_mode == "relay"

    def body(info: RankInfo):
        a_routed = yield from route(
            info, group_i, 0, k, a0, nwords=1, tag=_TAG_ROUTE_A, relay=relay
        )
        group_l = [rank_of(i, j, l, li, lj) for l in range(r)]
        a = yield from bcast_binomial(info, group_l, i, a_routed, nwords=1, tag=_TAG_BCAST_A)
        b_routed = yield from route(
            info, group_i, 0, j, b0, nwords=1, tag=_TAG_ROUTE_B, relay=relay
        )
        group_m = [rank_of(i, l, k, li, lj) for l in range(r)]
        b = yield from bcast_binomial(info, group_m, i, b_routed, nwords=1, tag=_TAG_BCAST_B)

        # Stage 2: one-element Cannon on the (n/r) x (n/r) superprocessor grid.
        row_group = [rank_of(i, j, k, li, c) for c in range(s)]
        col_group = [rank_of(i, j, k, rr, lj) for rr in range(s)]
        c = a * 0  # zero of the operands' scalar type (works for complex too)
        for t in range(s):
            yield Compute(1.0, label="fma")
            c += a * b
            if t < s - 1:
                a = yield from shift_cyclic(info, row_group, -1, a, nwords=1, tag=_TAG_ROLL_A)
                b = yield from shift_cyclic(info, col_group, -1, b, nwords=1, tag=_TAG_ROLL_B)

        total = yield from reduce_binomial(
            info,
            group_i,
            0,
            c,
            op=lambda x, y: x + y,
            nwords=1,
            tag=_TAG_REDUCE,
            charge_op=lambda _x: T_ADD,
        )
        if total is None:
            return None
        return j, k, li, lj, total

    return body


_TAG_ROLL_A, _TAG_ROLL_B = 60, 70


def run_dns_block(
    A: np.ndarray,
    B: np.ndarray,
    r: int,
    machine: MachineParams = NCUBE2_LIKE,
    topology: Topology | None = None,
    *,
    trace: bool = False,
    scheduler: str | None = None,
    fault_plan: FaultPlan | None = None,
) -> MatmulResult:
    """Multiply with the §4.5.2 DNS variant on ``p = n^2 * r`` processors.

    ``r`` is the cube side of the superprocessor array (``1 <= r <= n``);
    the paper's applicability range is ``n^2 <= p <= n^3``.  *n*, *r*,
    and ``n/r`` must be powers of two on the (default) hypercube.
    """
    n = check_same_shape(A, B)
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if n % r:
        raise ValueError(f"r={r} must divide n={n}")
    s = n // r  # superprocessor grid side
    p = n * n * r
    topo = topology or default_topology(p)
    if topo.size != p:
        raise ValueError(f"topology size {topo.size} != n^2*r = {p}")
    route_mode = "relay" if isinstance(topo, Hypercube) else "direct"
    rank_of = _dns_block_rank_of(r, s)

    spec = BlockSpec(n, n, r, r)

    # Host-side pre-skew of each block for the inner one-element Cannon:
    # element (li, lj) starts as A_blk[li, (li+lj) % s] / B_blk[(li+lj) % s, lj].
    rows = np.arange(s)[:, None]
    cols = np.arange(s)[None, :]
    skew = (rows + cols) % s
    a_blocks = spec.scatter(A)
    b_blocks = spec.scatter(B)
    a_skewed = [[blk[rows, skew] for blk in row] for row in a_blocks]
    b_skewed = [[blk[skew, cols] for blk in row] for row in b_blocks]

    factories: list = [None] * p
    for i in range(r):
        for j in range(r):
            for k in range(r):
                for li in range(s):
                    for lj in range(s):
                        a0 = a_skewed[j][k][li, lj].item() if i == 0 else None
                        b0 = b_skewed[j][k][li, lj].item() if i == 0 else None
                        factories[rank_of(i, j, k, li, lj)] = _dns_block_program(
                            i, j, k, li, lj, r, s, rank_of, a0, b0, route_mode
                        )

    # no SymmetrySpec: its host-skewed scalars are per-rank factory
    # arguments, not declared stacked inputs, so it runs on heap
    sim = Engine(
        topo, machine, trace=trace, scheduler=scheduler, fault_plan=fault_plan,
        symmetry=None,
    ).run(factories)

    def assemble(returns: list) -> np.ndarray:
        C = np.zeros((n, n), dtype=np.result_type(A, B))
        for ret in returns:
            if ret is None:
                continue
            j, k, li, lj, val = ret
            C[j * s + li, k * s + lj] = val
        return C

    return MatmulResult(
        sim=sim, n=n, p=p, machine=machine, algorithm="dns-block", assemble=assemble
    )
