"""Fox's algorithm (broadcast-multiply-roll) — paper Section 4.3.

In iteration *t*, the processor in column ``(i + t) mod sqrt(p)`` of each
grid row *i* broadcasts its A block along the row; every processor
multiplies the broadcast block into its resident B block and then rolls
B one step North.

The paper discusses three communication realizations, all available via
``broadcast=``:

* ``"sequential"`` — the root sends to each row member in turn; total
  time ``n^3/p + tw*n^2 + ts*p`` (the mesh figure quoted in §4.3),
* ``"binomial"`` — hypercube one-to-all broadcast trees,
* ``"ring"`` — the block is forwarded hop-by-hop so iterations pipeline;
  this is the variant behind Eq. 4,
  ``T_p = n^3/p + 2*tw*n^2/sqrt(p) + ts*p``.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    MatmulResult,
    check_same_shape,
    default_topology,
    grid_groups,
    grid_layout,
    matmul_cost,
    rank_vector,
)
from repro.blockops.partition import BlockSpec, int_sqrt
from repro.core.machine import MachineParams, NCUBE2_LIKE
from repro.simulator.collectives import bcast_binomial, my_index, shift_cyclic, words_of
from repro.simulator.engine import Engine, RankInfo, SymmetrySpec
from repro.simulator.faults import FaultPlan
from repro.simulator.request import Compute, Recv, Send
from repro.simulator.topology import Topology

__all__ = ["run_fox", "BROADCAST_SCHEMES"]

BROADCAST_SCHEMES = ("sequential", "binomial", "ring")

_TAG_BCAST, _TAG_ROLL = 1, 2


def _row_broadcast(info: RankInfo, group: list[int], root_index: int, data, scheme: str, tag: int):
    """One-to-all broadcast of *data* from ``group[root_index]`` along a grid row."""
    g = len(group)
    idx = my_index(info, group)
    if g == 1:
        return data
    if scheme == "binomial":
        out = yield from bcast_binomial(info, group, root_index, data, tag=tag)
        return out
    if scheme == "sequential":
        if idx == root_index:
            m = words_of(data)
            for step in range(1, g):
                yield Send(dst=group[(root_index + step) % g], data=data, nwords=m, tag=tag)
            return data
        data = yield Recv(src=group[root_index], tag=tag)
        return data
    if scheme == "ring":
        # forward around the ring; the last member does not re-forward
        if idx == root_index:
            yield Send(dst=group[(idx + 1) % g], data=data, nwords=words_of(data), tag=tag)
            return data
        data = yield Recv(src=group[(idx - 1) % g], tag=tag)
        if (idx + 1) % g != root_index:
            yield Send(dst=group[(idx + 1) % g], data=data, nwords=words_of(data), tag=tag)
        return data
    raise ValueError(f"unknown broadcast scheme {scheme!r}")


def _program(
    i: int,
    j: int,
    a_block: np.ndarray,
    b_block: np.ndarray,
    row_group: list[int],
    col_group: list[int],
    scheme: str,
):
    side = len(row_group)

    def body(info: RankInfo):
        b = b_block
        c = None
        for t in range(side):
            root = (i + t) % side
            a_bcast = yield from _row_broadcast(
                info, row_group, root, a_block if j == root else None,
                scheme, _TAG_BCAST + 2 * t,
            )
            yield Compute(matmul_cost(a_bcast.shape[0], a_bcast.shape[1], b.shape[1]), label="gemm")
            c = a_bcast @ b if c is None else c + a_bcast @ b
            if t < side - 1:
                b = yield from shift_cyclic(info, col_group, -1, b, tag=_TAG_ROLL + 2 * t)
        return c

    return body


def run_fox(
    A: np.ndarray,
    B: np.ndarray,
    p: int,
    machine: MachineParams = NCUBE2_LIKE,
    topology: Topology | None = None,
    *,
    broadcast: str = "ring",
    trace: bool = False,
    scheduler: str | None = None,
    fault_plan: FaultPlan | None = None,
) -> MatmulResult:
    """Multiply *A* and *B* on *p* simulated processors with Fox's algorithm.

    *p* must be a perfect square with ``sqrt(p) <= n``; *broadcast*
    selects the row-broadcast realization (see module docstring).
    """
    if broadcast not in BROADCAST_SCHEMES:
        raise ValueError(f"broadcast must be one of {BROADCAST_SCHEMES}, got {broadcast!r}")
    n = check_same_shape(A, B)
    side = int_sqrt(p)
    if side > n:
        raise ValueError(f"need sqrt(p) <= n, got sqrt({p}) > {n}")
    topo = topology or default_topology(p)
    layout = grid_layout(topo, side, side, scheme="gray")
    grid = grid_groups(layout)

    spec = BlockSpec(n, n, side, side)
    a_stack = spec.stack(A)
    b_stack = spec.stack(B)

    # The binomial broadcast's root in row i at step t is (i + t) mod side:
    # the rank's column-axis position plus t, one root per row, so that
    # form is rank-symmetric; rank (i, j) starts with A[i, j] and B[i, j].
    # Every root needs a probe holding its block, so the whole first row
    # probes.  The ring and sequential forms relay or fan out by position
    # and run on heap.
    symmetry = None
    if broadcast == "binomial":
        own = rank_vector(grid.lay, np.arange(p).reshape(side, side))
        symmetry = SymmetrySpec(
            partitions=grid.partitions,
            inputs={"a": (a_stack, own), "b": (b_stack, own)},
            extra_probes=tuple(grid.rows[0]),
        )

    def program(info: RankInfo):
        i, j = grid.row_of[info.rank], grid.col_of[info.rank]
        if symmetry is None:
            a0, b0 = a_stack[i * side + j], b_stack[i * side + j]
        else:
            a0, b0 = info.input("a"), info.input("b")
        return _program(i, j, a0, b0, grid.rows[i], grid.cols[j], broadcast)(info)

    sim = Engine(
        topo,
        machine,
        trace=trace,
        scheduler=scheduler,
        fault_plan=fault_plan,
        symmetry=symmetry,
    ).run(program)

    return MatmulResult(
        sim=sim, n=n, p=p, machine=machine, algorithm="fox",
        assemble=lambda returns: spec.gather([[returns[r] for r in row] for row in layout]),
    )
