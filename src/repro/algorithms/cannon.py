"""Cannon's algorithm — paper Section 4.2.

The memory-efficient classic: blocks are aligned so that every processor
can multiply its resident pair, then the A blocks roll left and the B
blocks roll up around a √p x √p wraparound mesh, multiplying and
accumulating at each of the √p steps.

Modeled time (Eq. 3)::

    T_p = n^3/p + 2*ts*sqrt(p) + 2*tw*n^2/sqrt(p)

On a hypercube the grid is embedded with Gray codes so every roll is a
single-link transfer; the initial alignment is a one-to-one permutation
over non-conflicting cut-through paths whose time the paper ignores —
the driver either pre-aligns on the host (``align="pre"``, the default,
matching Eq. 3) or simulates charged alignment shifts
(``align="charged"``, the ablation).
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
from repro.simulator.collectives import my_index, shift_cyclic, words_of
from repro.simulator.engine import Engine, RankInfo, SymmetrySpec
from repro.simulator.faults import FaultPlan
from repro.simulator.request import Compute, Recv, Send, SendAll
from repro.simulator.topology import Topology

__all__ = ["run_cannon", "cannon_program"]

_TAG_ALIGN_A, _TAG_ALIGN_B, _TAG_ROLL_A, _TAG_ROLL_B = 1, 2, 3, 4


def _shift_pair(info: RankInfo, row_group, col_group, a, b, tag_a, tag_b):
    """Roll A left and B up in one step, using both ports at once.

    On an all-port machine (``machine.all_port``) the two block transfers
    overlap, halving the per-step roll cost - the constant-factor gain
    Section 7 ascribes to nearest-neighbor algorithms ("can benefit from
    simultaneous communication by a constant factor only as the
    sub-blocks of matrices A and B can now be transferred
    simultaneously").  On a one-port machine the sends serialize and this
    is identical to two ``shift_cyclic`` calls.
    """
    ri = my_index(info, row_group)
    ci = my_index(info, col_group)
    g_r, g_c = len(row_group), len(col_group)
    yield SendAll(
        [
            Send(dst=row_group[(ri - 1) % g_r], data=a, nwords=words_of(a), tag=tag_a),
            Send(dst=col_group[(ci - 1) % g_c], data=b, nwords=words_of(b), tag=tag_b),
        ]
    )
    a_new = yield Recv(src=row_group[(ri + 1) % g_r], tag=tag_a)
    b_new = yield Recv(src=col_group[(ci + 1) % g_c], tag=tag_b)
    return a_new, b_new


def cannon_program(
    i: int,
    j: int,
    a_block: np.ndarray,
    b_block: np.ndarray,
    row_group: list[int],
    col_group: list[int],
    *,
    align_charged: bool = False,
    overlap_shifts: bool = False,
    tag_base: int = 0,
):
    """SPMD body for grid position ``(i, j)``; reusable as Berntsen's inner stage.

    If ``align_charged`` the alignment shifts (A left by *i*, B up by *j*)
    are simulated; otherwise the caller must supply pre-aligned blocks
    (``a_block = A[i, (i+j) % s]``, ``b_block = B[(i+j) % s, j]``).
    ``overlap_shifts`` rolls A and B through one all-port step per
    iteration (Section 7's constant-factor variant).
    Returns the rank's ``C_block``.
    """
    side = len(row_group)
    tags = [tag_base + t for t in (_TAG_ALIGN_A, _TAG_ALIGN_B, _TAG_ROLL_A, _TAG_ROLL_B)]

    def body(info: RankInfo):
        a, b = a_block, b_block
        if align_charged:
            if i % side:
                a = yield from shift_cyclic(info, row_group, -i, a, tag=tags[0])
            if j % side:
                b = yield from shift_cyclic(info, col_group, -j, b, tag=tags[1])
        c = None
        for t in range(side):
            yield Compute(matmul_cost(a.shape[0], a.shape[1], b.shape[1]), label="gemm")
            c = a @ b if c is None else c + a @ b
            if t < side - 1:
                if overlap_shifts:
                    a, b = yield from _shift_pair(
                        info, row_group, col_group, a, b, tags[2], tags[3]
                    )
                else:
                    a = yield from shift_cyclic(info, row_group, -1, a, tag=tags[2])
                    b = yield from shift_cyclic(info, col_group, -1, b, tag=tags[3])
        return c

    return body


def run_cannon(
    A: np.ndarray,
    B: np.ndarray,
    p: int,
    machine: MachineParams = NCUBE2_LIKE,
    topology: Topology | None = None,
    *,
    align: str = "pre",
    overlap_shifts: bool = False,
    trace: bool = False,
    scheduler: str | None = None,
    fault_plan: FaultPlan | None = None,
) -> MatmulResult:
    """Multiply *A* and *B* on *p* simulated processors with Cannon's algorithm.

    *p* must be a perfect square with ``sqrt(p) <= n`` (the concurrency
    limit ``p <= n^2`` of Table 1).  ``align`` is ``"pre"`` (host
    pre-alignment, Eq. 3's accounting) or ``"charged"`` (simulate the
    alignment shifts).  With ``overlap_shifts`` the A and B rolls share
    one all-port step (Section 7's constant-factor gain; requires
    ``machine.all_port`` for an actual speedup).
    """
    if align not in ("pre", "charged"):
        raise ValueError(f"align must be 'pre' or 'charged', got {align!r}")
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
    align_charged = align == "charged"

    def program(info: RankInfo):
        # built when the engine starts the rank: every rank on the
        # generator schedulers, only the probe ranks under "compiled"
        i, j = grid.row_of[info.rank], grid.col_of[info.rank]
        if align_charged:
            a0, b0 = a_stack[i * side + j], b_stack[i * side + j]
        else:
            a0, b0 = info.input("a"), info.input("b")
        return cannon_program(
            i,
            j,
            a0,
            b0,
            grid.rows[i],
            grid.cols[j],
            align_charged=align_charged,
            overlap_shifts=overlap_shifts,
        )(info)

    # the roll phase is rank-symmetric over grid rows and columns; the
    # charged alignment shifts are not (offsets depend on i, j), so only
    # pre-aligned runs advertise a spec to the trace compiler.  Rank
    # (i, j) starts with A[i, k] and B[k, j], k = (i + j) mod side.
    symmetry = None
    if not align_charged:
        gi, gj = np.indices((side, side))
        k = (gi + gj) % side
        symmetry = SymmetrySpec(
            partitions=grid.partitions,
            inputs={
                "a": (a_stack, rank_vector(grid.lay, gi * side + k)),
                "b": (b_stack, rank_vector(grid.lay, k * side + gj)),
            },
        )

    sim = Engine(
        topo,
        machine,
        trace=trace,
        scheduler=scheduler,
        fault_plan=fault_plan,
        symmetry=symmetry,
    ).run(program)

    return MatmulResult(
        sim=sim, n=n, p=p, machine=machine, algorithm="cannon",
        assemble=lambda returns: spec.gather([[returns[r] for r in row] for row in layout]),
    )
