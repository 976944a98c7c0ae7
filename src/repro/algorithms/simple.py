"""The simple (all-to-all broadcast) algorithm — paper Section 4.1.

Matrices are block-distributed over a √p x √p logical grid.  Each row of
processors all-to-all broadcasts its A blocks, each column its B blocks;
afterwards every processor multiplies its √p block pairs locally.

Modeled time (Eq. 2)::

    T_p = n^3/p + 2*ts*log p + 2*tw*n^2/sqrt(p)

The algorithm is *memory-inefficient*: every processor ends up holding
``O(n^2/sqrt(p))`` words (a full block-row of A and block-column of B).
The driver reports the simulated peak so tests can check that claim.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    MatmulResult,
    check_same_shape,
    default_topology,
    grid_array,
    grid_groups,
    matmul_cost,
    rank_vector,
)
from repro.blockops.partition import BlockSpec, int_sqrt
from repro.core.machine import MachineParams, NCUBE2_LIKE
from repro.simulator.collectives import (
    allgather_recursive_doubling,
    allgather_ring,
)
from repro.simulator.engine import Engine, RankInfo, SymmetrySpec
from repro.simulator.faults import FaultPlan
from repro.simulator.request import Compute
from repro.simulator.topology import Mesh2D, Topology

__all__ = ["run_simple"]

_TAG_ROW, _TAG_COL = 1, 2


def _program(row_group: list[int], col_group: list[int], use_ring: bool):
    def body(info: RankInfo):
        allgather = allgather_ring if use_ring else allgather_recursive_doubling
        a_row = yield from allgather(info, row_group, info.input("a"), tag=_TAG_ROW)
        b_col = yield from allgather(info, col_group, info.input("b"), tag=_TAG_COL)
        c = None
        for t in range(len(row_group)):
            at, bt = a_row[t], b_col[t]
            yield Compute(matmul_cost(at.shape[0], at.shape[1], bt.shape[1]), label="gemm")
            c = at @ bt if c is None else c + at @ bt
        peak_words = sum(x.size for x in a_row) + sum(x.size for x in b_col) + c.size
        return c, peak_words

    return body


def run_simple(
    A: np.ndarray,
    B: np.ndarray,
    p: int,
    machine: MachineParams = NCUBE2_LIKE,
    topology: Topology | None = None,
    *,
    trace: bool = False,
    scheduler: str | None = None,
    fault_plan: FaultPlan | None = None,
) -> MatmulResult:
    """Multiply *A* and *B* on *p* simulated processors with the simple algorithm.

    *p* must be a perfect square with ``sqrt(p) <= n``; on a hypercube it
    must additionally be a power of four (so both grid sides are powers
    of two).  The result's ``sim.returns`` are ``(C_block, peak_words)``
    per rank: its block of the product and its peak memory in words.
    """
    n = check_same_shape(A, B)
    side = int_sqrt(p)
    if side > n:
        raise ValueError(f"need sqrt(p) <= n, got sqrt({p}) > {n}")
    topo = topology or default_topology(p)
    use_ring = isinstance(topo, Mesh2D)

    spec = BlockSpec(n, n, side, side)
    grid = grid_groups(grid_array(topo, side, side, scheme="binary"))

    def program(info: RankInfo):
        # built when the engine starts the rank (only the probes when compiled)
        i, j = grid.row_of[info.rank], grid.col_of[info.rank]
        return _program(grid.rows[i], grid.cols[j], use_ring)(info)

    # both all-gathers are rank-symmetric over grid rows/columns; rank
    # (i, j) starts with A[i, j] and B[i, j]
    gi, gj = np.indices((side, side))
    own = rank_vector(grid.lay, gi * side + gj)
    symmetry = SymmetrySpec(
        partitions=grid.partitions,
        inputs={"a": (spec.stack(A), own), "b": (spec.stack(B), own)},
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
        sim=sim, n=n, p=p, machine=machine, algorithm="simple",
        assemble=lambda returns: spec.gather(
            [[returns[r][0] for r in row] for row in grid.rows]
        ),
    )
