"""Berntsen's algorithm — paper Section 4.4.

Exploits hypercube connectivity beyond the mesh: with ``p = 2**(3q)``
processors (and the concurrency restriction ``p <= n^{3/2}``), A is
split into ``2**q`` column strips and B into ``2**q`` row strips.  The
cube is split into ``2**q`` subcubes of ``2**(2q)`` processors; subcube
*s* multiplies strip pair *s* with Cannon's algorithm on a
``2**q x 2**q`` grid, producing a partial ``n x n`` product; the partial
products are then summed across subcubes (recursive halving, so the
summation moves only ``~n^2/p^{2/3}`` words per processor).

Modeled time (Eq. 5)::

    T_p = n^3/p + 2*ts*p^{1/3} + (1/3)*ts*log p + 3*tw*n^2/p^{2/3}

Like the simple algorithm it is not memory-efficient
(``2*n^2/p + n^2/p^{2/3}`` words per processor), and its concurrency
limit ``p <= n^{3/2}`` is what drives its poor ``O(p^2)`` isoefficiency
despite the smallest communication overhead of the five algorithms.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    MatmulResult,
    check_same_shape,
    default_topology,
    matmul_cost,
)
from repro.blockops.partition import BlockSpec, block_slices
from repro.core.machine import MachineParams, NCUBE2_LIKE
from repro.simulator.collectives import reduce_scatter_halving, shift_cyclic
from repro.simulator.engine import Engine, RankInfo, SymmetrySpec
from repro.simulator.faults import FaultPlan
from repro.simulator.request import Compute
from repro.simulator.topology import Hypercube, Topology, gray_code

__all__ = ["run_berntsen", "berntsen_max_procs"]

_TAG_ROLL_A, _TAG_ROLL_B, _TAG_REDUCE = 1, 2, 3


def berntsen_max_procs(n: int) -> int:
    """Largest ``p = 2**(3q)`` satisfying the paper's ``p <= n^{3/2}`` restriction."""
    p = 1
    while (8 * p) ** 2 <= n**3:
        p *= 8
    return p


def _program(row_group: list[int], col_group: list[int], reduce_group: list[int]):
    side = len(row_group)

    def body(info: RankInfo):
        a, b = info.input("a"), info.input("b")
        c = None
        for t in range(side):
            yield Compute(matmul_cost(a.shape[0], a.shape[1], b.shape[1]), label="gemm")
            c = a @ b if c is None else c + a @ b
            if t < side - 1:
                a = yield from shift_cyclic(info, row_group, -1, a, tag=_TAG_ROLL_A)
                b = yield from shift_cyclic(info, col_group, -1, b, tag=_TAG_ROLL_B)
        piece, lo, hi = yield from reduce_scatter_halving(
            info, reduce_group, c, tag=_TAG_REDUCE
        )
        return piece, lo, hi

    return body


def run_berntsen(
    A: np.ndarray,
    B: np.ndarray,
    p: int,
    machine: MachineParams = NCUBE2_LIKE,
    topology: Topology | None = None,
    *,
    enforce_concurrency_limit: bool = True,
    trace: bool = False,
    scheduler: str | None = None,
    fault_plan: FaultPlan | None = None,
) -> MatmulResult:
    """Multiply *A* and *B* on ``p = 2**(3q)`` simulated processors (Berntsen).

    With ``enforce_concurrency_limit`` the paper's applicability range
    ``p <= n^{3/2}`` is enforced; disable it to run the algorithm outside
    that range (it still needs ``2**q`` to divide into at most *n* pieces
    both ways, i.e. ``p^{2/3} <= n``).
    """
    n = check_same_shape(A, B)
    q = 0
    while (1 << (3 * (q + 1))) <= p:
        q += 1
    if (1 << (3 * q)) != p:
        raise ValueError(f"Berntsen's algorithm needs p = 2**(3q), got {p}")
    nsub = 1 << q  # number of subcubes == Cannon grid side within a subcube
    if enforce_concurrency_limit and p**2 > n**3:
        raise ValueError(
            f"concurrency restriction p <= n^(3/2) violated: p={p}, n={n} "
            f"(max p = {berntsen_max_procs(n)})"
        )
    if nsub * nsub > n:
        raise ValueError(f"need p^(2/3) <= n to form blocks, got {nsub * nsub} > {n}")

    topo = topology or default_topology(p)

    # rank = (s << 2q) | (gray(i) << q) | gray(j): each subcube is contiguous,
    # Cannon rings within a subcube cross one hypercube link per roll, and the
    # cross-subcube reduction groups (fixed i,j) are subcubes too.
    def rank_of(s: int, i: int, j: int) -> int:
        if isinstance(topo, Hypercube):
            return (s << (2 * q)) | (gray_code(i) << q) | gray_code(j)
        return (s << (2 * q)) | (i << q) | j

    col_strips = block_slices(n, nsub)  # A column strips / B row strips

    # shared group lists, one per (subcube, row/col) and per grid position;
    # together each family partitions the full rank set
    row_groups = {
        (s, i): [rank_of(s, i, c) for c in range(nsub)]
        for s in range(nsub)
        for i in range(nsub)
    }
    col_groups = {
        (s, j): [rank_of(s, r, j) for r in range(nsub)]
        for s in range(nsub)
        for j in range(nsub)
    }
    reduce_groups = {
        (i, j): [rank_of(t, i, j) for t in range(nsub)]
        for i in range(nsub)
        for j in range(nsub)
    }

    # each subcube's strip pair, blocked over its nsub x nsub inner-Cannon
    # grid (A strip is n x w, B strip is w x n), stacked subcube by subcube:
    # block (i, k) of subcube s is a_stack[(s * nsub + i) * nsub + k]
    a_parts, b_parts = [], []
    for s in range(nsub):
        a_strip = A[:, col_strips[s]]
        b_strip = B[col_strips[s], :]
        w = a_strip.shape[1]
        a_parts.append(BlockSpec(n, w, nsub, nsub).stack(a_strip))
        b_parts.append(BlockSpec(w, n, nsub, nsub).stack(b_strip))
    a_stack, b_stack = _concat(a_parts), _concat(b_parts)

    coords = np.empty((p, 3), dtype=np.int64)  # rank -> (s, i, j)
    for (s, i), group in row_groups.items():
        for j, r in enumerate(group):
            coords[r] = (s, i, j)
    coord_of = coords.tolist()

    def program(info: RankInfo):
        # built when the engine starts the rank (only the probes when compiled)
        s, i, j = coord_of[info.rank]
        return _program(
            row_groups[(s, i)], col_groups[(s, j)], reduce_groups[(i, j)]
        )(info)

    # the inner-Cannon rolls are rank-symmetric over the per-subcube rows
    # and columns, the final summation over the cross-subcube reduction
    # groups (the compiler probes each family; whichever stage it cannot
    # prove symmetric triggers the heap fallback instead)
    sub, gi, gj = coords.T
    k = (gi + gj) % nsub  # pre-aligned, as in run_cannon
    symmetry = SymmetrySpec(
        partitions={
            "row": np.asarray(
                [row_groups[(s, i)] for s in range(nsub) for i in range(nsub)],
                dtype=np.int64,
            ),
            "col": np.asarray(
                [col_groups[(s, j)] for s in range(nsub) for j in range(nsub)],
                dtype=np.int64,
            ),
            "reduce": np.asarray(
                [reduce_groups[(i, j)] for i in range(nsub) for j in range(nsub)],
                dtype=np.int64,
            ),
        },
        inputs={
            "a": (a_stack, (sub * nsub + gi) * nsub + k),
            "b": (b_stack, (sub * nsub + k) * nsub + gj),
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

    def assemble(returns: list) -> np.ndarray:
        # for each grid position the summed C block lives striped (by
        # flattened-word interval) across its reduction group's ranks
        c_spec = BlockSpec(n, n, nsub, nsub)
        C = np.zeros((n, n), dtype=np.result_type(A, B))
        for (i, j), group in reduce_groups.items():
            parts = sorted((returns[r] for r in group), key=lambda t: t[1])
            flat = np.concatenate([piece for piece, _, _ in parts])
            C[c_spec.block_slice(i, j)] = flat.reshape(c_spec.block_shape(i, j))
        return C

    return MatmulResult(
        sim=sim, n=n, p=p, machine=machine, algorithm="berntsen", assemble=assemble
    )


def _concat(parts: list) -> np.ndarray | list[np.ndarray]:
    """One stack from per-subcube block stacks (a list when their blocks differ)."""
    if all(isinstance(x, np.ndarray) for x in parts) and len(
        {x.shape[1:] for x in parts}
    ) == 1:
        return np.concatenate(parts)
    return [block for part in parts for block in part]
