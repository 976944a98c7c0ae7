"""Shared infrastructure for the parallel matrix-multiplication algorithms.

Every algorithm module exposes a driver ``run_<name>(A, B, p, machine, ...)``
returning a :class:`MatmulResult`: the numerically-exact product together
with the simulated timing.  This module holds the pieces they share —
processor-grid layouts (with hypercube subcube/Gray embeddings), cube
routing (:func:`~repro.simulator.collectives.cube_route`, re-exported),
compute-cost conventions, and the result container.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

import numpy as np

from repro.core.machine import MachineParams
from repro.simulator.collectives import cube_route
from repro.simulator.engine import SimResult
from repro.simulator.topology import (
    FullyConnected,
    Hypercube,
    Mesh2D,
    Topology,
)

__all__ = [
    "MatmulResult",
    "matmul_cost",
    "serial_work",
    "grid_layout",
    "GridGroups",
    "grid_groups",
    "grid_coords",
    "rank_vector",
    "cube_layout_3d",
    "cube_route",
    "default_topology",
    "check_same_shape",
]


def matmul_cost(a: Any, b: Any, c: Any) -> Any:
    """Basic-op units to multiply an ``a x b`` block by a ``b x c`` block.

    The paper's convention (Section 2): one fused multiply-add is one unit,
    so a block product costs ``a*b*c`` units and accumulating into C is
    free (it is the "add" half of the fused operation).  Written as
    ``1.0 * a * b * c``, which for ints below ``2**53`` is bitwise
    ``float(a) * float(b) * float(c)``, so that dimensions that differ
    from rank to rank (a trace-compiled probe's extents) give a cost
    expression instead of raising.
    """
    return 1.0 * a * b * c


def serial_work(n: int, m: int | None = None, k: int | None = None) -> float:
    """``W``: serial cost of the conventional algorithm (``n^3`` for square)."""
    m = n if m is None else m
    k = n if k is None else k
    return float(n) * float(m) * float(k)


def check_same_shape(A: np.ndarray, B: np.ndarray) -> int:
    """Validate square, conforming operands; return their order *n*."""
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("operands must be 2-D")
    if A.shape[0] != A.shape[1] or B.shape[0] != B.shape[1] or A.shape != B.shape:
        raise ValueError(
            f"this driver multiplies square matrices of equal order, got {A.shape} x {B.shape}"
        )
    return A.shape[0]


def default_topology(p: int, kind: str = "hypercube") -> Topology:
    """Construct the topology the paper assumes for *p* processors."""
    if kind == "hypercube":
        return Hypercube.of_size(p)
    if kind == "fully-connected":
        return FullyConnected(p)
    raise ValueError(f"unknown topology kind {kind!r}")


def grid_layout(topology: Topology, rows: int, cols: int, scheme: str = "binary") -> list[list[int]]:
    """Map a logical ``rows x cols`` processor grid onto *topology*.

    Returns ``layout[r][c] -> rank``.  Schemes:

    * ``"binary"`` — concatenated binary coordinates.  On a hypercube
      (power-of-two sides) every grid row and every grid column is a
      subcube, so recursive-doubling collectives cross one link per step.
      Used by the simple algorithm.
    * ``"gray"`` — concatenated binary-reflected Gray codes.  Ring
      neighbors along rows and columns (including the wraparound edge)
      are hypercube neighbors.  Used by Cannon and Fox.
    * On :class:`Mesh2D` the mesh's own row-major coordinates are used
      (the grid must match the mesh shape); on :class:`FullyConnected`
      row-major order is used (all pairs are one hop anyway).
    """
    if isinstance(topology, Mesh2D):
        if (topology.rows, topology.cols) != (rows, cols):
            raise ValueError(
                f"mesh is {topology.rows}x{topology.cols}, grid wants {rows}x{cols}"
            )
        return [[topology.rank(r, c) for c in range(cols)] for r in range(rows)]

    if rows * cols != topology.size:
        raise ValueError(f"grid {rows}x{cols} does not cover topology of size {topology.size}")

    if isinstance(topology, Hypercube):
        if rows & (rows - 1) or cols & (cols - 1):
            raise ValueError("hypercube grid sides must be powers of two")
        r = np.arange(rows, dtype=np.int64)[:, None]
        c = np.arange(cols, dtype=np.int64)[None, :]
        if scheme == "gray":
            r, c = r ^ (r >> 1), c ^ (c >> 1)
        elif scheme != "binary":
            raise ValueError(f"unknown layout scheme {scheme!r}")
        return ((r << (cols.bit_length() - 1)) | c).tolist()

    # fully connected (or anything else): row-major
    return [[r * cols + c for c in range(cols)] for r in range(rows)]


@dataclass(frozen=True)
class GridGroups:
    """A 2-D processor grid as the grid drivers read it.

    *lay* is the layout as one ``(rows, cols)`` int64 array; *rows* and
    *cols* are each grid row's and grid column's ranks, one shared list
    per row or column (not one pair per rank: at 64k+ ranks per-rank
    copies dominated a driver's footprint); *row_of* and *col_of* are
    :func:`grid_coords`.
    """

    lay: np.ndarray
    rows: list[list[int]]
    cols: list[list[int]]
    row_of: list[int]
    col_of: list[int]

    @property
    def partitions(self) -> dict[str, np.ndarray]:
        """The ``"row"`` and ``"col"`` symmetry axes, for ``SymmetrySpec.partitions``."""
        return {"row": self.lay, "col": self.lay.T}


def grid_groups(layout: list[list[int]]) -> GridGroups:
    """The row and column groups of a :func:`grid_layout` layout, built once."""
    lay = np.asarray(layout, dtype=np.int64)
    row_of, col_of = grid_coords(lay)
    return GridGroups(
        lay, [list(row) for row in layout], [list(col) for col in zip(*layout)], row_of, col_of
    )


def grid_coords(layout: Any) -> tuple[list[int], list[int]]:
    """Inverse of :func:`grid_layout`: each rank's grid row and grid column.

    Returns ``(row_of, col_of)`` with ``layout[row_of[r]][col_of[r]] == r``,
    which lets a driver hand the engine one rank-generic program factory
    instead of building a program per rank up front.  *layout* is a list
    of rows or an int64 array (read without a copy).
    """
    lay = np.asarray(layout, dtype=np.int64)
    row_of = np.empty(lay.size, dtype=np.int64)
    col_of = np.empty(lay.size, dtype=np.int64)
    row_of[lay] = np.arange(lay.shape[0])[:, None]
    col_of[lay] = np.arange(lay.shape[1])[None, :]
    return row_of.tolist(), col_of.tolist()


def rank_vector(layout: Any, values: np.ndarray) -> np.ndarray:
    """A per-grid-position array as a per-rank vector: ``out[layout[x]] = values[x]``.

    Drivers use it to say which block of a stacked input each rank
    starts with (:attr:`~repro.simulator.compile.SymmetrySpec.inputs`).
    """
    lay = np.asarray(layout, dtype=np.int64)
    out = np.empty(lay.size, dtype=np.int64)
    out[lay] = values
    return out


def cube_layout_3d(topology: Topology, r: int) -> dict[tuple[int, int, int], int]:
    """Map an ``r x r x r`` logical processor cube onto *topology*.

    Returns ``layout[(i, j, k)] -> rank`` with each axis occupying a
    contiguous bit-field of the rank, so every axis-aligned group of the
    cube is a hypercube subcube.
    """
    if r**3 != topology.size:
        raise ValueError(f"cube {r}^3 does not cover topology of size {topology.size}")
    if isinstance(topology, Hypercube) and r & (r - 1):
        raise ValueError("hypercube cube side must be a power of two")
    bits = max(r - 1, 0).bit_length()
    return {
        (i, j, k): (((i << bits) | j) << bits) | k
        for i in range(r)
        for j in range(r)
        for k in range(r)
    }


@dataclass
class MatmulResult:
    """Product matrix plus the simulated execution profile."""

    sim: SimResult
    """Raw simulation outcome (per-rank stats, trace, returns)."""

    n: int
    """Matrix order."""

    p: int
    """Number of processors used."""

    machine: MachineParams
    algorithm: str = ""

    assemble: Callable[[list[Any]], np.ndarray] | None = field(default=None, repr=False)
    """Builds :attr:`C` from the ranks' return values (``sim.returns``)."""

    @cached_property
    def C(self) -> np.ndarray:
        """The computed product (numerically identical to ``A @ B``).

        Assembled from ``sim.returns`` the first time it is read, so a
        compiled run that never reads its product never evaluates the
        payload graph behind it.
        """
        return self.assemble(self.sim.returns)

    @property
    def parallel_time(self) -> float:
        """``T_p`` in basic-op units."""
        return self.sim.parallel_time

    @property
    def work(self) -> float:
        """``W = n^3``."""
        return serial_work(self.n)

    @property
    def speedup(self) -> float:
        return self.sim.speedup(self.work)

    @property
    def efficiency(self) -> float:
        return self.sim.efficiency(self.work)

    @property
    def total_overhead(self) -> float:
        """``T_o = p*T_p - W``."""
        return self.sim.total_overhead(self.work)

    @property
    def wallclock_seconds(self) -> float:
        """``T_p`` denormalized by the machine's unit time."""
        return self.machine.to_seconds(self.parallel_time)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MatmulResult({self.algorithm}, n={self.n}, p={self.p}, "
            f"Tp={self.parallel_time:.1f}, E={self.efficiency:.3f})"
        )
