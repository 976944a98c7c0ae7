"""Two-dimensional block partitioning of dense matrices.

All of the parallel matrix-multiplication algorithms in this package
distribute their operands in square (or rectangular) blocks over a logical
processor grid.  This module provides the index arithmetic for those
layouts: mapping between global matrix coordinates, block coordinates, and
flat processor ranks, plus scatter/gather helpers.

The paper (Gupta & Kumar, ICPP 1993) always uses *even* partitions — the
matrix dimension is a multiple of the grid dimension — so the even case is
the fast path here, but uneven trailing blocks are supported as well
(NumPy-style ``array_split`` semantics) so the library is usable on
arbitrary sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BlockSpec",
    "block_slices",
    "block_shape",
    "scatter_blocks",
    "gather_blocks",
    "is_perfect_square",
    "is_power_of",
    "int_sqrt",
    "int_cbrt",
]


def is_perfect_square(x: int) -> bool:
    """Return ``True`` iff *x* is a non-negative perfect square."""
    if x < 0:
        return False
    r = math.isqrt(x)
    return r * r == x


def int_sqrt(x: int) -> int:
    """Exact integer square root; raise ``ValueError`` if *x* is not square."""
    r = math.isqrt(x)
    if r * r != x:
        raise ValueError(f"{x} is not a perfect square")
    return r


def int_cbrt(x: int) -> int:
    """Exact integer cube root; raise ``ValueError`` if *x* is not a cube."""
    if x < 0:
        raise ValueError("negative value")
    r = round(x ** (1.0 / 3.0))
    # correct rounding drift
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand**3 == x:
            return cand
    raise ValueError(f"{x} is not a perfect cube")


def is_power_of(x: int, base: int) -> bool:
    """Return ``True`` iff *x* is a positive integer power of *base* (incl. base**0)."""
    if x < 1 or base < 2:
        return False
    while x % base == 0:
        x //= base
    return x == 1


@dataclass(frozen=True)
class BlockSpec:
    """A partition of an ``nrows x ncols`` matrix into a ``grows x gcols`` block grid.

    Blocks are indexed ``(bi, bj)`` with ``0 <= bi < grows`` and
    ``0 <= bj < gcols``.  When the matrix dimension is divisible by the grid
    dimension every block has identical shape; otherwise the leading
    ``nrows % grows`` block-rows get one extra row (``array_split``
    semantics), and likewise for columns.
    """

    nrows: int
    ncols: int
    grows: int
    gcols: int

    def __post_init__(self) -> None:
        if self.nrows <= 0 or self.ncols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if self.grows <= 0 or self.gcols <= 0:
            raise ValueError("grid dimensions must be positive")
        if self.grows > self.nrows or self.gcols > self.ncols:
            raise ValueError(
                f"grid ({self.grows}x{self.gcols}) larger than matrix "
                f"({self.nrows}x{self.ncols})"
            )

    # -- one-dimensional helpers -------------------------------------------------

    @staticmethod
    def _bounds(n: int, g: int, b: int) -> tuple[int, int]:
        """Half-open row/col interval of one-dimensional block *b*."""
        q, r = divmod(n, g)
        lo = b * q + min(b, r)
        return lo, lo + q + int(b < r)

    def row_bounds(self, bi: int) -> tuple[int, int]:
        """Half-open global row interval covered by block-row *bi*."""
        self._check(bi, 0)
        return self._bounds(self.nrows, self.grows, bi)

    def col_bounds(self, bj: int) -> tuple[int, int]:
        """Half-open global column interval covered by block-column *bj*."""
        self._check(0, bj)
        return self._bounds(self.ncols, self.gcols, bj)

    def _check(self, bi: int, bj: int) -> None:
        if not (0 <= bi < self.grows and 0 <= bj < self.gcols):
            raise IndexError(f"block ({bi},{bj}) outside grid {self.grows}x{self.gcols}")

    # -- block geometry -----------------------------------------------------------

    def block_slice(self, bi: int, bj: int) -> tuple[slice, slice]:
        """Return the ``(row_slice, col_slice)`` of block ``(bi, bj)``."""
        r0, r1 = self.row_bounds(bi)
        c0, c1 = self.col_bounds(bj)
        return slice(r0, r1), slice(c0, c1)

    def block_shape(self, bi: int, bj: int) -> tuple[int, int]:
        """Return the ``(rows, cols)`` shape of block ``(bi, bj)``."""
        r0, r1 = self.row_bounds(bi)
        c0, c1 = self.col_bounds(bj)
        return r1 - r0, c1 - c0

    @property
    def uniform(self) -> bool:
        """``True`` when every block has the same shape."""
        return self.nrows % self.grows == 0 and self.ncols % self.gcols == 0

    @property
    def nblocks(self) -> int:
        return self.grows * self.gcols

    # -- global <-> block coordinate maps ------------------------------------------

    def owner_of(self, i: int, j: int) -> tuple[int, int]:
        """Block coordinates ``(bi, bj)`` owning global element ``(i, j)``."""
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"element ({i},{j}) outside {self.nrows}x{self.ncols}")
        return self._owner_1d(i, self.nrows, self.grows), self._owner_1d(
            j, self.ncols, self.gcols
        )

    @staticmethod
    def _owner_1d(i: int, n: int, g: int) -> int:
        q, r = divmod(n, g)
        split = r * (q + 1)
        if i < split:
            return i // (q + 1)
        return r + (i - split) // q

    def local_index(self, i: int, j: int) -> tuple[int, int]:
        """Coordinates of global element ``(i, j)`` inside its owning block."""
        bi, bj = self.owner_of(i, j)
        r0, _ = self.row_bounds(bi)
        c0, _ = self.col_bounds(bj)
        return i - r0, j - c0

    # -- scatter / gather ----------------------------------------------------------

    def stack(self, m: np.ndarray) -> np.ndarray | list[np.ndarray]:
        """The blocks of matrix *m* in row-major block order.

        Block ``(bi, bj)`` is ``stack[bi * gcols + bj]``, and the blocks
        are the caller's own: writing into one never changes *m* or
        another block.  An even partition is copied once, with one
        strided copy, into a fresh contiguous ``(grows*gcols, rows,
        cols)`` array; an uneven partition copies block by block into a
        list of separate arrays.
        """
        if m.shape != (self.nrows, self.ncols):
            raise ValueError(f"matrix shape {m.shape} != spec {(self.nrows, self.ncols)}")
        if self.uniform:
            br, bc = self.nrows // self.grows, self.ncols // self.gcols
            buf = m.reshape(self.grows, br, self.gcols, bc).transpose(0, 2, 1, 3).copy()
            return buf.reshape(-1, br, bc)
        rows = [self._bounds(self.nrows, self.grows, bi) for bi in range(self.grows)]
        cols = [self._bounds(self.ncols, self.gcols, bj) for bj in range(self.gcols)]
        return [np.ascontiguousarray(m[r0:r1, c0:c1]) for r0, r1 in rows for c0, c1 in cols]

    def scatter(self, m: np.ndarray) -> list[list[np.ndarray]]:
        """Split matrix *m* into a ``grows x gcols`` nested list of blocks.

        The blocks are those of :meth:`stack`: for an even partition,
        C-contiguous views of their slots in its one buffer (so
        ``block.base`` is the shared buffer, which stays alive while any
        block does).
        """
        blocks = self.stack(m)
        return [list(blocks[bi * self.gcols:(bi + 1) * self.gcols]) for bi in range(self.grows)]

    def gather(self, blocks: list[list[np.ndarray]]) -> np.ndarray:
        """Reassemble a full matrix from a nested list of blocks (inverse of scatter)."""
        if len(blocks) != self.grows or any(len(row) != self.gcols for row in blocks):
            raise ValueError("block grid shape mismatch")
        out = np.empty((self.nrows, self.ncols), dtype=np.result_type(*[b.dtype for row in blocks for b in row]))
        rows = [self._bounds(self.nrows, self.grows, bi) for bi in range(self.grows)]
        cols = [self._bounds(self.ncols, self.gcols, bj) for bj in range(self.gcols)]
        for bi, ((r0, r1), row) in enumerate(zip(rows, blocks)):
            for bj, ((c0, c1), blk) in enumerate(zip(cols, row)):
                if blk.shape != (r1 - r0, c1 - c0):
                    raise ValueError(
                        f"block ({bi},{bj}) has shape {blk.shape}, expected {(r1 - r0, c1 - c0)}"
                    )
                out[r0:r1, c0:c1] = blk
        return out


def block_slices(n: int, g: int) -> list[slice]:
    """One-dimensional block slices partitioning ``range(n)`` into *g* pieces."""
    spec = BlockSpec(n, 1, g, 1)
    return [slice(*spec.row_bounds(b)) for b in range(g)]


def block_shape(n: int, g: int, b: int) -> int:
    """Length of one-dimensional block *b* when ``range(n)`` is split *g* ways."""
    lo, hi = BlockSpec(n, 1, g, 1).row_bounds(b)
    return hi - lo


def scatter_blocks(m: np.ndarray, grows: int, gcols: int) -> list[list[np.ndarray]]:
    """Convenience wrapper: scatter *m* over a ``grows x gcols`` block grid."""
    return BlockSpec(m.shape[0], m.shape[1], grows, gcols).scatter(m)


def gather_blocks(blocks: list[list[np.ndarray]]) -> np.ndarray:
    """Convenience wrapper: reassemble a matrix from a nested block list."""
    nrows = sum(row[0].shape[0] for row in blocks)
    ncols = sum(b.shape[1] for b in blocks[0])
    return BlockSpec(nrows, ncols, len(blocks), len(blocks[0])).gather(blocks)
