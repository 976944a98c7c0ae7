"""Interconnection topologies with hop metrics and embedding helpers.

The simulator charges per-message costs that depend on the routed distance
between source and destination, so a topology only needs to expose

* its size,
* a ``distance(a, b)`` hop metric, and
* neighbor enumeration (used by sanity checks and the all-port analysis).

Three topologies cover everything in the paper:

* :class:`Hypercube` — the architecture all of Section 4–8 assumes,
* :class:`Mesh2D` — a (wraparound) processor mesh, on which Cannon and Fox
  were originally formulated,
* :class:`FullyConnected` — the paper's model of the CM-5 fat-tree
  ("the CM-5 can be viewed as a fully connected architecture", Section 9).

Gray-code helpers implement the standard embedding of rings and 2-D tori
into hypercubes so that logical mesh neighbors are physical hypercube
neighbors (distance 1).
"""

from __future__ import annotations

import math
import weakref
from abc import ABC, abstractmethod
from typing import ClassVar

import numpy as np

__all__ = [
    "Topology",
    "Hypercube",
    "Mesh2D",
    "FullyConnected",
    "PairHopCache",
    "gray_code",
    "gray_rank",
    "inverse_gray_code",
]


def gray_code(i: int) -> int:
    """The *i*-th binary-reflected Gray code."""
    if i < 0:
        raise ValueError("index must be non-negative")
    return i ^ (i >> 1)


def inverse_gray_code(g: int) -> int:
    """Index *i* such that ``gray_code(i) == g``."""
    if g < 0:
        raise ValueError("code must be non-negative")
    i = 0
    while g:
        i ^= g
        g >>= 1
    return i


def gray_rank(coords: tuple[int, ...], dims: tuple[int, ...]) -> int:
    """Hypercube rank of a point in a multi-dimensional torus embedding.

    Each torus coordinate (``dims[k]`` must be a power of two) is mapped
    through a binary-reflected Gray code and the resulting bit-fields are
    concatenated, so stepping ±1 (with wraparound) along any torus axis
    changes exactly one bit of the rank — i.e. moves to a hypercube
    neighbor.
    """
    if len(coords) != len(dims):
        raise ValueError("coords/dims length mismatch")
    rank = 0
    for c, d in zip(coords, dims):
        if d <= 0 or d & (d - 1):
            raise ValueError(f"torus dimension {d} is not a power of two")
        if not 0 <= c < d:
            raise ValueError(f"coordinate {c} outside [0, {d})")
        rank = (rank << d.bit_length() - 1) | gray_code(c)
    return rank


class Topology(ABC):
    """Abstract interconnect: a set of nodes with a hop metric."""

    #: number of processors
    size: int

    @abstractmethod
    def distance(self, a: int, b: int) -> int:
        """Number of links on a shortest route from *a* to *b*."""

    def distances(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`distance` over paired node arrays.

        :meth:`PairHopCache.bulk` looks up a whole batch of pairs in one
        shot, so concrete topologies override this with closed-form
        array arithmetic; the base implementation falls back to the
        scalar metric.
        """
        return np.fromiter(
            (self.distance(int(a), int(b)) for a, b in zip(src, dst)),
            dtype=np.int64,
            count=len(src),
        )

    @abstractmethod
    def neighbors(self, a: int) -> list[int]:
        """Directly connected nodes of *a*."""

    @property
    def degree(self) -> int:
        """Maximum node degree (number of ports; Section 7 cares about this)."""
        return max(len(self.neighbors(a)) for a in range(self.size))

    def _check(self, *nodes: int) -> None:
        for x in nodes:
            if not 0 <= x < self.size:
                raise ValueError(f"node {x} outside [0, {self.size})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(size={self.size})"


class Hypercube(Topology):
    """A *d*-dimensional binary hypercube of ``2**d`` nodes."""

    def __init__(self, dim: int) -> None:
        if dim < 0:
            raise ValueError("dimension must be non-negative")
        self.dim = dim
        self.size = 1 << dim

    @classmethod
    def of_size(cls, p: int) -> "Hypercube":
        """A hypercube with exactly *p* nodes (*p* must be a power of two)."""
        if p <= 0 or p & (p - 1):
            raise ValueError(f"hypercube size {p} is not a power of two")
        return cls(p.bit_length() - 1)

    def distance(self, a: int, b: int) -> int:
        self._check(a, b)
        return (a ^ b).bit_count()

    def distances(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        return np.bitwise_count(np.bitwise_xor(src, dst)).astype(np.int64)

    def neighbors(self, a: int) -> list[int]:
        self._check(a)
        return [a ^ (1 << k) for k in range(self.dim)]


class Mesh2D(Topology):
    """A ``rows x cols`` two-dimensional mesh, optionally with wraparound links."""

    def __init__(self, rows: int, cols: int, wraparound: bool = True) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError("mesh dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.wraparound = wraparound
        self.size = rows * cols

    def coords(self, a: int) -> tuple[int, int]:
        """Row-major ``(row, col)`` coordinates of node *a*."""
        self._check(a)
        return divmod(a, self.cols)

    def rank(self, r: int, c: int) -> int:
        """Node id at ``(row, col)`` (coordinates taken modulo the mesh size)."""
        return (r % self.rows) * self.cols + (c % self.cols)

    @staticmethod
    def _axis_dist(a: int, b: int, n: int, wrap: bool) -> int:
        d = abs(a - b)
        return min(d, n - d) if wrap else d

    def distance(self, a: int, b: int) -> int:
        ra, ca = self.coords(a)
        rb, cb = self.coords(b)
        return self._axis_dist(ra, rb, self.rows, self.wraparound) + self._axis_dist(
            ca, cb, self.cols, self.wraparound
        )

    def distances(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        ra, ca = np.divmod(np.asarray(src), self.cols)
        rb, cb = np.divmod(np.asarray(dst), self.cols)
        dr = np.abs(ra - rb)
        dc = np.abs(ca - cb)
        if self.wraparound:
            dr = np.minimum(dr, self.rows - dr)
            dc = np.minimum(dc, self.cols - dc)
        return (dr + dc).astype(np.int64)

    def neighbors(self, a: int) -> list[int]:
        r, c = self.coords(a)
        out: list[int] = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nr, nc = r + dr, c + dc
            if self.wraparound:
                out.append(self.rank(nr, nc))
            elif 0 <= nr < self.rows and 0 <= nc < self.cols:
                out.append(self.rank(nr, nc))
        # wraparound on a 1-wide axis would duplicate entries
        return sorted(set(out) - {a})


class FullyConnected(Topology):
    """Every pair of distinct nodes is one hop apart (CM-5 fat-tree model)."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size

    def distance(self, a: int, b: int) -> int:
        self._check(a, b)
        return 0 if a == b else 1

    def distances(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        return (np.asarray(src) != np.asarray(dst)).astype(np.int64)

    def neighbors(self, a: int) -> list[int]:
        self._check(a)
        return [b for b in range(self.size) if b != a]


class PairHopCache:
    """Precomputed hop tables for the trace compiler's bulk lookups.

    The trace compiler charges every rank's share of a phase in one
    shot, so it needs routed hop counts for arrays of ``(src, dst)``
    pairs, clamped to at least one link exactly like the scalar message
    path (``max(distance(src, dst), 1)`` in
    :meth:`~repro.core.machine.MachineParams.transfer_time`).

    The three concrete topologies answer :meth:`Topology.distances` in
    closed-form array arithmetic, so for them :meth:`bulk` is a single
    vectorized call.  A topology that only defines the scalar metric
    would fall into the base class's Python-loop fallback on every
    lookup; for those the cache memoizes per-pair results instead
    (repeated pairs dominate the lockstep exchange patterns that
    compile).

    A cache holds its topology weakly, so the caller must keep the
    topology alive while it uses the cache.  A strong reference would
    keep every :meth:`shared` entry's key alive, and the table would
    grow by one topology and its cache with every engine run.
    """

    __slots__ = ("_topology", "_vectorized", "_pairs")

    def __init__(self, topology: "Topology") -> None:
        self._topology = weakref.proxy(topology)
        self._vectorized = type(topology).distances is not Topology.distances
        self._pairs: dict[tuple[int, int], int] = {}

    def bulk(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Routed hops (``>= 1``) for paired source/destination arrays."""
        if self._vectorized:
            return np.maximum(self._topology.distances(src, dst), 1)
        pairs = self._pairs
        distance = self._topology.distance
        out = np.empty(len(src), dtype=np.int64)
        for i, (a, b) in enumerate(zip(src.tolist(), dst.tolist())):
            hops = pairs.get((a, b))
            if hops is None:
                hops = pairs[(a, b)] = max(distance(a, b), 1)
            out[i] = hops
        return out

    _shared: ClassVar["weakref.WeakKeyDictionary[Topology, PairHopCache]"] = (
        weakref.WeakKeyDictionary()
    )

    @classmethod
    def shared(cls, topology: "Topology") -> "PairHopCache":
        """The process-wide cache for *topology* (one per topology instance).

        The trace compiler routes its hop lookups through this accessor
        so memoized scalar-topology tables survive across compilations
        instead of being rebuilt per run.  Entries are weakly keyed:
        dropping the topology drops its cache.
        """
        cache = cls._shared.get(topology)
        if cache is None:
            cache = cls._shared[topology] = cls(topology)
        return cache


def square_side(p: int) -> int:
    """Side of a √p x √p grid; raises if *p* is not a perfect square."""
    s = math.isqrt(p)
    if s * s != p:
        raise ValueError(f"{p} is not a perfect square")
    return s
