"""Payload dataflow of trace-compiled runs: traced blocks and stacked evaluation.

A compiled run (:mod:`repro.simulator.compile`) records a few probe
ranks and replays the whole machine from their traces.  The request
stream gives the timing; this module gives the data.

* **Recording.**  The initial blocks a driver declares on
  :class:`~repro.simulator.compile.SymmetrySpec` reach a probe program
  as :class:`TracedBlock` proxies (through
  :meth:`~repro.simulator.engine.RankInfo.input`).  ``@`` and ``+`` on
  them append nodes to the probe's :class:`Graph`; ``.shape`` and
  ``.size`` read the metadata every node carries.  Anything else that
  would read values (indexing, reductions, ``float(...)``) raises, and
  the compiler falls back to ``heap``.  The compiler turns every block a
  probe receives into a *gather*: rank ``r`` gets node ``x`` as held by
  rank ``src[r]``, through the peer vectors lowering already builds.
* **Evaluation.**  :class:`Dataflow` evaluates the resolved graph for
  every rank at once, on ``(p, r, c)`` stacks:

  - a gather of an input is an index vector into the driver's stacked
    buffer, and a gather of a gather composes two vectors, so moving a
    block never copies it;
  - each ``@`` or ``+`` a rank needs fills a fresh stack a chunk of
    ranks at a time (``@`` is one batched ``np.matmul`` per chunk),
    materializing only that chunk of its operands, and every stack is
    freed after its last reader;
  - a reduce-scatter is ``log2 g`` rounds of ``X += X[partner]``, the
    reference's own per-element sums.

  Stacked ``np.matmul`` runs the same per-block kernel as a 2-D ``a @ b``
  and the adds are elementwise, so every rank's value is bit-identical
  to what the generator schedulers compute rank by rank.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

import numpy as np

__all__ = ["TracedBlock", "Graph", "Dataflow", "ReduceScatter"]

#: Words of one operand a chunked arithmetic pass materializes at once:
#: 81 ranks of 20x20 blocks (the largest Fig. 5 point), and 8192-rank
#: slabs of the 2x2 blocks of a 65,536-rank run.
_CHUNK_WORDS = 1 << 15


class TracedBlock:
    """A probe's block while it records: arithmetic appends graph nodes.

    *shape* is ``None`` for per-rank values with no common shape (a
    reduce-scatter's piece and its ``lo``/``hi``); those may only be
    returned.
    """

    __slots__ = ("graph", "node", "shape", "dtype")

    #: numpy defers every operator to this class, which supports only
    #: the two below; mixed array/proxy arithmetic raises TypeError
    __array_ufunc__ = None

    def __init__(self, graph: "Graph", node: int, shape: Any, dtype: np.dtype) -> None:
        self.graph = graph
        self.node = node
        self.shape = shape
        self.dtype = dtype

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def _operand(self, other: Any, op: str) -> "TracedBlock":
        if not isinstance(other, TracedBlock) or other.graph is not self.graph:
            raise TypeError(
                f"traced {op} needs a block derived from declared inputs or "
                f"messages, got {type(other).__name__}"
            )
        if self.shape is None or other.shape is None:
            raise TypeError(f"traced {op} of a per-rank value that may only be returned")
        return other

    def __matmul__(self, other: Any) -> "TracedBlock":
        b = self._operand(other, "@")
        if len(self.shape) != 2 or len(b.shape) != 2 or self.shape[1] != b.shape[0]:
            raise ValueError(f"traced @ of shapes {self.shape} and {b.shape}")
        return self.graph.add(
            ("matmul", self.node, b.node), (self.shape[0], b.shape[1]), _joint(self, b)
        )

    def __add__(self, other: Any) -> "TracedBlock":
        b = self._operand(other, "+")
        if self.shape != b.shape:
            raise ValueError(f"traced + of shapes {self.shape} and {b.shape}")
        return self.graph.add(("add", self.node, b.node), self.shape, _joint(self, b))


def _joint(a: TracedBlock, b: TracedBlock) -> np.dtype:
    return a.dtype if a.dtype == b.dtype else np.result_type(a.dtype, b.dtype)


class Graph:
    """One probe's dataflow: ``(kind, *args, shape, dtype)`` nodes in creation order.

    Kinds recorded here: ``("input", name)``, ``("recv", step)`` for the
    block a ``Recv`` at op index *step* resumed with, ``("coll", step,
    t)`` for output *t* of a collective, and ``("matmul"|"add", x, y)``.
    """

    __slots__ = ("nodes",)

    def __init__(self) -> None:
        self.nodes: list[tuple] = []

    def add(self, node: tuple, shape: Any, dtype: np.dtype) -> TracedBlock:
        self.nodes.append(node + (shape, dtype))
        return TracedBlock(self, len(self.nodes) - 1, shape, dtype)


class ReduceScatter:
    """A lowered reduce-scatter on one axis: per-round partners, final intervals."""

    __slots__ = ("partners", "lo", "hi")

    def __init__(self, partners: list[np.ndarray], lo: np.ndarray, hi: np.ndarray) -> None:
        self.partners = partners
        self.lo = lo
        self.hi = hi


class Dataflow:
    """A compiled run's payload graph, resolved for every rank.

    *nodes* are ``(kind, *args, shape, dtype)`` in topological order,
    with kinds ``("input", name)``, ``("gather", x, src)`` (rank ``r``
    holds node *x* of rank ``src[r]``), ``("matmul"|"add", x, y)`` and
    ``("rs", x, ReduceScatter, part)`` with *part* one of ``"piece"``,
    ``"lo"``, ``"hi"``.  *inputs* maps each input name to ``(stack,
    index)``: rank ``r`` starts with ``stack[index[r]]``.  *returns* is
    the probes' common return template: ``("node", i)``, ``("const",
    v)``, or ``("tuple"|"list", children)``.
    """

    __slots__ = ("nodes", "returns", "inputs", "nprocs")

    def __init__(
        self,
        nodes: list[tuple],
        returns: tuple,
        inputs: Mapping[str, tuple[np.ndarray, np.ndarray]],
        nprocs: int,
    ) -> None:
        self.nodes = nodes
        self.returns = returns
        self.inputs = inputs
        self.nprocs = nprocs

    def evaluate(self) -> list[Any]:
        """Every rank's return value, computed on stacks in one pass over the graph."""
        nodes = self.nodes
        leaves = _leaves(self.returns)
        keep = set(leaves)
        # the node after which each value is dead
        last: dict[int, int] = {}
        for i, node in enumerate(nodes):
            for x in _operands(node):
                last[x] = i
        dies: dict[int, list[int]] = {}
        for x, i in last.items():
            if x not in keep:
                dies.setdefault(i, []).append(x)
        # node -> (base, index): rank r's value is base[index[r]], or
        # base[r] when index is None
        held: dict[int, tuple[Any, np.ndarray | None]] = {}
        pieces: dict[int, np.ndarray] = {}
        for i, node in enumerate(nodes):
            kind = node[0]
            if kind == "input":
                held[i] = self.inputs[node[1]]
            elif kind == "gather":
                base, index = held[node[1]]
                src = node[2]
                held[i] = (base, src if index is None else index[src])
            elif kind == "rs":
                if node[3] == "piece" and i in keep:
                    pieces[i] = self._reduce_scatter(node[1], node[2], held)
            elif i in keep or i in last:
                held[i] = (self._compute(node, held), None)
            for x in dies.get(i, ()):
                held.pop(x, None)
        values = {i: self._per_rank(i, held, pieces) for i in leaves}
        return _assemble(self.returns, values, self.nprocs)

    # -- evaluation internals --------------------------------------------------------

    def _compute(self, node: tuple, held: dict) -> np.ndarray:
        """One ``@``/``+`` node for every rank: a fresh stack, filled a chunk at a time."""
        kind, x, y, shape, dtype = node
        p = self.nprocs
        out = np.empty((p,) + shape, dtype=dtype)
        widest = max(math.prod(s) for s in (shape, self.nodes[x][-2], self.nodes[y][-2]))
        rows = max(1, _CHUNK_WORDS // max(widest, 1))
        for lo in range(0, p, rows):
            sl = slice(lo, min(p, lo + rows))
            out[sl] = _apply(kind, _take(held[x], sl), _take(held[y], sl))
        return out

    def _reduce_scatter(self, x: int, rs: ReduceScatter, held: dict) -> np.ndarray:
        """Recursive halving on a stack: each rank's kept interval sums exactly."""
        base, index = held[x]
        stack = base if index is None else base[index]
        dtype = np.result_type(self.nodes[x][-1], np.float64)
        flat = stack.reshape(self.nprocs, -1).astype(dtype, copy=True)
        for partner in rs.partners:
            # rank r keeps flat[r] + flat[partner[r]] on its interval, which
            # is the reference's own add; the rest of the row is never read
            flat += flat[partner]
        return flat

    def _per_rank(self, i: int, held: dict, pieces: dict) -> list[Any]:
        node = self.nodes[i]
        if node[0] == "rs":
            rs, part = node[2], node[3]
            if part == "piece":
                flat = pieces[i]
                bounds = zip(rs.lo.tolist(), rs.hi.tolist())
                return [flat[r, a:b] for r, (a, b) in enumerate(bounds)]
            return (rs.lo if part == "lo" else rs.hi).tolist()
        base, index = held[i]
        if index is None:
            return list(base)
        return [base[k] for k in index.tolist()]


_ARITH = ("matmul", "add")


def _operands(node: tuple) -> tuple[int, ...]:
    kind = node[0]
    if kind in _ARITH:
        return node[1:3]
    if kind in ("gather", "rs"):
        return node[1:2]
    return ()


def _apply(kind: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(a, b) if kind == "matmul" else a + b


def _take(value: tuple[Any, np.ndarray | None], sl: slice) -> np.ndarray:
    base, index = value
    return base[sl] if index is None else base[index[sl]]


def _leaves(template: tuple) -> list[int]:
    kind = template[0]
    if kind == "node":
        return [template[1]]
    if kind == "const":
        return []
    return [i for child in template[1] for i in _leaves(child)]


def _assemble(template: tuple, values: dict[int, list[Any]], p: int) -> list[Any]:
    kind = template[0]
    if kind == "node":
        return values[template[1]]
    if kind == "const":
        return [template[1]] * p
    columns = [_assemble(child, values, p) for child in template[1]]
    rows = zip(*columns) if columns else [()] * p
    return [tuple(r) for r in rows] if kind == "tuple" else [list(r) for r in rows]
