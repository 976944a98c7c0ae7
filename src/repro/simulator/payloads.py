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
* **Extents.**  Under an uneven block partition a block dimension
  differs from rank to rank.  Such a dimension is an :class:`Extent`
  named by the node and axis it belongs to; ``+``, ``-`` and ``*`` on
  extents build expressions (a size, a ``matmul_cost``), and anything
  that would turn one into a single number (``int()``, comparisons,
  branching, hashing) raises, so a probe never mistakes its own extent
  for every rank's.  The compiler binds each extent to a ``(p,)``
  vector once every node's per-rank shape is known, and checks there
  the shape rules recording had to defer (the inner dimensions of
  ``@``, the operands of ``+``).  A dimension every block shares stays
  a plain ``int``, so an even partition records no extents at all.
* **Evaluation.**  :class:`Dataflow` evaluates the resolved graph for
  every rank at once, on ``(p, r, c)`` stacks, one stack per block
  shape (a *class*; an even partition is the one-class case):

  - a gather of an input is an index vector into the driver's stacked
    buffer (a class vector and a row vector when there are several
    classes), and a gather of a gather composes the vectors, so moving
    a block never copies it;
  - each ``@`` or ``+`` a rank needs fills a fresh stack per output
    class a chunk of ranks at a time (``@`` is one batched
    ``np.matmul`` per chunk and operand-class pair), materializing only
    that chunk of its operands, and every stack is freed after its last
    reader;
  - a reduce-scatter is ``log2 g`` rounds of ``X += X[partner]``, the
    reference's own per-element sums;
  - a binomial reduce fills a fresh stack with one root value per group,
    per class, a chunk of groups at a time, adding members in
    :func:`~repro.simulator.collectives.reduce_binomial`'s pairs and
    order; an ``@`` or ``+`` that only the reduce reads is computed there,
    for each chunk's members, so its full stack never exists.

  A node a rooted collective leaves at only some ranks (a reduce at its
  roots, a route at its targets) carries the mask of those ranks, and
  every other rank's value is ``None``, as the reference returns there.

  Stacked ``np.matmul`` runs the same per-block kernel as a 2-D ``a @ b``
  and the adds are elementwise, so every rank's value is bit-identical
  to what the generator schedulers compute rank by rank.  Stacks are
  never zero-padded to a common shape: a padded product is not bitwise
  the unpadded one.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

import numpy as np

__all__ = ["Extent", "TracedBlock", "Graph", "Dataflow", "ReduceScatter"]

#: Words of one operand a chunked arithmetic pass materializes at once:
#: 81 ranks of 20x20 blocks (the largest Fig. 5 point), and 8192-rank
#: slabs of the 2x2 blocks of a 65,536-rank run.
_CHUNK_WORDS = 1 << 15


class Extent:
    """A block dimension that differs from rank to rank, or an expression of such.

    *key* is the expression as a hashable tree: ``("s", node, axis)``
    for the dimension itself, ``(op, a, b)`` with *op* one of ``"+"``,
    ``"-"``, ``"*"`` for arithmetic, ints as themselves and floats as
    ``("f", value)``.  Probes compare keys, never values; the compiler
    evaluates a key per rank with :func:`evaluate`, in the order the
    program built it, so every rank gets the float the reference
    computes.
    """

    __slots__ = ("key",)

    #: numpy defers ``np.float64(0.5) * extent`` to :meth:`__rmul__`
    __array_ufunc__ = None

    def __init__(self, key: tuple) -> None:
        self.key = key

    def __add__(self, other: Any) -> Any:
        return _build("+", self, other)

    def __radd__(self, other: Any) -> Any:
        return _build("+", other, self)

    def __sub__(self, other: Any) -> Any:
        return _build("-", self, other)

    def __rsub__(self, other: Any) -> Any:
        return _build("-", other, self)

    def __mul__(self, other: Any) -> Any:
        return _build("*", self, other)

    def __rmul__(self, other: Any) -> Any:
        return _build("*", other, self)

    def _refuse(self, *_: Any) -> Any:
        raise TypeError(
            f"{self!r} is a block extent that differs from rank to rank; it has "
            f"no single value to convert, compare, branch on or hash"
        )

    __int__ = __float__ = __index__ = __bool__ = __hash__ = _refuse
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Extent({self.key!r})"


def _term(x: Any) -> Any:
    """An operand's key: ints as themselves, floats tagged, extents by key."""
    if isinstance(x, Extent):
        return x.key
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, float):
        return ("f", float(x))
    return None


def _build(op: str, a: Any, b: Any) -> Any:
    ka, kb = _term(a), _term(b)
    if ka is None or kb is None:
        return NotImplemented
    return Extent((op, ka, kb))


def key_of(x: Any) -> Any:
    """*x* as recorded: an extent by its key, anything else as it is."""
    return x.key if isinstance(x, Extent) else x


def symbolic(x: Any) -> bool:
    """Whether a recorded size, cost or dimension is an extent's key."""
    return x.__class__ is tuple


def evaluate(key: Any, values: Mapping[tuple[int, int], Any]) -> Any:
    """A recorded key for every rank: *values* maps ``(node, axis)`` to a vector.

    Ints and floats are constants.  Each operation is one elementwise
    numpy operation in the order the program wrote it.
    """
    if key.__class__ is not tuple:
        return key
    tag = key[0]
    if tag == "s":
        return values[key[1:]]
    if tag == "f":
        return key[1]
    a, b = evaluate(key[1], values), evaluate(key[2], values)
    if tag == "+":
        return a + b
    if tag == "-":
        return a - b
    return a * b


class TracedBlock:
    """A probe's block while it records: arithmetic appends graph nodes.

    *shape* is a tuple of ``int`` and :class:`Extent` dimensions, or
    ``None`` for per-rank values with no common shape (a reduce-scatter's
    piece and its ``lo``/``hi``); those may only be returned.
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
    def size(self) -> Any:
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
        if len(self.shape) != 2 or len(b.shape) != 2 or _differ(self.shape[1], b.shape[0]):
            raise ValueError(f"traced @ of shapes {self.shape} and {b.shape}")
        return self.graph.add(
            ("matmul", self.node, b.node), (self.shape[0], b.shape[1]), _joint(self, b)
        )

    def __add__(self, other: Any) -> "TracedBlock":
        b = self._operand(other, "+")
        if len(self.shape) != len(b.shape) or any(map(_differ, self.shape, b.shape)):
            raise ValueError(f"traced + of shapes {self.shape} and {b.shape}")
        # an int dimension is the more concrete; the compiler checks the
        # rest per rank
        shape = tuple(x if x.__class__ is int else y for x, y in zip(self.shape, b.shape))
        return self.graph.add(("add", self.node, b.node), shape, _joint(self, b))


def _differ(x: Any, y: Any) -> bool:
    """Two dimensions that differ everywhere; extents are compared per rank later."""
    return x.__class__ is int and y.__class__ is int and x != y


def _joint(a: TracedBlock, b: TracedBlock) -> np.dtype:
    return a.dtype if a.dtype == b.dtype else np.result_type(a.dtype, b.dtype)


class Graph:
    """One probe's dataflow: ``(kind, *args, shape, dtype)`` nodes in creation order.

    Kinds recorded here: ``("input", name)``, ``("recv", step)`` for the
    block a ``Recv`` at op index *step* resumed with, ``("coll", step,
    t)`` for output *t* of a collective (recorded on every probe, also
    where a rooted collective hands the program ``None``), and
    ``("matmul"|"add", x, y)``.  A node's recorded shape holds each
    extent by its key, so probes' graphs compare with ``==``.
    """

    __slots__ = ("nodes",)

    def __init__(self) -> None:
        self.nodes: list[tuple] = []

    def add(self, node: tuple, shape: Any, dtype: np.dtype) -> TracedBlock:
        """A node whose dimensions are its operands' (``@``, ``+``)."""
        self.nodes.append(node + (_recorded(shape), dtype))
        return TracedBlock(self, len(self.nodes) - 1, shape, dtype)

    def source(self, node: tuple, shape: Any, dtype: np.dtype) -> TracedBlock:
        """A node whose block comes from elsewhere (an input, a message).

        Every dimension that is not an ``int`` (an extent, or ``None`` for
        an input dimension that differs between blocks) becomes the
        extent ``(node, axis)`` of this node.
        """
        if _recorded(shape) is not shape:
            i = len(self.nodes)
            shape = tuple(
                d if d.__class__ is int else Extent(("s", i, axis))
                for axis, d in enumerate(shape)
            )
        return self.add(node, shape, dtype)


def _recorded(shape: Any) -> Any:
    """A shape as a graph records it: itself when every dimension is an int."""
    if shape is not None:
        for d in shape:
            if d.__class__ is not int:
                return tuple(map(key_of, shape))
    return shape


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
    holds node *x* of rank ``src[r]``), ``("matmul"|"add", x, y)``,
    ``("rs", x, ReduceScatter, part)`` with *part* one of ``"piece"``,
    ``"lo"``, ``"hi"``, and ``("reduce", x, members, row)``: the sum of
    node *x* over each row of the ``(G, g)`` matrix *members* (ranks in
    the binomial tree's relative order, the root first), which rank
    ``r`` reads at row ``row[r]``.  *inputs* maps each input name to a
    held value ``(stacks, cls, index)``: rank ``r`` starts with
    ``stacks[cls[r]][index[r]]``, one stack per block shape; ``cls`` is
    ``None`` when there is one stack, and ``index`` ``None`` for ``r``
    itself.  Every value the evaluation holds has this form.
    *returns* is the probes' common return template: ``("node", i)``,
    ``("const", v)``, ``("each", values)`` (one value per rank), or
    ``("tuple"|"list", children)``.  *defined* maps a node that exists
    at only some ranks to their boolean mask.
    """

    __slots__ = ("nodes", "returns", "inputs", "nprocs", "defined")

    def __init__(
        self,
        nodes: list[tuple],
        returns: tuple,
        inputs: Mapping[str, tuple],
        nprocs: int,
        defined: Mapping[int, np.ndarray] | None = None,
    ) -> None:
        self.nodes = nodes
        self.returns = returns
        self.inputs = inputs
        self.nprocs = nprocs
        self.defined = defined or {}

    def evaluate(self) -> list[Any]:
        """Every rank's return value, computed on stacks in one pass over the graph."""
        nodes = self.nodes
        leaves = _leaves(self.returns)
        keep = set(leaves)
        # the node after which each value is dead
        last: dict[int, int] = {}
        readers: dict[int, int] = {}
        for i, node in enumerate(nodes):
            for x in _operands(node):
                last[x] = i
                readers[x] = readers.get(x, 0) + 1
        # an @/+ node read only by a reduce is computed inside it, a chunk
        # of groups at a time, so its (p, r, c) stack never exists whole;
        # its operands live until the reduce
        fused = {
            node[1]: i
            for i, node in enumerate(nodes)
            if node[0] == "reduce"
            and nodes[node[1]][0] in _ARITH
            and readers[node[1]] == 1
            and node[1] not in keep
        }
        for x, i in fused.items():
            for y in _operands(nodes[x]):
                last[y] = max(last[y], i)
        dies: dict[int, list[int]] = {}
        for x, i in last.items():
            if x not in keep:
                dies.setdefault(i, []).append(x)
        held: dict[int, tuple] = {}
        pieces: dict[int, np.ndarray] = {}
        for i, node in enumerate(nodes):
            kind = node[0]
            if kind == "input":
                held[i] = self.inputs[node[1]]
            elif kind == "gather":
                stacks, cls, index = held[node[1]]
                src = node[2]
                held[i] = (
                    stacks,
                    None if cls is None else cls[src],
                    src if index is None else index[src],
                )
            elif kind == "rs":
                if node[3] == "piece" and i in keep:
                    pieces[i] = self._reduce_scatter(node[1], node[2], held)
            elif kind == "reduce":
                if i in keep or i in last:
                    stacks, cls, where = self._reduce(node[1], node[2], held, node[1] in fused)
                    row = node[3]
                    held[i] = (
                        stacks,
                        None if cls is None else cls[row],
                        row if where is None else where[row],
                    )
            elif (i in keep or i in last) and i not in fused:
                held[i] = self._compute(node, held)
            for x in dies.get(i, ()):
                held.pop(x, None)
        values = {i: self._per_rank(i, held, pieces) for i in leaves}
        return _assemble(self.returns, values, self.nprocs)

    # -- evaluation internals --------------------------------------------------------

    def _plan(self, node: tuple, held: dict) -> tuple[list[tuple], Any, Any]:
        """The output classes of one ``@``/``+`` node.

        Returns ``(shapes, cls, pairs)``: the shape of each output class,
        each rank's output class (``None`` when there is one), and
        ``(pair, ny)`` with rank ``r``'s operand classes
        ``divmod(pair[r], ny)`` (``None`` when each operand has one class).
        """
        kind, x, y = node[:3]
        sx, cx, _ = held[x]
        sy, cy, _ = held[y]
        if cx is None and cy is None:
            return [_out_shape(kind, sx[0], sy[0])], None, None
        ny = len(sy)
        pair = (0 if cx is None else cx * ny) + (0 if cy is None else cy)
        classes: dict[tuple, int] = {}
        of_pair = np.zeros(len(sx) * ny, dtype=np.int64)
        for u in np.flatnonzero(np.bincount(pair, minlength=of_pair.size)).tolist():
            kx, ky = divmod(u, ny)
            of_pair[u] = classes.setdefault(_out_shape(kind, sx[kx], sy[ky]), len(classes))
        return list(classes), of_pair[pair] if len(classes) > 1 else None, (pair, ny)

    def _arith(
        self, kind: str, hx: tuple, hy: tuple, part: Any, pairs: Any, shape: tuple, dtype: Any
    ) -> np.ndarray:
        """``@``/``+`` for the ranks *part* (all of one output class): a fresh stack."""
        if pairs is None:
            return _apply(kind, _take(hx, part), _take(hy, part))
        pair, ny = pairs
        if part.__class__ is slice:
            part = np.arange(part.start, part.stop)
        codes = pair[part]
        first = int(codes[0])
        if (codes == first).all():
            kx, ky = divmod(first, ny)
            return _apply(kind, _pick(hx, kx, part), _pick(hy, ky, part))
        # one batched product per operand-class pair of the chunk
        out = np.empty((part.size,) + shape, dtype=dtype)
        for u in np.unique(codes).tolist():
            sel = np.flatnonzero(codes == u)
            kx, ky = divmod(u, ny)
            out[sel] = _apply(kind, _pick(hx, kx, part[sel]), _pick(hy, ky, part[sel]))
        return out

    def _compute(self, node: tuple, held: dict) -> tuple:
        """One ``@``/``+`` node for every rank: fresh stacks, filled a chunk at a time."""
        kind, x, y, _, dtype = node
        shapes, cls, pairs = self._plan(node, held)
        hx, hy = held[x], held[y]
        p = self.nprocs
        operand = max(_widest(hx), _widest(hy))
        stacks = []
        # each rank's row in its class's stack (unused with one class)
        index = np.empty(p if cls is not None else 0, dtype=np.int64)
        for k, shape in enumerate(shapes):
            ranks = None if cls is None else np.flatnonzero(cls == k)
            count = p if ranks is None else ranks.size
            if ranks is not None:
                index[ranks] = np.arange(count)
            out = np.empty((count,) + shape, dtype=dtype)
            rows = max(1, _CHUNK_WORDS // max(math.prod(shape), operand, 1))
            for lo in range(0, count, rows):
                hi = min(count, lo + rows)
                part = slice(lo, hi) if ranks is None else ranks[lo:hi]
                out[lo:hi] = self._arith(kind, hx, hy, part, pairs, shape, dtype)
            stacks.append(out)
        return stacks, cls, None if cls is None else index

    def _reduce_scatter(self, x: int, rs: ReduceScatter, held: dict) -> np.ndarray:
        """Recursive halving on a stack: each rank's kept interval sums exactly.

        Its blocks are all of one size, so they are one class.
        """
        stack = _take(held[x], slice(None))
        dtype = np.result_type(self.nodes[x][-1], np.float64)
        flat = stack.reshape(self.nprocs, -1).astype(dtype, copy=True)
        for partner in rs.partners:
            # rank r keeps flat[r] + flat[partner[r]] on its interval, which
            # is the reference's own add; the rest of the row is never read
            flat += flat[partner]
        return flat

    def _reduce(self, x: int, members: np.ndarray, held: dict, fuse: bool) -> tuple:
        """Binomial-tree sums on stacks: per class, a fresh stack of one root value per group.

        Round ``k`` adds each member at relative position ``rel + 2**k``
        into the one at ``rel`` (``rel`` a multiple of ``2**(k+1)``),
        the receiver's accumulator first, as
        :func:`~repro.simulator.collectives.reduce_binomial` does.  With
        *fuse*, node *x* is an ``@``/``+`` computed here for each chunk's
        members only.  The members of a group share a shape, so a group
        is of one class.  Returns ``(stacks, cls, where)``: group ``G``'s
        sum is ``stacks[cls[G]][where[G]]`` (``cls`` and ``where`` are
        ``None`` with one class).
        """
        node = self.nodes[x]
        dtype = node[-1]
        if fuse:
            shapes, cls, pairs = self._plan(node, held)
            hx, hy = held[node[1]], held[node[2]]
            operand = max(_widest(hx), _widest(hy))
        else:
            h = held[x]
            shapes, cls, operand = [s.shape[1:] for s in h[0]], h[1], 0
        groups, g = members.shape
        gcls = None if cls is None else cls[members[:, 0]]
        # each group's row in its class's stack (unused with one class)
        where = np.empty(groups if gcls is not None else 0, dtype=np.int64)
        stacks = []
        for k, shape in enumerate(shapes):
            if gcls is None:
                rows_k = members
            else:
                sel = np.flatnonzero(gcls == k)
                where[sel] = np.arange(sel.size)
                rows_k = members[sel]
            out = np.empty((rows_k.shape[0],) + shape, dtype=dtype)
            rows = max(1, _CHUNK_WORDS // max(g * max(math.prod(shape), operand), 1))
            for lo in range(0, rows_k.shape[0], rows):
                part = rows_k[lo:lo + rows]
                ranks = part.ravel()
                # a fresh stack of the chunk's member blocks, summed in place
                if fuse:
                    blocks = self._arith(node[0], hx, hy, ranks, pairs, shape, dtype)
                else:
                    blocks = _pick(h, k, ranks)
                acc = blocks.reshape(part.shape + shape)
                step = 1
                while step < g:
                    acc[:, : g - step : 2 * step] += acc[:, step :: 2 * step]
                    step *= 2
                out[lo:lo + rows] = acc[:, 0]
            stacks.append(out)
        return stacks, gcls, None if gcls is None else where

    def _per_rank(self, i: int, held: dict, pieces: dict) -> list[Any]:
        node = self.nodes[i]
        if node[0] == "rs":
            rs, part = node[2], node[3]
            if part == "piece":
                flat = pieces[i]
                bounds = zip(rs.lo.tolist(), rs.hi.tolist())
                return [flat[r, a:b] for r, (a, b) in enumerate(bounds)]
            return (rs.lo if part == "lo" else rs.hi).tolist()
        stacks, cls, index = held[i]
        mask = self.defined.get(i)
        if cls is not None:
            values = [stacks[k][j] for k, j in zip(cls.tolist(), index.tolist())]
        elif index is None:
            values = list(stacks[0])
        else:
            base = stacks[0]
            values = [base[k] for k in index.tolist()]
        if mask is None:
            return values
        return [v if here else None for v, here in zip(values, mask.tolist())]


_ARITH = ("matmul", "add")


def _operands(node: tuple) -> tuple[int, ...]:
    kind = node[0]
    if kind in _ARITH:
        return node[1:3]
    if kind in ("gather", "rs", "reduce"):
        return node[1:2]
    return ()


def _apply(kind: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(a, b) if kind == "matmul" else a + b


def _out_shape(kind: str, a: np.ndarray, b: np.ndarray) -> tuple:
    """The block shape of one operand-class pair's result (stacks *a*, *b*)."""
    return (a.shape[1], b.shape[2]) if kind == "matmul" else a.shape[1:]


def _widest(value: tuple) -> int:
    """Words of the largest block of a held value."""
    return max(math.prod(s.shape[1:]) for s in value[0])


def _take(value: tuple, part: Any) -> np.ndarray:
    """The ranks *part* of a one-class value (a view for a slice of an unindexed stack)."""
    stacks, _, index = value
    return stacks[0][part] if index is None else stacks[0][index[part]]


def _pick(value: tuple, k: int, ranks: np.ndarray) -> np.ndarray:
    """A fresh stack of the given ranks' values, all of class *k*."""
    stacks, _, index = value
    return stacks[k][ranks if index is None else index[ranks]]


def _leaves(template: tuple) -> list[int]:
    kind = template[0]
    if kind == "node":
        return [template[1]]
    if kind in ("const", "each"):
        return []
    return [i for child in template[1] for i in _leaves(child)]


def _assemble(template: tuple, values: dict[int, list[Any]], p: int) -> list[Any]:
    kind = template[0]
    if kind == "node":
        return values[template[1]]
    if kind == "const":
        return [template[1]] * p
    if kind == "each":
        return list(template[1])
    columns = [_assemble(child, values, p) for child in template[1]]
    rows = zip(*columns) if columns else [()] * p
    return [tuple(r) for r in rows] if kind == "tuple" else [list(r) for r in rows]
