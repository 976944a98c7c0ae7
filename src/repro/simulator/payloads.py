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

  - a gather through a cyclic law on a symmetry axis (a shift, a ring
    ``Recv``) is a *roll*: a one-class value of more than a chunk is
    held as one stack in the axis's grid order (:class:`_Grid`), copied
    there once, and each roll of it only moves an offset, so
    ``np.matmul`` reads a rolled operand as strided views of that stack
    (an input a roll reads is held that way from the start);
  - any other gather (through a broadcast root, a route, an xor
    partner or an all-gather member, or of a value of several classes
    or of at most a chunk) is an index vector into the stack it reads
    (a class vector and a row vector when there are several classes),
    and a gather of a gather composes the vectors, so moving a block
    never copies it;
  - each ``@`` or ``+`` a rank needs writes a chunk at a time straight
    into its output stack with ``out=``: one stack in grid order when an
    operand is held in one, else one per output class in rank order.
    ``c + a @ b`` whose product nothing else reads computes the product
    a chunk at a time into one reused buffer, and adds it into ``c``'s
    own stack when this pass allocated that stack and nothing else
    reads ``c``, so Cannon's chain holds one accumulator stack.  Every
    stack is freed after its last reader;
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

#: Words of one operand a chunked arithmetic pass reads at once: 81 ranks
#: of 20x20 blocks (the largest Fig. 5 point), and 8192-rank slabs of the
#: 2x2 blocks of a 65,536-rank run.  A rolled value of at most this many
#: words stays in rank order: one chunk reads it whole either way, and
#: index vectors cost less to set up than the grid's cuts.
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
    with kinds ``("input", name)``, ``("gather", x, src, roll)`` (rank
    ``r`` holds node *x* of rank ``src[r]``; *roll* is ``(mat, d)``
    when *src* is a cyclic law on a symmetry axis whose ``(G, g)``
    group matrix is *mat*, rank ``mat[a, b]`` taking from
    ``mat[a, (b + d) % g]``, and ``None`` for any other law),
    ``("matmul"|"add", x, y)``, ``("rs", x, ReduceScatter, part)`` with
    *part* one of ``"piece"``, ``"lo"``, ``"hi"``, and ``("reduce", x,
    members, row)``: the sum of node *x* over each row of the ``(G, g)``
    matrix *members* (ranks in the binomial tree's relative order, the
    root first), which rank ``r`` reads at row ``row[r]``.  *inputs*
    maps each input name to a held
    value ``(stacks, cls, index)``: rank ``r`` starts with
    ``stacks[cls[r]][index[r]]``, one stack per block shape; ``cls`` is
    ``None`` when there is one stack, and ``index`` ``None`` for ``r``
    itself.  A value the evaluation holds has this form or is a
    :class:`_Grid`; :meth:`evaluate` consumes *inputs*.  *returns* is
    the probes' common return template: ``("node", i)``, ``("const",
    v)``, ``("each", values)`` (one value per rank), or
    ``("tuple"|"list", children)``.  *defined* maps a node that exists
    at only some ranks to their boolean mask.
    """

    __slots__ = ("nodes", "returns", "inputs", "nprocs", "defined", "_transposes", "_scratch")

    def __init__(
        self,
        nodes: list[tuple],
        returns: tuple,
        inputs: Mapping[str, tuple] | None,
        nprocs: int,
        defined: Mapping[int, np.ndarray] | None = None,
    ) -> None:
        self.nodes = nodes
        self.returns = returns
        self.inputs = inputs
        self.nprocs = nprocs
        self.defined = defined or {}
        self._transposes: dict[tuple[int, int], bool] = {}
        self._scratch: _Scratch | None = None

    def evaluate(self) -> list[Any]:
        """Every rank's return value, computed on stacks in one pass over the graph.

        A graph evaluates once: it lets go of its input stacks as the pass
        reads them, so an input held in grid order (below) is not kept
        twice while the products are computed.
        """
        if self.inputs is None:
            raise RuntimeError("a payload graph evaluates once")
        inputs, self.inputs = self.inputs, None
        nodes = self.nodes
        leaves = _leaves(self.returns)
        keep = set(leaves)
        # the node after which each value is dead
        last: dict[int, int] = {}
        readers: dict[int, int] = {}
        # an input that a cyclic gather reads is held in the gather's grid
        # order from the start, so arithmetic on it reads views too
        order: dict[int, Any] = {}
        last_input = -1
        for i, node in enumerate(nodes):
            kind = node[0]
            if kind == "input":
                last_input = i
            elif kind == "gather" and node[3] is not None and nodes[node[1]][0] == "input":
                order.setdefault(node[1], node[3][0])
            for x in _operands(node):
                last[x] = i
                readers[x] = readers.get(x, 0) + 1

        def alone(x: int) -> bool:
            """Whether one node reads *x* and *x* is not returned."""
            return readers[x] == 1 and x not in keep

        # an @/+ read only by a reduce is computed inside it, a chunk of
        # groups at a time, so its (p, r, c) stack never exists whole; an
        # @ read only by a + is computed inside the +, a chunk at a time,
        # into one reused buffer.  Their operands live until the reader.
        fused: dict[int, int] = {}
        inner: dict[int, int] = {}
        for i, node in enumerate(nodes):
            if node[0] == "reduce":
                if nodes[node[1]][0] in _ARITH and alone(node[1]):
                    fused[node[1]] = i
            elif node[0] == "add":
                m = next((m for m in node[2:0:-1] if nodes[m][0] == "matmul" and alone(m)), None)
                if m is not None:
                    inner[i] = m
                    fused[m] = i
        # a sum a reduce computes reads its product from the product's own
        # stack: one node is never fused into two
        for i in [i for i in inner if i in fused]:
            del fused[inner.pop(i)]
        for x, i in fused.items():
            for y in _operands(nodes[x]):
                last[y] = max(last[y], i)
        dies: dict[int, list[int]] = {}
        for x, i in last.items():
            if x not in keep:
                dies.setdefault(i, []).append(x)
        held: dict[int, Any] = {}
        # values whose stacks this pass allocated, one row per rank
        owned: set[int] = set()
        pieces: dict[int, np.ndarray] = {}
        self._scratch = _Scratch()
        for i, node in enumerate(nodes):
            kind = node[0]
            if kind == "input":
                held[i] = inputs[node[1]]
                if i in order:
                    held[i] = _to_grid(held[i], order[i]) or held[i]
                if i == last_input:
                    inputs = None
            elif kind == "gather":
                held[i] = self._gather(held[node[1]], node[2], node[3])
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
                # a + adds into an operand whose stack this pass allocated,
                # that nothing else reads and that has the sum's dtype
                acc = next(
                    (
                        x for x in _accumulators(node, inner.get(i))
                        if x in owned and alone(x) and _dtype(held[x]) == node[-1]
                    ),
                    None,
                )
                held[i] = self._compute(i, held, inner.get(i), acc)
                owned.add(i)
            for x in dies.get(i, ()):
                held.pop(x, None)
        self._scratch = None
        values = {i: self._per_rank(i, held, pieces) for i in leaves}
        return _assemble(self.returns, values, self.nprocs)

    # -- evaluation internals --------------------------------------------------------

    def _transposed(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Whether the groups of axis matrix *b* are the columns of *a*, in order.

        Keyed by identity: the graph's nodes hold every matrix it asks about.
        """
        key = (id(a), id(b))
        if key not in self._transposes:
            self._transposes[key] = a.shape[::-1] == b.shape and bool(np.array_equal(a.T, b))
        return self._transposes[key]

    def _gather(self, value: Any, src: np.ndarray, roll: Any) -> Any:
        """Node ``x`` of rank ``src[r]`` at every rank ``r``, moving no block.

        A cyclic law on an axis rolls a :class:`_Grid` of that axis or of
        its transpose; another one-class value of more than a chunk is
        copied into the axis's grid order once, so the rolls after it are
        views.  Anything else composes index vectors.
        """
        if roll is not None:
            mat, d = roll
            if value.__class__ is not _Grid or (
                value.mat is not mat and not self._transposed(value.mat, mat)
            ):
                value = _to_grid(value, mat) or value
            if value.__class__ is _Grid:
                g = mat.shape[1]
                if value.mat is mat:
                    return _Grid(mat, value.stack, value.dr, (value.dc + d) % g)
                return _Grid(value.mat, value.stack, (value.dr + d) % g, value.dc)
        stacks, cls, index = _flat(value)
        return (
            stacks,
            None if cls is None else cls[src],
            src if index is None else index[src],
        )

    def _compute(self, i: int, held: dict, m: int | None, acc: int | None) -> Any:
        """One ``@``/``+`` node for every rank, a chunk at a time.

        With *m*, node *i* is ``c + m`` (or ``m + c``) and the product
        ``m = a @ b`` is computed inside it into one reused chunk buffer.
        With *acc*, the sum is added into that operand's own stack.  A
        one-class result with an operand held as a :class:`_Grid` is a
        fresh grid stack in that axis's order (the accumulator's axis
        when there is one), read from rolled operands as views;
        otherwise the result is one stack per output class in rank order.
        """
        kind, x, y, _, dtype = self.nodes[i]
        if m is None:
            ids, side = [x, y], None
        else:
            ids, side = [y if m == x else x, *self.nodes[m][1:3]], int(m == y)
        vals = [held[j] for j in ids]
        at = None if acc is None else ids.index(acc)
        pdtype = None if m is None else self.nodes[m][-1]
        grids = [v for v in vals if v.__class__ is _Grid]
        if grids and all(v.__class__ is _Grid or v[1] is None for v in vals):
            mat = grids[0].mat
            if at is not None:
                # an accumulator held in rank order is read, not written
                if vals[at].__class__ is _Grid:
                    mat = vals[at].mat
                else:
                    at = None
            return self._on_grid(kind, vals, side, at, mat, dtype, pdtype)
        if at is not None and vals[at].__class__ is _Grid:
            at = None
        return self._ranked(kind, vals, side, at, dtype, pdtype)

    def _on_grid(
        self, kind: str, vals: list, side: Any, at: Any, mat: np.ndarray, dtype: Any, pdtype: Any
    ) -> "_Grid":
        """An ``@``/``+`` of one-class operands as one stack in axis matrix *mat*'s grid order.

        The ``(G, g)`` plane is cut into chunks of whole group rows (of
        pieces of a row wider than a chunk) and again where a rolled
        operand wraps, so each rolled operand's share of a rectangle is a
        strided view (an operand held another way is read by one fancy
        index per rectangle).
        """
        G, g = mat.shape
        shape = _out_shape(kind, [_block(v) for v in vals])
        # (stack, row offset, column offset) of a rolled operand in this
        # axis's order; (stack, each grid position's row) of any other
        views: list[Any] = []
        for v in vals:
            if v.__class__ is _Grid and v.mat is mat:
                views.append((v.stack, v.dr, v.dc))
            elif v.__class__ is _Grid and self._transposed(mat, v.mat):
                views.append((v.stack.swapaxes(0, 1), v.dc, v.dr))
            else:
                stacks, _, index = _flat(v)
                views.append((stacks[0], mat if index is None else index[mat]))
        out = vals[at].stack if at is not None else np.empty((G, g) + shape, dtype=dtype)
        words = max(math.prod(shape), *map(_widest, vals), 1)
        cols = max(1, min(g, _CHUNK_WORDS // words))
        rows = max(1, _CHUNK_WORDS // (cols * words))
        scratch = self._scratch
        rcuts, ccuts = {*range(0, G, rows), G}, {*range(0, g, cols), g}
        for w in views:
            if len(w) == 3:
                # where the roll wraps
                rcuts.add((G - w[1]) % G)
                ccuts.add((g - w[2]) % g)
        rcuts, ccuts = sorted(rcuts), sorted(ccuts)
        for r0, r1 in zip(rcuts, rcuts[1:]):
            for c0, c1 in zip(ccuts, ccuts[1:]):
                dst = out[r0:r1, c0:c1]
                ops = []
                for j, w in enumerate(views):
                    if j == at:
                        ops.append(dst)
                    elif len(w) == 3:
                        stack, dr, dc = w
                        a, b = (r0 + dr) % G, (c0 + dc) % g
                        ops.append(stack[a:a + r1 - r0, b:b + c1 - c0])
                    else:
                        ops.append(scratch.take(j, w[0], w[1][r0:r1, c0:c1]))
                _into(kind, side, ops, dst, scratch, pdtype)
        return _Grid(mat, out, 0, 0)

    def _ranked(
        self, kind: str, vals: list, side: Any, at: Any, dtype: Any, pdtype: Any
    ) -> tuple:
        """An ``@``/``+`` as one stack per output class in rank order, a chunk of ranks at a time.

        With *at*, the stacks are that operand's own (its layout is the
        sum's: one row per rank, in rank order within each class).
        """
        flats = [_flat(v) for v in vals]
        codes = _codes(flats)
        if at is not None:
            stacks, cls, index = flats[at]
            shapes = [s.shape[1:] for s in stacks]
        else:
            shapes, cls = self._plan(kind, flats, codes)
            stacks = []
            # each rank's row in its class's stack (unused with one class)
            index = None if cls is None else np.empty(self.nprocs, dtype=np.int64)
        words = max(*map(math.prod, shapes), *map(_widest, flats), 1)
        rows = max(1, _CHUNK_WORDS // words)
        for k, shape in enumerate(shapes):
            ranks = None if cls is None else np.flatnonzero(cls == k)
            count = self.nprocs if ranks is None else ranks.size
            if at is None:
                if index is not None:
                    index[ranks] = np.arange(count)
                stacks.append(np.empty((count,) + shape, dtype=dtype))
            out = stacks[k]
            for lo in range(0, count, rows):
                hi = min(count, lo + rows)
                part = slice(lo, hi) if ranks is None else ranks[lo:hi]
                _part(kind, side, flats, at, part, codes, out[lo:hi], self._scratch, pdtype)
        return stacks, cls, index

    def _plan(self, kind: str, flats: list[tuple], codes: Any) -> tuple[list[tuple], Any]:
        """The output classes of one ``@``/``+``: each class's block shape, each rank's class.

        The class is ``None`` when there is one.
        """
        if codes is None:
            return [_out_shape(kind, [f[0][0].shape[1:] for f in flats])], None
        code, radices = codes
        classes: dict[tuple, int] = {}
        size = math.prod(radices)
        of_code = np.zeros(size, dtype=np.int64)
        for u in np.flatnonzero(np.bincount(code, minlength=size)).tolist():
            blocks = [f[0][k].shape[1:] for f, k in zip(flats, _digits(u, radices))]
            of_code[u] = classes.setdefault(_out_shape(kind, blocks), len(classes))
        return list(classes), of_code[code] if len(classes) > 1 else None

    def _reduce_scatter(self, x: int, rs: ReduceScatter, held: dict) -> np.ndarray:
        """Recursive halving on a stack: each rank's kept interval sums exactly.

        Its blocks are all of one size, so they are one class.
        """
        stacks, _, index = _flat(held[x])
        stack = stacks[0] if index is None else stacks[0][index]
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
            flats = [_flat(held[node[1]]), _flat(held[node[2]])]
            codes = _codes(flats)
            shapes, cls = self._plan(node[0], flats, codes)
            operand = max(map(_widest, flats))
        else:
            h = _flat(held[x])
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
                # the chunk's member blocks, copied and summed in place
                if fuse:
                    blocks = self._scratch("sum", (ranks.size,) + shape, dtype)
                    _part(node[0], None, flats, None, ranks, codes, blocks, self._scratch, None)
                else:
                    rows_of = ranks if h[2] is None else h[2][ranks]
                    blocks = self._scratch.take("sum", h[0][k], rows_of)
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
        stacks, cls, index = _flat(held[i])
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


class _Grid:
    """A one-class value in a symmetry axis's grid order, rolled without a copy.

    With *mat* the axis's ``(G, g)`` group matrix, rank ``mat[a, b]``
    holds ``stack[(a + dr) % G, (b + dc) % g]`` of a contiguous
    ``(G, g, *block)`` *stack*.  A cyclic gather along the axis adds to
    *dc*, one along its transpose (an axis whose groups are this one's
    columns, as a grid's column axis is its row axis's) adds to *dr*, so
    every roll of a value reads the same stack (the systolic shifts of
    Lippert et al., arXiv cs/9809105, as whole-array offsets).
    """

    __slots__ = ("mat", "stack", "dr", "dc")

    def __init__(self, mat: np.ndarray, stack: np.ndarray, dr: int, dc: int) -> None:
        self.mat = mat
        self.stack = stack
        self.dr = dr
        self.dc = dc

    def flat(self) -> tuple:
        """The value as ``(stacks, cls, index)`` over the same memory."""
        G, g = self.mat.shape
        index = np.empty(G * g, dtype=np.int64)
        index[self.mat] = ((np.arange(G) + self.dr) % G * g)[:, None] + (
            np.arange(g) + self.dc
        ) % g
        return [self.stack.reshape((G * g,) + self.stack.shape[2:])], None, index


def _to_grid(value: Any, mat: np.ndarray) -> _Grid | None:
    """A one-class value copied into axis matrix *mat*'s grid order.

    ``None`` for a value of several classes or of at most a chunk, which
    stays in rank order.
    """
    stacks, cls, index = _flat(value)
    if cls is not None or mat.size * math.prod(stacks[0].shape[1:]) <= _CHUNK_WORDS:
        return None
    return _Grid(mat, stacks[0][mat if index is None else index[mat]], 0, 0)


_ARITH = ("matmul", "add")


def _operands(node: tuple) -> tuple[int, ...]:
    kind = node[0]
    if kind in _ARITH:
        return node[1:3]
    if kind in ("gather", "rs", "reduce"):
        return node[1:2]
    return ()


def _accumulators(node: tuple, m: int | None) -> tuple[int, ...]:
    """The operands a ``+`` may add into: the one that is not its inner ``@``."""
    if node[0] != "add":
        return ()
    if m is None:
        return node[1:3]
    return (node[2] if m == node[1] else node[1],)


def _flat(value: Any) -> tuple:
    """A held value as ``(stacks, cls, index)``."""
    return value.flat() if value.__class__ is _Grid else value


def _block(value: Any) -> tuple:
    """The block shape of a one-class held value."""
    return value.stack.shape[2:] if value.__class__ is _Grid else value[0][0].shape[1:]


def _dtype(value: Any) -> np.dtype:
    return value.stack.dtype if value.__class__ is _Grid else value[0][0].dtype


def _widest(value: Any) -> int:
    """Words of the largest block of a held value."""
    if value.__class__ is _Grid:
        return math.prod(value.stack.shape[2:])
    return max(math.prod(s.shape[1:]) for s in value[0])


def _codes(flats: list[tuple]) -> Any:
    """Each rank's operand classes as one mixed-radix code: ``(code, radices)``.

    ``None`` when every operand has one class.
    """
    if all(f[1] is None for f in flats):
        return None
    radices = [len(f[0]) for f in flats]
    code: Any = 0
    for (_, cls, _), n in zip(flats, radices):
        code = code * n + (0 if cls is None else cls)
    return code, radices


def _digits(u: int, radices: list[int]) -> list[int]:
    """The operand classes a code stands for."""
    out = []
    for n in reversed(radices):
        u, k = divmod(u, n)
        out.append(k)
    return out[::-1]


def _part(
    kind: str, side: Any, flats: list[tuple], at: Any, part: Any, codes: Any,
    dst: np.ndarray, scratch: "_Scratch", pdtype: Any,
) -> None:
    """``@``/``+`` for the ranks *part* (all of one output class) into *dst*.

    Ranks whose operands are of one class combination are one batched
    call; a chunk that mixes combinations is one call per combination,
    each scattered into its rows.
    """
    # (rows of dst or None for all of them, each operand's class)
    combos: list[tuple[Any, list[int]]] = [(None, [0] * len(flats))]
    if codes is not None:
        code, radices = codes
        mine = code[part]
        combos = [(None, _digits(int(mine[0]), radices))]
        if (mine != mine[0]).any():
            if part.__class__ is slice:
                part = np.arange(part.start, part.stop)
            combos = [
                (np.flatnonzero(mine == u), _digits(u, radices)) for u in np.unique(mine).tolist()
            ]
    for sel, ks in combos:
        ranks = part if sel is None else part[sel]
        out = dst if sel is None else scratch("out", (sel.size,) + dst.shape[1:], dst.dtype)
        ops = []
        for j, (f, k) in enumerate(zip(flats, ks)):
            stacks, _, index = f
            if j == at:
                ops.append(dst if sel is None else dst[sel])
            elif index is None and ranks.__class__ is slice:
                ops.append(stacks[k][ranks])
            else:
                ops.append(scratch.take(j, stacks[k], ranks if index is None else index[ranks]))
        _into(kind, side, ops, out, scratch, pdtype)
        if sel is not None:
            dst[sel] = out


def _into(
    kind: str, side: Any, ops: list, dst: np.ndarray, scratch: "_Scratch", pdtype: Any
) -> None:
    """Write one batch of ``x @ y``, ``x + y`` or ``c + a @ b`` into *dst*.

    *side* says which operand of the ``+`` the product is (``None`` for
    a lone ``@``/``+``); the product, of dtype *pdtype*, goes to a
    scratch buffer first.
    """
    if side is None:
        (np.matmul if kind == "matmul" else np.add)(ops[0], ops[1], out=dst)
        return
    prod = np.matmul(ops[1], ops[2], out=scratch("prod", dst.shape, pdtype))
    if side:
        np.add(ops[0], prod, out=dst)
    else:
        np.add(prod, ops[0], out=dst)


class _Scratch:
    """The chunk-sized buffers one evaluation reuses, one per slot and dtype.

    Operand reads, products and a reduce's member blocks go here, so the
    chunk loops allocate nothing: a fresh temporary per chunk made the
    allocator return its pages and fault them in again, chunk after
    chunk.
    """

    __slots__ = ("bufs",)

    def __init__(self) -> None:
        self.bufs: dict[tuple, np.ndarray] = {}

    def __call__(self, slot: Any, shape: tuple, dtype: Any) -> np.ndarray:
        """A buffer of *shape* for *slot*, valid until the slot is asked for again."""
        n = math.prod(shape)
        key = (slot, np.dtype(dtype))
        buf = self.bufs.get(key)
        if buf is None or buf.size < n:
            buf = self.bufs[key] = np.empty(n, dtype=key[1])
        return buf[:n].reshape(shape)

    def take(self, slot: Any, stack: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``stack[rows]``, copied into the slot's buffer.

        The rows are ranks' own, always in range, so ``mode="clip"``
        (which writes straight into *out*) never clips.
        """
        out = self(slot, rows.shape + stack.shape[1:], stack.dtype)
        return stack.take(rows, axis=0, out=out, mode="clip")


def _out_shape(kind: str, blocks: list[tuple]) -> tuple:
    """The block shape of a result from its operands' (a ``+``'s first operand's)."""
    return (blocks[0][0], blocks[1][1]) if kind == "matmul" else blocks[0]


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
