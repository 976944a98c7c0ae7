"""Record→replay trace compilation for rank-symmetric SPMD programs.

The algorithms under study are SPMD and rank-symmetric by construction:
every rank runs the same program text, and peers differ only by a fixed
rank relabeling (a cyclic or dimension-exchange law over a process-grid
axis).  The request stream of one representative rank therefore
determines the stream of all ``p`` ranks — which is what lets
``scheduler="compiled"`` (the default) simulate 64k–256k ranks with
*zero* generator resumes:

1. **Record.**  A handful of *probe* ranks (first/second/last member of
   each symmetry axis, plus the global corners) run as ordinary
   generators.  The initial blocks the driver declares on
   :class:`SymmetrySpec` reach them as traced proxies
   (:mod:`repro.simulator.payloads`), so each probe records its
   dataflow — which blocks it multiplies, adds, sends and returns —
   alongside its concrete request stream (op kinds, byte counts, tags,
   peers).  Each ``Recv`` resumes the probe with a proxy shaped like its
   own tag-matched earlier ``Send`` payload (rank symmetry says the true
   payload has the same structure); a payload not derived from the
   declared inputs is handed back as it is.  Collective helpers handed a
   traced block post their :class:`CollectiveOp` form (the generator
   schedulers only ever see their messages), and the rooted ones
   (``bcast``, ``reduce``, ``route``) post it on every probe, root or
   not.  A probe gets a traced block wherever the
   reference returns a value and ``None`` wherever it returns ``None``;
   the probes are recorded side by side, so a non-root can take its
   broadcast block's shape from a probe at the root.  Under an uneven
   block partition a block dimension that differs from rank to rank is
   an :class:`~repro.simulator.payloads.Extent`; sizes and costs the
   program derives from it (``words_of``, ``matmul_cost``, a reduce's
   ``charge_op``, a returned int) are recorded as expressions, and
   probes compare their keys, never their values.
2. **Detect symmetry.**  The probe traces are compared structurally
   (same op kinds, sizes, tags and payload nodes at every step, the same
   dataflow graph, the same return structure) and each peer field must
   be explained by one law — ``peer = group[(pos + d) % g]`` (cyclic) or
   ``peer = group[pos ^ d]`` (dimension exchange) — on one axis of the
   :class:`SymmetrySpec`.  A collective's group must be a row of one
   axis at every probe: each probe compares the group it posts with its
   own row on every axis and records the names of those it equals, and
   lowering takes the first name every probe recorded.  A rooted
   collective's root (a route's source and target) must follow one
   *position law* per group: a constant position, or another axis's
   position plus a constant, mod ``g``, the only such law the probes
   admit.  Any mismatch raises :class:`CompileFallback` and the engine
   re-runs the program on the ``heap`` scheduler, recording the reason.
   Only the probes run, so a divergence is detected only where it
   reaches a probe rank: a program that computes, sends or returns
   differently at a rank no probe runs, and sends the probes what it
   would anyway, compiles on a probe's requests and reports that
   probe's ``T_p`` and payloads for it
   (``test_a_divergence_at_an_unprobed_rank_matches_heap_or_falls_back``
   pins one such program).
3. **Lower + replay.**  The trace becomes a :class:`BatchSchedule`: a
   list of symbolic phases (:mod:`repro.simulator.request`) whose peer
   fields are precomputed ``(p,)`` vectors and whose hop fields are one
   ``int`` where every rank's route is as long, else a vector; each is
   built once per (axis, law, offset) and shared by every phase that
   uses it.  Each posted collective is lowered to the send/receive
   rounds it stands for (a
   :class:`~repro.simulator.request.SymCollective` wrapping
   :class:`SymSend`/:class:`SymRecv` pairs, plus the adds of a
   reduce-scatter or reduce); a rooted collective's rounds are *masked*
   to the ranks each one involves (a broadcast tree's senders and their
   children, a route's current holders).
   Sends and receives are FIFO-matched per (tag, law) channel at
   compile time, and replay charges each phase as one vectorized update
   into :class:`~repro.simulator.trace.RankArrays` through the one
   replay loop in :mod:`repro.simulator.charging`, or as one scalar
   update while every rank's accounts are still equal.  The replay
   evaluates exactly the reference cost expressions elementwise, so a
   compiled run is bit-identical to ``heap``/``rescan`` whenever it
   compiles at all.  Once the graph is resolved, one pass gives every
   node its per-rank shape vectors (an input's from the block-shape
   table, a gather's from its source, a reduce's from its members),
   checks the shape rules recording deferred, and sets each symbolic
   size and cost to its ``(p,)`` values.
4. **Payloads.**  The same matching resolves every received block to a
   gather through the matched send's peer vector (a broadcast's through
   the per-rank root, a route's through its source); a gather through a
   cyclic law also carries its axis's group matrix and offset, so
   evaluation reads the roll as a view of one grid-order stack instead of
   gathering.  The graph
   becomes a :class:`~repro.simulator.payloads.Dataflow` that computes
   every rank's return value on stacked blocks — on demand, the first
   time ``SimResult.returns`` is read, so a run that never reads its
   product never pays for it.  A value a rooted collective leaves at
   only some ranks is ``None`` at the others, as on heap.  An uneven
   input is grouped into one stack per block shape, and arithmetic runs
   once per operand-class pair; an even partition is the one-class case.

What falls back (by design, not by accident):

* no :class:`SymmetrySpec` from the driver, or tracing / link contention
  / an active fault plan (those regimes need live per-rank event
  interleaving);
* declared inputs that cannot be grouped into stacks (a list of blocks
  of differing dtype or ndim);
* an all-gather or reduce-scatter of blocks whose size differs from
  rank to rank (simple and Berntsen at an uneven partition);
* a program that turns an extent into a number, compares or branches on
  it (``int(a.shape[0])``, ``if a.shape[0] > k``), or whose deferred
  shape rules fail at some rank: ``@`` of blocks whose inner
  dimensions differ, ``+`` of blocks of differing shape (numpy would
  broadcast some of these on heap), or a reduce over members of
  differing shape;
* any probe whose ``Recv`` precedes a reflectable ``Send`` (relay
  chains and broadcasts written as messages — the §5.4.1 schemes, Fox's
  ring — genuinely position-dependent programs);
* rooted collectives over an untraced payload, a reduce whose ``op`` is
  not a plain add, roots no position law explains (or that no probe
  holds), arithmetic on a value that is ``None`` at some ranks, and
  programs that branch on whether they hold a rooted result;
* programs whose payload *structure* feeds back into message sizes in a
  way reflection cannot mirror (e.g. message-level recursive-doubling
  allgather of untraced data, whose dict payloads double each round —
  the reflected dict keys collide and recording fails safely);
* arithmetic that depends on a rank's position, programs that read
  payload values (indexing, reductions, ``float(...)``), and return
  values not derived from the declared inputs and messages;
* probe traces that disagree structurally, or peers no single law
  explains.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Mapping, Sequence

import numpy as np

from repro.core.machine import MachineParams
from repro.simulator.charging import replay
from repro.simulator.macro import run_batch_collective
from repro.simulator.payloads import (
    Dataflow,
    Extent,
    Graph,
    ReduceScatter,
    TracedBlock,
    evaluate,
    key_of,
    symbolic,
)
from repro.simulator.request import (
    Barrier,
    Checkpoint,
    CollectiveOp,
    Compute,
    Recv,
    Send,
    SendAll,
    SymBarrier,
    SymCollective,
    SymCompute,
    SymPhase,
    SymRecv,
    SymSend,
    SymSendAll,
    words_of,
)
from repro.simulator.topology import PairHopCache, Topology
from repro.simulator.trace import RankArrays

__all__ = [
    "CompileFallback",
    "SymmetrySpec",
    "BatchSchedule",
    "compile_spmd",
    "ungroupable_input",
]

_MAX_TRACE_OPS = 200_000
_INDEX = np.dtype(np.int64)

#: Collectives the compiler lowers to send/receive rounds on every rank.
_LOWERED_KINDS = ("shift", "allgather_rd", "allgather_ring", "reduce_scatter")

#: Rooted collectives, lowered to masked rounds around a root (a route's
#: source and target) that a position law gives per group.
_ROOTED_KINDS = ("bcast", "reduce", "route")


class CompileFallback(Exception):
    """The program cannot be trace-compiled; run it on ``heap`` instead."""


@dataclass(frozen=True)
class SymmetrySpec:
    """Driver-provided rank-symmetry annotation for the trace compiler.

    *partitions* maps an axis name (e.g. ``"row"``, ``"col"``,
    ``"reduce"``) to a ``(G, g)`` integer matrix whose rows are the
    ordered communication groups of that axis; the rows of each axis
    must partition ``0..p-1``.  Peer laws are inferred per message over
    these axes.  The spec is an *assertion candidate*, not a promise:
    probe recording verifies it structurally and the engine falls back
    to ``heap`` when the program turns out not to be rank-symmetric.

    *inputs* maps a name to ``(stack, index)``: rank ``r`` starts with
    block ``stack[index[r]]``, which its program reads through
    :meth:`~repro.simulator.engine.RankInfo.input`.  *stack* is one array
    whose leading axis indexes blocks, or, for an uneven block partition,
    a list of blocks of one dtype and ndim.  A compiled run groups a
    list into one stack per block shape and evaluates its payloads on
    those stacks; a dimension that differs between blocks reaches the
    probes as an :class:`~repro.simulator.payloads.Extent`.  A list that
    cannot be grouped (blocks of differing dtype or ndim) makes the run
    fall back before probing.

    *extra_probes* optionally adds ranks to the probe set (the default
    probes are the first/second/last members of each axis's first group,
    the last member of its last group, and the global corner ranks).
    """

    partitions: Mapping[str, Any]
    inputs: Mapping[str, tuple[Any, Any]] = field(default_factory=dict)
    extra_probes: tuple[int, ...] = ()


@dataclass(frozen=True)
class _Axis:
    name: str
    mat: np.ndarray  # (G, g) group rows
    pos: np.ndarray  # rank -> position within its group
    row: np.ndarray  # rank -> group row index
    g: int


def _build_axes(spec: SymmetrySpec, p: int) -> dict[str, _Axis]:
    axes: dict[str, _Axis] = {}
    for name, raw in spec.partitions.items():
        mat = np.asarray(raw, dtype=np.int64)
        flat = mat.ravel()
        # p entries in 0..p-1 that reach every rank are a permutation
        ok = mat.ndim == 2 and flat.size == p and bool(((flat >= 0) & (flat < p)).all())
        if ok:
            seen = np.zeros(p, dtype=bool)
            seen[flat] = True
            ok = bool(seen.all())
        if not ok:
            raise ValueError(
                f"symmetry axis {name!r} must be a (G, g) matrix whose rows "
                f"partition ranks 0..{p - 1}"
            )
        g = int(mat.shape[1])
        pos = np.empty(p, dtype=np.int64)
        row = np.empty(p, dtype=np.int64)
        pos[flat] = np.tile(np.arange(g, dtype=np.int64), mat.shape[0])
        row[flat] = np.repeat(np.arange(mat.shape[0], dtype=np.int64), g)
        axes[name] = _Axis(name, mat, pos, row, g)
    if not axes:
        raise ValueError("SymmetrySpec needs at least one partition axis")
    return axes


def _probe_ranks(axes: dict[str, _Axis], spec: SymmetrySpec, p: int) -> list[int]:
    """Probe set covering distinct positions along every axis.

    Position diversity is what makes structural comparison catch
    position-dependent programs (roots that only send, ring ends that
    only receive), so each axis contributes its first group's first,
    second, and last members plus the last group's last member.
    """
    probes = {0, p - 1}
    for ax in axes.values():
        probes.add(int(ax.mat[0, 0]))
        probes.add(int(ax.mat[-1, -1]))
        if ax.g > 1:
            probes.add(int(ax.mat[0, 1]))
            probes.add(int(ax.mat[0, -1]))
    for r in spec.extra_probes:
        if not 0 <= int(r) < p:
            raise ValueError(f"extra probe rank {r} out of range for p={p}")
        probes.add(int(r))
    return sorted(probes)


# -- recording -----------------------------------------------------------------


class _Foreign:
    """Fresh dict key standing in for a remote rank's key during reflection."""

    __slots__ = ()


def _reflect(value: Any) -> Any:
    """The probe's own payload, restructured as a *remote* rank's would be.

    Arrays and tuples come back as-is (rank symmetry: same shape either
    way).  Dict keys are replaced with fresh sentinels: a real peer's
    dict would carry *its* keys, so handing back the probe's own keys
    would let key-merging programs (recursive-doubling allgather)
    silently collapse — with foreign keys the collapse becomes a loud
    recording failure and a safe fallback instead.
    """
    if isinstance(value, dict):
        return {_Foreign(): _reflect(v) for v in value.values()}
    return value


class _TracedStack:
    """A declared input stack as a probe sees it: each block is a graph input.

    A dimension that differs between the input's blocks is an extent of
    the input node; the others are the block's own ints.
    """

    __slots__ = ("graph", "name", "stack", "varies")

    def __init__(self, graph: Graph, name: str, stack: Any, varies: tuple[bool, ...]) -> None:
        self.graph, self.name, self.stack, self.varies = graph, name, stack, varies

    def __getitem__(self, k: Any) -> TracedBlock:
        block = self.stack[k]
        shape = tuple(None if v else d for d, v in zip(block.shape, self.varies))
        return self.graph.source(("input", self.name), shape, block.dtype)


def _count(x: Any) -> Any:
    """A recorded size: an ``int``, or an extent's key."""
    return x.key if isinstance(x, Extent) else int(x)


def _cost(x: Any) -> Any:
    """A recorded cost: a ``float``, or an extent's key."""
    return x.key if isinstance(x, Extent) else float(x)


def _payload(data: Any) -> int | None:
    """The graph node a message carries, or ``None`` for an untraced payload."""
    if not isinstance(data, TracedBlock):
        return None
    if data.shape is None:
        raise CompileFallback("a reduce-scatter piece may only be returned, not sent")
    return data.node


def _axes_of(group: Sequence[int], rows: dict[str, list[int]]) -> tuple[str, ...]:
    """The names of the axes whose row at this probe is *group*, in name order.

    Matched when the probe posts its collective, so a program that
    rewrites its group list afterwards cannot change what was posted.  A
    matched row is replaced by a copy of *group*: the same ranks, held
    by the program's own int objects, which the next post of that list
    compares by identity instead of by value.
    """
    if type(group) is not list:
        group = list(group)
    names = tuple(name for name, row in rows.items() if group == row)
    for name in names:
        rows[name] = group[:]
    return names


def _record_collective(
    req: CollectiveOp, ops: list[tuple], graph: Graph, rows: dict[str, list[int]]
) -> Any:
    kind = req.kind
    if kind not in _LOWERED_KINDS:
        raise CompileFallback(f"collective {kind!r} is not compilable")
    g = len(req.group)
    if kind in ("allgather_rd", "reduce_scatter") and (g & (g - 1)):
        raise CompileFallback(f"{kind!r} needs a power-of-two group, got g={g}")
    data = req.data
    if not isinstance(data, TracedBlock):
        raise CompileFallback(f"collective {kind!r} of an untraced payload")
    w = _count(words_of(data))
    m = _count(req.nwords) if req.nwords is not None else w
    if kind != "shift" and (symbolic(m) or symbolic(w)):
        raise CompileFallback(
            f"collective {kind!r} of a block whose size differs from rank "
            f"to rank (an uneven partition) is not compilable"
        )
    flat_size = int(data.size) if kind == "reduce_scatter" else 0
    step = len(ops)
    ops.append(
        (
            "coll",
            kind,
            g,
            m,
            w,
            int(req.tag),
            int(req.offset) % g,
            bool(req.charge_adds),
            flat_size,
            _payload(data),
            _axes_of(req.group, rows),
        )
    )
    if kind == "shift":
        return graph.source(("coll", step, 0), data.shape, data.dtype)
    if kind != "reduce_scatter":
        # every member's contribution, ordered by group position
        return [graph.source(("coll", step, t), data.shape, data.dtype) for t in range(g)]
    # (piece, lo, hi): per-rank values with no common shape
    summed = np.result_type(data.dtype, np.float64)
    return (
        graph.add(("coll", step, "piece"), None, summed),
        graph.add(("coll", step, "lo"), None, _INDEX),
        graph.add(("coll", step, "hi"), None, _INDEX),
    )


def _template(value: Any, graph: Graph, rank: int) -> tuple:
    """A probe's return value as a structure of graph nodes and constants."""
    if isinstance(value, TracedBlock) and value.graph is graph:
        return ("node", value.node)
    if isinstance(value, Extent):
        # a size the program returns: evaluated per rank once bound
        return ("expr", value.key)
    if isinstance(value, (tuple, list)):
        kind = "tuple" if isinstance(value, tuple) else "list"
        return (kind, tuple(_template(v, graph, rank) for v in value))
    if value is None or isinstance(value, (bool, int, float, str)):
        return ("const", value)
    raise CompileFallback(
        f"probe rank {rank} returns a {type(value).__name__} that is not "
        f"derived from its declared inputs and messages"
    )


@dataclass
class _Probe:
    """One probe rank's recording: its request stream, dataflow and return."""

    rank: int
    ops: list[tuple]
    nodes: list[tuple]
    returns: tuple


#: What a probe's rooted collective resumes with while no probe holding
#: its payload has posted it yet.
_WAIT = object()


def _traced_meta(data: Any, graph: Graph, rank: int, kind: str) -> tuple:
    """``(node, shape, dtype, words)`` of a rooted collective's traced payload.

    Extents are given by their keys, so probes compare metadata with ``==``.
    """
    if not isinstance(data, TracedBlock) or data.graph is not graph or data.shape is None:
        raise CompileFallback(
            f"probe rank {rank}: {kind} of a {type(data).__name__} payload that is "
            f"not derived from the declared inputs and messages"
        )
    return (data.node, tuple(map(key_of, data.shape)), data.dtype, _count(data.size))


def _reduce_charge(req: CollectiveOp, data: TracedBlock) -> Any:
    """Check that a reduce's ``op`` is a plain add; its ``charge_op`` cost per merge."""
    scratch = Graph()
    x = scratch.add(("input", "x"), data.shape, data.dtype)
    y = scratch.add(("input", "y"), data.shape, data.dtype)
    try:
        z = req.op(x, y)
    except TypeError:
        # a numpy ufunc passed as op (np.add): traced blocks refuse
        # ufuncs; the helper's default, operator.add, records the add
        z = None
    if not (
        isinstance(z, TracedBlock)
        and z.graph is scratch
        and scratch.nodes[z.node][:3] == ("add", 0, 1)
    ):
        raise CompileFallback(f"reduce op {req.op!r} is not a plain add")
    if req.charge_op is None:
        return None
    # the receiver charges the cost of the block it merges, which has
    # the shape of its own (a reduce's members share one shape)
    return _cost(req.charge_op(data))


def _record_rooted(
    req: CollectiveOp,
    rank: int,
    ops: list[tuple],
    graph: Graph,
    posted: dict[int, tuple],
    rows: dict[str, list[int]],
) -> Any:
    """Record a ``bcast``, ``reduce`` or ``route``; return what the reference returns.

    The output is a graph node on every probe, so the probes' graphs stay
    comparable, but the program gets it only where the reference returns
    a value: at every member of a broadcast, at a reduce's root and at a
    route's target; elsewhere it gets ``None``.  A broadcast's or route's
    payload is read from the probes that hold it (the root, the source),
    which post it in *posted* under the step; the others return
    :data:`_WAIT` until one has.  A broadcast sized by its payload sends
    the root's size in every round, which its recorded ``extra`` says.
    """
    kind = req.kind
    group = req.group
    g = len(group)
    step = len(ops)
    holder = req.root_index % g
    if kind == "reduce":
        meta = _traced_meta(req.data, graph, rank, kind)
        extra: Any = _reduce_charge(req, req.data)
        payload: int | None = meta[0]
        fields: tuple[int, ...] = (holder,)
        out_here = rank == group[holder]
    else:
        if rank == group[holder]:
            meta = _traced_meta(req.data, graph, rank, kind)
            known = posted.setdefault(step, meta)
            if known != meta:
                raise CompileFallback(
                    f"probes holding the payload of the {kind} at step {step} "
                    f"disagree: {known!r} vs {meta!r}"
                )
            payload = meta[0]
        else:
            meta = posted.get(step)
            if meta is None:
                return _WAIT
            payload = None
        if kind == "bcast":
            extra, fields, out_here = req.nwords is None, (holder,), True
        else:
            target = req.target % g
            extra, fields, out_here = bool(req.relay), (holder, target), rank == group[target]
    m = _count(req.nwords) if req.nwords is not None else meta[3]
    ops.append(
        ("rooted", kind, g, m, int(req.tag), extra, payload, fields, _axes_of(group, rows))
    )
    out = graph.source(("coll", step, 0), meta[1], meta[2])
    return out if out_here else None


def _record_probe(
    factory: Callable[..., Any],
    make_info: Callable[[int, Mapping[str, Any]], Any],
    rank: int,
    inputs: Mapping[str, "_Input"],
    max_ops: int,
    posted: dict[int, tuple],
    rows: dict[str, list[int]],
) -> Generator[int, None, _Probe]:
    """Drive one probe generator on traced inputs against the reflection mailbox.

    Yields the step of a rooted collective whose payload no probe that
    holds it has put in *posted* yet, resumes once one has, and returns
    the recording.  *rows* is the probe's own row on every axis, by name:
    each collective records the names of those its group equals.
    """
    graph = Graph()
    traced = {
        name: (_TracedStack(graph, name, inp.blocks, inp.varies), inp.index)
        for name, inp in inputs.items()
    }
    gen = factory(make_info(rank, traced))
    ops: list[tuple] = []
    pending: dict[int, deque[Any]] = {}
    try:
        resume: Any = None
        req = gen.send(None)
        while True:
            if len(ops) >= max_ops:
                raise CompileFallback(
                    f"probe trace exceeds {max_ops} ops; program too long to compile"
                )
            resume = None
            cls = req.__class__
            if cls is Compute:
                ops.append(("compute", _cost(req.cost)))
            elif cls is Send:
                ops.append(
                    ("send", int(req.dst), _count(req.nwords), int(req.tag), _payload(req.data))
                )
                pending.setdefault(int(req.tag), deque()).append(req.data)
            elif cls is SendAll:
                parts = tuple(
                    (int(m.dst), _count(m.nwords), int(m.tag), _payload(m.data))
                    for m in req.messages
                )
                ops.append(("sendall", parts))
                for m in req.messages:
                    pending.setdefault(int(m.tag), deque()).append(m.data)
            elif cls is Recv:
                queue = pending.get(int(req.tag))
                if not queue:
                    raise CompileFallback(
                        f"probe rank {rank}: Recv(tag={req.tag}) precedes any "
                        f"reflectable Send — program is position-dependent"
                    )
                ops.append(("recv", int(req.src), int(req.tag)))
                own = queue.popleft()
                if isinstance(own, TracedBlock):
                    # resolved at lowering to the matched send's node; its
                    # extents are bound to the sender's
                    resume = graph.source(("recv", len(ops) - 1), own.shape, own.dtype)
                else:
                    resume = _reflect(own)
            elif cls is Barrier:
                ops.append(("barrier",))
            elif cls is Checkpoint:
                ops.append(("checkpoint",))
            elif cls is CollectiveOp and req.kind in _ROOTED_KINDS:
                while (resume := _record_rooted(req, rank, ops, graph, posted, rows)) is _WAIT:
                    yield len(ops)
            elif cls is CollectiveOp:
                resume = _record_collective(req, ops, graph, rows)
            else:
                raise CompileFallback(
                    f"probe rank {rank}: unsupported request {cls.__name__}"
                )
            req = gen.send(resume)
    except StopIteration as stop:
        return _Probe(rank, ops, graph.nodes, _template(stop.value, graph, rank))
    except CompileFallback:
        raise
    except Exception as exc:
        # a traced block met an operation that reads values or depends on
        # position, reflection handed the program a structurally wrong
        # value, or the program is simply broken — fall back and let the
        # real scheduler surface the real behavior
        raise CompileFallback(
            f"probe rank {rank} raised {type(exc).__name__} during recording: {exc}"
        ) from exc
    finally:
        gen.close()


def _record_probes(
    factories: Sequence[Callable[..., Any]],
    make_info: Callable[[int, Mapping[str, Any]], Any],
    probe_ranks: list[int],
    axes: dict[str, _Axis],
    inputs: Mapping[str, "_Input"],
    max_ops: int,
) -> list[_Probe]:
    """Record the probes side by side, each until it returns or waits on a payload.

    A probe waiting on a rooted collective's payload resumes once a
    probe holding it has posted it; a pass that posts nothing and ends
    no recording means no probe holds it.
    """
    posted: dict[int, tuple] = {}
    recorders = {
        r: _record_probe(
            factories[r], make_info, r, inputs, max_ops, posted,
            {name: ax.mat[ax.row[r]].tolist() for name, ax in sorted(axes.items())},
        )
        for r in probe_ranks
    }
    probes: dict[int, _Probe] = {}
    try:
        while len(probes) < len(recorders):
            before = (len(posted), len(probes))
            waits = []
            for r, recorder in recorders.items():
                if r not in probes:
                    try:
                        waits.append((r, next(recorder)))
                    except StopIteration as done:
                        probes[r] = done.value
            if (len(posted), len(probes)) == before:
                r, step = waits[0]
                raise CompileFallback(
                    f"probe rank {r} waits on the payload of the rooted "
                    f"collective at step {step}, which no probe holds"
                )
    finally:
        for recorder in recorders.values():
            recorder.close()
    return [probes[r] for r in probe_ranks]


# -- law inference and lowering ------------------------------------------------


def _infer_law(
    axes: dict[str, _Axis], peers: list[tuple[int, int]], what: str
) -> tuple[str, str, int]:
    """The (axis, law-kind, offset) explaining every probe's peer, or fallback."""
    for name in sorted(axes):
        ax = axes[name]
        for law in ("cyc", "xor"):
            d0: int | None = None
            ok = True
            for r, q in peers:
                if ax.row[q] != ax.row[r]:
                    ok = False
                    break
                if law == "cyc":
                    d = int(ax.pos[q] - ax.pos[r]) % ax.g
                else:
                    d = int(ax.pos[q] ^ ax.pos[r])
                    if d >= ax.g:
                        ok = False
                        break
                if d0 is None:
                    d0 = d
                elif d != d0:
                    ok = False
                    break
            if ok and d0 is not None:
                return (name, law, d0)
    raise CompileFallback(f"no cyclic/exchange law explains {what} peers {peers!r}")


def _peer_vector(ax: _Axis, law: str, d: int) -> np.ndarray:
    if law == "cyc":
        newpos = (ax.pos + d) % ax.g
    else:
        newpos = ax.pos ^ d
    return ax.mat[ax.row, newpos]


def _lower_collective(
    vectors: Callable[[str, str, int], tuple[np.ndarray, int | np.ndarray]],
    axis: _Axis,
    shape: tuple,
    deferred: list[tuple],
) -> tuple[list[SymCompute | SymSend | SymRecv], Any]:
    """The send/receive rounds one posted collective stands for, on every group.

    Each round mirrors the message-level helper in
    :mod:`repro.simulator.collectives`: the same sizes, partners and order.
    Also returns what the rounds deliver: a shift's source vector and its
    roll ``(axis.mat, d)`` (see :class:`~repro.simulator.payloads.Dataflow`), or a
    reduce-scatter's partners and final per-rank intervals (``None`` for
    the all-gathers, whose outputs are the axis's group members).  A
    shift's size that is an extent goes on *deferred*: every rank sends
    its own block.
    """
    _, kind, g, m, w, tag, offset, charge_adds, flat_size, _ = shape
    phases: list[SymCompute | SymSend | SymRecv] = []

    def exchange(law: str, d_to: int, d_from: int, nwords: Any) -> None:
        dst, hops = vectors(axis.name, law, d_to)
        send = SymSend(dst=dst, hops=hops, nwords=nwords, tag=tag)
        if symbolic(nwords):
            deferred.append((send, "nwords", nwords, None))
        src = vectors(axis.name, law, d_from)[0]
        phases.extend((send, SymRecv(src=src, tag=tag, source=send)))

    if kind == "shift":
        exchange("cyc", offset, g - offset, m)
        return phases, (vectors(axis.name, "cyc", g - offset)[0], (axis.mat, (g - offset) % g))
    if kind == "allgather_ring":
        for _ in range(g - 1):
            exchange("cyc", 1, g - 1, m)
    elif kind == "allgather_rd":
        for k in range(g.bit_length() - 1):
            step = 1 << k
            # every block held before round k sums to w*step words, the
            # own contribution counted at its declared size m
            exchange("xor", step, step, w * step - w + m)
    else:  # reduce_scatter: recursive halving, partner = position ^ half
        idx = np.arange(g)
        lo = np.zeros(g, dtype=np.int64)
        hi = np.full(g, flat_size, dtype=np.int64)
        partners = []
        half = g // 2
        while half:
            mid = lo + (hi - lo) // 2
            in_low = (idx & half) == 0
            # halves differ by a word on odd lengths: per-rank sizes
            exchange("xor", half, half, np.where(in_low, hi - mid, mid - lo)[axis.pos])
            partners.append(vectors(axis.name, "xor", half)[0])
            if charge_adds:
                keep = np.where(in_low, mid - lo, hi - mid)
                phases.append(SymCompute(cost=keep[axis.pos].astype(np.float64)))
            hi = np.where(in_low, mid, hi)
            lo = np.where(in_low, lo, mid)
            half //= 2
        return phases, ReduceScatter(partners, lo[axis.pos], hi[axis.pos])
    return phases, None


def _position_law(
    axes: dict[str, _Axis], axis: _Axis, values: list[tuple[int, int]], what: str
) -> np.ndarray:
    """Every rank's root (source, target) position in its group of *axis*.

    A law is a constant position, or another axis's position plus a
    constant, mod ``g``.  It must match every probe's position, give one
    value per group, and be the only such law the probes admit (laws
    that agree on every rank count as one); otherwise fall back.
    """
    g = axis.g
    rank0, v0 = values[0]
    candidates = [np.full(axis.pos.size, v0, dtype=np.int64)]
    for name in sorted(axes):
        other = axes[name]
        candidates.append((other.pos + (v0 - int(other.pos[rank0]))) % g)
    found: list[np.ndarray] = []
    for vec in candidates:
        if any(int(vec[r]) != v for r, v in values):
            continue
        rows = vec[axis.mat]
        if (rows == rows[:, :1]).all() and not any(np.array_equal(vec, f) for f in found):
            found.append(vec)
    if len(found) != 1:
        raise CompileFallback(
            f"{'no' if not found else 'more than one'} position law explains "
            f"{what} at probes {values!r}"
        )
    return found[0]


def _lower_rooted(
    vectors: Callable[[str, str, int], tuple[np.ndarray, int | np.ndarray]],
    hop_cache: PairHopCache,
    axis: _Axis,
    shape: tuple,
    deferred: list[tuple],
    first: np.ndarray,
    second: np.ndarray | None = None,
) -> tuple[list[SymCompute | SymSend | SymRecv], Any]:
    """The masked rounds of one rooted collective on every group, and its output.

    *first* is each rank's root (a route's source) position, *second* a
    route's target position.  Each round acts only on the ranks it
    involves, in the reference helper's order: a broadcast tree's round
    ``k`` sends ``d = 2**k`` from every ``rel < 2**k`` that has a child;
    a reduce's round ``k`` sends ``d = -2**k`` from every ``rel`` whose
    lowest set bit is ``k``, and its receivers charge the merge; a relay
    route hops one differing address bit per round, in ascending order.
    A size or merge cost that is an extent goes on *deferred*: each
    sender's own, or the root's for a broadcast sized by its payload,
    and each receiver's merge.
    """
    kind, g, m, tag, extra = shape
    phases: list[SymCompute | SymSend | SymRecv] = []
    # each rank's group root (a route's source), as an absolute rank
    roots = axis.mat[axis.row, first]
    sized_at = roots if kind == "bcast" and extra else None

    def exchange(senders: np.ndarray, receivers: np.ndarray, hops: int | np.ndarray) -> None:
        send = SymSend(dst=receivers, hops=hops, nwords=m, tag=tag, active=senders)
        if symbolic(m):
            deferred.append(
                (send, "nwords", m, senders if sized_at is None else sized_at[senders])
            )
        positions = np.arange(senders.size, dtype=np.int64)
        phases.extend((send, SymRecv(src=positions, tag=tag, source=send, active=receivers)))

    if kind in ("bcast", "reduce"):
        rel = (axis.pos - first) % g
        # the helpers' ceil(log2 g) rounds
        for k in range((g - 1).bit_length()):
            step = 1 << k
            if kind == "bcast":
                senders = np.flatnonzero((rel < step) & (rel + step < g))
                peer, hops = vectors(axis.name, "cyc", step)
            else:
                senders = np.flatnonzero((rel & (2 * step - 1)) == step)
                peer, hops = vectors(axis.name, "cyc", g - step)
            receivers = peer[senders]
            exchange(senders, receivers, hops if isinstance(hops, int) else hops[senders])
            if kind == "reduce" and extra is not None:
                merge = SymCompute(cost=extra, active=receivers)
                if symbolic(extra):
                    deferred.append((merge, "cost", extra, receivers))
                phases.append(merge)
        if kind == "bcast":
            return phases, roots
        # each group's members in relative order, the root first
        lead = first[axis.mat[:, 0]]
        members = axis.mat[
            np.arange(axis.mat.shape[0])[:, None],
            (np.arange(g)[None, :] + lead[:, None]) % g,
        ]
        return phases, (members, axis.row, roots == np.arange(roots.size))
    rows = np.arange(axis.mat.shape[0])
    src = axis.mat[rows, first[axis.mat[:, 0]]]
    dst = axis.mat[rows, second[axis.mat[:, 0]]]
    if not extra:
        moving = src != dst
        senders, receivers = src[moving], dst[moving]
        if senders.size:
            exchange(senders, receivers, hop_cache.bulk(senders, receivers))
    else:
        cur = src.copy()
        diff = src ^ dst
        for bit in range(int(diff.max()).bit_length()):
            moving = ((diff >> bit) & 1) == 1
            senders = cur[moving]
            receivers = senders ^ (1 << bit)
            if (receivers >= axis.pos.size).any() or not np.array_equal(
                axis.row[receivers], rows[moving]
            ):
                raise CompileFallback("a relay route hops through a rank outside its group")
            exchange(senders, receivers, hop_cache.bulk(senders, receivers))
            cur[moving] = receivers
    # a route's root is its source
    targets = axis.mat[axis.row, second] == np.arange(roots.size)
    return phases, (roots, targets)


class BatchSchedule:
    """A lowered SPMD program: one symbolic phase per program step."""

    __slots__ = ("phases", "nprocs", "probe_ranks", "dataflow")

    def __init__(
        self,
        phases: list[SymPhase],
        nprocs: int,
        probe_ranks: list[int],
        dataflow: Dataflow,
    ) -> None:
        self.phases = phases
        self.nprocs = nprocs
        self.probe_ranks = probe_ranks
        #: the payload graph; ``dataflow.evaluate()`` gives every rank's
        #: return value
        self.dataflow = dataflow

    def __len__(self) -> int:
        return len(self.phases)

    def replay(self, arr: RankArrays, machine: MachineParams) -> None:
        """Charge the whole schedule into *arr* — zero generator resumes."""
        replay(self.phases, arr, machine, lambda ph: run_batch_collective(ph, arr, machine))


def _check_uniform(values: Sequence[Any], step: int, what: str) -> Any:
    first = values[0]
    for v in values[1:]:
        if v != first:
            raise CompileFallback(
                f"probe traces diverge at step {step}: {what} {first!r} vs {v!r}"
            )
    return first


def _lower(
    traces: list[tuple[int, list[tuple]]],
    axes: dict[str, _Axis],
    topology: Topology,
    p: int,
) -> tuple[list[SymPhase], dict[int, tuple], list[tuple]]:
    """Phases for the common trace, what each receive or collective delivers,
    and the symbolic fields to bind.

    The second result maps a ``recv`` step to ``("recv", payload, src,
    roll)`` (*roll* ``(mat, e)``, the axis's group matrix and offset,
    for a cyclic law, else ``None``),
    a ``coll`` step to ``("coll", kind, axis, payload, out)`` (see
    :func:`_lower_collective`) and a ``rooted`` step to ``("rooted",
    kind, payload, out)`` (see :func:`_lower_rooted`); *payload* is the
    graph node the matched send or the collective carries, or ``None``
    when it is untraced.  The third lists ``(phase, attr, key, at)``: a
    size or cost recorded as an extent's key, to be set to its per-rank
    values at the ranks *at* (every rank when ``None``) by :func:`_bind`.
    """
    nops = len(traces[0][1])
    for r, ops in traces[1:]:
        if len(ops) != nops:
            raise CompileFallback(
                f"probe traces diverge: rank {traces[0][0]} ran {nops} ops, "
                f"rank {r} ran {len(ops)}"
            )
    hop_cache = PairHopCache.shared(topology)
    everyone = np.arange(p, dtype=np.int64)
    memo: dict[tuple[str, str, int], tuple[np.ndarray, int | np.ndarray]] = {}
    phases: list[SymPhase] = []
    links: dict[int, tuple] = {}
    deferred: list[tuple] = []
    channels: dict[tuple[int, str, str, int], deque[tuple[SymSend, int | None]]] = {}

    def vectors(axis: str, law: str, d: int) -> tuple[np.ndarray, int | np.ndarray]:
        """(peer, hops) of every rank under one law, built once per compile.

        Hops every rank shares are one ``int``, so ranks in lockstep are
        charged once (:func:`repro.simulator.charging.replay`).
        """
        key = (axis, law, d)
        if key not in memo:
            peer = _peer_vector(axes[axis], law, d)
            hops = hop_cache.bulk(everyone, peer)
            memo[key] = (peer, int(hops[0]) if (hops == hops[0]).all() else hops)
        return memo[key]

    def group_axis(step: int, kind: str, row: list[tuple]) -> _Axis:
        """The first axis, by name, whose row at every probe is its collective group.

        Each probe recorded the names of the axes its group is a row of,
        as the last field of the op (:func:`_axes_of`).
        """
        for name in row[0][-1]:
            if all(name in op[-1] for op in row[1:]):
                return axes[name]
        raise CompileFallback(
            f"step {step}: collective {kind!r} group is not a symmetry-axis row"
        )

    def lower_send(step: int, fields: list[tuple], part: str = "") -> SymSend:
        """fields: per-probe (dst, nwords, tag, payload) for one message."""
        nwords = _check_uniform([f[1] for f in fields], step, f"send{part} nwords")
        tag = _check_uniform([f[2] for f in fields], step, f"send{part} tag")
        payload = _check_uniform([f[3] for f in fields], step, f"send{part} payload")
        peers = [(r, f[0]) for (r, _), f in zip(traces, fields)]
        axis, law, d = _infer_law(axes, peers, f"Send{part}(tag={tag})")
        dst, hops = vectors(axis, law, d)
        ph = SymSend(dst=dst, hops=hops, nwords=nwords, tag=int(tag))
        if symbolic(nwords):
            deferred.append((ph, "nwords", nwords, None))
        channels.setdefault((int(tag), axis, law, d), deque()).append((ph, payload))
        return ph

    for step in range(nops):
        row = [ops[step] for _, ops in traces]
        kind = _check_uniform([op[0] for op in row], step, "op kind")
        if kind == "compute":
            cost = _check_uniform([op[1] for op in row], step, "compute cost")
            phases.append(SymCompute(cost=cost))
            if symbolic(cost):
                deferred.append((phases[-1], "cost", cost, None))
        elif kind == "send":
            phases.append(lower_send(step, [op[1:] for op in row]))
        elif kind == "sendall":
            k = _check_uniform([len(op[1]) for op in row], step, "SendAll width")
            parts = tuple(
                lower_send(step, [op[1][j] for op in row], part=f"[{j}]")
                for j in range(k)
            )
            phases.append(SymSendAll(parts=parts))
        elif kind == "recv":
            tag = _check_uniform([op[2] for op in row], step, "recv tag")
            peers = [(r, op[1]) for (r, _), op in zip(traces, row)]
            axis, law, e = _infer_law(axes, peers, f"Recv(tag={tag})")
            d = (axes[axis].g - e) % axes[axis].g if law == "cyc" else e
            queue = channels.get((int(tag), axis, law, d))
            if not queue:
                raise CompileFallback(
                    f"step {step}: Recv(tag={tag}) matches no outstanding "
                    f"compiled Send on axis {axis!r}"
                )
            # the channel pairs law e with its inverse d, so the matched
            # send routes exactly back: dst[src[r]] == r on every rank
            src_phase, payload = queue.popleft()
            src = vectors(axis, law, e)[0]
            phases.append(SymRecv(src=src, tag=int(tag), source=src_phase))
            links[step] = ("recv", payload, src, (axes[axis].mat, e) if law == "cyc" else None)
        elif kind == "barrier":
            phases.append(SymBarrier())
        elif kind == "checkpoint":
            pass  # free without a fault plan, and compiled excludes fault plans
        elif kind == "coll":
            shape = _check_uniform([op[:-1] for op in row], step, "collective shape")
            axis = group_axis(step, shape[1], row)
            rounds, out = _lower_collective(vectors, axis, shape, deferred)
            phases.append(SymCollective(kind=shape[1], phases=rounds))
            links[step] = ("coll", shape[1], axis, shape[-1], out)
        else:  # "rooted"
            ckind = row[0][1]
            shape = _check_uniform([op[1:6] for op in row], step, "collective shape")
            axis = group_axis(step, ckind, row)
            holders = [op[6] for op in row if op[6] is not None]
            if not holders:
                raise CompileFallback(f"step {step}: no probe holds the {ckind}'s payload")
            payload = _check_uniform(holders, step, f"{ckind} payload")
            ends = ("source", "target") if ckind == "route" else ("root",)
            laws = [
                _position_law(
                    axes, axis, [(r, op[7][t]) for (r, _), op in zip(traces, row)],
                    f"the {ckind}'s (tag={shape[3]}) {end}",
                )
                for t, end in enumerate(ends)
            ]
            rounds, out = _lower_rooted(vectors, hop_cache, axis, shape, deferred, *laws)
            phases.append(SymCollective(kind=ckind, phases=rounds))
            links[step] = ("rooted", ckind, payload, out)
    return phases, links, deferred


def ungroupable_input(spec: SymmetrySpec) -> str | None:
    """Why *spec*'s inputs cannot be grouped into stacks by block shape, or ``None``."""
    for name, (stack, _) in spec.inputs.items():
        if isinstance(stack, np.ndarray):
            continue
        if not (
            isinstance(stack, (list, tuple))
            and stack
            and all(isinstance(b, np.ndarray) for b in stack)
            and len({(b.ndim, b.dtype) for b in stack}) == 1
        ):
            return (
                f"input {name!r} is neither one stacked array nor a list of blocks "
                f"of one dtype and ndim; its blocks cannot be grouped into stacks"
            )
    return None


class _Input:
    """A declared input, as recording, binding and evaluation read it.

    *varies* says which block dimensions differ between the input's
    blocks; *dims* gives each rank's block dimensions (an ``int`` where
    every block agrees, else a ``(p,)`` vector); *held* is the
    :class:`~repro.simulator.payloads.Dataflow` value ``(stacks, cls,
    index)`` with one stack per block shape.
    """

    __slots__ = ("blocks", "index", "varies", "dims", "held")

    def __init__(self, blocks: Any, index: np.ndarray) -> None:
        self.blocks, self.index = blocks, index
        if isinstance(blocks, np.ndarray):
            self.varies = (False,) * (blocks.ndim - 1)
            self.dims: tuple = blocks.shape[1:]
            self.held: tuple = ([blocks], None, index)
            return
        table = np.asarray([b.shape for b in blocks], dtype=np.int64)
        self.varies = tuple(bool((col != col[0]).any()) for col in table.T)
        self.dims = tuple(
            table[index, axis] if v else int(table[0, axis])
            for axis, v in enumerate(self.varies)
        )
        classes: dict[tuple, list[int]] = {}
        for b, block in enumerate(blocks):
            classes.setdefault(block.shape, []).append(b)
        cls = np.empty(len(blocks), dtype=np.int64)
        row = np.empty(len(blocks), dtype=np.int64)
        for k, members in enumerate(classes.values()):
            cls[members] = k
            row[members] = np.arange(len(members))
        stacks = [np.stack([blocks[b] for b in members]) for members in classes.values()]
        self.held = (stacks, cls[index] if len(stacks) > 1 else None, row[index])


def _grouped_inputs(spec: SymmetrySpec, p: int) -> dict[str, _Input]:
    reason = ungroupable_input(spec)
    if reason is not None:
        raise CompileFallback(reason)
    inputs = {}
    for name, (stack, index) in spec.inputs.items():
        index = np.asarray(index, dtype=np.int64)
        if index.shape != (p,):
            raise ValueError(f"input {name!r} needs one block index per rank, got {index.shape}")
        inputs[name] = _Input(stack, index)
    return inputs


def _merge_returns(a: tuple, b: tuple) -> tuple | None:
    """Two probes' return templates as one, or ``None`` when they differ.

    A leaf that is a node on one probe and ``None`` on the other merges
    into the node: a rooted collective's output is ``None`` where the
    reference returns no value (checked by :func:`_check_roles`).
    """
    if a == b:
        return a
    if a[0] == "node" and b == ("const", None):
        return a
    if b[0] == "node" and a == ("const", None):
        return b
    if a[0] == b[0] and a[0] in ("tuple", "list") and len(a[1]) == len(b[1]):
        kids = tuple(_merge_returns(x, y) for x, y in zip(a[1], b[1]))
        if all(k is not None for k in kids):
            return (a[0], kids)
    return None


def _common_dataflow(probes: list[_Probe]) -> tuple[list[tuple], tuple]:
    """The probes' shared graph and merged return template, or fallback."""
    first = probes[0]
    returns = first.returns
    for pr in probes[1:]:
        if pr.nodes != first.nodes:
            k = next(
                (k for k, (a, b) in enumerate(zip(first.nodes, pr.nodes)) if a != b),
                min(len(first.nodes), len(pr.nodes)),
            )
            mine = first.nodes[k] if k < len(first.nodes) else None
            theirs = pr.nodes[k] if k < len(pr.nodes) else None
            raise CompileFallback(
                f"probe dataflow diverges at node {k}: rank {first.rank} has "
                f"{mine!r}, rank {pr.rank} has {theirs!r}"
            )
        merged = _merge_returns(returns, pr.returns)
        if merged is None:
            raise CompileFallback(
                f"probe returns diverge: rank {first.rank} returns "
                f"{first.returns!r}, rank {pr.rank} returns {pr.returns!r}"
            )
        returns = merged
    return first.nodes, returns


def _check_roles(probes: list[_Probe], merged: tuple, where: dict[int, np.ndarray]) -> None:
    """Each probe returns a node exactly where the node is defined, ``None`` elsewhere.

    A node defined at only some ranks must also be seen from both sides:
    a program that branches on whether it holds the value shows the
    branch only on a probe where it does not.
    """
    ranks = [pr.rank for pr in probes]
    for x, mask in where.items():
        here = mask[ranks]
        if here.all() or not here.any():
            raise CompileFallback(
                f"node {x} exists at only some ranks, but every probe {ranks} "
                f"{'holds' if here.any() else 'lacks'} it"
            )

    def walk(tmpl: tuple, own: tuple, rank: int) -> None:
        if tmpl[0] == "node":
            mask = where.get(tmpl[1])
            here = mask is None or bool(mask[rank])
            if (own[0] == "node") != here:
                raise CompileFallback(
                    f"probe rank {rank} returns {own!r} where node {tmpl[1]} is "
                    f"{'defined' if here else 'None'}"
                )
        elif tmpl[0] in ("tuple", "list"):
            for t, o in zip(tmpl[1], own[1]):
                walk(t, o, rank)

    for pr in probes:
        walk(merged, pr.returns, pr.rank)


def _fits(received: tuple, sent: tuple) -> bool:
    """Whether a received block's recorded ``(shape, dtype)`` can be the sent one's.

    Dtypes and ndims must agree, and each dimension must be the same int
    on both sides or an extent on both; :func:`_bind` gives the received
    extents the sender's values.  (So a value whose dimensions are all
    ints is one stack.)
    """
    (rshape, rtype), (sshape, stype) = received, sent
    if rtype != stype or (rshape is None) != (sshape is None):
        return False
    if rshape is None:
        return True
    return len(rshape) == len(sshape) and all(
        a == b if a.__class__ is int else b.__class__ is not int
        for a, b in zip(rshape, sshape)
    )


def _resolve(
    nodes: list[tuple], links: dict[int, tuple]
) -> tuple[list[tuple], dict[int, np.ndarray]]:
    """Recorded nodes with every received block turned into a gather.

    Also returns where each node that exists at only some ranks (a
    reduce at its roots, a route at its targets) is defined; a node
    read where it is not defined falls back, as heap would raise there.
    """
    traced_recvs = {node[1] for node in nodes if node[0] == "recv"}
    for step, link in links.items():
        if link[0] == "recv" and (link[1] is not None) != (step in traced_recvs):
            raise CompileFallback(
                f"step {step}: the Recv matches a send of "
                f"{'a traced' if link[1] is not None else 'an untraced'} payload, "
                f"but the probe's own send on that tag was not"
            )
    members: dict[tuple[str, int], np.ndarray] = {}
    where: dict[int, np.ndarray] = {}
    out = []

    def read(x: int, ranks: Any, what: str) -> None:
        mask = where.get(x)
        if mask is not None and not mask[ranks].all():
            raise CompileFallback(
                f"{what} reads node {x}, which exists only at some ranks "
                f"(the roots or targets of a rooted collective)"
            )

    for i, node in enumerate(nodes):
        kind, meta = node[0], node[-2:]
        if kind == "recv":
            _, payload, src, roll = links[node[1]]
            if not _fits(meta, nodes[payload][-2:]):
                raise CompileFallback(
                    f"step {node[1]}: received {meta!r} but the matched send "
                    f"carries {nodes[payload][-2:]!r}"
                )
            read(payload, src, f"step {node[1]}: a Recv")
            out.append(("gather", payload, src, roll) + meta)
        elif kind == "coll" and links[node[1]][0] == "rooted":
            _, ckind, payload, res = links[node[1]]
            what = f"step {node[1]}: a {ckind}"
            defined = None
            if ckind == "bcast":
                read(payload, res, what)
                out.append(("gather", payload, res, None) + meta)
            elif ckind == "route":
                sources, defined = res
                read(payload, sources, what)
                out.append(("gather", payload, sources, None) + meta)
            else:
                group_rows, row, defined = res
                read(payload, slice(None), what)
                out.append(("reduce", payload, group_rows, row) + meta)
            if defined is not None and not defined.all():
                where[i] = defined
        elif kind == "coll":
            _, ckind, axis, payload, res = links[node[1]]
            t = node[2]
            read(payload, slice(None), f"step {node[1]}: a {ckind}")
            if ckind == "shift":
                out.append(("gather", payload, *res) + meta)
            elif ckind == "reduce_scatter":
                out.append(("rs", payload, res, t) + meta)
            else:  # all-gather output t: the block of group member t
                if (axis.name, t) not in members:
                    members[(axis.name, t)] = axis.mat[axis.row, t]
                out.append(("gather", payload, members[(axis.name, t)], None) + meta)
        else:
            if kind in ("matmul", "add"):
                for x in node[1:3]:
                    read(x, slice(None), f"a traced {'@' if kind == 'matmul' else '+'}")
            out.append(node)
    return out, where


def _same(a: Any, b: Any, what: str) -> None:
    """Two per-rank dimensions (ints or vectors) agree at every rank, or fallback."""
    if not np.all(a == b):
        raise CompileFallback(f"{what} at some ranks")


def _extents(nodes: list[tuple], inputs: Mapping[str, _Input]) -> dict[tuple[int, int], Any]:
    """Every extent's per-rank values, from one pass over the resolved graph.

    Each node's dimensions follow the rules the reference's arrays obey:
    an input's come from the block-shape table, a gather's are its
    source's (a received block has its sender's shape), ``@`` takes its
    operands' outer dimensions and ``+`` its operands' shape, and a
    reduce its members'.  The rules recording deferred are checked
    here: the inner dimensions of ``@`` agree, the operands of ``+``
    have one shape, and every member of a reduce has one shape.  Any
    rank that breaks one makes the run fall back.
    """
    values: dict[tuple[int, int], Any] = {}
    dims: list[Any] = []
    for i, node in enumerate(nodes):
        kind = node[0]
        got: tuple | None
        if kind == "input":
            got = inputs[node[1]].dims
        elif kind == "gather":
            src = node[2]
            got = tuple(d if d.__class__ is int else d[src] for d in dims[node[1]])
        elif kind == "matmul":
            a, b = dims[node[1]], dims[node[2]]
            _same(a[1], b[0], f"node {i}: the inner dimensions of a traced @ differ")
            got = (a[0], b[1])
        elif kind == "add":
            a, b = dims[node[1]], dims[node[2]]
            for x, y in zip(a, b):
                _same(x, y, f"node {i}: the operands of a traced + differ in shape")
            got = a
        elif kind == "reduce":
            members, row = node[2], node[3]
            for d in dims[node[1]]:
                if d.__class__ is not int:
                    _same(d[members], d[members[:, :1]],
                          f"node {i}: the members of a reduce differ in shape")
            root = members[row, 0]
            got = tuple(d if d.__class__ is int else d[root] for d in dims[node[1]])
        else:  # a reduce-scatter's per-rank values
            got = None
        if got is not None:
            # the node's own extents; its int dimensions agree by construction
            for axis, (want, have) in enumerate(zip(node[-2], got)):
                if want == ("s", i, axis):
                    values[(i, axis)] = have
        dims.append(got)
    return values


def _bind(
    nodes: list[tuple], inputs: Mapping[str, _Input], deferred: list[tuple], returns: tuple, p: int
) -> tuple:
    """Set every symbolic size and cost to its per-rank values; bind the return template.

    Each recorded key is evaluated once over the extents' vectors and
    indexed by its phase's ranks.  Sizes and costs are checked here, per
    rank, for the non-negativity the requests check on concrete values.
    Returns the template with each expression leaf as its per-rank values.
    """
    values = _extents(nodes, inputs)
    memo: dict[Any, Any] = {}

    def per_rank(key: Any) -> Any:
        if key not in memo:
            memo[key] = evaluate(key, values)
        return memo[key]

    for phase, attr, key, at in deferred:
        v = per_rank(key)
        if at is not None and np.ndim(v):
            v = v[at]
        if attr == "nwords" and np.asarray(v).dtype.kind not in "iu":
            raise CompileFallback(f"a message size {key!r} is not a whole number of words")
        if np.any(np.asarray(v) < 0):
            raise CompileFallback(f"{attr} {key!r} is negative at some ranks")
        setattr(phase, attr, v)

    def bind(template: tuple) -> tuple:
        kind = template[0]
        if kind == "expr":
            return ("each", tuple(np.broadcast_to(per_rank(template[1]), (p,)).tolist()))
        if kind in ("tuple", "list"):
            return (kind, tuple(bind(child) for child in template[1]))
        return template

    return bind(returns)


def compile_spmd(
    factories: Sequence[Callable[..., Any]],
    topology: Topology,
    machine: MachineParams,
    symmetry: SymmetrySpec,
    *,
    make_info: Callable[[int, Mapping[str, Any]], Any],
    max_ops: int = _MAX_TRACE_OPS,
) -> BatchSchedule:
    """Record probe ranks, verify symmetry, and lower to a batch schedule.

    ``make_info(rank, inputs)`` builds a probe's ``RankInfo`` around the
    traced stand-ins for the declared inputs.  Raises
    :class:`CompileFallback` whenever the program turns out not to be
    compilable; the caller (the engine) re-runs the untouched factories
    on the ``heap`` scheduler.  Probe generators are consumed here, but
    factories are re-invoked fresh on fallback, so recording is
    side-effect-free as long as programs do not mutate driver state
    before their first yield.
    """
    p = len(factories)
    axes = _build_axes(symmetry, p)
    probe_ranks = _probe_ranks(axes, symmetry, p)
    inputs = _grouped_inputs(symmetry, p)
    probes = _record_probes(factories, make_info, probe_ranks, axes, inputs, max_ops)
    nodes, returns = _common_dataflow(probes)
    phases, links, deferred = _lower([(pr.rank, pr.ops) for pr in probes], axes, topology, p)
    resolved, where = _resolve(nodes, links)
    _check_roles(probes, returns, where)
    # extents exist only where an input's blocks differ in shape; an even
    # partition records plain ints and has nothing to bind
    if any(any(inp.varies) for inp in inputs.values()):
        returns = _bind(resolved, inputs, deferred, returns, p)
    held = {name: inp.held for name, inp in inputs.items()}
    dataflow = Dataflow(resolved, returns, held, p, where)
    return BatchSchedule(phases, p, probe_ranks, dataflow)
