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
   traced block post their :class:`CollectiveOp` form at any group size.
2. **Detect symmetry.**  The probe traces are compared structurally
   (same op kinds, sizes, tags and payload nodes at every step, the same
   dataflow graph, the same return structure) and each peer field must
   be explained by one law — ``peer = group[(pos + d) % g]`` (cyclic) or
   ``peer = group[pos ^ d]`` (dimension exchange) — on one axis of the
   :class:`SymmetrySpec`.  Any mismatch raises :class:`CompileFallback`
   and the engine re-runs the program on the ``heap`` scheduler,
   recording the reason.
3. **Lower + replay.**  The trace becomes a :class:`BatchSchedule`: a
   list of symbolic phases (:mod:`repro.simulator.request`) whose peer
   and hop fields are precomputed ``(p,)`` vectors, built once per
   (axis, law, offset) and shared by every phase that uses them.  Each
   macro collective is lowered to the send/receive rounds it stands for
   (a :class:`~repro.simulator.request.SymCollective` wrapping
   :class:`SymSend`/:class:`SymRecv` pairs, plus reduce-scatter's adds).
   Sends and receives are FIFO-matched per (tag, law) channel at
   compile time, and replay charges each phase as one vectorized update
   into :class:`~repro.simulator.trace.RankArrays` through the one
   replay loop in :mod:`repro.simulator.charging`.  The replay
   evaluates exactly the reference cost expressions elementwise, so a
   compiled run is bit-identical to ``heap``/``rescan`` whenever it
   compiles at all.
4. **Payloads.**  The same matching resolves every received block to a
   gather through the matched send's peer vector, and the graph becomes
   a :class:`~repro.simulator.payloads.Dataflow` that computes every
   rank's return value on stacked blocks — on demand, the first time
   ``SimResult.returns`` is read, so a run that never reads its product
   never pays for it.

What falls back (by design, not by accident):

* no :class:`SymmetrySpec` from the driver, or tracing / link contention
  / an active fault plan (those regimes need live per-rank event
  interleaving);
* declared inputs that are not one stacked array (an uneven block
  partition);
* any probe whose ``Recv`` precedes a reflectable ``Send`` (rooted
  broadcasts, relay chains — genuinely position-dependent programs);
* ``bcast``/``reduce`` macro collectives (their results are real merged
  payload objects a generator-free replay cannot produce);
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
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.core.machine import MachineParams
from repro.simulator.charging import replay
from repro.simulator.macro import run_batch_collective
from repro.simulator.payloads import Dataflow, Graph, ReduceScatter, TracedBlock
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
    "unstacked_input",
]

_MAX_TRACE_OPS = 200_000
_INDEX = np.dtype(np.int64)

#: Macro collectives the compiler can lower to send/receive rounds; the
#: others (``bcast``, ``reduce``) move and merge real payload objects,
#: which a replay without live generators cannot produce.
_LOWERED_KINDS = ("shift", "allgather_rd", "allgather_ring", "reduce_scatter")


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
    :meth:`~repro.simulator.engine.RankInfo.input`.  A compiled run
    evaluates its payloads on these stacks, so *stack* must be one array
    whose leading axis indexes blocks (a list, as an uneven block
    partition gives, makes the run fall back).

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
        if mat.ndim != 2 or mat.size != p or not np.array_equal(
            np.sort(mat.ravel()), np.arange(p)
        ):
            raise ValueError(
                f"symmetry axis {name!r} must be a (G, g) matrix whose rows "
                f"partition ranks 0..{p - 1}"
            )
        g = int(mat.shape[1])
        pos = np.empty(p, dtype=np.int64)
        row = np.empty(p, dtype=np.int64)
        flat = mat.ravel()
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
    """A declared input stack as a probe sees it: each block is a graph input."""

    __slots__ = ("graph", "name", "stack")

    def __init__(self, graph: Graph, name: str, stack: np.ndarray) -> None:
        self.graph, self.name, self.stack = graph, name, stack

    def __getitem__(self, k: Any) -> TracedBlock:
        block = self.stack[k]
        return self.graph.add(("input", self.name), block.shape, block.dtype)


def _payload(data: Any) -> int | None:
    """The graph node a message carries, or ``None`` for an untraced payload."""
    if not isinstance(data, TracedBlock):
        return None
    if data.shape is None:
        raise CompileFallback("a reduce-scatter piece may only be returned, not sent")
    return data.node


def _synthesize_collective(req: CollectiveOp, rank: int) -> Any:
    """The structural stand-in for a collective over an untraced payload."""
    g = len(req.group)
    if req.kind == "shift":
        # reference returns the (src)-neighbor's payload: same structure
        return req.data
    if req.kind in ("allgather_rd", "allgather_ring"):
        return [req.data] * g
    # reduce_scatter: walk the recursive-halving index arithmetic for
    # this rank's position; values are the probe's own (unsummed) words
    # but the slice geometry — all that can feed back into timing — is exact
    idx = list(req.group).index(rank)
    flat = req.data
    lo, hi = 0, int(flat.size)
    block = g
    while block > 1:
        half = block // 2
        mid = lo + (hi - lo) // 2
        if idx % block < half:
            hi = mid
        else:
            lo = mid
        block = half
    return (flat[lo:hi].copy(), lo, hi)


def _record_collective(
    req: CollectiveOp, rank: int, ops: list[tuple], graph: Graph
) -> Any:
    kind = req.kind
    if kind not in _LOWERED_KINDS:
        raise CompileFallback(
            f"macro collective {kind!r} moves real payloads; not compilable"
        )
    # a C-level copy, so a program reusing its group list cannot rewrite
    # the trace; lowering matches it against the axis rows as an array
    group = tuple(req.group)
    g = len(group)
    if kind in ("allgather_rd", "reduce_scatter") and (g & (g - 1)):
        raise CompileFallback(f"{kind!r} needs a power-of-two group, got g={g}")
    data = req.data
    m = int(req.nwords) if req.nwords is not None else words_of(data)
    w = words_of(data)
    flat_size = int(data.size) if kind == "reduce_scatter" else 0
    step = len(ops)
    ops.append(
        (
            "coll",
            kind,
            group,
            m,
            w,
            int(req.tag),
            int(req.offset) % g,
            bool(req.charge_adds),
            flat_size,
            _payload(data),
        )
    )
    if not isinstance(data, TracedBlock):
        return _synthesize_collective(req, rank)
    if kind == "shift":
        return graph.add(("coll", step, 0), data.shape, data.dtype)
    if kind != "reduce_scatter":
        # every member's contribution, ordered by group position
        return [graph.add(("coll", step, t), data.shape, data.dtype) for t in range(g)]
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


def _record_probe(
    factory: Callable[..., Any],
    make_info: Callable[[int, Mapping[str, Any]], Any],
    rank: int,
    inputs: Mapping[str, tuple[np.ndarray, np.ndarray]],
    max_ops: int,
) -> _Probe:
    """Drive one probe generator on traced inputs against the reflection mailbox."""
    graph = Graph()
    traced = {
        name: (_TracedStack(graph, name, stack), index)
        for name, (stack, index) in inputs.items()
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
                ops.append(("compute", float(req.cost)))
            elif cls is Send:
                ops.append(
                    ("send", int(req.dst), int(req.nwords), int(req.tag), _payload(req.data))
                )
                pending.setdefault(int(req.tag), deque()).append(req.data)
            elif cls is SendAll:
                parts = tuple(
                    (int(m.dst), int(m.nwords), int(m.tag), _payload(m.data))
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
                    # resolved at lowering to the matched send's node
                    resume = graph.add(("recv", len(ops) - 1), own.shape, own.dtype)
                else:
                    resume = _reflect(own)
            elif cls is Barrier:
                ops.append(("barrier",))
            elif cls is Checkpoint:
                ops.append(("checkpoint",))
            elif cls is CollectiveOp:
                resume = _record_collective(req, rank, ops, graph)
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
    vectors: Callable[[str, str, int], tuple[np.ndarray, np.ndarray]],
    axis: _Axis,
    shape: tuple,
) -> tuple[list[SymCompute | SymSend | SymRecv], Any]:
    """The send/receive rounds one macro collective stands for, on every group.

    Each round mirrors the per-group executor in
    :mod:`repro.simulator.macro`: the same sizes, partners and order.
    Also returns what the rounds deliver: a shift's source vector, or a
    reduce-scatter's partners and final per-rank intervals (``None`` for
    the all-gathers, whose outputs are the axis's group members).
    """
    _, kind, g, m, w, tag, offset, charge_adds, flat_size, _ = shape
    phases: list[SymCompute | SymSend | SymRecv] = []

    def exchange(law: str, d_to: int, d_from: int, nwords: Any) -> None:
        dst, hops = vectors(axis.name, law, d_to)
        send = SymSend(dst=dst, hops=hops, nwords=nwords, tag=tag)
        src = vectors(axis.name, law, d_from)[0]
        phases.extend((send, SymRecv(src=src, tag=tag, source=send)))

    if kind == "shift":
        exchange("cyc", offset, g - offset, m)
        return phases, vectors(axis.name, "cyc", g - offset)[0]
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
) -> tuple[list[SymPhase], dict[int, tuple]]:
    """Phases for the common trace, plus what each receive or collective delivers.

    The second result maps a ``recv`` step to ``("recv", payload, src)``
    and a ``coll`` step to ``("coll", kind, axis, payload, out)`` (see
    :func:`_lower_collective`); *payload* is the graph node the matched
    send or the collective carries, or ``None`` when it is untraced.
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
    probes = np.asarray([r for r, _ in traces], dtype=np.int64)
    memo: dict[tuple[str, str, int], tuple[np.ndarray, np.ndarray]] = {}
    phases: list[SymPhase] = []
    links: dict[int, tuple] = {}
    channels: dict[tuple[int, str, str, int], deque[tuple[SymSend, int | None]]] = {}

    def vectors(axis: str, law: str, d: int) -> tuple[np.ndarray, np.ndarray]:
        """(peer, hops) of every rank under one law, built once per compile."""
        key = (axis, law, d)
        if key not in memo:
            peer = _peer_vector(axes[axis], law, d)
            memo[key] = (peer, hop_cache.bulk(everyone, peer))
        return memo[key]

    def lower_send(step: int, fields: list[tuple], part: str = "") -> SymSend:
        """fields: per-probe (dst, nwords, tag, payload) for one message."""
        nwords = _check_uniform([f[1] for f in fields], step, f"send{part} nwords")
        tag = _check_uniform([f[2] for f in fields], step, f"send{part} tag")
        payload = _check_uniform([f[3] for f in fields], step, f"send{part} payload")
        peers = [(r, f[0]) for (r, _), f in zip(traces, fields)]
        axis, law, d = _infer_law(axes, peers, f"Send{part}(tag={tag})")
        dst, hops = vectors(axis, law, d)
        ph = SymSend(dst=dst, hops=hops, nwords=int(nwords), tag=int(tag))
        channels.setdefault((int(tag), axis, law, d), deque()).append((ph, payload))
        return ph

    for step in range(nops):
        row = [ops[step] for _, ops in traces]
        kind = _check_uniform([op[0] for op in row], step, "op kind")
        if kind == "compute":
            cost = _check_uniform([op[1] for op in row], step, "compute cost")
            phases.append(SymCompute(cost=float(cost)))
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
            links[step] = ("recv", payload, src)
        elif kind == "barrier":
            phases.append(SymBarrier())
        elif kind == "checkpoint":
            pass  # free without a fault plan, and compiled excludes fault plans
        else:  # "coll"
            shape = _check_uniform(
                [op[:2] + (len(op[2]),) + op[3:] for op in row],
                step,
                "collective shape",
            )
            groups = np.asarray([op[2] for op in row], dtype=np.int64)
            axis = None
            for name in sorted(axes):
                ax = axes[name]
                if ax.g == shape[2] and np.array_equal(ax.mat[ax.row[probes]], groups):
                    axis = ax
                    break
            if axis is None:
                raise CompileFallback(
                    f"step {step}: collective {shape[1]!r} group is not a "
                    f"symmetry-axis row"
                )
            rounds, out = _lower_collective(vectors, axis, shape)
            phases.append(SymCollective(kind=shape[1], phases=rounds))
            links[step] = ("coll", shape[1], axis, shape[-1], out)
    return phases, links


def unstacked_input(spec: SymmetrySpec) -> str | None:
    """Why *spec*'s inputs cannot be evaluated as stacks, or ``None``."""
    for name, (stack, _) in spec.inputs.items():
        if not isinstance(stack, np.ndarray):
            return (
                f"input {name!r} is not one stacked array (an uneven block "
                f"partition); its blocks cannot be evaluated as a stack"
            )
    return None


def _stacked_inputs(
    spec: SymmetrySpec, p: int
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    reason = unstacked_input(spec)
    if reason is not None:
        raise CompileFallback(reason)
    inputs = {}
    for name, (stack, index) in spec.inputs.items():
        index = np.asarray(index, dtype=np.int64)
        if index.shape != (p,):
            raise ValueError(f"input {name!r} needs one block index per rank, got {index.shape}")
        inputs[name] = (stack, index)
    return inputs


def _common_dataflow(probes: list[_Probe]) -> tuple[list[tuple], tuple]:
    """The probes' shared graph and return template, or fallback."""
    first = probes[0]
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
        if pr.returns != first.returns:
            raise CompileFallback(
                f"probe returns diverge: rank {first.rank} returns "
                f"{first.returns!r}, rank {pr.rank} returns {pr.returns!r}"
            )
    return first.nodes, first.returns


def _resolve(nodes: list[tuple], links: dict[int, tuple]) -> list[tuple]:
    """Recorded nodes with every received block turned into a gather."""
    traced_recvs = {node[1] for node in nodes if node[0] == "recv"}
    for step, link in links.items():
        if link[0] == "recv" and (link[1] is not None) != (step in traced_recvs):
            raise CompileFallback(
                f"step {step}: the Recv matches a send of "
                f"{'a traced' if link[1] is not None else 'an untraced'} payload, "
                f"but the probe's own send on that tag was not"
            )
    members: dict[tuple[str, int], np.ndarray] = {}
    out = []
    for node in nodes:
        kind, meta = node[0], node[-2:]
        if kind == "recv":
            _, payload, src = links[node[1]]
            if nodes[payload][-2:] != meta:
                raise CompileFallback(
                    f"step {node[1]}: received {meta!r} but the matched send "
                    f"carries {nodes[payload][-2:]!r}"
                )
            out.append(("gather", payload, src) + meta)
        elif kind == "coll":
            _, ckind, axis, payload, res = links[node[1]]
            t = node[2]
            if ckind == "shift":
                out.append(("gather", payload, res) + meta)
            elif ckind == "reduce_scatter":
                out.append(("rs", payload, res, t) + meta)
            else:  # all-gather output t: the block of group member t
                if (axis.name, t) not in members:
                    members[(axis.name, t)] = axis.mat[axis.row, t]
                out.append(("gather", payload, members[(axis.name, t)]) + meta)
        else:
            out.append(node)
    return out


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
    inputs = _stacked_inputs(symmetry, p)
    probes = [
        _record_probe(factories[r], make_info, r, inputs, max_ops) for r in probe_ranks
    ]
    nodes, returns = _common_dataflow(probes)
    phases, links = _lower([(pr.rank, pr.ops) for pr in probes], axes, topology, p)
    dataflow = Dataflow(_resolve(nodes, links), returns, inputs, p)
    return BatchSchedule(phases, p, probe_ranks, dataflow)
