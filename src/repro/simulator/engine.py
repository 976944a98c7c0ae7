"""Conservative discrete-event engine for SPMD programs.

Each rank runs a Python generator that yields
:mod:`~repro.simulator.request` objects.  The engine keeps one logical
clock per rank, charges the machine's modeled costs
(:class:`~repro.core.machine.MachineParams`), routes messages over a
:class:`~repro.simulator.topology.Topology`, and resumes receivers with
the transferred payloads.  Because programs are deterministic and sends
never block on the receiver, a simple round-robin "run until blocked"
schedule is confluent: the final clocks do not depend on the order ranks
are stepped in.

Timing model (Section 2 of the paper):

* ``Compute(c)`` advances the local clock by ``c``.
* ``Send`` occupies the sender for the injection time
  ``ts + tw*nwords``; the message arrives at
  ``send_start + machine.transfer_time(nwords, hops)``.
* ``Recv`` completes at ``max(local clock, arrival time)``; the gap is
  accounted as idle (receive-wait) time.
* ``SendAll`` under ``machine.all_port`` occupies the sender for the
  *maximum* individual injection time (simultaneous ports, Section 7);
  otherwise injections serialize.
* ``Barrier`` advances every clock to the global maximum.

The engine reports :class:`SimResult`: per-rank stats, the parallel time
``T_p = max_r finish_time(r)``, and derived speedup/efficiency/overhead
given the serial work ``W``.

Scheduling
----------

Because programs are deterministic and sends never block on the
receiver, the simulation is *confluent*: final clocks and payloads do
not depend on the order ranks are stepped in.  Three schedulers exploit
that freedom differently:

* ``"compiled"`` (default) — trace compilation
  (:mod:`repro.simulator.compile`): a few probe ranks are recorded, the
  program is proven rank-symmetric, and the whole machine is replayed
  as vectorized phases, with payloads evaluated on stacked blocks.  A
  program it cannot compile, and any run with tracing, link contention
  or a fault plan, runs on ``"heap"`` instead, with the reason in
  ``SimResult.compile_fallback``.
* ``"heap"`` — the central min-heap event core, the one production
  generator loop.  All pending work lives in one ``heapq`` queue of
  ``(timestamp, priority, seq, rank)`` tuples, so every scheduling
  decision is O(log p).  A popped rank runs until it blocks, and each
  of its requests is charged through the same helpers as ``"rescan"``,
  so plain, traced, fault-plan and contention runs all keep the
  reference arithmetic while escaping its O(p)-per-pass scans.
* ``"rescan"`` — the original round-robin "run until blocked" loop,
  which rescans every pending rank each pass (O(p) per pass even when
  only one rank can move).  It is retained verbatim as the reference
  implementation: the fuzz suite asserts the other schedulers produce
  bit-identical clocks.

Collectives run as the point-to-point messages of the helpers in
:mod:`repro.simulator.collectives` on both generator loops.  A
:class:`CollectiveOp` is posted only to the trace compiler, which
lowers it to whole-machine rounds; one yielded on a generator loop is a
:class:`ProgramError`.

Heap ordering contract
----------------------

The heap scheduler's event key is ``(timestamp, priority, seq, rank)``:
time first, then the priority class (:data:`PRI_RESUME` before
:data:`PRI_WAKE`), then a monotone sequence counter that breaks every
remaining tie by insertion order.  ``seq`` is unique, so ``rank`` never
decides a comparison — it rides along for debuggability.  Every
insertion goes through the single :meth:`Engine._schedule` helper
(rule ENG007 enforces this), and no dict or set iteration ever picks
the next event, so event order — and therefore the trace, the fault
timeline, and every clock — is identical run to run regardless of hash
seeds.  The property suite in ``tests/test_heap_scheduler.py`` pins
this contract.

Scheduler selection
-------------------

A run takes the scheduler it names (``"compiled"`` when it names none).
``link_contention`` and an active ``fault_plan``
(:mod:`repro.simulator.faults`) stop ``"compiled"`` before probing, so
those runs take ``"heap"`` unless ``"rescan"`` is named.  Link
reservations are granted in scheduler order: heap order is the
contention contract of a default run, and it agrees with rescan order
whenever routes do not conflict (e.g. single-hop traffic).  The fault
recovery timeline is pure per-rank/per-channel arithmetic, so heap and
rescan runs under a plan are bit-identical; a plan whose rates are all
zero still takes the fault path but is bit-identical to running with no
plan at all (the fuzz suite pins both).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from typing import Any, Callable, Final, Generator, Iterable, Mapping

from repro.core.machine import MachineParams
from repro.simulator.compile import (
    CompileFallback,
    SymmetrySpec,
    compile_spmd,
    ungroupable_input,
)
from repro.simulator.errors import DeadlockError, ProgramError
from repro.simulator.faults import CompiledFaults, FaultPlan
from repro.simulator.network import LinkReservations, route_path
from repro.simulator.request import (
    Barrier,
    Checkpoint,
    CollectiveOp,
    Compute,
    Recv,
    Request,
    Send,
    SendAll,
)
from repro.simulator.topology import Topology
from repro.simulator.trace import RankArrays, RankStats, Trace, TraceEvent

__all__ = [
    "RankInfo",
    "SimResult",
    "Engine",
    "run_spmd",
    "DEFAULT_SCHEDULER",
    "SCHEDULERS",
    "PRI_RESUME",
    "PRI_WAKE",
    "SymmetrySpec",
]

#: Known scheduling strategies (see the module docstring).  ``"compiled"``
#: trace-compiles rank-symmetric programs into a vectorized batch
#: schedule (:mod:`repro.simulator.compile`) and transparently falls
#: back to ``"heap"`` when the program cannot be compiled.
SCHEDULERS: tuple[str, ...] = ("rescan", "heap", "compiled")

#: Heap-event priority classes (second field of the ordering key
#: ``(timestamp, priority, seq, rank)``): a rank resuming at its own
#: clock sorts before a rank woken by a message deposit at the same
#: instant.  Both outcomes are confluent; the split exists so ties
#: break by event class before insertion order.
PRI_RESUME: int = 0
PRI_WAKE: int = 1

#: The scheduler of ``Engine(scheduler=None)``: trace compilation,
#: which falls back to ``"heap"`` (recording why) for a program it
#: cannot compile.  A run names another with ``scheduler=``.
DEFAULT_SCHEDULER: Final[str] = "compiled"


@dataclass(frozen=True)
class RankInfo:
    """Immutable per-rank environment handed to each program."""

    rank: int
    nprocs: int
    topology: Topology
    machine: MachineParams

    inputs: Mapping[str, Any] = field(default_factory=dict, repr=False, compare=False)
    """The driver's declared initial blocks, ``name -> (stack, index)``
    (:attr:`SymmetrySpec.inputs`); read them with :meth:`input`."""

    recording: bool = False
    """Whether this rank is a trace-compiler probe being recorded.  The
    collective helpers then post every rooted collective (``bcast``,
    ``reduce``, ``route``) as one :class:`CollectiveOp`, whatever the
    rank holds, so the compiler sees the collective and its root rather
    than one position's share of its messages."""

    def input(self, name: str) -> Any:
        """This rank's initial block *name*: ``stack[index[rank]]``.

        Programs read their declared inputs here rather than from the
        driver's closure, so the trace compiler can hand its probes
        traced stand-ins instead.
        """
        stack, index = self.inputs[name]
        return stack[index[self.rank]]


Program = Generator[Request, Any, Any]
ProgramFactory = Callable[[RankInfo], Program]


@dataclass
class SimResult:
    """Outcome of one SPMD simulation."""

    parallel_time: float
    """``T_p``: the maximum finish time over all ranks, in basic-op units."""

    arrays: RankArrays = field(repr=False)
    """The run's per-rank accounts, one ``(p,)`` array per field; backs
    :attr:`stats` and the ``total_*`` aggregates (numpy reductions, not
    Python loops over the records)."""

    trace: Trace
    """Event trace (empty unless tracing was enabled)."""

    nprocs: int = 0

    # -- fault-model accounting (zero unless a FaultPlan injected something) --------

    retransmits: int = 0
    """Dropped message transmissions that had to be re-sent."""

    faults_injected: int = 0
    """Total fault events (crashes + drops) the plan injected."""

    checkpoint_time: float = 0.0
    """Time charged to periodic/explicit checkpoints, summed over ranks."""

    recovery_time: float = 0.0
    """Time charged to crash recovery (restart cost + lost work), summed
    over ranks."""

    # -- trace compilation (scheduler="compiled") ---------------------------------

    compiled: bool = False
    """True when the run was trace-compiled and replayed as a batch
    schedule.  Clocks, stats, and message/word counts are bit-identical
    to the ``heap`` scheduler, and so are :attr:`returns`, which the
    payload graph computes on stacked blocks the first time they are
    read."""

    compile_fallback: str | None = None
    """Why a ``scheduler="compiled"`` request fell back to ``heap``
    (``None`` when it compiled, or when compilation was never asked for)."""

    payloads: Callable[[], list[Any]] | None = field(default=None, repr=False)
    """Computes :attr:`returns` on first read (compiled runs)."""

    @cached_property
    def stats(self) -> list[RankStats]:
        """Per-rank timing accounts, built from :attr:`arrays` on first read."""
        return self.arrays.snapshot()

    @cached_property
    def returns(self) -> list[Any]:
        """Each rank program's return value (its local result).

        The generator schedulers set this as the run ends; a compiled
        run evaluates its payload graph here, once, on first read, and
        then lets go of the graph and the input stacks it holds.
        """
        values = self.payloads()
        self.payloads = None
        return values

    # -- derived metrics (Section 2) ---------------------------------------------

    def speedup(self, serial_work: float) -> float:
        """``S = W / T_p`` for the given serial work *W*."""
        if self.parallel_time <= 0:
            return float("inf") if serial_work > 0 else 0.0
        return serial_work / self.parallel_time

    def efficiency(self, serial_work: float) -> float:
        """``E = S / p``."""
        return self.speedup(serial_work) / self.nprocs

    def total_overhead(self, serial_work: float) -> float:
        """``T_o = p*T_p - W``: all non-useful time summed over processors."""
        return self.nprocs * self.parallel_time - serial_work

    @property
    def total_compute_time(self) -> float:
        return float(self.arrays.compute_time.sum())

    @property
    def total_comm_time(self) -> float:
        a = self.arrays
        return float((a.send_time + a.recv_wait_time + a.barrier_wait_time).sum())

    @property
    def total_messages(self) -> int:
        return int(self.arrays.messages_sent.sum())

    @property
    def total_words(self) -> int:
        return int(self.arrays.words_sent.sum())


def _unsupported(r: int, req: Any) -> ProgramError:
    """The error for a request no generator loop charges."""
    if isinstance(req, CollectiveOp):
        return ProgramError(
            f"rank {r} yielded collective {req.kind!r} as a CollectiveOp, which only "
            "the trace compiler reads; use the helpers in repro.simulator.collectives"
        )
    return ProgramError(f"rank {r} yielded unsupported request {req!r}")


class _RankState:
    """Per-rank scheduling state: the rank's clock and its running accounts.

    Both are plain Python numbers; :meth:`Engine.run` copies them into
    the run's :class:`RankArrays` once, when the run ends.
    """

    __slots__ = ("gen", "clock", "stats", "blocked_on", "done", "retval", "send_value")

    def __init__(self, gen: Program, rank: int) -> None:
        self.gen = gen
        self.clock = 0.0
        self.stats = RankStats(rank)
        self.blocked_on: Recv | Barrier | None = None
        self.done = False
        self.retval: Any = None
        self.send_value: Any = None


class Engine:
    """Runs one SPMD program per rank to completion under the cost model."""

    def __init__(
        self,
        topology: Topology,
        machine: MachineParams,
        *,
        trace: bool = False,
        max_trace_events: int = 1_000_000,
        link_contention: bool = False,
        scheduler: str | None = None,
        fault_plan: FaultPlan | None = None,
        symmetry: SymmetrySpec | None = None,
    ) -> None:
        self.topology = topology
        self.machine = machine
        self.trace = Trace(enabled=trace, max_events=max_trace_events)
        #: when enabled, every message reserves its route's directed links
        #: for the transfer duration and conflicting transfers serialize
        #: (see repro.simulator.network); the paper's model assumes
        #: conflict-free patterns, and this mode lets tests verify that.
        self.link_contention = link_contention
        self.links: LinkReservations | None = None
        if scheduler is not None and scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {scheduler!r}; known: {SCHEDULERS}")
        self.scheduler = scheduler
        #: deterministic fault schedule; when set, ``"compiled"`` falls
        #: back to heap, which charges faults through the reference
        #: helpers, bit-identically to ``"rescan"``.
        self.fault_plan = fault_plan
        #: rank-symmetry annotation consumed by ``scheduler="compiled"``;
        #: without one, a compiled request falls straight back to heap.
        self.symmetry = symmetry
        self._faults: CompiledFaults | None = None
        # the heap scheduler's event queue of (timestamp, priority, seq,
        # rank) tuples plus its monotone tie-break counter; every
        # insertion goes through _schedule (ENG007)
        self._event_heap: list[tuple[float, int, int, int]] = []
        self._event_seq = 0
        # mailbox key -> rank parked on that channel (heap scheduler)
        self._waiting: dict[tuple[int, int, int], int] = {}
        # mailboxes[(src, dst, tag)] -> FIFO of (arrival_time, payload, nwords)
        self._mail: dict[tuple[int, int, int], deque[tuple[float, Any, int]]] = {}

    # -- public API -----------------------------------------------------------------

    def run(self, factory: ProgramFactory | Iterable[ProgramFactory]) -> SimResult:
        """Execute *factory(info)* on every rank and return the joint result.

        *factory* may be a single callable applied to every rank or a
        sequence with one callable per rank.
        """
        p = self.topology.size
        if callable(factory):
            factories = [factory] * p
        else:
            factories = list(factory)
            if len(factories) != p:
                raise ValueError(f"need {p} programs, got {len(factories)}")

        scheduler = self.scheduler or DEFAULT_SCHEDULER
        compile_fallback: str | None = None
        if scheduler == "compiled":
            compile_fallback = self._compiled_blocker()
            if compile_fallback is not None:
                scheduler = "heap"
        self._faults = (
            self.fault_plan.compile(p) if self.fault_plan is not None else None
        )

        if scheduler == "compiled":
            assert self.symmetry is not None  # _compiled_blocker checked
            try:
                schedule = compile_spmd(
                    factories,
                    self.topology,
                    self.machine,
                    self.symmetry,
                    make_info=lambda r, inputs: RankInfo(
                        rank=r,
                        nprocs=p,
                        topology=self.topology,
                        machine=self.machine,
                        inputs=inputs,
                        recording=True,
                    ),
                )
            except CompileFallback as exc:
                # probe generators were consumed, but factories are
                # re-invoked fresh below — recording left no other state
                compile_fallback = str(exc)
                scheduler = "heap"
            else:
                arr = RankArrays(p)
                schedule.replay(arr, self.machine)
                arr.spread()
                return SimResult(
                    parallel_time=float(arr.clock.max()) if p else 0.0,
                    arrays=arr,
                    trace=self.trace,
                    nprocs=p,
                    compiled=True,
                    payloads=schedule.dataflow.evaluate,
                )

        inputs = self.symmetry.inputs if self.symmetry is not None else {}
        states = [
            _RankState(
                f(
                    RankInfo(
                        rank=r,
                        nprocs=p,
                        topology=self.topology,
                        machine=self.machine,
                        inputs=inputs,
                    )
                ),
                r,
            )
            for r, f in enumerate(factories)
        ]
        self._mail.clear()
        self._event_heap = []
        self._event_seq = 0
        self._waiting.clear()
        self.links = LinkReservations() if self.link_contention else None

        if scheduler == "heap":
            self._run_heap(states)
        else:
            self._run_rescan(states)

        for s in states:
            s.stats.finish_time = s.clock
        arr = RankArrays.from_stats([s.stats for s in states])
        t_p = float(arr.clock.max()) if p else 0.0
        result = SimResult(
            parallel_time=t_p,
            arrays=arr,
            trace=self.trace,
            nprocs=p,
            compile_fallback=compile_fallback,
        )
        result.returns = [s.retval for s in states]
        f = self._faults
        if f is not None:
            result.retransmits = f.retransmits
            result.faults_injected = f.faults_injected
            result.checkpoint_time = f.checkpoint_time
            result.recovery_time = f.recovery_time
        return result

    # -- scheduling internals ---------------------------------------------------------

    def _compiled_blocker(self) -> str | None:
        """Why ``scheduler="compiled"`` must fall back before even probing."""
        if self.symmetry is None:
            return "no SymmetrySpec provided (driver does not declare rank symmetry)"
        if self.trace.enabled:
            return "tracing enabled"
        if self.link_contention:
            return "link contention enabled"
        if self.fault_plan is not None:
            return "active fault plan"
        return ungroupable_input(self.symmetry)

    def _run_rescan(self, states: list[_RankState]) -> None:
        """The seed round-robin scheduler: rescan every pending rank each pass.

        Kept verbatim as the reference implementation; the fuzz suite
        asserts the heap and compiled schedulers match it bit-for-bit.
        """
        pending = set(range(len(states)))
        while pending:
            progressed = False
            for r in sorted(pending):
                if self._step_until_blocked(states, r):
                    progressed = True
                if states[r].done:
                    pending.discard(r)
            if pending and self._try_release_barrier(states):
                progressed = True
            if pending and not progressed:
                raise DeadlockError(
                    {
                        r: repr(states[r].blocked_on)
                        for r in sorted(pending)
                        if states[r].blocked_on is not None
                    },
                    fault_history=(
                        self._faults.history if self._faults is not None else None
                    ),
                )

    def _schedule(self, when: float, priority: int, rank: int) -> None:
        """Insert an event into the heap queue — the only insertion point.

        Events are keyed ``(timestamp, priority, seq, rank)`` where
        ``seq`` is a monotone counter: ties break by priority class,
        then strictly by insertion order, so no dict or set iteration
        ever decides which rank runs next and event order is identical
        run to run regardless of hash seeds.  ``seq`` is unique, so the
        trailing ``rank`` never settles a comparison; it is part of the
        key for debuggability.  Rule ENG007 enforces that every
        ``heappush`` goes through this helper.
        """
        self._event_seq = seq = self._event_seq + 1
        heappush(self._event_heap, (when, priority, seq, rank))

    def _run_heap(self, states: list[_RankState]) -> None:
        """Central min-heap event core: O(log p) scheduling decisions.

        Each popped rank runs until it blocks, charging every request
        through the same helpers as the rescan scheduler
        (``_dispatch``/``_do_send``/``_do_send_all``/``_complete_recv``/
        ``_try_release_barrier``), so clocks, accounts, trace events and
        the fault timeline — crash windows, degraded links,
        drop/retransmit streams — are bit-identical to the reference
        while scheduling stays O(log p) instead of O(p) per pass.  Only
        the global interleaving of ``trace.events`` follows heap order.
        Link-reservation grants follow heap event order too, which
        matches the reference whenever routes do not conflict
        (single-hop traffic; see the module docstring).
        """
        heap = self._event_heap
        waiting = self._waiting
        for r in range(len(states)):
            self._schedule(0.0, PRI_RESUME, r)
        barrier_blocked = 0
        active = len(states)
        while active:
            while heap:
                _t, _pri, _seq, r = heappop(heap)
                st = states[r]
                value = None
                blocked = st.blocked_on
                if blocked is not None:
                    # only Recv parks with a scheduled wake
                    value = self._complete_recv(st, blocked, r)
                    st.blocked_on = None
                gen_send = st.gen.send
                while True:
                    try:
                        req = gen_send(value)
                    except StopIteration as stop:
                        st.done = True
                        st.retval = stop.value
                        active -= 1
                        break
                    value = None
                    self._dispatch(st, r, req)
                    blocked = st.blocked_on
                    if blocked is None:
                        cls = req.__class__
                        if cls is Send:
                            self._maybe_wake(states, r, req.dst, req.tag)
                        elif cls is SendAll:
                            for m in req.messages:
                                self._maybe_wake(states, r, m.dst, m.tag)
                        continue
                    if blocked.__class__ is Barrier:
                        barrier_blocked += 1
                        break
                    if self._recv_ready(blocked, r):
                        value = self._complete_recv(st, blocked, r)
                        st.blocked_on = None
                        continue
                    waiting[(blocked.src, r, blocked.tag)] = r
                    break
            if not active:
                return
            if barrier_blocked == active and self._try_release_barrier(states):
                barrier_blocked = 0
                for r2, s in enumerate(states):
                    if not s.done:
                        self._schedule(s.clock, PRI_RESUME, r2)
            else:
                raise DeadlockError(
                    {
                        r2: repr(states[r2].blocked_on)
                        for r2 in range(len(states))
                        if not states[r2].done and states[r2].blocked_on is not None
                    },
                    fault_history=(
                        self._faults.history if self._faults is not None else None
                    ),
                )

    def _maybe_wake(self, states: list[_RankState], src: int, dst: int, tag: int) -> None:
        """Schedule a wake for a rank parked on the just-fed channel."""
        key = (src, dst, tag)
        woken = self._waiting.pop(key, None)
        if woken is not None:
            arrival = self._mail[key][0][0]
            c2 = states[woken].clock
            self._schedule(arrival if arrival > c2 else c2, PRI_WAKE, woken)

    def _step_until_blocked(self, states: list[_RankState], r: int) -> bool:
        """Advance rank *r* until it finishes or blocks; return True on any progress."""
        st = states[r]
        if st.done:
            return False
        progressed = False
        while True:
            if st.blocked_on is not None:
                req = st.blocked_on
                if isinstance(req, Barrier):
                    return progressed  # engine-level release
                assert isinstance(req, Recv)
                if not self._recv_ready(req, r):
                    return progressed
                st.send_value = self._complete_recv(st, req, r)
                st.blocked_on = None
                progressed = True
            try:
                req = st.gen.send(st.send_value)
            except StopIteration as stop:
                st.done = True
                st.retval = stop.value
                return True
            st.send_value = None
            progressed = True
            self._dispatch(st, r, req)
            if st.blocked_on is not None and (
                isinstance(st.blocked_on, Barrier) or not self._recv_ready(st.blocked_on, r)
            ):
                return progressed

    def _dispatch(self, st: _RankState, r: int, req: Request) -> None:
        f = self._faults
        if isinstance(req, Compute):
            start = st.clock
            cost = req.cost
            if f is not None:
                cost = f.scaled_compute(r, cost)
            st.clock += cost
            st.stats.compute_time += cost
            if self.trace.enabled:
                self.trace.record(TraceEvent(r, start, st.clock, "compute", req.label))
            if f is not None:
                st.clock = f.advance(r, st.clock)
        elif isinstance(req, Send):
            self._do_send(st, r, req, start_at=st.clock, advance=True)
        elif isinstance(req, SendAll):
            self._do_send_all(st, r, req)
        elif isinstance(req, Recv):
            st.blocked_on = req
        elif isinstance(req, Barrier):
            st.blocked_on = req
        elif isinstance(req, Checkpoint):
            if f is not None:
                start = st.clock
                st.clock = f.force_checkpoint(r, st.clock)
                if self.trace.enabled:
                    self.trace.record(
                        TraceEvent(r, start, st.clock, "checkpoint", req.label)
                    )
        else:
            raise _unsupported(r, req)

    def _do_send(self, st: _RankState, r: int, req: Send, *, start_at: float, advance: bool) -> float:
        """Inject one message; return the sender-busy duration (incl. link stall)."""
        if not 0 <= req.dst < self.topology.size:
            raise ProgramError(f"rank {r} sent to invalid rank {req.dst}")
        hops = self.topology.distance(r, req.dst)
        duration = self.machine.transfer_time(req.nwords, hops)
        f = self._faults
        fault_delay = 0.0
        if f is not None:
            duration = f.degraded_duration(r, req.dst, duration)
            delayed = f.on_send(
                r, req.dst, req.tag,
                self.machine.sender_busy_time(req.nwords), st.stats, start_at,
            )
            fault_delay = delayed - start_at
            start_at = delayed
        stall = 0.0
        if self.links is not None and r != req.dst:
            path = route_path(self.topology, r, req.dst)
            links = list(zip(path, path[1:]))
            start = self.links.earliest_start(links, start_at, duration)
            self.links.reserve(links, start, duration)
            stall = start - start_at
        busy = stall + self.machine.sender_busy_time(req.nwords)
        arrival = start_at + stall + duration
        self._mail.setdefault((r, req.dst, req.tag), deque()).append(
            (arrival, req.data, req.nwords)
        )
        st.stats.messages_sent += 1
        st.stats.words_sent += req.nwords
        if advance:
            st.stats.send_time += busy
            if self.trace.enabled:
                self.trace.record(
                    TraceEvent(
                        r, start_at, start_at + busy, "send",
                        f"->{req.dst} {req.nwords}w", tag=req.tag,
                    )
                )
            st.clock = start_at + busy
            if f is not None:
                st.clock = f.advance(r, st.clock)
        # callers that aggregate (all-port SendAll) need retransmit delay
        # included in the per-port occupation; exact `busy` when no plan
        return busy if f is None else fault_delay + busy

    def _do_send_all(self, st: _RankState, r: int, req: SendAll) -> None:
        if not req.messages:
            return
        start = st.clock
        if self.machine.all_port:
            # all ports drive simultaneously; sender busy for the slowest port
            busy = 0.0
            for m in req.messages:
                busy = max(busy, self._do_send(st, r, m, start_at=start, advance=False))
            st.stats.send_time += busy
            st.clock = start + busy
            if self.trace.enabled:
                self.trace.record(
                    TraceEvent(r, start, st.clock, "send", f"all-port x{len(req.messages)}")
                )
            if self._faults is not None:
                st.clock = self._faults.advance(r, st.clock)
        else:
            for m in req.messages:
                self._do_send(st, r, m, start_at=st.clock, advance=True)

    def _recv_ready(self, req: Recv, r: int) -> bool:
        q = self._mail.get((req.src, r, req.tag))
        return bool(q)

    def _complete_recv(self, st: _RankState, req: Recv, r: int) -> Any:
        arrival, payload, nwords = self._mail[(req.src, r, req.tag)].popleft()
        start = st.clock
        if arrival > st.clock:
            st.stats.recv_wait_time += arrival - st.clock
            st.clock = arrival
        if self.trace.enabled:
            self.trace.record(
                TraceEvent(r, start, st.clock, "recv", f"<-{req.src} {nwords}w", tag=req.tag)
            )
        if self._faults is not None:
            st.clock = self._faults.advance(r, st.clock)
        return payload

    def _try_release_barrier(self, states: list[_RankState]) -> bool:
        """Release a barrier once every unfinished rank is waiting on it."""
        waiting = [s for s in states if not s.done]
        if not waiting or not all(isinstance(s.blocked_on, Barrier) for s in waiting):
            return False
        t = max(s.clock for s in waiting)
        f = self._faults
        for s in waiting:
            if t > s.clock:
                s.stats.barrier_wait_time += t - s.clock
            if self.trace.enabled:
                self.trace.record(TraceEvent(s.stats.rank, s.clock, t, "barrier"))
            s.clock = t
            if f is not None:
                s.clock = f.advance(s.stats.rank, s.clock)
            s.blocked_on = None
            s.send_value = None
        return True


def run_spmd(
    topology: Topology,
    machine: MachineParams,
    factory: ProgramFactory | Iterable[ProgramFactory],
    *,
    trace: bool = False,
    scheduler: str | None = None,
    fault_plan: FaultPlan | None = None,
    symmetry: SymmetrySpec | None = None,
) -> SimResult:
    """One-shot convenience wrapper around :class:`Engine`."""
    return Engine(
        topology,
        machine,
        trace=trace,
        scheduler=scheduler,
        fault_plan=fault_plan,
        symmetry=symmetry,
    ).run(factory)
