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
not depend on the order ranks are stepped in.  Four schedulers exploit
that freedom differently:

* ``"compiled"`` (default) — trace compilation
  (:mod:`repro.simulator.compile`): a few probe ranks are recorded, the
  program is proven rank-symmetric, and the whole machine is replayed
  as vectorized phases, with payloads evaluated on stacked blocks.  A
  program it cannot compile, and any run with tracing, link contention
  or a fault plan, runs on ``"heap"`` instead, with the reason in
  ``SimResult.compile_fallback``.
* ``"ready"`` — event-driven.  Runnable ranks sit in a ready
  queue; a rank blocked on ``Recv`` is parked in a wakeup map keyed by
  its mailbox channel and revisited only when a matching message is
  deposited, and ranks blocked on ``Barrier`` are merely counted.  Each
  rank is touched O(#requests + #wakeups) times, and with tracing off
  the hot loop allocates no trace events and formats no labels.
* ``"heap"`` — the central min-heap event core for large-p runs.  All
  pending work lives in one ``heapq`` queue of
  ``(timestamp, priority, seq, rank)`` tuples, so every scheduling
  decision is O(log p); same-timestamp event batches are popped
  together and their Compute/Send/SendAll arithmetic is charged
  vectorized against the run's :class:`RankArrays`.  Fault-active and
  contention runs take the same heap queue but charge per request
  through the reference helpers, so they keep the reference arithmetic
  while escaping the rescan scheduler's O(p)-per-pass scans.
* ``"rescan"`` — the original round-robin "run until blocked" loop,
  which rescans every pending rank each pass (O(p) per pass even when
  only one rank can move).  It is retained verbatim as the reference
  implementation: the fuzz suite asserts the other schedulers produce
  bit-identical clocks, and ``benchmarks/perf_guard.py`` uses it as the
  performance baseline.

Heap ordering contract
----------------------

The heap scheduler's event key is ``(timestamp, priority, seq, rank)``:
time first, then the priority class (:data:`PRI_RESUME` before
:data:`PRI_WAKE`), then a monotone sequence counter that breaks every
remaining tie by insertion order.  ``seq`` is unique, so ``rank`` never
decides a comparison — it rides along for debuggability.  Every
insertion goes through the single :meth:`Engine._schedule` helper
(rule ENG006 enforces this), and no dict or set iteration ever picks
the next event, so event order — and therefore the trace, the fault
timeline, and every clock — is identical run to run regardless of hash
seeds.  The property suite in ``tests/test_heap_scheduler.py`` pins
this contract.

Scheduler selection
-------------------

``link_contention`` mode uses the rescan scheduler when ``"ready"``
was selected (``"compiled"`` falls back to ``"heap"``): link
reservations are granted in deterministic scheduler order, so the
reference order is part of that mode's contract, and the
heap scheduler's heap order is part of *its* contract (the two agree
whenever routes do not conflict, e.g. single-hop traffic).  An active
``fault_plan`` (:mod:`repro.simulator.faults`) resolves the same way —
the recovery timeline is pure per-rank/per-channel arithmetic, so heap
and rescan runs are bit-identical — and always disables the macro
collective fast path; a plan whose rates are all zero still takes the
fault path but is bit-identical to running with no plan at all (the
fuzz suite pins this).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Mapping

import numpy as np

from repro.core.machine import MachineParams
from repro.simulator.charging import message_times
from repro.simulator.compile import (
    CompileFallback,
    SymmetrySpec,
    compile_spmd,
    unstacked_input,
)
from repro.simulator.errors import DeadlockError, ProgramError
from repro.simulator.faults import CompiledFaults, FaultPlan
from repro.simulator.macro import run_collective
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
from repro.simulator.topology import PairHopCache, Topology
from repro.simulator.trace import RankArrays, RankStats, Trace, TraceEvent

__all__ = [
    "RankInfo",
    "SimResult",
    "Engine",
    "run_spmd",
    "DEFAULT_SCHEDULER",
    "DEFAULT_MACRO_COLLECTIVES",
    "SCHEDULERS",
    "PRI_RESUME",
    "PRI_WAKE",
    "SymmetrySpec",
]

#: Known scheduling strategies (see the module docstring).  ``"compiled"``
#: trace-compiles rank-symmetric programs into a vectorized batch
#: schedule (:mod:`repro.simulator.compile`) and transparently falls
#: back to ``"heap"`` when the program cannot be compiled.
SCHEDULERS: tuple[str, ...] = ("ready", "rescan", "heap", "compiled")

#: Heap-event priority classes (second field of the ordering key
#: ``(timestamp, priority, seq, rank)``): a rank resuming at its own
#: clock sorts before a rank woken by a message deposit at the same
#: instant.  Both outcomes are confluent; the split exists so ties
#: break by event class before insertion order.
PRI_RESUME: int = 0
PRI_WAKE: int = 1

#: Below this many same-kind requests in a heap batch, the scalar
#: charge path is used — numpy setup costs more than it saves.  Both
#: paths evaluate the identical expressions, so the threshold never
#: affects results.
_VEC_MIN: int = 8

#: Process-wide default used when ``Engine(scheduler=None)``: trace
#: compilation, which falls back to ``"heap"`` (recording why) for a
#: program it cannot compile.  Benchmarks flip this to ``"rescan"`` to
#: time the seed scheduler without plumbing an option through every
#: algorithm driver.
DEFAULT_SCHEDULER: str = "compiled"

#: Process-wide default used when ``Engine(macro_collectives=None)``.
#: Benchmarks flip this to ``False`` to time the message-level reference
#: collectives under the same scheduler.
DEFAULT_MACRO_COLLECTIVES: bool = True


@dataclass(frozen=True)
class RankInfo:
    """Immutable per-rank environment handed to each program."""

    rank: int
    nprocs: int
    topology: Topology
    machine: MachineParams

    macro_collectives: bool = False
    """Whether the engine accepts :class:`CollectiveOp` macro requests
    this run.  The collective helpers consult this to pick between one
    closed-form vectorized update and the message-level reference path;
    it is only set when tracing and link contention are off and the
    event-driven scheduler is active."""

    inputs: Mapping[str, Any] = field(default_factory=dict, repr=False, compare=False)
    """The driver's declared initial blocks, ``name -> (stack, index)``
    (:attr:`SymmetrySpec.inputs`); read them with :meth:`input`."""

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

    stats: list[RankStats]
    """Per-rank timing accounts."""

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

    arrays: "RankArrays | None" = field(default=None, repr=False)
    """The run's columnar per-rank accounts; backs the ``total_*``
    aggregates with numpy reductions instead of Python-level loops over
    :attr:`stats`."""

    payloads: Callable[[], list[Any]] | None = field(default=None, repr=False)
    """Computes :attr:`returns` on first read (compiled runs)."""

    @cached_property
    def returns(self) -> list[Any]:
        """Each rank program's return value (its local result).

        The generator schedulers set this as the run ends; a compiled
        run evaluates its payload graph here, once, on first read.
        """
        return self.payloads()

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
        if self.arrays is not None:
            return float(self.arrays.compute_time.sum())
        return sum(s.compute_time for s in self.stats)

    @property
    def total_comm_time(self) -> float:
        if self.arrays is not None:
            a = self.arrays
            return float(
                (a.send_time + a.recv_wait_time + a.barrier_wait_time).sum()
            )
        return sum(s.comm_time for s in self.stats)

    @property
    def total_messages(self) -> int:
        if self.arrays is not None:
            return int(self.arrays.messages_sent.sum())
        return sum(s.messages_sent for s in self.stats)

    @property
    def total_words(self) -> int:
        if self.arrays is not None:
            return int(self.arrays.words_sent.sum())
        return sum(s.words_sent for s in self.stats)


class _RankState:
    """Per-rank scheduling state; clocks and accounts live in :class:`RankArrays`.

    ``clock`` and ``stats`` are views into the run's shared arrays, so
    scalar code paths (the reference scheduler, SendAll) keep their
    original shape while the macro executors and barrier releases update
    whole rank sets vectorized.
    """

    __slots__ = ("gen", "rank", "_arr", "stats", "blocked_on", "done", "retval", "barrier_epoch", "send_value")

    def __init__(self, gen: Program, rank: int, arr: RankArrays) -> None:
        self.gen = gen
        self.rank = rank
        self._arr = arr
        self.stats = arr.view(rank)
        self.blocked_on: Recv | Barrier | CollectiveOp | None = None
        self.done = False
        self.retval: Any = None
        self.barrier_epoch = 0
        self.send_value: Any = None

    @property
    def clock(self) -> float:
        return self._arr.clock[self.rank]

    @clock.setter
    def clock(self, value: float) -> None:
        self._arr.clock[self.rank] = value


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
        macro_collectives: bool | None = None,
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
        #: ``None`` defers to :data:`DEFAULT_MACRO_COLLECTIVES`; the flag
        #: is only honored when tracing, link contention, and faults are
        #: off and the ready or heap scheduler runs (the reference paths
        #: stay exact).
        self.macro_collectives = macro_collectives
        #: deterministic fault schedule; when set, the run uses the
        #: reference scheduler unless ``"heap"`` was selected (the heap
        #: core charges faults through the reference helpers), and
        #: macro collectives are disabled either way.
        self.fault_plan = fault_plan
        #: rank-symmetry annotation consumed by ``scheduler="compiled"``;
        #: without one, a compiled request falls straight back to heap.
        self.symmetry = symmetry
        self._faults: CompiledFaults | None = None
        # the heap scheduler's event queue of (timestamp, priority, seq,
        # rank) tuples plus its monotone tie-break counter; every
        # insertion goes through _schedule (ENG006)
        self._event_heap: list[tuple[float, int, int, int]] = []
        self._event_seq = 0
        # mailbox key -> rank parked on that channel (heap scheduler)
        self._waiting: dict[tuple[int, int, int], int] = {}
        # mailboxes[(src, dst, tag)] -> FIFO of (arrival_time, payload, nwords)
        self._mail: dict[tuple[int, int, int], deque[tuple[float, Any, int]]] = {}
        # (src, dst) -> hop count, filled lazily (repeated pairs dominate)
        self._dist: dict[tuple[int, int], int] = {}
        # (kind, tag, len(group)) -> pending entries [posts, count, pos, group];
        # bucketed by cheap signature so posting never hashes a whole group
        # (list equality short-circuits on the first differing rank)
        self._pending_collectives: dict[tuple[str, int, int], list[list]] = {}
        self._arr: RankArrays | None = None

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
        if (self.link_contention or self.fault_plan is not None) and scheduler != "heap":
            # reservation/recovery order is defined by the reference
            # scheduler; the heap core handles both natively through the
            # reference helpers (see the module docstring)
            scheduler = "rescan"
        macro = (
            self.macro_collectives
            if self.macro_collectives is not None
            else DEFAULT_MACRO_COLLECTIVES
        )
        macro_ok = (
            macro
            and scheduler in ("ready", "heap", "compiled")
            and not self.trace.enabled
            and not self.link_contention
            and self.fault_plan is None
        )
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
                        macro_collectives=macro_ok,
                        inputs=inputs,
                    ),
                )
            except CompileFallback as exc:
                # probe generators were consumed, but factories are
                # re-invoked fresh below — recording left no other state
                compile_fallback = str(exc)
                scheduler = "heap"
            else:
                arr = RankArrays(p)
                self._arr = arr
                schedule.replay(arr, self.machine)
                return SimResult(
                    parallel_time=float(arr.clock.max()) if p else 0.0,
                    stats=arr.snapshot(),
                    trace=self.trace,
                    nprocs=p,
                    compiled=True,
                    arrays=arr,
                    payloads=schedule.dataflow.evaluate,
                )

        arr = RankArrays(p)
        self._arr = arr
        inputs = self.symmetry.inputs if self.symmetry is not None else {}
        states = [
            _RankState(
                f(
                    RankInfo(
                        rank=r,
                        nprocs=p,
                        topology=self.topology,
                        machine=self.machine,
                        macro_collectives=macro_ok,
                        inputs=inputs,
                    )
                ),
                r,
                arr,
            )
            for r, f in enumerate(factories)
        ]
        self._mail.clear()
        self._dist.clear()
        self._pending_collectives.clear()
        self._event_heap = []
        self._event_seq = 0
        self._waiting.clear()
        self.links = LinkReservations() if self.link_contention else None

        if scheduler == "ready":
            self._run_ready(states)
        elif scheduler == "heap":
            self._run_heap(states)
        else:
            self._run_rescan(states)

        t_p = float(arr.clock.max()) if p else 0.0
        result = SimResult(
            parallel_time=t_p,
            stats=arr.snapshot(),
            trace=self.trace,
            nprocs=p,
            compile_fallback=compile_fallback,
            arrays=arr,
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
        return unstacked_input(self.symmetry)

    def _run_rescan(self, states: list[_RankState]) -> None:
        """The seed round-robin scheduler: rescan every pending rank each pass.

        Kept verbatim as the reference implementation; the fuzz suite
        asserts the ready-queue scheduler matches it bit-for-bit.
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

    def _run_ready(self, states: list[_RankState]) -> None:
        """Event-driven fast path: ready queue + per-channel wakeup map.

        A rank leaves the ready queue only by finishing or blocking; a
        rank blocked on ``Recv`` is parked under its mailbox key and
        re-enqueued by the send that feeds it, and ranks blocked on
        ``Barrier`` are only counted.  The arithmetic matches the rescan
        scheduler expression-for-expression so clocks are bit-identical.
        Cost-model parameters, mailboxes, and hop distances are hoisted
        into locals, and with tracing off no :class:`TraceEvent` (nor its
        label string) is ever constructed.
        """
        machine = self.machine
        ts, tw, th = machine.ts, machine.tw, machine.th
        cut_through = machine.routing == "ct"
        topo = self.topology
        size = topo.size
        distance = topo.distance
        dist = self._dist
        mail = self._mail
        tracing = self.trace.enabled
        record = self.trace.record

        arr = self._arr
        assert arr is not None  # set by run() before any scheduler body
        clk_arr = arr.clock
        comp_arr = arr.compute_time
        sendt_arr = arr.send_time
        rwait_arr = arr.recv_wait_time
        msgs_arr = arr.messages_sent
        words_arr = arr.words_sent

        ready = deque(range(len(states)))
        waiting: dict[tuple[int, int, int], int] = {}  # mailbox key -> parked rank
        barrier_blocked = 0
        active = len(states)

        while active:
            while ready:
                r = ready.popleft()
                st = states[r]
                clock = clk_arr.item(r)
                value = None
                blocked = st.blocked_on
                if blocked is not None:
                    if blocked.__class__ is CollectiveOp:
                        # resumed by a completed macro collective: the
                        # executor already advanced clock and accounts
                        value = st.send_value
                        st.send_value = None
                        st.blocked_on = None
                    else:
                        # woken by a deposit on this channel: complete the Recv
                        arrival, value, nwords = mail[(blocked.src, r, blocked.tag)].popleft()
                        if tracing:
                            end = arrival if arrival > clock else clock
                            record(TraceEvent(r, clock, end, "recv",
                                              f"<-{blocked.src} {nwords}w", tag=blocked.tag))
                        if arrival > clock:
                            rwait_arr[r] += arrival - clock
                            clock = arrival
                        st.blocked_on = None
                gen_send = st.gen.send
                fire = None
                while True:
                    try:
                        req = gen_send(value)
                    except StopIteration as stop:
                        st.done = True
                        st.retval = stop.value
                        active -= 1
                        break
                    value = None
                    cls = req.__class__
                    if cls is Compute:
                        cost = req.cost
                        if tracing:
                            record(TraceEvent(r, clock, clock + cost, "compute", req.label))
                        comp_arr[r] += cost
                        clock += cost
                    elif cls is Recv:
                        key = (req.src, r, req.tag)
                        q = mail.get(key)
                        if q:
                            arrival, value, nwords = q.popleft()
                            if tracing:
                                end = arrival if arrival > clock else clock
                                record(TraceEvent(r, clock, end, "recv",
                                                  f"<-{req.src} {nwords}w", tag=req.tag))
                            if arrival > clock:
                                rwait_arr[r] += arrival - clock
                                clock = arrival
                        else:
                            st.blocked_on = req
                            waiting[key] = r
                            break
                    elif cls is Send:
                        dst = req.dst
                        if not 0 <= dst < size:
                            raise ProgramError(f"rank {r} sent to invalid rank {dst}")
                        pair = (r, dst)
                        hops = dist.get(pair)
                        if hops is None:
                            hops = dist[pair] = max(distance(r, dst), 1)
                        nwords = req.nwords
                        # same expressions as MachineParams.transfer_time /
                        # sender_busy_time, hoisted out of the method calls
                        if cut_through:
                            duration = ts + tw * nwords + th * hops
                        else:
                            duration = ts + (tw * nwords + th) * hops
                        busy = ts + tw * nwords
                        arrival = clock + duration
                        key = (r, dst, req.tag)
                        q = mail.get(key)
                        if q is None:
                            q = mail[key] = deque()
                        q.append((arrival, req.data, nwords))
                        msgs_arr[r] += 1
                        words_arr[r] += nwords
                        sendt_arr[r] += busy
                        if tracing:
                            record(TraceEvent(r, clock, clock + busy, "send",
                                              f"->{dst} {nwords}w", tag=req.tag))
                        clock = clock + busy
                        woken = waiting.pop(key, None)
                        if woken is not None:
                            ready.append(woken)
                    elif cls is SendAll:
                        st.clock = clock
                        self._do_send_all(st, r, req)
                        clock = clk_arr.item(r)
                        for m in req.messages:
                            woken = waiting.pop((r, m.dst, m.tag), None)
                            if woken is not None:
                                ready.append(woken)
                    elif cls is Barrier:
                        st.blocked_on = req
                        barrier_blocked += 1
                        break
                    elif cls is Checkpoint:
                        # free without a fault plan, and a plan never runs
                        # under this scheduler (run() forces rescan)
                        pass
                    elif cls is CollectiveOp:
                        st.blocked_on = req
                        fire = self._post_collective(r, req, size)
                        break
                    else:
                        raise ProgramError(f"rank {r} yielded unsupported request {req!r}")
                clk_arr[r] = clock
                st.send_value = None
                if fire is not None:
                    # the last member posted: run the vectorized executor
                    # (after this rank's clock flush) and wake the group
                    returns = run_collective(fire, arr, topo, machine)
                    for i, member in enumerate(fire[0].group):
                        states[member].send_value = returns[i]
                        ready.append(member)
            if not active:
                return
            if barrier_blocked == active:
                self._release_barrier_ready(states)
                barrier_blocked = 0
                ready.extend(r for r, s in enumerate(states) if not s.done)
            else:
                raise DeadlockError(
                    {
                        r: repr(states[r].blocked_on)
                        for r in range(len(states))
                        if not states[r].done and states[r].blocked_on is not None
                    }
                )

    def _schedule(self, when: float, priority: int, rank: int) -> None:
        """Insert an event into the heap queue — the only insertion point.

        Events are keyed ``(timestamp, priority, seq, rank)`` where
        ``seq`` is a monotone counter: ties break by priority class,
        then strictly by insertion order, so no dict or set iteration
        ever decides which rank runs next and event order is identical
        run to run regardless of hash seeds.  ``seq`` is unique, so the
        trailing ``rank`` never settles a comparison; it is part of the
        key for debuggability.  Rule ENG006 enforces that every
        ``heappush`` in this module goes through this helper.
        """
        self._event_seq = seq = self._event_seq + 1
        heappush(self._event_heap, (when, priority, seq, rank))

    def _run_heap(self, states: list[_RankState]) -> None:
        """Central min-heap event core: O(log p) scheduling decisions.

        Plain runs take the batched fast loop; fault-active and
        link-contention runs keep heap scheduling but charge each
        request through the reference helpers so the fault timeline
        stays bit-identical to the rescan scheduler.
        """
        for r in range(len(states)):
            self._schedule(0.0, PRI_RESUME, r)
        if self._faults is not None or self.links is not None:
            self._run_heap_exact(states)
        else:
            self._run_heap_fast(states)

    def _run_heap_fast(self, states: list[_RankState]) -> None:
        """Heap scheduling with batched charging (no faults/contention).

        Same-timestamp events are popped as one batch; each rank's
        generator is resumed once (receives whose message is already in
        the mailbox complete inline), and the batch's Compute/Send/
        SendAll requests are charged against the :class:`RankArrays` in
        one vectorized shot per request kind.  Every expression matches
        the reference scheduler's scalar arithmetic — numpy float64
        elementwise ops round exactly like the equivalent Python float
        ops — so clocks stay bit-identical (the fuzz suite pins this).
        """
        machine = self.machine
        ts, tw, th = machine.ts, machine.tw, machine.th
        cut_through = machine.routing == "ct"
        all_port = machine.all_port
        topo = self.topology
        size = topo.size
        hop_cache = PairHopCache.shared(topo)
        hop = hop_cache.hop
        mail = self._mail
        tracing = self.trace.enabled
        record = self.trace.record

        arr = self._arr
        assert arr is not None  # set by run() before any scheduler body
        clk_arr = arr.clock
        comp_arr = arr.compute_time
        sendt_arr = arr.send_time
        rwait_arr = arr.recv_wait_time
        msgs_arr = arr.messages_sent
        words_arr = arr.words_sent

        heap = self._event_heap
        schedule = self._schedule
        waiting = self._waiting
        barrier_blocked = 0
        active = len(states)

        while active:
            while heap:
                now = heap[0][0]
                batch: list[tuple[float, int, int, int]] = []
                # equal-timestamp detection by ordering comparison: the
                # root can only be <= the minimum just popped if it ties
                while heap and heap[0][0] <= now:
                    batch.append(heappop(heap))
                comp_items: list[tuple[int, float, Compute]] = []
                send_items: list[tuple[int, float, Send]] = []
                sendall_items: list[tuple[int, float, SendAll]] = []
                for _t, _pri, _seq, r in batch:
                    st = states[r]
                    clock = clk_arr.item(r)
                    value = None
                    blocked = st.blocked_on
                    if blocked is not None:
                        if blocked.__class__ is CollectiveOp:
                            # resumed by a completed macro collective: the
                            # executor already advanced clock and accounts
                            value = st.send_value
                            st.send_value = None
                            st.blocked_on = None
                        else:
                            # woken by a deposit on this channel: complete the Recv
                            arrival, value, nwords = mail[(blocked.src, r, blocked.tag)].popleft()
                            if tracing:
                                end = arrival if arrival > clock else clock
                                record(TraceEvent(r, clock, end, "recv",
                                                  f"<-{blocked.src} {nwords}w", tag=blocked.tag))
                            if arrival > clock:
                                rwait_arr[r] += arrival - clock
                                clock = arrival
                            st.blocked_on = None
                    gen_send = st.gen.send
                    fire = None
                    while True:
                        try:
                            req = gen_send(value)
                        except StopIteration as stop:
                            st.done = True
                            st.retval = stop.value
                            active -= 1
                            clk_arr[r] = clock
                            break
                        value = None
                        cls = req.__class__
                        if cls is Recv:
                            key = (req.src, r, req.tag)
                            q = mail.get(key)
                            if q:
                                arrival, value, nwords = q.popleft()
                                if tracing:
                                    end = arrival if arrival > clock else clock
                                    record(TraceEvent(r, clock, end, "recv",
                                                      f"<-{req.src} {nwords}w", tag=req.tag))
                                if arrival > clock:
                                    rwait_arr[r] += arrival - clock
                                    clock = arrival
                                continue
                            st.blocked_on = req
                            waiting[key] = r
                            clk_arr[r] = clock
                            break
                        if cls is Send:
                            if not 0 <= req.dst < size:
                                raise ProgramError(
                                    f"rank {r} sent to invalid rank {req.dst}"
                                )
                            send_items.append((r, clock, req))
                            clk_arr[r] = clock
                            break
                        if cls is SendAll:
                            if not req.messages:
                                continue
                            for m in req.messages:
                                if not 0 <= m.dst < size:
                                    raise ProgramError(
                                        f"rank {r} sent to invalid rank {m.dst}"
                                    )
                            sendall_items.append((r, clock, req))
                            clk_arr[r] = clock
                            break
                        if cls is Compute:
                            comp_items.append((r, clock, req))
                            clk_arr[r] = clock
                            break
                        if cls is Barrier:
                            st.blocked_on = req
                            barrier_blocked += 1
                            clk_arr[r] = clock
                            break
                        if cls is Checkpoint:
                            # free without a fault plan (this loop never
                            # runs with one)
                            continue
                        if cls is CollectiveOp:
                            st.blocked_on = req
                            clk_arr[r] = clock
                            fire = self._post_collective(r, req, size)
                            break
                        raise ProgramError(
                            f"rank {r} yielded unsupported request {req!r}"
                        )
                    st.send_value = None
                    if fire is not None:
                        # the last member posted: every member is parked
                        # with a flushed clock, so run the vectorized
                        # executor and schedule the group's resumes
                        returns = run_collective(fire, arr, topo, machine)
                        for i, member in enumerate(fire[0].group):
                            states[member].send_value = returns[i]
                            schedule(clk_arr.item(member), PRI_RESUME, member)

                # ---- batched charging (one vectorized shot per kind) ----
                if comp_items:
                    if len(comp_items) < _VEC_MIN:
                        for r, clock, creq in comp_items:
                            cost = creq.cost
                            if tracing:
                                record(TraceEvent(r, clock, clock + cost,
                                                  "compute", creq.label))
                            comp_arr[r] += cost
                            end = clock + cost
                            clk_arr[r] = end
                            schedule(end, PRI_RESUME, r)
                    else:
                        n = len(comp_items)
                        idx = np.fromiter((it[0] for it in comp_items),
                                          dtype=np.intp, count=n)
                        starts = np.fromiter((it[1] for it in comp_items),
                                             dtype=np.float64, count=n)
                        costs = np.fromiter((it[2].cost for it in comp_items),
                                            dtype=np.float64, count=n)
                        ends = starts + costs
                        comp_arr[idx] += costs
                        clk_arr[idx] = ends
                        end_list = ends.tolist()
                        for i, (r, clock, creq) in enumerate(comp_items):
                            if tracing:
                                record(TraceEvent(r, clock, end_list[i],
                                                  "compute", creq.label))
                            schedule(end_list[i], PRI_RESUME, r)
                if send_items:
                    if len(send_items) < _VEC_MIN:
                        for r, clock, sreq in send_items:
                            dst = sreq.dst
                            hops = hop(r, dst)
                            nwords = sreq.nwords
                            # same expressions as MachineParams.transfer_time
                            # / sender_busy_time, hoisted out of the calls
                            if cut_through:
                                duration = ts + tw * nwords + th * hops
                            else:
                                duration = ts + (tw * nwords + th) * hops
                            busy = ts + tw * nwords
                            arrival = clock + duration
                            key = (r, dst, sreq.tag)
                            q = mail.get(key)
                            if q is None:
                                q = mail[key] = deque()
                            q.append((arrival, sreq.data, nwords))
                            msgs_arr[r] += 1
                            words_arr[r] += nwords
                            sendt_arr[r] += busy
                            end = clock + busy
                            if tracing:
                                record(TraceEvent(r, clock, end, "send",
                                                  f"->{dst} {nwords}w", tag=sreq.tag))
                            clk_arr[r] = end
                            schedule(end, PRI_RESUME, r)
                            if waiting:
                                woken = waiting.pop(key, None)
                                if woken is not None:
                                    c2 = clk_arr.item(woken)
                                    schedule(arrival if arrival > c2 else c2,
                                             PRI_WAKE, woken)
                    else:
                        n = len(send_items)
                        idx = np.fromiter((it[0] for it in send_items),
                                          dtype=np.intp, count=n)
                        starts = np.fromiter((it[1] for it in send_items),
                                             dtype=np.float64, count=n)
                        dsts = np.fromiter((it[2].dst for it in send_items),
                                           dtype=np.int64, count=n)
                        nws = np.fromiter((it[2].nwords for it in send_items),
                                          dtype=np.int64, count=n)
                        hops_a = hop_cache.bulk(idx.astype(np.int64), dsts)
                        nws_f = nws.astype(np.float64)
                        busys, arrivals = message_times(
                            self.machine, starts, nws_f, hops_a
                        )
                        ends = starts + busys
                        msgs_arr[idx] += 1
                        words_arr[idx] += nws
                        sendt_arr[idx] += busys
                        clk_arr[idx] = ends
                        arrival_list = arrivals.tolist()
                        end_list = ends.tolist()
                        for i, (r, clock, sreq) in enumerate(send_items):
                            arrival = arrival_list[i]
                            key = (r, sreq.dst, sreq.tag)
                            q = mail.get(key)
                            if q is None:
                                q = mail[key] = deque()
                            q.append((arrival, sreq.data, sreq.nwords))
                            if tracing:
                                record(TraceEvent(r, clock, end_list[i], "send",
                                                  f"->{sreq.dst} {sreq.nwords}w",
                                                  tag=sreq.tag))
                            schedule(end_list[i], PRI_RESUME, r)
                            if waiting:
                                woken = waiting.pop(key, None)
                                if woken is not None:
                                    c2 = clk_arr.item(woken)
                                    schedule(arrival if arrival > c2 else c2,
                                             PRI_WAKE, woken)
                if sendall_items:
                    k = len(sendall_items[0][2].messages)
                    if (
                        all_port
                        and len(sendall_items) * k >= _VEC_MIN
                        and all(len(it[2].messages) == k for it in sendall_items)
                    ):
                        self._charge_sendall_batch(sendall_items, k, hop_cache)
                    else:
                        for r, clock, areq in sendall_items:
                            if all_port:
                                # all ports drive simultaneously; sender busy
                                # for the slowest port
                                start = clock
                                busy = 0.0
                                for m in areq.messages:
                                    dst = m.dst
                                    hops = hop(r, dst)
                                    nwords = m.nwords
                                    if cut_through:
                                        duration = ts + tw * nwords + th * hops
                                    else:
                                        duration = ts + (tw * nwords + th) * hops
                                    b = ts + tw * nwords
                                    if b > busy:
                                        busy = b
                                    arrival = start + duration
                                    key = (r, dst, m.tag)
                                    q = mail.get(key)
                                    if q is None:
                                        q = mail[key] = deque()
                                    q.append((arrival, m.data, nwords))
                                    msgs_arr[r] += 1
                                    words_arr[r] += nwords
                                    if waiting:
                                        woken = waiting.pop(key, None)
                                        if woken is not None:
                                            c2 = clk_arr.item(woken)
                                            schedule(
                                                arrival if arrival > c2 else c2,
                                                PRI_WAKE, woken,
                                            )
                                sendt_arr[r] += busy
                                end = start + busy
                                clk_arr[r] = end
                                if tracing:
                                    record(TraceEvent(r, start, end, "send",
                                                      f"all-port x{len(areq.messages)}"))
                                schedule(end, PRI_RESUME, r)
                            else:
                                # one-port: injections serialize in order
                                for m in areq.messages:
                                    dst = m.dst
                                    hops = hop(r, dst)
                                    nwords = m.nwords
                                    if cut_through:
                                        duration = ts + tw * nwords + th * hops
                                    else:
                                        duration = ts + (tw * nwords + th) * hops
                                    busy = ts + tw * nwords
                                    arrival = clock + duration
                                    key = (r, dst, m.tag)
                                    q = mail.get(key)
                                    if q is None:
                                        q = mail[key] = deque()
                                    q.append((arrival, m.data, nwords))
                                    msgs_arr[r] += 1
                                    words_arr[r] += nwords
                                    sendt_arr[r] += busy
                                    end = clock + busy
                                    if tracing:
                                        record(TraceEvent(r, clock, end, "send",
                                                          f"->{dst} {nwords}w",
                                                          tag=m.tag))
                                    clock = end
                                    if waiting:
                                        woken = waiting.pop(key, None)
                                        if woken is not None:
                                            c2 = clk_arr.item(woken)
                                            schedule(
                                                arrival if arrival > c2 else c2,
                                                PRI_WAKE, woken,
                                            )
                                clk_arr[r] = clock
                                schedule(clock, PRI_RESUME, r)
            if not active:
                return
            if barrier_blocked == active:
                self._release_barrier_ready(states)
                barrier_blocked = 0
                for r, s in enumerate(states):
                    if not s.done:
                        schedule(clk_arr.item(r), PRI_RESUME, r)
            else:
                raise DeadlockError(
                    {
                        r: repr(states[r].blocked_on)
                        for r in range(len(states))
                        if not states[r].done and states[r].blocked_on is not None
                    }
                )

    def _charge_sendall_batch(
        self,
        sendall_items: list[tuple[int, float, SendAll]],
        k: int,
        hop_cache: PairHopCache,
    ) -> None:
        """Vectorized all-port SendAll charge for a uniform heap batch.

        Every rank in the batch fans out *k* messages on an all-port
        machine, so per-message durations and arrivals flatten to one
        ``(batch, k)`` array computation; the per-rank busy time is the
        row maximum (exact — no float re-association) and deposits/
        wakeups walk the messages in the same order as the scalar path.
        """
        machine = self.machine
        mail = self._mail
        waiting = self._waiting
        tracing = self.trace.enabled
        record = self.trace.record
        schedule = self._schedule
        arr = self._arr
        assert arr is not None  # set by run() before any scheduler body
        clk_arr = arr.clock

        nb = len(sendall_items)
        idx = np.fromiter((it[0] for it in sendall_items), dtype=np.intp, count=nb)
        starts = np.fromiter((it[1] for it in sendall_items), dtype=np.float64, count=nb)
        flat_dst = np.fromiter(
            (m.dst for it in sendall_items for m in it[2].messages),
            dtype=np.int64, count=nb * k,
        )
        flat_nw = np.fromiter(
            (m.nwords for it in sendall_items for m in it[2].messages),
            dtype=np.int64, count=nb * k,
        )
        flat_src = np.repeat(idx.astype(np.int64), k)
        hops_a = hop_cache.bulk(flat_src, flat_dst)
        nws_f = flat_nw.astype(np.float64)
        busy_m, arrivals = message_times(
            machine, np.repeat(starts, k), nws_f, hops_a
        )
        busy_rank = busy_m.reshape(nb, k).max(axis=1)
        ends = starts + busy_rank
        arr.messages_sent[idx] += k
        arr.words_sent[idx] += flat_nw.reshape(nb, k).sum(axis=1)
        arr.send_time[idx] += busy_rank
        clk_arr[idx] = ends
        arrival_list = arrivals.tolist()
        end_list = ends.tolist()
        i = 0
        for b, (r, start, areq) in enumerate(sendall_items):
            for m in areq.messages:
                arrival = arrival_list[i]
                i += 1
                key = (r, m.dst, m.tag)
                q = mail.get(key)
                if q is None:
                    q = mail[key] = deque()
                q.append((arrival, m.data, m.nwords))
                if waiting:
                    woken = waiting.pop(key, None)
                    if woken is not None:
                        c2 = clk_arr.item(woken)
                        schedule(arrival if arrival > c2 else c2, PRI_WAKE, woken)
            if tracing:
                record(TraceEvent(r, start, end_list[b], "send", f"all-port x{k}"))
            schedule(end_list[b], PRI_RESUME, r)

    def _run_heap_exact(self, states: list[_RankState]) -> None:
        """Heap scheduling with reference charging (faults/contention).

        Each popped rank runs until it blocks, charging every request
        through the same scalar helpers as the rescan scheduler
        (``_dispatch``/``_do_send``/``_complete_recv``), so the fault
        timeline — crash windows, degraded links, drop/retransmit
        streams — is bit-identical to the reference while scheduling
        stays O(log p) instead of O(p) per pass.  Link-reservation
        grants follow heap event order, which matches the reference
        whenever routes do not conflict (single-hop traffic; see the
        module docstring).
        """
        assert self._arr is not None  # set by run() before any scheduler body
        clk_arr = self._arr.clock
        heap = self._event_heap
        schedule = self._schedule
        waiting = self._waiting
        barrier_blocked = 0
        active = len(states)
        while active:
            while heap:
                _t, _pri, _seq, r = heappop(heap)
                st = states[r]
                value = None
                blocked = st.blocked_on
                if blocked is not None:
                    # only Recv parks with a scheduled wake in this regime
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
                    self._dispatch(states, st, r, req)
                    blocked = st.blocked_on
                    if blocked is None:
                        cls = req.__class__
                        if cls is Send:
                            self._maybe_wake(r, req.dst, req.tag)
                        elif cls is SendAll:
                            for m in req.messages:
                                self._maybe_wake(r, m.dst, m.tag)
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
                        schedule(clk_arr.item(r2), PRI_RESUME, r2)
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

    def _maybe_wake(self, src: int, dst: int, tag: int) -> None:
        """Schedule a wake for a rank parked on the just-fed channel."""
        key = (src, dst, tag)
        woken = self._waiting.pop(key, None)
        if woken is not None:
            arrival = self._mail[key][0][0]
            c2 = self._arr.clock.item(woken)
            self._schedule(arrival if arrival > c2 else c2, PRI_WAKE, woken)

    def _post_collective(
        self, r: int, req: CollectiveOp, size: int
    ) -> list[CollectiveOp] | None:
        """Park rank *r* on its macro collective; return the full post list
        once every member of the group has posted (else ``None``).

        Pending collectives are bucketed by ``(kind, tag, len(group))``
        and matched by group equality.  Disjoint concurrent groups (the
        common case: row/column subcubes of one phase) mismatch on their
        first rank, so the scan stays O(#concurrent groups) per post with
        a single full comparison for the matching entry.
        """
        group = req.group
        key = (req.kind, req.tag, len(group))
        bucket = self._pending_collectives.get(key)
        entry = None
        if bucket is not None:
            for e in bucket:
                eg = e[3]
                if eg is group or eg == group:
                    entry = e
                    break
        if entry is None:
            pos = {rank: i for i, rank in enumerate(group)}
            if len(pos) != len(group):
                raise ProgramError(f"collective group has duplicate ranks: {list(group)!r}")
            for member in group:
                if not 0 <= member < size:
                    raise ProgramError(f"collective group member {member} outside [0, {size})")
            entry = [[None] * len(group), 0, pos, group]
            if bucket is None:
                bucket = self._pending_collectives[key] = []
            bucket.append(entry)
        posts = entry[0]
        i = entry[2].get(r)
        if i is None:
            raise ProgramError(f"rank {r} posted a collective for a group it is not in")
        if posts[i] is not None:
            raise ProgramError(
                f"rank {r} posted {req.kind!r} twice for tag {req.tag} on the same group"
            )
        posts[i] = req
        entry[1] += 1
        if entry[1] == len(posts):
            bucket.remove(entry)
            if not bucket:
                del self._pending_collectives[key]
            return posts
        return None

    def _release_barrier_ready(self, states: list[_RankState]) -> None:
        """Vectorized barrier release for the ready scheduler (tracing falls
        back to the reference release, which records per-rank events)."""
        if self.trace.enabled:
            self._try_release_barrier(states)
            return
        arr = self._arr
        assert arr is not None  # set by run() before any scheduler body
        alive = np.fromiter((not s.done for s in states), dtype=bool, count=len(states))
        if not alive.any():
            return
        clk = arr.clock
        t = clk[alive].max()
        gap = t - clk[alive]
        arr.barrier_wait_time[alive] += np.where(gap > 0.0, gap, 0.0)
        clk[alive] = t
        for r in np.flatnonzero(alive):
            s = states[r]
            s.blocked_on = None
            s.send_value = None

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
            self._dispatch(states, st, r, req)
            if st.blocked_on is not None and (
                isinstance(st.blocked_on, Barrier) or not self._recv_ready(st.blocked_on, r)
            ):
                return progressed

    def _dispatch(self, states: list[_RankState], st: _RankState, r: int, req: Request) -> None:
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
        elif isinstance(req, CollectiveOp):
            raise ProgramError(
                f"rank {r} posted macro collective {req.kind!r} under the reference "
                "charging path; CollectiveOp requires a macro-capable run (programs "
                "should consult RankInfo.macro_collectives)"
            )
        else:
            raise ProgramError(f"rank {r} yielded unsupported request {req!r}")

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
    macro_collectives: bool | None = None,
    fault_plan: FaultPlan | None = None,
    symmetry: SymmetrySpec | None = None,
) -> SimResult:
    """One-shot convenience wrapper around :class:`Engine`."""
    return Engine(
        topology,
        machine,
        trace=trace,
        scheduler=scheduler,
        macro_collectives=macro_collectives,
        fault_plan=fault_plan,
        symmetry=symmetry,
    ).run(factory)
