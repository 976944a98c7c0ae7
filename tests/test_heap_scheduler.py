"""The event-heap scheduler's deterministic ordering contract.

The heap's total order is the ``(timestamp, priority, seq, rank)`` key:
time first, resumes before wakes at equal times, and the monotone
``seq`` issued by ``Engine._schedule`` breaking every remaining tie by
insertion order.  Because ``seq`` is unique, no comparison ever falls
through to ``rank``, and nothing about the order depends on dict or set
iteration — so a heap run must replay identically within a process and
across processes with different hash seeds.

These tests pin that contract where it is easiest to regress:
adversarial same-timestamp ties (zero-cost operations collapse the
whole run onto ``t = 0``), the key stream produced by ``_schedule``
itself, and ``PYTHONHASHSEED`` independence checked across subprocesses.
"""

import os
import subprocess
import sys

from repro.core.machine import MachineParams
from repro.simulator.engine import PRI_RESUME, PRI_WAKE, Engine
from repro.simulator.request import Barrier, Compute, Recv, Send
from repro.simulator.topology import FullyConnected, Hypercube

M = MachineParams(ts=3.0, tw=1.5)
ZERO = MachineParams(ts=0.0, tw=0.0)


def _ring_program(info):
    """Every rank forwards around a ring twice with a barrier between laps."""
    right = (info.rank + 1) % info.nprocs
    left = (info.rank - 1) % info.nprocs
    for lap in range(2):
        yield Compute(float(info.rank % 3))
        yield Send(dst=right, data=(info.rank, lap), nwords=4, tag=lap)
        got = yield Recv(src=left, tag=lap)
        yield Barrier()
    return got


def _trace_fingerprint(res):
    return [
        (e.rank, e.start, e.end, e.kind, e.detail, e.tag)
        for e in res.trace.events
    ]


class TestSameTimestampBatches:
    @staticmethod
    def _zero_cost_program(info):
        """Same shape as the ring, but every operation costs exactly 0."""
        right = (info.rank + 1) % info.nprocs
        left = (info.rank - 1) % info.nprocs
        for lap in range(2):
            yield Compute(0.0)
            yield Send(dst=right, data=(info.rank, lap), nwords=0, tag=lap)
            got = yield Recv(src=left, tag=lap)
            yield Barrier()
        return got

    def test_zero_cost_run_is_deterministic(self):
        """Every event lands at t=0: the seq tie-break alone orders the run."""
        fingerprints = set()
        for _ in range(10):
            res = Engine(FullyConnected(8), ZERO, trace=True, scheduler="heap").run(
                [self._zero_cost_program] * 8
            )
            fingerprints.add(tuple(_trace_fingerprint(res)))
        assert len(fingerprints) == 1

    def test_zero_cost_run_matches_rescan(self):
        progs = [self._zero_cost_program] * 8
        heap = Engine(FullyConnected(8), ZERO, scheduler="heap").run(progs)
        rescan = Engine(FullyConnected(8), ZERO, scheduler="rescan").run(progs)
        assert heap.parallel_time == rescan.parallel_time == 0.0
        assert heap.stats == rescan.stats
        assert heap.returns == rescan.returns

    def test_traced_order_stable_across_runs(self):
        """Identical costs on every rank: equal-time batches at every step."""
        fingerprints = {
            tuple(
                _trace_fingerprint(
                    Engine(Hypercube(3), M, trace=True, scheduler="heap").run(
                        [_ring_program] * 8
                    )
                )
            )
            for _ in range(5)
        }
        assert len(fingerprints) == 1


class TestScheduleHelper:
    """All insertion goes through ``_schedule``; its key stream is the order."""

    def _captured_keys(self, p=8, machine=M):
        keys = []
        orig = Engine._schedule

        def recording(self, when, priority, rank):
            orig(self, when, priority, rank)
            keys.append((when, priority, self._event_seq, rank))

        eng = Engine(FullyConnected(p), machine, scheduler="heap")
        try:
            Engine._schedule = recording
            eng.run([_ring_program] * p)
        finally:
            Engine._schedule = orig
        return keys

    def test_seq_is_monotone_and_unique(self):
        keys = self._captured_keys()
        seqs = [k[2] for k in keys]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_priorities_are_resume_or_wake(self):
        keys = self._captured_keys()
        assert keys  # the run actually went through the helper
        assert {k[1] for k in keys} <= {PRI_RESUME, PRI_WAKE}

    def test_key_stream_is_deterministic(self):
        assert self._captured_keys() == self._captured_keys()

    def test_rank_never_decides_a_comparison(self):
        """Unique seqs mean every key pair is ordered before the rank field."""
        keys = self._captured_keys()
        assert len({k[:3] for k in keys}) == len(keys)


class TestPriorityContract:
    def test_constants(self):
        assert PRI_RESUME == 0
        assert PRI_WAKE == 1
        assert PRI_RESUME < PRI_WAKE

    def test_resume_sorts_before_wake_at_equal_time(self):
        # the tuple order the heap relies on: priority beats seq and rank
        resume_late = (5.0, PRI_RESUME, 900, 7)
        wake_early = (5.0, PRI_WAKE, 2, 0)
        assert sorted([wake_early, resume_late])[0] == resume_late


_HASHSEED_SCRIPT = """\
import hashlib

from repro.core.machine import MachineParams
from repro.simulator.engine import Engine
from repro.simulator.request import Barrier, Compute, Recv, Send
from repro.simulator.topology import FullyConnected

# build the program table through a dict and a set, so any hidden
# dependence on hash iteration order would perturb the trace
ranks = {r for r in range(8)}
progs = {}
for r in sorted(ranks):
    def prog(info):
        right = (info.rank + 1) % info.nprocs
        left = (info.rank - 1) % info.nprocs
        for lap in range(2):
            yield Compute(float(info.rank % 3))
            yield Send(dst=right, data=(info.rank, lap), nwords=4, tag=lap)
            got = yield Recv(src=left, tag=lap)
            yield Barrier()
        return got
    progs[r] = prog

res = Engine(
    FullyConnected(8), MachineParams(ts=3.0, tw=1.5), trace=True, scheduler="heap"
).run([progs[r] for r in sorted(progs)])
lines = "".join(
    f"{e.rank},{e.start!r},{e.end!r},{e.kind},{e.detail},{e.tag}\\n"
    for e in res.trace.events
)
print(hashlib.sha256(lines.encode()).hexdigest())
print(repr(res.parallel_time))
"""


def test_event_order_independent_of_hash_seed():
    """The same run under different PYTHONHASHSEEDs emits the same trace.

    Dict/set iteration order changes with the hash seed; the heap key
    ``(timestamp, priority, seq, rank)`` must not.
    """
    outputs = set()
    for seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_simultaneous_wake_and_resume():
    """A rank woken at exactly another rank's resume time: stable order.

    Rank 0 computes for exactly the message flight time, so its resume
    and rank 1's wake tie at one heap timestamp; the heap must agree
    with the reference on the resulting clocks.
    """
    flight = M.ts + 4 * M.tw

    def p0(info):
        yield Send(dst=1, data="x", nwords=4)
        yield Compute(0.0)
        yield Send(dst=1, data="y", nwords=4)

    def p1(info):
        yield Compute(flight)
        a = yield Recv(src=0)
        b = yield Recv(src=0)
        return (a, b)

    fast = Engine(FullyConnected(2), M, scheduler="heap").run([p0, p1])
    ref = Engine(FullyConnected(2), M, scheduler="rescan").run([p0, p1])
    assert fast.parallel_time == ref.parallel_time
    assert fast.stats == ref.stats
    assert fast.returns == ref.returns
