"""Per-rank timing accounts and optional event traces.

Two representations of the same accounts coexist:

* :class:`RankStats` — the public, self-contained per-rank record a
  finished :class:`~repro.simulator.engine.SimResult` carries.
* :class:`RankArrays` / :class:`RankStatsView` — the engine core's
  *array-backed* storage.  During a simulation every per-rank clock and
  counter lives in one numpy array indexed by rank, so the heap's
  batched charges, compiled replay (:mod:`repro.simulator.charging`)
  and barrier releases update thousands of ranks with a handful of vectorized
  operations; the ``__slots__`` view gives the scalar request loop a
  per-rank handle over the same storage.  ``snapshot()`` materializes
  the public records when the run completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RankStats", "RankArrays", "RankStatsView", "TraceEvent", "Trace"]


@dataclass
class RankStats:
    """Where one simulated processor's time went."""

    rank: int
    compute_time: float = 0.0
    send_time: float = 0.0
    recv_wait_time: float = 0.0
    barrier_wait_time: float = 0.0
    messages_sent: int = 0
    words_sent: int = 0
    finish_time: float = 0.0

    @property
    def comm_time(self) -> float:
        """Total time attributable to communication and synchronization."""
        return self.send_time + self.recv_wait_time + self.barrier_wait_time

    @property
    def busy_time(self) -> float:
        return self.compute_time + self.send_time


class RankArrays:
    """All per-rank accounts of one run, one numpy array per field.

    Scalar code paths touch single elements (``arr.clock[r]``); batched
    charges, compiled replay and barrier releases update whole groups
    with fancy indexing.  Element dtype is ``float64``/``int64``, so
    single-element arithmetic is bit-identical to the plain-Python
    accounting the reference scheduler used.
    """

    __slots__ = (
        "nprocs",
        "clock",
        "compute_time",
        "send_time",
        "recv_wait_time",
        "barrier_wait_time",
        "messages_sent",
        "words_sent",
    )

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self.clock = np.zeros(nprocs, dtype=np.float64)
        self.compute_time = np.zeros(nprocs, dtype=np.float64)
        self.send_time = np.zeros(nprocs, dtype=np.float64)
        self.recv_wait_time = np.zeros(nprocs, dtype=np.float64)
        self.barrier_wait_time = np.zeros(nprocs, dtype=np.float64)
        self.messages_sent = np.zeros(nprocs, dtype=np.int64)
        self.words_sent = np.zeros(nprocs, dtype=np.int64)

    def view(self, rank: int) -> "RankStatsView":
        return RankStatsView(self, rank)

    def snapshot(self) -> list[RankStats]:
        """Materialize the public per-rank records (finish = final clock)."""
        # one tolist() per column; the argument order is RankStats' field order
        return list(
            map(
                RankStats,
                range(self.nprocs),
                self.compute_time.tolist(),
                self.send_time.tolist(),
                self.recv_wait_time.tolist(),
                self.barrier_wait_time.tolist(),
                self.messages_sent.tolist(),
                self.words_sent.tolist(),
                self.clock.tolist(),
            )
        )


class RankStatsView:
    """A one-rank read/write window over :class:`RankArrays`.

    Presents the same attribute surface as :class:`RankStats`, so the
    scalar request loop (and the reference scheduler, unchanged) can
    keep writing ``st.stats.send_time += busy`` while the storage stays
    vectorizable.
    """

    __slots__ = ("_arr", "rank")

    def __init__(self, arr: RankArrays, rank: int):
        self._arr = arr
        self.rank = rank

    @property
    def compute_time(self) -> float:
        return self._arr.compute_time[self.rank]

    @compute_time.setter
    def compute_time(self, value: float) -> None:
        self._arr.compute_time[self.rank] = value

    @property
    def send_time(self) -> float:
        return self._arr.send_time[self.rank]

    @send_time.setter
    def send_time(self, value: float) -> None:
        self._arr.send_time[self.rank] = value

    @property
    def recv_wait_time(self) -> float:
        return self._arr.recv_wait_time[self.rank]

    @recv_wait_time.setter
    def recv_wait_time(self, value: float) -> None:
        self._arr.recv_wait_time[self.rank] = value

    @property
    def barrier_wait_time(self) -> float:
        return self._arr.barrier_wait_time[self.rank]

    @barrier_wait_time.setter
    def barrier_wait_time(self, value: float) -> None:
        self._arr.barrier_wait_time[self.rank] = value

    @property
    def messages_sent(self) -> int:
        return self._arr.messages_sent[self.rank]

    @messages_sent.setter
    def messages_sent(self, value: int) -> None:
        self._arr.messages_sent[self.rank] = value

    @property
    def words_sent(self) -> int:
        return self._arr.words_sent[self.rank]

    @words_sent.setter
    def words_sent(self, value: int) -> None:
        self._arr.words_sent[self.rank] = value


@dataclass(frozen=True)
class TraceEvent:
    """One timed action of one rank."""

    rank: int
    start: float
    end: float
    kind: str  # "compute" | "send" | "recv" | "barrier"
    detail: str = ""
    tag: int = -1
    """Message tag for send/recv events (-1 for non-message events).
    Algorithms use distinct tags per communication phase, so grouping
    traced time by tag attributes communication to algorithm stages."""


@dataclass
class Trace:
    """A bounded event log.  Disabled (zero-cost) unless ``enabled`` is True."""

    enabled: bool = False
    max_events: int = 1_000_000
    events: list[TraceEvent] = field(default_factory=list)
    dropped: int = 0

    def record(self, event: TraceEvent) -> None:
        if not self.enabled:
            return
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def for_rank(self, rank: int) -> list[TraceEvent]:
        """Events of one rank, in order."""
        return [e for e in self.events if e.rank == rank]

    def by_kind(self, kind: str) -> list[TraceEvent]:
        """Events of one kind, in order."""
        return [e for e in self.events if e.kind == kind]
