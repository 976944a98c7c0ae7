"""Per-rank timing accounts and optional event traces.

Two representations of the same accounts coexist:

* :class:`RankStats` — the public, self-contained per-rank record a
  finished :class:`~repro.simulator.engine.SimResult` carries.  The
  generator loops keep each rank's running accounts in one, as plain
  Python numbers.
* :class:`RankArrays` — the columnar form: one value per field that
  stands for every rank until ranks differ, then one numpy array per
  field, indexed by rank.  Compiled replay
  (:mod:`repro.simulator.charging`) charges thousands of ranks in it
  with a handful of operations, or with scalar arithmetic while every
  rank runs in lockstep; a generator run fills one from its records
  once, when it ends.  Either way it backs the run's totals, and
  ``snapshot()`` materializes the public records, on first read of
  ``SimResult.stats``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["RankStats", "RankArrays", "TraceEvent", "Trace"]


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
    """All per-rank accounts of one run, one value or one numpy array per field.

    Compiled replay's storage.  Each account starts as one Python number
    that stands for every rank: replay's unmasked phases keep it one
    while every operand is a scalar (numpy broadcasting makes it a
    ``(p,)`` vector once any operand is one), and :meth:`spread` gives
    it one entry per rank before a masked phase writes part of it.  A
    generator run fills one with :meth:`from_stats` when it ends.  An
    entry is ``float64``/``int64`` like the Python number it stands
    for, so elementwise arithmetic is bit-identical to the plain-Python
    accounting of the generator loops.
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

    #: the accounts that count; the others hold times
    _COUNTS = ("messages_sent", "words_sent")

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self.clock: Any = 0.0
        self.compute_time: Any = 0.0
        self.send_time: Any = 0.0
        self.recv_wait_time: Any = 0.0
        self.barrier_wait_time: Any = 0.0
        self.messages_sent: Any = 0
        self.words_sent: Any = 0

    def spread(self, *names: str) -> None:
        """Give each account *names* (every account when none is named) one entry per rank."""
        for name in names or self.__slots__[1:]:
            value = getattr(self, name)
            if not isinstance(value, np.ndarray):
                dtype = np.int64 if name in self._COUNTS else np.float64
                setattr(self, name, np.full(self.nprocs, value, dtype=dtype))

    @classmethod
    def from_stats(cls, stats: list[RankStats]) -> "RankArrays":
        """The columns of finished per-rank records (clock = finish time)."""
        arr = cls(len(stats))
        arr.spread()
        arr.clock[:] = [s.finish_time for s in stats]
        arr.compute_time[:] = [s.compute_time for s in stats]
        arr.send_time[:] = [s.send_time for s in stats]
        arr.recv_wait_time[:] = [s.recv_wait_time for s in stats]
        arr.barrier_wait_time[:] = [s.barrier_wait_time for s in stats]
        arr.messages_sent[:] = [s.messages_sent for s in stats]
        arr.words_sent[:] = [s.words_sent for s in stats]
        return arr

    def snapshot(self) -> list[RankStats]:
        """Materialize the public per-rank records (finish = final clock)."""
        self.spread()
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
