"""Micro-batching request coalescer — the serving hot path.

Concurrent point-prediction requests rarely arrive alone: a dashboard
repaints hundreds of ``(n, p)`` probes, a sweep client fans out a
frontier.  Evaluating each point through a scalar model call wastes the
vectorized machinery the analysis layer already has — a single
:func:`~repro.core.prediction.predict_points` scan prices 1024 points
for barely more than one.  The :class:`MicroBatcher` exploits that:

* an arriving request joins the pending group for its machine
  fingerprint (requests for *different* machines never share a scan —
  the models are machine-parameterized, so mixing would be wrong, and
  the grouping key makes it structurally impossible);
* the first request of a group schedules its flush for the next turn
  of the event loop (``loop.call_soon``), so a batch is exactly the
  requests already parsed and a lone request waits for nothing; a group
  reaching ``max_batch`` flushes at once;
* a flush runs **one** vectorized ``predict_points`` over the group's
  points and scatters per-point records back to the waiting futures.

Batched answers are bit-identical to per-request evaluation: the
vectorized expressions are elementwise, and the tie rule (earliest
model key wins exact overhead ties) lives inside the shared winner
scan.  ``tests/test_serve_batcher.py`` fuzz-pins this.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

from repro.core.machine import MachineParams
from repro.core.models import COMPARISON_MODELS
from repro.core.prediction import predict_points
from repro.serve.protocol import ProtocolError, machine_fingerprint

__all__ = ["MicroBatcher"]


@dataclass
class _PendingGroup:
    """Requests for one machine fingerprint awaiting a flush."""

    machine: MachineParams
    model_keys: tuple[str, ...]
    ns: list[float] = field(default_factory=list)
    ps: list[float] = field(default_factory=list)
    futures: list[asyncio.Future] = field(default_factory=list)


class MicroBatcher:
    """Coalesce concurrent point predictions into vectorized scans."""

    def __init__(
        self,
        *,
        max_batch: int = 256,
        model_keys: tuple[str, ...] = COMPARISON_MODELS,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch
        self.model_keys = model_keys
        self._groups: dict[str, _PendingGroup] = {}
        # counters (single event loop: plain ints are race-free)
        self.requests = 0
        self.batches = 0
        self.batched_points = 0
        self.full_flushes = 0
        self.turn_flushes = 0
        self.max_batch_seen = 0

    # -- public API -------------------------------------------------------------

    async def predict_one(
        self, machine: MachineParams, n: float, p: float
    ) -> dict[str, Any]:
        """One point's prediction record, batched with concurrent peers."""
        self.requests += 1
        return await self._enqueue_future(machine, n, p)

    async def predict_many(
        self, machine: MachineParams, points: list[tuple[float, float]]
    ) -> list[dict[str, Any]]:
        """Predictions for a client-supplied point list (one request).

        The whole list joins the pending group at once, so a multi-point
        request coalesces both internally and with concurrent requests.
        """
        self.requests += len(points)
        futures = [self._enqueue_future(machine, n, p) for n, p in points]
        return list(await asyncio.gather(*futures))

    def stats(self) -> dict[str, Any]:
        """Coalescing counters for /stats."""
        return {
            "max_batch": self.max_batch,
            "requests": self.requests,
            "batches": self.batches,
            "batched_points": self.batched_points,
            "full_flushes": self.full_flushes,
            "turn_flushes": self.turn_flushes,
            "max_batch_seen": self.max_batch_seen,
            "mean_batch": (self.batched_points / self.batches) if self.batches else 0.0,
            "pending_groups": len(self._groups),
        }

    # -- internals --------------------------------------------------------------

    def _enqueue_future(
        self, machine: MachineParams, n: float, p: float
    ) -> asyncio.Future:
        loop = asyncio.get_running_loop()
        key = machine_fingerprint(machine)
        group = self._groups.get(key)
        if group is None:
            group = _PendingGroup(machine=machine, model_keys=self.model_keys)
            self._groups[key] = group
            loop.call_soon(self._flush, key, group, False)
        elif group.machine != machine:
            # a fingerprint must mean one machine; refusing is the only
            # safe answer to a (cryptographically impossible) collision
            raise ProtocolError(
                "machine fingerprint collision: refusing to batch predictions "
                "across different machines"
            )
        fut: asyncio.Future = loop.create_future()
        group.ns.append(n)
        group.ps.append(p)
        group.futures.append(fut)
        if len(group.futures) >= self.max_batch:
            self._flush(key, group, True)
        return fut

    def _flush(self, key: str, group: _PendingGroup, full: bool) -> None:
        if self._groups.get(key) is not group:  # already flushed full
            return
        del self._groups[key]
        try:
            batch = predict_points(group.machine, group.ns, group.ps, group.model_keys)
        except Exception as exc:  # pragma: no cover - defensive scatter
            for fut in group.futures:
                if not fut.done():
                    fut.set_exception(exc)
            return
        self.batches += 1
        self.batched_points += len(group.futures)
        self.max_batch_seen = max(self.max_batch_seen, len(group.futures))
        if full:
            self.full_flushes += 1
        else:
            self.turn_flushes += 1
        for i, fut in enumerate(group.futures):
            if not fut.done():
                fut.set_result(batch.point(i))
