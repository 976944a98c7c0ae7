"""Shared vectorized charging helpers for the simulator cost model.

Every code path that charges message costs against whole rank vectors —
the event-heap scheduler's batched branches (:mod:`repro.simulator.engine`),
the macro-collective executor (:mod:`repro.simulator.macro`), and the
record→replay trace compiler (:mod:`repro.simulator.compile`) — goes
through the two helpers in this module so the arithmetic cannot drift
from the scalar reference in :meth:`repro.core.machine.MachineParams`:

* sender busy time: ``ts + tw*m``
* cut-through duration: ``ts + tw*m + th*hops``
* store-and-forward duration: ``ts + (tw*m + th)*hops``
* receive wait: ``gap = arrival - clock``; wait ``max(gap, 0)``; the
  receiver's clock advances to ``max(clock, arrival)``.

The expressions are written exactly as the scalar helpers write them (no
re-association), which is what makes the vectorized schedulers
bit-identical to ``rescan``.  The static-analysis rule ENG008 enforces
that the compiled scheduler never touches ``machine.ts``/``tw``/``th``
directly — all cost arithmetic must flow through this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.machine import MachineParams

__all__ = [
    "message_times",
    "recv_wait_times",
]

# -- the shared charging expressions -------------------------------------------


def message_times(
    machine: "MachineParams",
    clock: np.ndarray,
    nwords: Any,
    hops: Any,
) -> Tuple[Any, Any]:
    """Vectorized (sender busy, receiver arrival) for messages injected at *clock*.

    ``busy = ts + tw*m`` and ``arrival = clock + duration`` with the
    routing-discipline duration written exactly as
    :meth:`MachineParams.transfer_time` writes it.  ``nwords`` and
    ``hops`` may be scalars or arrays broadcastable against *clock*;
    ``hops`` must already be clamped to >= 1 (``PairHopCache`` does
    this).  Elementwise per rank, so charging a whole batch gives the
    same floats as charging each rank alone.
    """
    ts = machine.ts
    tw = machine.tw
    th = machine.th
    busy = ts + tw * nwords
    if machine.routing == "ct":
        duration = ts + tw * nwords + th * hops
    else:
        duration = ts + (tw * nwords + th) * hops
    return busy, np.asarray(clock) + duration


def recv_wait_times(clock: Any, arrival: Any) -> Tuple[Any, Any]:
    """Vectorized receive: (wait charged, advanced clock).

    ``gap = arrival - clock``; the wait is ``gap`` where positive else
    ``0.0`` (adding +0.0 to a non-negative accumulator is a bitwise
    no-op, so unconditionally accumulating the result matches the scalar
    ``if arrival > clock`` branch), and the new clock is
    ``max(clock, arrival)`` elementwise.
    """
    gap = np.asarray(arrival) - clock
    waited = np.where(gap > 0.0, gap, 0.0)
    return waited, np.maximum(clock, arrival)
