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

:func:`replay` is the one loop that charges a compiled schedule's
symbolic phases; the trace compiler's top-level schedule and each
lowered collective (:func:`repro.simulator.macro.run_batch_collective`)
both go through it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Tuple

import numpy as np

from repro.simulator.request import (
    SymBarrier,
    SymCollective,
    SymCompute,
    SymPhase,
    SymRecv,
    SymSend,
    SymSendAll,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.machine import MachineParams
    from repro.simulator.trace import RankArrays

__all__ = [
    "message_times",
    "recv_wait_times",
    "replay",
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


# -- the replay loop -----------------------------------------------------------


def _send(ph: SymSend, arr: "RankArrays", machine: "MachineParams") -> Any:
    """Charge one symbolic send on every rank; return the sender busy time."""
    busy, ph.arrival = message_times(machine, arr.clock, ph.nwords, ph.hops)
    arr.messages_sent += 1
    arr.words_sent += ph.nwords
    return busy


def replay(
    phases: Iterable[SymPhase],
    arr: "RankArrays",
    machine: "MachineParams",
    collective: Callable[[SymCollective], None] | None = None,
) -> None:
    """Charge symbolic *phases* into *arr* in program order, all ranks at once.

    Each phase is one vectorized update of the ``(p,)`` accounts with
    the elementwise expressions the generator schedulers evaluate rank
    by rank, so the result is bit-identical to theirs.  A send's arrival
    vector lives only until its matched receive has read it.  A
    :class:`SymCollective` phase is handed to *collective*.
    """
    clock = arr.clock
    for ph in phases:
        cls = ph.__class__
        if cls is SymCompute:
            arr.compute_time += ph.cost
            clock += ph.cost
        elif cls is SymSend:
            busy = _send(ph, arr, machine)
            clock += busy
            arr.send_time += busy
        elif cls is SymRecv:
            src_phase = ph.source
            arrival = src_phase.arrival[ph.src]
            src_phase.arrival = None
            waited, advanced = recv_wait_times(clock, arrival)
            arr.recv_wait_time += waited
            clock[:] = advanced
        elif cls is SymSendAll:
            # one port: injections serialize; all ports: each injects at
            # the pre-send clock and the sender is busy for the longest
            busy = None
            for sp in ph.parts:
                b = _send(sp, arr, machine)
                if machine.all_port:
                    busy = b if busy is None else np.maximum(busy, b)
                else:
                    clock += b
                    arr.send_time += b
            if busy is not None:
                clock += busy
                arr.send_time += busy
        elif cls is SymBarrier:
            t = clock.max()
            gap = t - clock
            arr.barrier_wait_time += np.where(gap > 0.0, gap, 0.0)
            clock[:] = t
        elif collective is not None:
            collective(ph)
        else:
            raise TypeError(f"replay cannot charge a nested {cls.__name__} phase")
