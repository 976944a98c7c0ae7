"""Vectorized charging helpers for compiled replay.

The record→replay trace compiler (:mod:`repro.simulator.compile`),
compiled collectives included, charges message costs against whole
rank vectors only through the two helpers in this module, so the
arithmetic cannot drift from the scalar reference in
:meth:`repro.core.machine.MachineParams`, which the generator loops
(:mod:`repro.simulator.engine`) call per request.  Every operand may be
one value standing for every rank or a ``(p,)`` vector; numpy
broadcasting gives a scalar while all of them are scalars, so ranks
that run in lockstep are charged once:

* sender busy time: ``ts + tw*m``
* cut-through duration: ``ts + tw*m + th*hops``
* store-and-forward duration: ``ts + (tw*m + th)*hops``
* receive wait: ``gap = arrival - clock``; wait ``max(gap, 0)``; the
  receiver's clock advances to ``max(clock, arrival)``.

The expressions are written exactly as the scalar helpers write them (no
re-association), which is what makes compiled replay bit-identical to
``heap`` and ``rescan``.  The static-analysis rule ENG008 enforces
that the compiled scheduler never touches ``machine.ts``/``tw``/``th``
directly — all cost arithmetic must flow through this module.

:func:`replay` is the one loop that charges a compiled schedule's
symbolic phases; the trace compiler's top-level schedule and each
lowered collective (:func:`repro.simulator.macro.run_batch_collective`)
both go through it, and it keeps each account of
:class:`~repro.simulator.trace.RankArrays` one number until ranks
differ.
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
    clock: Any,
    nwords: Any,
    hops: Any,
) -> Tuple[Any, Any]:
    """Vectorized (sender busy, receiver arrival) for messages injected at *clock*.

    ``busy = ts + tw*m`` and ``arrival = clock + duration`` with the
    routing-discipline duration written exactly as
    :meth:`MachineParams.transfer_time` writes it.  *clock*, ``nwords``
    and ``hops`` may each be a scalar or an array; the results are
    scalars when all three are.  ``hops`` must already be clamped to
    >= 1 (``PairHopCache`` does this).  Elementwise per rank, so
    charging a whole batch gives the same floats as charging each rank
    alone.
    """
    ts = machine.ts
    tw = machine.tw
    th = machine.th
    busy = ts + tw * nwords
    if machine.routing == "ct":
        duration = ts + tw * nwords + th * hops
    else:
        duration = ts + (tw * nwords + th) * hops
    return busy, clock + duration


def recv_wait_times(clock: Any, arrival: Any) -> Tuple[Any, Any]:
    """Vectorized receive: (wait charged, advanced clock).

    ``gap = arrival - clock``; the wait is ``gap`` where positive else
    ``0.0`` (adding +0.0 to a non-negative accumulator is a bitwise
    no-op, so unconditionally accumulating the result matches the scalar
    ``if arrival > clock`` branch), and the new clock is
    ``max(clock, arrival)`` elementwise.  For scalar inputs the clock
    is a scalar and the wait a 0-d array, which adding it to an account
    turns into a scalar.
    """
    gap = arrival - clock
    waited = np.where(gap > 0.0, gap, 0.0)
    return waited, np.maximum(clock, arrival)


# -- the replay loop -----------------------------------------------------------


def _send(ph: SymSend, arr: "RankArrays", machine: "MachineParams") -> Any:
    """Charge one symbolic send's counts on its ranks; return the sender busy time."""
    act = ph.active
    if act is None:
        busy, ph.arrival = message_times(machine, arr.clock, ph.nwords, ph.hops)
        arr.messages_sent += 1
        arr.words_sent += ph.nwords
    else:
        arr.spread("clock", "messages_sent", "words_sent")
        busy, ph.arrival = message_times(machine, arr.clock[act], ph.nwords, ph.hops)
        arr.messages_sent[act] += 1
        arr.words_sent[act] += ph.nwords
    return busy


def replay(
    phases: Iterable[SymPhase],
    arr: "RankArrays",
    machine: "MachineParams",
    collective: Callable[[SymCollective], None] | None = None,
) -> None:
    """Charge symbolic *phases* into *arr* in program order, all ranks at once.

    Each phase is one update of the accounts with the elementwise
    expressions the generator schedulers evaluate rank by rank, so the
    result is bit-identical to theirs.  An account is one number for
    every rank as long as the phases' operands are (ranks in lockstep
    pay one scalar operation), and a ``(p,)`` vector once one of them
    differs from rank to rank; a barrier makes the clock one number
    again.  A masked phase (``active`` set) spreads the accounts it
    writes to vectors, then updates only its ranks' entries, with the
    same expressions, and leaves every other rank's accounts untouched.
    A send's arrival (one value, or one per sender) lives only until its
    matched receive has read it.  A :class:`SymCollective` phase is
    handed to *collective*.
    """
    for ph in phases:
        cls = ph.__class__
        if cls is SymCompute:
            act = ph.active
            if act is None:
                arr.compute_time += ph.cost
                arr.clock += ph.cost
            else:
                arr.spread("compute_time", "clock")
                arr.compute_time[act] += ph.cost
                arr.clock[act] += ph.cost
        elif cls is SymSend:
            busy = _send(ph, arr, machine)
            act = ph.active
            if act is None:
                arr.clock += busy
                arr.send_time += busy
            else:
                arr.spread("send_time")
                arr.clock[act] += busy
                arr.send_time[act] += busy
        elif cls is SymRecv:
            src_phase = ph.source
            arrival = src_phase.arrival
            if isinstance(arrival, np.ndarray):  # else every sender's arrival
                arrival = arrival[ph.src]
            src_phase.arrival = None
            act = ph.active
            if act is None:
                waited, arr.clock = recv_wait_times(arr.clock, arrival)
                arr.recv_wait_time += waited
            else:
                arr.spread("recv_wait_time", "clock")
                waited, advanced = recv_wait_times(arr.clock[act], arrival)
                arr.recv_wait_time[act] += waited
                arr.clock[act] = advanced
        elif cls is SymSendAll:
            # one port: injections serialize; all ports: each injects at
            # the pre-send clock and the sender is busy for the longest
            busy = None
            for sp in ph.parts:
                b = _send(sp, arr, machine)
                if machine.all_port:
                    busy = b if busy is None else np.maximum(busy, b)
                else:
                    arr.clock += b
                    arr.send_time += b
            if busy is not None:
                arr.clock += busy
                arr.send_time += busy
        elif cls is SymBarrier:
            clock = arr.clock
            if isinstance(clock, np.ndarray):  # a uniform clock is its own maximum
                t = clock.max()
                gap = t - clock
                arr.barrier_wait_time += np.where(gap > 0.0, gap, 0.0)
                arr.clock = t
        elif collective is not None:
            collective(ph)
        else:
            raise TypeError(f"replay cannot charge a nested {cls.__name__} phase")
