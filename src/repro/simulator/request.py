"""Request objects yielded by SPMD rank programs.

A rank program is a Python generator.  It performs simulated work by
yielding request objects to the :class:`~repro.simulator.engine.Engine`,
which charges the modeled cost and (for :class:`Recv`) resumes the
generator with the received payload.  Requests are plain ``slots``
dataclasses rather than frozen ones: they are constructed on the
simulator's hottest path, and frozen-dataclass construction pays an
``object.__setattr__`` per field.  The engine never mutates a request,
and programs must not reuse one after yielding it:

.. code-block:: python

    def program(info):
        yield Compute(flops)
        yield Send(dst=1, data=block, nwords=block.size)
        other = yield Recv(src=1)

Sub-operations (collectives) are ordinary generator helpers used with
``yield from``; see :mod:`repro.simulator.collectives`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.simulator.payloads import Extent, TracedBlock

__all__ = [
    "Compute",
    "Send",
    "SendAll",
    "Recv",
    "Barrier",
    "Checkpoint",
    "CollectiveOp",
    "Request",
    "words_of",
    "SymCompute",
    "SymSend",
    "SymSendAll",
    "SymRecv",
    "SymBarrier",
    "SymCollective",
    "SymPhase",
]


def words_of(data: Any) -> Any:
    """Number of matrix words in *data* (arrays and traced blocks count
    elements; scalars 1).  A traced block whose size differs from rank to
    rank counts an :class:`~repro.simulator.payloads.Extent`."""
    if isinstance(data, (np.ndarray, TracedBlock)):
        return data.size
    if isinstance(data, (list, tuple)):
        return sum(words_of(x) for x in data)
    return 1


@dataclass(slots=True)
class Compute:
    """Charge *cost* basic-operation units of local computation time."""

    cost: float
    label: str = ""

    def __post_init__(self) -> None:
        # an extent is checked per rank once the compiler binds it
        if self.cost.__class__ is not Extent and self.cost < 0:
            raise ValueError("compute cost must be non-negative")


@dataclass(slots=True)
class Send:
    """Send *data* (*nwords* words) to rank *dst*.

    The send is non-blocking in the rendezvous sense but occupies the
    sender for the injection time ``ts + tw*nwords``; the message becomes
    available at the destination after the full transfer time for the
    routed distance.
    """

    dst: int
    data: Any
    nwords: int
    tag: int = 0

    def __post_init__(self) -> None:
        # an extent is checked per rank once the compiler binds it
        if self.nwords.__class__ is not Extent and self.nwords < 0:
            raise ValueError("nwords must be non-negative")


@dataclass(slots=True)
class SendAll:
    """Send several messages "at once".

    Under an all-port machine (``machine.all_port``) the sender is busy
    only for the *longest* individual injection (all ports drive
    simultaneously, Section 7 of the paper); on a one-port machine the
    injections serialize and this is equivalent to consecutive
    :class:`Send` requests.
    """

    messages: Sequence[Send] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        dsts = [m.dst for m in self.messages]
        if len(set(dsts)) != len(dsts):
            raise ValueError("SendAll messages must target distinct destinations")


@dataclass(slots=True)
class Recv:
    """Block until a message from rank *src* with matching *tag* arrives.

    The engine resumes the generator with the message payload; the local
    clock advances to the message arrival time if it is later.
    """

    src: int
    tag: int = 0


@dataclass(slots=True)
class Barrier:
    """Synchronize all ranks: every clock jumps to the global maximum."""

    label: str = ""


@dataclass(slots=True)
class Checkpoint:
    """Save recoverable state now (fault-model hook).

    Under an active :class:`~repro.simulator.faults.FaultPlan` the rank
    pays ``checkpoint_cost``, becomes recoverable from this point, and
    its periodic checkpoint schedule restarts from here.  Without a
    fault plan the request is free and the clock does not move, so
    programs may checkpoint unconditionally.
    """

    label: str = ""


@dataclass(slots=True)
class CollectiveOp:
    """One rank's share of a collective, as the trace compiler records it.

    Emitted by the helpers in :mod:`repro.simulator.collectives` only on
    a trace-compiler probe: for a traced payload, and for every rooted
    collective while recording (:attr:`RankInfo.recording
    <repro.simulator.engine.RankInfo.recording>`).  The compiler
    (:mod:`repro.simulator.compile`) lowers it to the send/receive rounds
    the message-level helper would run, over every group at once, and
    resumes the probe with a traced stand-in for what that helper
    returns.  The generator schedulers charge only messages; a
    ``CollectiveOp`` yielded there raises
    :class:`~repro.simulator.errors.ProgramError`.
    """

    kind: str
    """One of ``"bcast"``, ``"reduce"``, ``"allgather_rd"``,
    ``"allgather_ring"``, ``"reduce_scatter"``, ``"shift"``, ``"route"``."""

    group: Sequence[int]
    """Ordered member ranks, as the program built them; the compiler
    matches them with the probe's symmetry-axis rows when it records the
    collective."""

    data: Any = None
    nwords: int | None = None
    tag: int = 0
    root_index: int = 0
    """The root of a ``bcast``/``reduce``, and the source of a ``route``."""
    offset: int = 0
    op: Callable[[Any, Any], Any] | None = None
    charge_op: Callable[[Any], float] | None = None
    charge_adds: bool = True
    target: int = 0
    """The group index a ``route`` delivers to."""
    relay: bool = False
    """Whether a ``route`` relays one hypercube dimension at a time."""


Request = Compute | Send | SendAll | Recv | Barrier | Checkpoint | CollectiveOp


# -- symbolic descriptors (trace compilation) ----------------------------------
#
# The record→replay compiler (:mod:`repro.simulator.compile`) lowers the
# request stream of a probe rank into one *symbolic* descriptor per
# program step.  Where a plain request carries one rank's scalar fields,
# a symbolic descriptor carries the whole machine's: peer fields are
# numpy vectors indexed by rank, and hops, sizes and costs are scalars
# shared by every rank or, where they depend on the rank's position
# (routes of differing length, reduce-scatter's uneven halves, blocks of
# an uneven partition), vectors too.  A compiled schedule is simply a
# list of these phases; replaying it
# (:func:`repro.simulator.charging.replay`) charges each phase as one
# update into :class:`~repro.simulator.trace.RankArrays` with zero
# generator resumes: one scalar operation while every operand and
# account is shared by all ranks, one vectorized operation otherwise.
#
# A phase that only some ranks take part in (a round of a rooted
# collective: a broadcast tree's senders, a route's current holders)
# carries *active*, the vector of those ranks; its per-rank
# fields are then given per active rank, in *active*'s order, and every
# other rank's accounts stay untouched.


@dataclass(slots=True)
class SymCompute:
    """Every rank (or each rank in *active*) charges *cost* units of computation."""

    cost: float | np.ndarray
    active: np.ndarray | None = None


@dataclass(slots=True)
class SymSend:
    """Every rank sends ``nwords`` words to ``dst[rank]`` (hops precomputed).

    *hops* and *nwords* are each one value for every rank or a per-rank
    vector.  With *active*, only those ranks send, and ``dst``/``hops``
    are theirs.  ``arrival`` holds the arrival time during replay (one
    value for every sender, or one per sender), from this send until
    the matched :class:`SymRecv` has read it back through its source
    vector.
    """

    dst: np.ndarray
    hops: int | np.ndarray
    nwords: int | np.ndarray
    tag: int = 0
    arrival: float | np.ndarray | None = None
    active: np.ndarray | None = None


@dataclass(slots=True)
class SymSendAll:
    """Every rank posts the same multi-message injection (one :class:`SymSend` per port)."""

    parts: tuple[SymSend, ...]


@dataclass(slots=True)
class SymRecv:
    """Every rank receives from ``src[rank]`` the message sent in phase *source*.

    With *active*, only those ranks receive, and ``src`` holds, for each
    of them, the position of its sender in the source phase's *active*.
    """

    src: np.ndarray
    tag: int = 0
    source: SymSend | None = None
    active: np.ndarray | None = None


@dataclass(slots=True)
class SymBarrier:
    """All clocks jump to the global maximum."""

    label: str = ""


@dataclass(slots=True)
class SymCollective:
    """One collective, lowered to the primitive phases it stands for.

    Every group of one symmetry axis runs the collective at this step;
    *phases* are its rounds as :class:`SymSend`/:class:`SymRecv` pairs
    (plus the adds of a reduce-scatter or a reduce as :class:`SymCompute`)
    over the whole machine, masked to the ranks a rooted round involves.
    :func:`repro.simulator.macro.run_batch_collective` replays them.
    """

    kind: str
    phases: list[SymCompute | SymSend | SymRecv]


SymPhase = SymCompute | SymSend | SymSendAll | SymRecv | SymBarrier | SymCollective
