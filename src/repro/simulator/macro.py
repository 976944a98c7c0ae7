"""Charging of compiled collectives.

The trace compiler (:mod:`repro.simulator.compile`) lowers every
collective a probe posts to the send/receive rounds it stands for, over
the whole machine; :func:`run_batch_collective` charges those rounds
through the one replay loop in :mod:`repro.simulator.charging`, the
same loop that charges the rest of a compiled schedule.  On the
generator schedulers collectives are the message-level helpers of
:mod:`repro.simulator.collectives` and never reach this module.
"""

from __future__ import annotations

from repro.core.machine import MachineParams
from repro.simulator.charging import replay
from repro.simulator.request import SymCollective
from repro.simulator.trace import RankArrays

__all__ = ["run_batch_collective"]


def run_batch_collective(
    phase: SymCollective, arr: RankArrays, machine: MachineParams
) -> None:
    """Charge one compiled collective across every group of its axis.

    The trace compiler (:mod:`repro.simulator.compile`) has already
    lowered the collective to the send/receive rounds it stands for,
    each over the whole machine; this replays them through the shared
    loop in :mod:`repro.simulator.charging`.
    """
    replay(phase.phases, arr, machine)
