"""All-port communication analysis — paper Section 7.

Some hypercubes (e.g. the nCUBE2) can drive all ``log p`` channels of a
node simultaneously.  Only the simple algorithm and the GK algorithm can
exploit this beyond a constant factor; this module provides their
all-port execution-time models (Eqs. 16 and 17) and — the section's
punchline — the *message-size lower bounds* that make the effective
isoefficiency of the all-port variants no better than the one-port ones:

* simple, all-port: communication terms suggest ``O(p log p)``, but
  utilizing all channels needs ``n >= sqrt(p) * log p / 2``, i.e.
  ``W >= p^{1.5} (log p)^3 / 8``;
* GK, all-port: communication terms suggest ``O(p log p)``, but the
  message-size bound forces ``W = O(p (log p)^3)`` — exactly the
  one-port GK isoefficiency.
"""

from __future__ import annotations

import math

from repro.core.machine import MachineParams
from repro.core.models import AlgorithmModel, log2

__all__ = [
    "SimpleAllPortModel",
    "GKAllPortModel",
    "ALLPORT_MODELS",
    "allport_summary",
]


class SimpleAllPortModel(AlgorithmModel):
    """Section 7.1, Eq. (16): the simple algorithm with all-port broadcast."""

    key = "simple-allport"
    title = "Simple (all-port)"
    equation = "(16)"
    asymptotic_isoefficiency = "O(p^1.5 (log p)^3)"  # effective, via message-size bound

    def overhead_terms(self, n: float, p: float, machine: MachineParams) -> dict[str, float]:
        self._validate(n, p)
        lg = log2(p)
        # p = 1 communicates nothing: the ts term vanishes with lg, and
        # dividing by inf instead of lg = 0 zeroes the tw term
        return {
            "ts": 0.5 * machine.ts * p * lg,
            "tw": 2 * machine.tw * n**2 * math.sqrt(p) / (lg or math.inf),
        }

    def max_procs(self, n: float) -> float:
        return n**2

    def concurrency_isoefficiency(self, p: float, machine: MachineParams | None = None) -> float:
        # channel-utilization bound: n >= sqrt(p) * log p / 2  (Section 7.1)
        return (p**1.5) * log2(p) ** 3 / 8

    def message_size_feasible(self, n: float, p: float) -> bool:
        """Can all channels be kept busy (``n >= sqrt(p) log p / 2``)?"""
        return n >= 0.5 * math.sqrt(p) * log2(p)


class GKAllPortModel(AlgorithmModel):
    """Section 7.2, Eq. (17): the GK algorithm with all-port Johnsson-Ho broadcast."""

    key = "gk-allport"
    title = "GK (all-port)"
    equation = "(17)"
    asymptotic_isoefficiency = "O(p (log p)^3)"  # effective, via message-size bound

    def overhead_terms(self, n: float, p: float, machine: MachineParams) -> dict[str, float]:
        self._validate(n, p)
        lg = log2(p)
        # p = 1 communicates nothing: the ts term vanishes with lg,
        # dividing by inf instead of lg = 0 zeroes the tw term, and the
        # (lg > 0) factor zeroes the sqrt term
        return {
            "ts": machine.ts * p * lg,
            "tw": 9 * machine.tw * n**2 * p ** (1 / 3) / (lg or math.inf),
            "sqrt": 6 * n * p ** (2 / 3) * math.sqrt(machine.ts * machine.tw) * (lg > 0),
        }

    def max_procs(self, n: float) -> float:
        return n**3

    def concurrency_isoefficiency(self, p: float, machine: MachineParams | None = None) -> float:
        # message-size lower bound => W grows as p (log p)^3 (Section 7.2)
        return p * log2(p) ** 3


ALLPORT_MODELS = {m.key: m for m in (SimpleAllPortModel(), GKAllPortModel())}


def allport_summary() -> list[dict[str, str]]:
    """Section 7's conclusion as data: comm-term vs effective isoefficiency."""
    return [
        {
            "algorithm": "simple",
            "one_port_isoefficiency": "O(p^1.5)",
            "allport_comm_isoefficiency": "O(p log p)",
            "allport_effective_isoefficiency": "O(p^1.5 (log p)^3)",
            "improves_scalability": "no",
        },
        {
            "algorithm": "gk",
            "one_port_isoefficiency": "O(p (log p)^3)",
            "allport_comm_isoefficiency": "O(p log p)",
            "allport_effective_isoefficiency": "O(p (log p)^3)",
            "improves_scalability": "no",
        },
        {
            "algorithm": "cannon/berntsen/fox/dns",
            "one_port_isoefficiency": "(unchanged)",
            "allport_comm_isoefficiency": "constant-factor gain only",
            "allport_effective_isoefficiency": "(unchanged)",
            "improves_scalability": "no",
        },
    ]
