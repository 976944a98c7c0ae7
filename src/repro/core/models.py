"""Analytic parallel-execution-time models — paper Section 4 and Table 1.

One model class per parallel formulation.  A model is its overhead
``overhead_terms(n, p, machine)`` — the paper's ``T_o = p*T_p - W``
(the Table 1 column, ``W = n^3``) split into the additive terms the
term-wise isoefficiency analysis of Section 5 balances against ``W`` —
plus its concurrency bounds ``min_procs``/``max_procs``.  Everything
else is derived from those on :class:`AlgorithmModel`:

* ``overhead`` — the summed ``T_o``,
* ``time`` — the parallel execution time ``T_p = (W + T_o)/p``
  (Equations 2-7 and 18), with components ``compute_time = W/p`` and
  ``comm_time = T_o/p``,
* ``speedup = W/T_p`` and ``efficiency = W/(W + T_o)``,
* the continuous applicability predicate used by the region analysis of
  Section 6,
* ``max_efficiency(machine)`` — the efficiency ceiling (only the DNS
  algorithm has one below 1, Section 5.3).

All logarithms are base 2 (hypercube dimensions).

Every expression is written against the polymorphic :func:`log2` helper
and ``** 0.5``-style powers, so each method evaluates on scalars *and*
elementwise on broadcastable numpy float arrays of ``(n, p)`` — the
region/crossover analysis of Figures 1-3 calls the same methods on whole
grids.  The all-port models of :mod:`repro.core.allport` are scalar-only.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from repro.core.machine import MachineParams

__all__ = [
    "AlgorithmModel",
    "SimpleModel",
    "CannonModel",
    "FoxModel",
    "BerntsenModel",
    "DNSModel",
    "GKModel",
    "GKImprovedModel",
    "GKCM5Model",
    "MODELS",
    "COMPARISON_MODELS",
    "log2",
]


def log2(x: Any) -> Any:
    """Base-2 logarithm, clamped so ``log2`` of tiny/unit arguments is 0.

    Polymorphic: scalars take the fast :func:`math.log2` path, numpy
    arrays evaluate elementwise (with the same clamp), which is what
    lets every model expression below run unchanged on ``(n, p)`` grids.
    """
    if isinstance(x, np.ndarray):
        return np.where(x > 1.0, np.log2(np.maximum(x, 1.0)), 0.0)
    return math.log2(x) if x > 1.0 else 0.0


class AlgorithmModel(ABC):
    """Closed-form performance model of one parallel formulation.

    Subclasses write :meth:`overhead_terms` and, where Table 1 bounds
    them, ``min_procs``/``max_procs``; every other quantity is derived.
    """

    key: str = ""
    title: str = ""
    equation: str = ""
    """Which equation of the paper ``time`` implements."""

    asymptotic_isoefficiency: str = ""
    """Table 1's asymptotic isoefficiency function, as text."""

    # -- the paper's expression -------------------------------------------------------

    @abstractmethod
    def overhead_terms(self, n: Any, p: Any, machine: MachineParams) -> dict[str, Any]:
        """``T_o = p*T_p - W`` split into named additive terms (Section 5).

        The one cost expression a model writes.  Keys are unit-tagged
        (``ts``, ``tw``, ``ts_tw``, ``sqrt``, optionally ``_qualified``)
        so the term-wise isoefficiency analysis can balance each alone.
        """

    # -- derived from the overhead ------------------------------------------------------

    def overhead(self, n: Any, p: Any, machine: MachineParams) -> Any:
        """Total overhead ``T_o(W, p) = p*T_p - W`` (Table 1 column)."""
        return sum(self.overhead_terms(n, p, machine).values())

    def compute_time(self, n: Any, p: Any) -> Any:
        """Computation component of ``T_p`` (always ``n^3/p``)."""
        return n**3 / p

    def comm_time(self, n: Any, p: Any, machine: MachineParams) -> Any:
        """Communication component of ``T_p``: ``T_o/p``."""
        return self.overhead(n, p, machine) / p

    def time(self, n: Any, p: Any, machine: MachineParams) -> Any:
        """Modeled parallel execution time ``T_p = (W + T_o)/p`` in basic-op units."""
        return (n**3 + self.overhead(n, p, machine)) / p

    def speedup(self, n: Any, p: Any, machine: MachineParams) -> Any:
        return n**3 / self.time(n, p, machine)

    def efficiency(self, n: Any, p: Any, machine: MachineParams) -> Any:
        """``E = W/(W + T_o)``."""
        work = n**3
        return work / (work + self.overhead(n, p, machine))

    def max_efficiency(self, machine: MachineParams) -> float:
        """Supremum of achievable efficiency over all problem sizes (Section 5.3)."""
        return 1.0

    # -- applicability ---------------------------------------------------------------

    def max_procs(self, n: float) -> float:
        """Concurrency limit: the largest usable *p* for order-*n* matrices."""
        return n**3

    def min_procs(self, n: float) -> float:
        return 1.0

    def applicable(self, n: Any, p: Any) -> Any:
        """Continuous applicability (Table 1 column), ignoring divisibility."""
        return (self.min_procs(n) <= p) & (p <= self.max_procs(n))

    def concurrency_isoefficiency(self, p: float, machine: MachineParams | None = None) -> float:
        """``W`` forced by limits other than communication: the concurrency
        bound ``p <= max_procs(n)`` (Section 5) or, where one exists, a
        message-granularity bound (Sections 5.4.1 and 7)."""
        return p  # overridden where a limit binds (max_procs(n) = h(W))

    @staticmethod
    def _validate(n: Any, p: Any) -> None:
        # np.any handles scalars and arrays alike
        if np.any(n <= 0) or np.any(p <= 0):
            raise ValueError("n and p must be positive")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.key!r}>"


class SimpleModel(AlgorithmModel):
    """Section 4.1, Eq. (2): all-to-all broadcast then local multiply."""

    key = "simple"
    title = "Simple (all-to-all broadcast)"
    equation = "(2)"
    asymptotic_isoefficiency = "O(p^1.5)"

    def overhead_terms(self, n: float, p: float, machine: MachineParams) -> dict[str, float]:
        self._validate(n, p)
        return {
            "ts": 2 * machine.ts * p * log2(p),
            "tw": 2 * machine.tw * n**2 * p**0.5,
        }

    def max_procs(self, n: float) -> float:
        return n**2

    def concurrency_isoefficiency(self, p: float, machine: MachineParams | None = None) -> float:
        return p**1.5  # n^2 >= p  =>  W = n^3 >= p^1.5


class CannonModel(AlgorithmModel):
    """Section 4.2, Eq. (3): align then roll on a wraparound mesh."""

    key = "cannon"
    title = "Cannon"
    equation = "(3)"
    asymptotic_isoefficiency = "O(p^1.5)"

    def overhead_terms(self, n: float, p: float, machine: MachineParams) -> dict[str, float]:
        self._validate(n, p)
        return {
            "ts": 2 * machine.ts * p**1.5,
            "tw": 2 * machine.tw * n**2 * p**0.5,
        }

    def max_procs(self, n: float) -> float:
        return n**2

    def concurrency_isoefficiency(self, p: float, machine: MachineParams | None = None) -> float:
        return p**1.5


class FoxModel(AlgorithmModel):
    """Section 4.3, Eq. (4): the pipelined broadcast-multiply-roll variant."""

    key = "fox"
    title = "Fox (pipelined)"
    equation = "(4)"
    # Eq. 4's ts*p term gives the pipelined variant an O(p^2) ts-isoefficiency;
    # Section 5.1's "same as Cannon up to constants" statement refers to the
    # *asynchronous* variant, whose time is within 2x of Cannon's (Section 4.3).
    asymptotic_isoefficiency = "O(p^2)"

    def overhead_terms(self, n: float, p: float, machine: MachineParams) -> dict[str, float]:
        self._validate(n, p)
        return {
            "ts": machine.ts * p**2,
            "tw": 2 * machine.tw * n**2 * p**0.5,
        }

    def max_procs(self, n: float) -> float:
        return n**2

    def concurrency_isoefficiency(self, p: float, machine: MachineParams | None = None) -> float:
        return p**1.5


class BerntsenModel(AlgorithmModel):
    """Section 4.4, Eq. (5): column/row strips over 2^q subcubes."""

    key = "berntsen"
    title = "Berntsen"
    equation = "(5)"
    asymptotic_isoefficiency = "O(p^2)"  # concurrency-limited (Section 5.2)

    def overhead_terms(self, n: float, p: float, machine: MachineParams) -> dict[str, float]:
        self._validate(n, p)
        return {
            "ts_cannon": 2 * machine.ts * p ** (4 / 3),
            "ts_reduce": machine.ts * p * log2(p) / 3,
            "tw": 3 * machine.tw * n**2 * p ** (1 / 3),
        }

    def max_procs(self, n: float) -> float:
        return n**1.5

    def concurrency_isoefficiency(self, p: float, machine: MachineParams | None = None) -> float:
        return p**2  # n^(3/2) >= p  =>  W = n^3 >= p^2


class DNSModel(AlgorithmModel):
    """Section 4.5.2, Eq. (6): block DNS on ``p = n^2 * r`` processors."""

    key = "dns"
    title = "Dekel-Nassimi-Sahni"
    equation = "(6)"
    asymptotic_isoefficiency = "O(p log p)"

    def overhead_terms(self, n: float, p: float, machine: MachineParams) -> dict[str, float]:
        self._validate(n, p)
        c = machine.ts + machine.tw
        return {
            "ts_tw_log": 5 * c * p * log2(p / n**2),
            "ts_tw_n3": 2 * c * n**3,
        }

    def max_efficiency(self, machine: MachineParams) -> float:
        # The 2*(ts+tw)*n^3 overhead term scales with W itself, capping E
        # at 1/(1 + 2*(ts+tw)) no matter how large the problem (Section 5.3).
        return 1.0 / (1.0 + 2 * (machine.ts + machine.tw))

    def min_procs(self, n: float) -> float:
        return n**2

    def max_procs(self, n: float) -> float:
        return n**3

    def concurrency_isoefficiency(self, p: float, machine: MachineParams | None = None) -> float:
        return p  # max_procs does not bind below p = n^3


class GKModel(AlgorithmModel):
    """Section 4.6, Eq. (7): the paper's block-DNS variant, naive broadcast."""

    key = "gk"
    title = "GK"
    equation = "(7)"
    asymptotic_isoefficiency = "O(p (log p)^3)"

    def overhead_terms(self, n: float, p: float, machine: MachineParams) -> dict[str, float]:
        self._validate(n, p)
        return {
            "ts": (5 / 3) * machine.ts * p * log2(p),
            "tw": (5 / 3) * machine.tw * n**2 * p ** (1 / 3) * log2(p),
        }

    def max_procs(self, n: float) -> float:
        return n**3

    def concurrency_isoefficiency(self, p: float, machine: MachineParams | None = None) -> float:
        return p


class GKImprovedModel(AlgorithmModel):
    """Section 5.4.1: GK with the Johnsson-Ho one-to-all broadcast.

    The broadcast of an *m*-word message costs
    ``ts*log p + tw*m + 2*tw*log p*sqrt(ts*m/(tw*log p))`` instead of
    ``(ts + tw*m)*log p``.  The packetization is only legal when the
    optimal packet holds at least one word, which forces
    ``W >= (ts/tw)^1.5 * p * (log p)^1.5`` — making the *effective*
    isoefficiency ``O(p (log p)^1.5)`` rather than the ``O(p log p)``
    the communication terms alone suggest.

    Note: Table 1's "Improved GK" row prints only the gather component
    of this expression (an apparent typo in the paper); this model sums
    the broadcast and gather components as derived in §5.4.1.
    """

    key = "gk-improved"
    title = "GK (Johnsson-Ho broadcast)"
    equation = "(5.4.1)"
    asymptotic_isoefficiency = "O(p (log p)^1.5)"

    def overhead_terms(self, n: float, p: float, machine: MachineParams) -> dict[str, float]:
        self._validate(n, p)
        lg = log2(p)
        # p = 1 broadcasts nothing: the ts and sqrt terms vanish with lg,
        # and the (lg > 0) factor zeroes the tw term
        return {
            "ts": (5 / 3) * machine.ts * p * lg,
            "tw": 5 * machine.tw * n**2 * p ** (1 / 3) * (lg > 0),
            "sqrt": 10 * n * p ** (2 / 3) * (machine.ts * machine.tw * lg / 3) ** 0.5,
        }

    def max_procs(self, n: float) -> float:
        return n**3

    def packet_feasible(self, n: float, p: float, machine: MachineParams) -> bool:
        """Is the Johnsson-Ho optimal packet at least one word (§5.4.1)?"""
        lg = log2(p)
        if lg == 0 or machine.tw == 0:
            return True
        return n**2 / p ** (2 / 3) >= (machine.ts / machine.tw) * lg

    def concurrency_isoefficiency(self, p: float, machine: MachineParams | None = None) -> float:
        # packet-size lower bound of §5.4.1: the broadcast scheme needs
        # n^2/p^(2/3) >= (ts/tw) log p, i.e. W >= (ts/tw)^1.5 p (log p)^1.5 --
        # this is what makes the *effective* isoefficiency O(p (log p)^1.5).
        if machine is None or machine.tw == 0:
            return p
        return (machine.ts / machine.tw) ** 1.5 * p * log2(p) ** 1.5


class GKCM5Model(AlgorithmModel):
    """Section 9, Eq. (18): GK on the fully connected CM-5 model.

    One-hop stage-1 routing replaces the ``log p^{1/3}``-step relays,
    giving ``T_p = n^3/p + (ts + tw*n^2/p^{2/3}) * (log p + 2)``.
    """

    key = "gk-cm5"
    title = "GK on CM-5 (fully connected)"
    equation = "(18)"
    asymptotic_isoefficiency = "O(p (log p)^3)"

    def overhead_terms(self, n: float, p: float, machine: MachineParams) -> dict[str, float]:
        self._validate(n, p)
        lg2 = log2(p) + 2
        return {
            "ts": machine.ts * p * lg2,
            "tw": machine.tw * n**2 * p ** (1 / 3) * lg2,
        }

    def max_procs(self, n: float) -> float:
        return n**3

    def concurrency_isoefficiency(self, p: float, machine: MachineParams | None = None) -> float:
        return p


#: Every analytic model, by key.
MODELS: dict[str, AlgorithmModel] = {
    m.key: m
    for m in (
        SimpleModel(),
        CannonModel(),
        FoxModel(),
        BerntsenModel(),
        DNSModel(),
        GKModel(),
        GKImprovedModel(),
        GKCM5Model(),
    )
}

#: The four algorithms Section 6 compares (Figures 1-3): the paper drops the
#: simple algorithm and Fox because their expressions match Cannon's up to
#: small constants (Section 5.5).
COMPARISON_MODELS: tuple[str, ...] = ("berntsen", "cannon", "gk", "dns")
