"""Isoefficiency analysis — paper Sections 3 and 5.

The isoefficiency function of a parallel system maps the processor count
*p* to the problem size ``W`` needed to hold efficiency at *E*; it is
obtained from the central relation (Eq. 1)::

    W = K * T_o(W, p),      K = E / (1 - E)

This module provides

* :func:`isoefficiency` — the numeric ``W(p)`` for any
  :class:`~repro.core.models.AlgorithmModel` (root-finding on Eq. 1,
  then the concurrency bound of Section 5 applied on top),
* :func:`isoefficiency_terms` — Section 5's term-wise balance: each
  additive term of ``T_o`` balanced against ``W`` separately,
* :func:`fit_growth_exponent` — an empirical check of the asymptotic
  Table 1 entries: least-squares slope of ``log W`` vs ``log p``, with
  optional ``(log p)^k`` factors divided out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.machine import MachineParams
from repro.core.metrics import k_factor
from repro.core.models import AlgorithmModel
from repro.core.roots import brentq

__all__ = [
    "isoefficiency",
    "isoefficiency_terms",
    "IsoefficiencyCurve",
    "isoefficiency_curve",
    "fit_growth_exponent",
]

_N_LO = 1e-9
_N_HI = 1e30


def _balance(to_of_n: Callable[[float], float], K: float) -> float:
    """Solve ``n^3 = K * T_o(n)`` for ``n`` (``T_o`` nondecreasing in n)."""

    def f(log_n: float) -> float:
        n = math.exp(log_n)
        return 3 * log_n - math.log(max(K * to_of_n(n), 1e-300))

    lo, hi = math.log(_N_LO), math.log(_N_HI)
    # W = n^3 grows strictly faster than every T_o term in these models,
    # so f is increasing and crosses zero exactly once.
    if f(hi) < 0:
        return float("inf")
    if f(lo) > 0:
        return 0.0
    return math.exp(brentq(f, lo, hi, rtol=1e-12))


def isoefficiency(
    model: AlgorithmModel,
    p: float,
    machine: MachineParams,
    efficiency: float = 0.5,
) -> float:
    """The problem size ``W`` keeping *model* at the given efficiency on *p* PEs.

    Returns ``inf`` when the requested efficiency exceeds the model's
    achievable ceiling (the DNS case, Section 5.3).  The concurrency
    bound (``p <= max_procs(n)``) is applied on top of the Eq. 1 balance,
    which is how Berntsen's algorithm ends up ``O(p^2)`` despite its
    small communication overhead (Section 5.2).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if efficiency >= model.max_efficiency(machine):
        return float("inf")
    K = k_factor(efficiency)
    n_comm = _balance(lambda n: model.overhead(n, p, machine), K)
    if math.isinf(n_comm):
        return float("inf")
    w_comm = n_comm**3
    w_conc = model.concurrency_isoefficiency(p, machine)
    return max(w_comm, w_conc, p)


def isoefficiency_terms(
    model: AlgorithmModel,
    p: float,
    machine: MachineParams,
    efficiency: float = 0.5,
) -> dict[str, float]:
    """Section 5's term-wise isoefficiency: ``W`` balancing each ``T_o`` term alone.

    Includes the concurrency bound under the key ``"concurrency"``.  The
    overall isoefficiency is (asymptotically) the max over these.
    """
    K = k_factor(efficiency)
    out: dict[str, float] = {}
    for name in model.overhead_terms(2.0, p, machine):
        n_t = _balance(lambda n, _name=name: model.overhead_terms(n, p, machine)[_name], K)
        out[name] = n_t**3 if not math.isinf(n_t) else float("inf")
    out["concurrency"] = model.concurrency_isoefficiency(p, machine)
    return out


@dataclass(frozen=True)
class IsoefficiencyCurve:
    """A sampled isoefficiency function ``W(p)``."""

    model_key: str
    efficiency: float
    p_values: tuple[float, ...]
    w_values: tuple[float, ...]


def isoefficiency_curve(
    model: AlgorithmModel,
    machine: MachineParams,
    efficiency: float = 0.5,
    p_values: tuple[float, ...] | None = None,
) -> IsoefficiencyCurve:
    """Sample ``W(p)`` over a logarithmic grid of processor counts."""
    if p_values is None:
        p_values = tuple(float(2**k) for k in range(0, 25, 2))
    w = tuple(isoefficiency(model, p, machine, efficiency) for p in p_values)
    return IsoefficiencyCurve(model.key, efficiency, tuple(p_values), w)


def fit_growth_exponent(
    p_values: Sequence[float],
    w_values: Sequence[float],
    log_power: float = 0,
) -> float:
    """Least-squares slope of ``log(W / (log2 p)^log_power)`` against ``log p``.

    With the right *log_power*, the slope recovers the polynomial degree
    of the asymptotic isoefficiency: e.g. Cannon's ``O(p^1.5)`` fits
    slope ~1.5 at ``log_power=0``; the GK algorithm's ``O(p (log p)^3)``
    fits slope ~1.0 at ``log_power=3``.
    """
    p = np.asarray(p_values, dtype=float)
    w = np.asarray(w_values, dtype=float)
    mask = np.isfinite(w) & (w > 0) & (p > 1)
    if mask.sum() < 2:
        raise ValueError("need at least two finite samples")
    x = np.log(p[mask])
    y = np.log(w[mask] / np.log2(p[mask]) ** log_power)
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)
