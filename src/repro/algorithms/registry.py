"""Algorithm registry — the "library" of Section 10.

The paper concludes that no algorithm dominates and suggests storing all
of them in a library from which "the best algorithm can be pulled out by
a smart preprocessor ... depending on the various parameters".  This
module is that library: uniform descriptors binding each simulated
implementation to its feasibility rules; the smart preprocessor itself
(model-driven selection) lives in :mod:`repro.core.selector`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.algorithms.berntsen import run_berntsen
from repro.algorithms.cannon import run_cannon
from repro.algorithms.dns import run_dns_block, run_dns_one_per_element
from repro.algorithms.fox import run_fox
from repro.algorithms.gk import run_gk
from repro.algorithms.simple import run_simple
from repro.blockops.partition import is_perfect_square, is_power_of
from repro.core.machine import MachineParams

__all__ = ["AlgorithmEntry", "REGISTRY", "get", "feasible_algorithms", "run"]


def _is_cube_pow8(p: int) -> bool:
    return p == 1 or is_power_of(p, 8)


def _square_side_pow2(p: int) -> bool:
    if not is_perfect_square(p):
        return False
    side = int(np.sqrt(p) + 0.5)
    return side == 1 or is_power_of(side, 2)


@dataclass(frozen=True)
class AlgorithmEntry:
    """One library entry: a simulated implementation plus feasibility rules."""

    key: str
    title: str
    section: str
    run: Callable
    """Driver with signature ``run(A, B, p, machine, **kw) -> MatmulResult``."""

    feasible: Callable[[int, int], bool]
    """``feasible(n, p)``: can the implementation actually run (exact
    divisibility/power constraints of the hypercube embedding included)?"""

    model_key: str
    """Key of the matching analytic model in :data:`repro.core.models.MODELS`."""

    rank_symmetric: bool = False
    """Whether the driver's default configuration produces a rank-symmetric
    SPMD program that the trace compiler (``scheduler="compiled"``, the
    default) can vectorize.  ``False`` means the run falls back to the
    heap scheduler, and ``sim.compile_fallback`` records why."""


def _feasible_grid(n: int, p: int) -> bool:
    return _square_side_pow2(p) and int(np.sqrt(p) + 0.5) <= n


def _feasible_berntsen(n: int, p: int) -> bool:
    return _is_cube_pow8(p) and p**2 <= n**3


def _feasible_gk(n: int, p: int) -> bool:
    return _is_cube_pow8(p) and round(p ** (1 / 3)) <= n


def _feasible_dns(n: int, p: int) -> bool:
    # p = n^2 * r with r | n; the hypercube embedding wants powers of two
    if n > 1 and not is_power_of(n, 2):
        return False
    if p < n * n or p > n**3 or p % (n * n):
        return False
    r = p // (n * n)
    return n % r == 0 and (r == 1 or is_power_of(r, 2))


def _run_dns(A: np.ndarray, B: np.ndarray, p: int, machine: MachineParams, **kw):
    n = A.shape[0]
    if p == n**3:
        return run_dns_one_per_element(A, B, machine=machine, **kw)
    if p % (n * n):
        raise ValueError(f"DNS needs p = n^2 * r, got p={p}, n={n}")
    return run_dns_block(A, B, p // (n * n), machine=machine, **kw)


REGISTRY: dict[str, AlgorithmEntry] = {
    e.key: e
    for e in (
        AlgorithmEntry(
            key="simple",
            title="Simple (all-to-all broadcast)",
            section="4.1",
            run=run_simple,
            feasible=_feasible_grid,
            model_key="simple",
            rank_symmetric=True,
        ),
        AlgorithmEntry(
            key="cannon",
            title="Cannon",
            section="4.2",
            run=run_cannon,
            feasible=_feasible_grid,
            model_key="cannon",
            rank_symmetric=True,
        ),
        AlgorithmEntry(
            key="fox",
            title="Fox (broadcast-multiply-roll)",
            section="4.3",
            run=run_fox,
            feasible=_feasible_grid,
            model_key="fox",
            rank_symmetric=False,
        ),
        AlgorithmEntry(
            key="berntsen",
            title="Berntsen",
            section="4.4",
            run=run_berntsen,
            feasible=_feasible_berntsen,
            model_key="berntsen",
            rank_symmetric=True,
        ),
        AlgorithmEntry(
            key="dns",
            title="Dekel-Nassimi-Sahni",
            section="4.5",
            run=_run_dns,
            feasible=_feasible_dns,
            model_key="dns",
            rank_symmetric=False,
        ),
        AlgorithmEntry(
            key="gk",
            title="GK (the paper's variant of DNS)",
            section="4.6",
            run=run_gk,
            feasible=_feasible_gk,
            model_key="gk",
            rank_symmetric=True,
        ),
    )
}


def get(key: str) -> AlgorithmEntry:
    """Look up a library entry by key (raises ``KeyError`` with suggestions)."""
    try:
        return REGISTRY[key]
    except KeyError:
        raise KeyError(f"unknown algorithm {key!r}; known: {sorted(REGISTRY)}") from None


def feasible_algorithms(n: int, p: int) -> list[str]:
    """Keys of every implementation that can run the ``(n, p)`` instance."""
    return [k for k, e in REGISTRY.items() if e.feasible(n, p)]


def run(key: str, A: np.ndarray, B: np.ndarray, p: int, machine: MachineParams, **kw):
    """Run algorithm *key* on the given instance (convenience dispatcher)."""
    return get(key).run(A, B, p, machine=machine, **kw)
