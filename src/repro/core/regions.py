"""Regions of superiority over the (n, p) plane — paper Section 6, Figures 1-3.

For a given machine, every point of the ``(p, n)`` plane is labelled with
the algorithm of least total overhead among those applicable there,
using the paper's letters:

* ``a`` — GK, ``b`` — Berntsen, ``c`` — Cannon, ``d`` — DNS,
* ``x`` — ``p > n^3``: no algorithm applicable.

Figures 1-3 are these maps for the machines
:data:`~repro.core.machine.NCUBE2_LIKE` (``ts=150``),
:data:`~repro.core.machine.FUTURE_MIMD` (``ts=10``), and
:data:`~repro.core.machine.SIMD_CM2_LIKE` (``ts=0.5``), all at ``tw=3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.cache import disk_cache, result_cache
from repro.core.machine import MachineParams
from repro.core.models import COMPARISON_MODELS, MODELS

__all__ = [
    "LETTER_OF",
    "best_algorithm",
    "RegionMap",
    "region_map",
    "region_compute_count",
    "winner_grid",
]

#: How many times this process labelled a region grid *from scratch*
#: (neither cache tier answered).  The serving layer's warm-start gate
#: reads it to prove that preloaded shards serve with zero
#: re-evaluations.
_REGION_COMPUTES = 0


def region_compute_count() -> int:
    """Number of fresh (cache-missing) region-grid computations so far."""
    return _REGION_COMPUTES

#: The paper's region letters (Figures 1-3).
LETTER_OF: dict[str, str] = {
    "gk": "a",
    "berntsen": "b",
    "cannon": "c",
    "dns": "d",
}


def best_algorithm(
    n: float,
    p: float,
    machine: MachineParams,
    model_keys: tuple[str, ...] = COMPARISON_MODELS,
) -> str:
    """Key of the least-overhead applicable algorithm at ``(n, p)``, or ``"x"``.

    Overheads are compared as in Section 6 (equal compute time makes
    minimizing ``T_o`` the same as minimizing ``T_p``); the Table 1
    applicability ranges are enforced, so a model with a mathematically
    smaller overhead does not win where it cannot run.

    Tie rule: models are scanned in *model_keys* order and only a
    *strictly* smaller overhead takes the lead, so when two algorithms
    have exactly equal overhead on a boundary cell the one listed
    earlier in *model_keys* wins.  :func:`winner_grid` and the adaptive
    :mod:`repro.core.refine` layer implement the identical rule — the
    refinement's bit-identity contract depends on all three agreeing.
    """
    best_key, best_to = "x", float("inf")
    for key in model_keys:
        model = MODELS[key]
        if not model.applicable(n, p):
            continue
        to = model.overhead(n, p, machine)
        if to < best_to:
            best_key, best_to = key, to
    return best_key


@dataclass(frozen=True)
class RegionMap:
    """A sampled region-of-superiority map (one of Figures 1-3)."""

    machine: MachineParams
    p_values: tuple[float, ...]
    n_values: tuple[float, ...]
    cells: tuple[tuple[str, ...], ...]
    """``cells[i][j]``: winning key at ``n = n_values[i]``, ``p = p_values[j]``."""

    def letter_grid(self) -> list[list[str]]:
        """The map as the paper's single-letter labels."""
        return [[LETTER_OF.get(c, "x") for c in row] for row in self.cells]

    def fraction(self, key: str) -> float:
        """Fraction of sampled cells won by *key*."""
        flat = [c for row in self.cells for c in row]
        return flat.count(key) / len(flat)

    def winners(self) -> set[str]:
        """All keys that win at least one cell."""
        return {c for row in self.cells for c in row}

    def render(self) -> str:
        """ASCII rendering, n increasing upward, p increasing rightward."""
        header = (
            f"machine: ts={self.machine.ts}, tw={self.machine.tw}  "
            f"(a=GK  b=Berntsen  c=Cannon  d=DNS  x=infeasible)"
        )
        lines = [header]
        for i in range(len(self.n_values) - 1, -1, -1):
            label = f"n=2^{int(np.log2(self.n_values[i])):<3d}|"
            lines.append(label + "".join(LETTER_OF.get(c, "x") for c in self.cells[i]))
        lo = int(np.log2(self.p_values[0]))
        hi = int(np.log2(self.p_values[-1]))
        lines.append(" " * 8 + f"p=2^{lo} .. 2^{hi} ({len(self.p_values)} columns)")
        return "\n".join(lines)


def winner_grid(
    machine: MachineParams,
    n_values: Sequence[float],
    p_values: Sequence[float],
    model_keys: tuple[str, ...] = COMPARISON_MODELS,
) -> np.ndarray:
    """Index of the least-overhead applicable model at every grid cell.

    Vectorized core of :func:`region_map`: one ``overhead`` /
    ``applicable`` evaluation per model over the whole ``(n, p)`` grid
    instead of one Python call per point.  Returns an
    ``(len(n_values), len(p_values))`` integer array indexing into
    *model_keys*, with ``len(model_keys)`` as the "no algorithm
    applicable" sentinel.  Ties and iteration order match
    :func:`best_algorithm` exactly — only a *strictly* smaller
    overhead dethrones the current leader, so an exact tie is won by the
    model listed earliest in *model_keys* — and the two agree
    cell-for-cell.
    """
    n_arr = np.asarray(n_values, dtype=float)[:, None]
    p_arr = np.asarray(p_values, dtype=float)[None, :]
    shape = (n_arr.shape[0], p_arr.shape[1])
    best_to = np.full(shape, np.inf)
    winner = np.full(shape, len(model_keys), dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, key in enumerate(model_keys):
            model = MODELS[key]
            to = np.broadcast_to(model.overhead(n_arr, p_arr, machine), shape)
            ok = np.broadcast_to(model.applicable(n_arr, p_arr), shape)
            cand = np.where(ok, to, np.inf)
            better = cand < best_to
            winner[better] = i
            best_to = np.where(better, cand, best_to)
    return winner


def _cells_from_winners(
    winners: np.ndarray, model_keys: tuple[str, ...]
) -> tuple[tuple[str, ...], ...]:
    labels = tuple(model_keys) + ("x",)
    return tuple(tuple(labels[w] for w in row) for row in winners)


def region_map(
    machine: MachineParams,
    *,
    log2_p_max: int = 30,
    log2_n_max: int = 16,
    p_step: int = 1,
    n_step: int = 1,
    model_keys: tuple[str, ...] = COMPARISON_MODELS,
    cache: bool = True,
    refine: bool = False,
    max_depth: int | None = None,
    tol: float | None = None,
    progress: Callable[[dict[str, int]], None] | None = None,
) -> RegionMap:
    """Compute a region map over a log-spaced ``(p, n)`` grid.

    Defaults cover the ranges plotted in the paper's Figures 1-3
    (processors up to ~``2^30``, matrices up to ``2^16``).  The whole
    plane is labelled with array operations (see :func:`winner_grid`);
    with ``refine=True`` it is instead labelled adaptively
    (:func:`repro.core.refine.refine_winner_grid` with *max_depth* /
    *tol*), evaluating only cells near region boundaries — on the
    paper's machine regimes the result is identical, cell for cell.

    With ``cache=True`` (the default) the finished map is memoized in
    the process-wide result cache shared with the sweep harness and the
    CLI, keyed on the machine, grid, and model set — :class:`RegionMap`
    is immutable, so the cached instance is returned directly — and the
    underlying winner array additionally persists in the on-disk tier
    (:func:`repro.core.cache.disk_cache`), so a second process
    rebuilding the same map reloads it instead of recomputing.
    ``cache=False`` bypasses both tiers.

    *progress* observes a refinement that runs (see
    :func:`~repro.core.refine.refine_winner_grid`); it is not part of
    the cache key, so an observed map and an unobserved one share one
    entry, and a map answered by either tier reports no progress.
    """
    # local import: refine builds on the models layer and is only needed here
    from repro.core.refine import DEFAULT_TOL

    eff_tol = DEFAULT_TOL if tol is None else tol
    spec = (log2_p_max, log2_n_max, p_step, n_step, model_keys)
    cache_key: tuple = ("region_map", machine, *spec)
    if refine:
        cache_key = ("region_map-refined", machine, *spec, max_depth, eff_tol)
    if cache:
        hit = result_cache().get(cache_key)
        if hit is not None:
            return hit
    p_values = tuple(float(2**k) for k in range(0, log2_p_max + 1, p_step))
    n_values = tuple(float(2**k) for k in range(0, log2_n_max + 1, n_step))

    disk = disk_cache() if cache else None
    disk_key = None
    winners: np.ndarray | None = None
    if disk is not None:
        disk_key = disk.key_for(
            {
                "kind": "region_map",
                "machine": machine,
                "log2_p_max": log2_p_max,
                "log2_n_max": log2_n_max,
                "p_step": p_step,
                "n_step": n_step,
                "model_keys": list(model_keys),
                "refine": refine,
                "max_depth": max_depth,
                "tol": eff_tol,
            }
        )
        # winner grids here are small (one int per power-of-two cell), so
        # a JSON shard beats NPZ: no zip machinery on the reload path
        shard = disk.get_json(disk_key)
        if (
            isinstance(shard, list)
            and len(shard) == len(n_values)
            and all(isinstance(row, list) and len(row) == len(p_values) for row in shard)
        ):
            winners = np.asarray(shard, dtype=np.intp)

    if winners is None:
        global _REGION_COMPUTES
        _REGION_COMPUTES += 1
        if refine:
            from repro.core.refine import refine_winner_grid

            winners = refine_winner_grid(
                machine,
                n_values,
                p_values,
                model_keys,
                max_depth=max_depth,
                tol=eff_tol,
                progress=progress,
            ).winners
        else:
            winners = winner_grid(machine, n_values, p_values, model_keys)
        if disk is not None and disk_key is not None:
            disk.put_json(disk_key, [[int(w) for w in row] for row in winners])

    rmap = RegionMap(
        machine=machine,
        p_values=p_values,
        n_values=n_values,
        cells=_cells_from_winners(winners, model_keys),
    )
    if cache:
        result_cache().put(cache_key, rmap)
    return rmap
