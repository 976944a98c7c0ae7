"""Adaptive mesh refinement for region maps and crossover curves.

The paper's Figures 1-3 are *boundary* objects: what matters in an
``(n, p)`` region-of-superiority map is where the winner changes, yet
the dense :func:`~repro.core.regions.winner_grid` pays for every
interior cell of large single-winner regions.  This module evaluates
the same closed-form comparison sparsely:

* :func:`refine_winner_grid` starts from a coarse lattice over the full
  ``(n, p)`` index grid and recursively subdivides only cells whose
  corners disagree on the winning algorithm — or whose corner overhead
  *gap* (relative margin between best and second-best applicable model)
  falls under a tolerance, which is what catches thin regions slicing
  through an otherwise-uniform cell.  Cells that stay uniform and
  comfortable are filled with their corner winner without evaluating
  the interior.
* :func:`refine_crossover_curve` samples an equal-overhead curve
  ``n_EqualTo(p)`` adaptively in ``log p``, bisecting only the
  intervals where the curve moves (or appears/disappears), instead of
  evaluating a fixed dense set of processor counts.

Exactness contract: every *evaluated* point of a refined grid is
computed by :func:`winner_at_points` — the identical vectorized
expressions, applicability masks, and first-strict-improvement tie rule
as the dense ``winner_grid`` — so evaluated cells are bit-identical to
the dense result (``tests/test_refine.py`` fuzz-gates this on the
Figure 1-3 machines and on random machines).  Filled cells carry the
uniform corner winner; on the paper's machine regimes the default
tolerance makes the whole refined grid equal to the dense one, and the
test-suite pins that too.  Every point of a refined crossover curve is
an :func:`~repro.core.crossover.equal_overhead_n` evaluation, so
sampled points match the dense curve exactly wherever both sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.crossover import equal_overhead_n
from repro.core.machine import MachineParams
from repro.core.models import COMPARISON_MODELS, MODELS, AlgorithmModel

__all__ = [
    "DEFAULT_TOL",
    "RefinedGrid",
    "winner_at_points",
    "winner_details_at_points",
    "refine_winner_grid",
    "refine_crossover_curve",
]

#: Default overhead-gap tolerance, in relative gap *per octave of cell
#: extent*: a cell is only trusted (filled without evaluating its
#: interior) when every corner's relative gap between best and
#: second-best model exceeds ``tol`` times the cell's total extent in
#: ``log2(n) + log2(p)``.  The overhead expressions are low-degree
#: polynomials (times ``log p``), so their relative margins move at a
#: bounded rate per octave; scaling the threshold with cell size makes
#: coarse cells appropriately paranoid and unit cells cheap.  A 10%
#: margin per octave reproduces the dense grid exactly on all of the
#: paper's machine regimes (pinned by the test-suite) while evaluating
#: only a few percent of a fine grid; raise it for exotic machines
#: where regions might slice a comfortable-looking cell.
DEFAULT_TOL = 0.1


def winner_at_points(
    machine: MachineParams,
    n_points: Sequence[float] | np.ndarray,
    p_points: Sequence[float] | np.ndarray,
    model_keys: tuple[str, ...] = COMPARISON_MODELS,
) -> tuple[np.ndarray, np.ndarray]:
    """Winner index and relative overhead gap at scattered ``(n, p)`` points.

    The winner is the index into *model_keys* of the least-overhead
    applicable model (``len(model_keys)`` is the "nothing applicable"
    sentinel), decided by exactly the rule the dense
    :func:`~repro.core.regions.winner_grid` uses: models are scanned in
    *model_keys* order and only a *strictly* smaller overhead takes the
    lead, so on exact ties the earliest key wins.  The gap is
    ``(second_best - best) / max(|best|, 1)`` — ``inf`` where fewer
    than two models apply — and is what the refinement uses to decide
    whether a cell is comfortably inside one region.
    """
    winner, gap, _, _ = winner_details_at_points(machine, n_points, p_points, model_keys)
    return winner, gap


def winner_details_at_points(
    machine: MachineParams,
    n_points: Sequence[float] | np.ndarray,
    p_points: Sequence[float] | np.ndarray,
    model_keys: tuple[str, ...] = COMPARISON_MODELS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The :func:`winner_at_points` scan, plus runner-up and best overhead.

    Returns ``(winner, gap, runner_up, best_overhead)``.  The first two
    are *the same arrays, from the same floating-point operations*, as
    :func:`winner_at_points` — the runner-up is tracked with pure
    integer bookkeeping layered over the scan, so adding it cannot
    perturb the winner or the gap.  ``runner_up`` is the index of the
    second-best applicable model (``len(model_keys)`` sentinel when
    fewer than two apply), i.e. the other side of the crossover
    neighborhood a serving response reports.  ``best_overhead`` is the
    winning model's ``T_o`` (``inf`` at sentinel points), from which
    ``T_p = (n^3 + T_o)/p`` and ``E = n^3/(n^3 + T_o)`` follow without
    re-evaluating any model.
    """
    n_arr = np.asarray(n_points, dtype=float)
    p_arr = np.asarray(p_points, dtype=float)
    shape = np.broadcast_shapes(n_arr.shape, p_arr.shape)
    sentinel = len(model_keys)
    best_to = np.full(shape, np.inf)
    second_to = np.full(shape, np.inf)
    winner = np.full(shape, sentinel, dtype=np.intp)
    runner_up = np.full(shape, sentinel, dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, key in enumerate(model_keys):
            model = MODELS[key]
            to = np.broadcast_to(model.overhead(n_arr, p_arr, machine), shape)
            ok = np.broadcast_to(model.applicable(n_arr, p_arr), shape)
            cand = np.where(ok, to, np.inf)
            better = cand < best_to
            # integer-only runner-up bookkeeping: a new leader demotes the
            # old one; otherwise a candidate strictly under the current
            # second-best takes the runner-up slot (ties keep the earlier
            # key, mirroring the strict-improvement winner rule)
            displaces = ~better & (cand < second_to)
            runner_up = np.where(better, winner, np.where(displaces, i, runner_up))
            second_to = np.where(better, best_to, np.minimum(second_to, cand))
            winner = np.where(better, i, winner)
            best_to = np.where(better, cand, best_to)
        gap = np.where(
            np.isfinite(second_to),
            (second_to - best_to) / np.maximum(np.abs(best_to), 1.0),
            np.inf,
        )
    return winner, gap, runner_up, best_to


@dataclass(frozen=True)
class RefinedGrid:
    """The result of adaptively refining one winner grid."""

    winners: np.ndarray
    """Full-resolution ``(len(n_values), len(p_values))`` winner indices."""

    evaluated: np.ndarray
    """Boolean mask: ``True`` where the winner was computed exactly
    (bit-identical to the dense grid); ``False`` where a uniform cell
    was filled with its corner winner."""

    max_depth: int
    tol: float

    @property
    def points_evaluated(self) -> int:
        return int(self.evaluated.sum())

    @property
    def points_filled(self) -> int:
        return int(self.evaluated.size - self.evaluated.sum())

    @property
    def evaluated_fraction(self) -> float:
        return self.points_evaluated / self.evaluated.size


def _concat_aranges(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` without the Python loop."""
    total = int(counts.sum())
    out = np.arange(total, dtype=counts.dtype)
    out -= np.repeat(np.cumsum(counts) - counts, counts)
    return out


def _starting_cells(
    n_count: int, p_count: int, stride: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Corner-index arrays ``(i0, i1, j0, j1)`` of the coarse cell tiling."""
    i0 = np.arange(0, max(n_count - 1, 1), stride, dtype=np.intp)
    j0 = np.arange(0, max(p_count - 1, 1), stride, dtype=np.intp)
    i1 = np.minimum(i0 + stride, n_count - 1)
    j1 = np.minimum(j0 + stride, p_count - 1)
    ii0, jj0 = np.meshgrid(i0, j0, indexing="ij")
    ii1, jj1 = np.meshgrid(i1, j1, indexing="ij")
    return ii0.ravel(), ii1.ravel(), jj0.ravel(), jj1.ravel()


def refine_winner_grid(
    machine: MachineParams,
    n_values: Sequence[float],
    p_values: Sequence[float],
    model_keys: tuple[str, ...] = COMPARISON_MODELS,
    *,
    max_depth: int | None = None,
    tol: float = DEFAULT_TOL,
    progress: Callable[[dict[str, int]], None] | None = None,
) -> RefinedGrid:
    """Adaptively evaluate the winner grid over ``n_values x p_values``.

    Equivalent in shape and indexing to
    :func:`~repro.core.regions.winner_grid` but computed sparsely: a
    coarse lattice of cells (stride ``2**max_depth`` in index space) is
    evaluated at its corners, and a cell is subdivided only when its
    corners disagree on the winner or any corner's relative overhead
    gap is below *tol*; otherwise its interior is filled with the
    uniform corner winner without further evaluation.  Subdivision
    bottoms out at single-index cells, whose corners are always
    evaluated exactly.

    ``max_depth=None`` picks the deepest stride that fits the grid.
    ``tol`` trades evaluations for safety against thin regions: ``0``
    refines only on corner disagreement, larger values force
    subdivision near region boundaries.  The gap threshold for a cell
    is ``tol`` times the cell's extent in ``log2(n) + log2(p)``, so
    coarse cells demand a wide margin before being trusted while
    fine-grained cells (tiny log extent) are filled cheaply.  The
    default is tuned so the refined grid reproduces the dense one
    exactly on the paper's Figure 1-3 regimes while evaluating a small
    fraction of the cells.

    *progress*, if given, is called once per refinement level with
    ``{"depth", "cells", "evaluated"}`` — the level number, the number
    of live cells about to be examined, and the running count of
    exactly-evaluated grid points.  It is a pure observer (the serving
    layer streams it as NDJSON lines from ``POST /regions/stream``);
    refinement output is identical with or without it.
    """
    if tol < 0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    n_vals = np.asarray(n_values, dtype=float)
    p_vals = np.asarray(p_values, dtype=float)
    if n_vals.ndim != 1 or p_vals.ndim != 1 or not n_vals.size or not p_vals.size:
        raise ValueError("n_values and p_values must be non-empty 1-D sequences")
    n_count, p_count = n_vals.size, p_vals.size
    span = max(n_count - 1, p_count - 1, 1)
    if max_depth is None:
        max_depth = max(int(span - 1).bit_length() - 1, 0)
    if max_depth < 0:
        raise ValueError(f"max_depth must be non-negative, got {max_depth}")

    winners = np.full((n_count, p_count), -1, dtype=np.intp)
    winners_flat = winners.ravel()
    # gap entries are only ever read at corner indices that were just
    # evaluated, so the array can start uninitialized
    gaps_flat = np.empty(n_count * p_count)
    evaluated = np.zeros((n_count, p_count), dtype=bool)
    evaluated_flat = evaluated.ravel()
    with np.errstate(invalid="ignore", divide="ignore"):
        log_n = np.log2(np.maximum(n_vals, 0.0))
        log_p = np.log2(np.maximum(p_vals, 0.0))
    # uniform-cell fills, recorded as half-open rectangles and painted in
    # one flat difference-array pass at the end instead of per-cell slicing
    fill_rects: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    eval_batches: list[tuple[np.ndarray, np.ndarray]] = []
    # the dedupe scratch is indexed column-major so fresh points come out
    # grouped by p-column, ready for the packed evaluation below
    scratch = np.zeros(n_count * p_count, dtype=bool)

    def evaluate(flat_idx: np.ndarray) -> None:
        """Exactly evaluate the not-yet-evaluated points in *flat_idx*."""
        need = flat_idx[~evaluated_flat[flat_idx]]
        if not need.size:
            return
        ni, nj = np.divmod(need, p_count)
        need_t = nj * n_count + ni
        if need.size * 16 < scratch.size:
            # small batch: sorting it beats scanning the whole scratch mask
            fresh_t = np.unique(need_t)
        else:
            scratch[need_t] = True
            fresh_t = np.flatnonzero(scratch)
            scratch[fresh_t] = False
        jj, ii = np.divmod(fresh_t, n_count)
        rowflat = ii * p_count + jj
        # pack the points into a (columns, max-per-column) rectangle whose
        # rows share a single p value: the models' p-only overhead terms
        # then broadcast from an (U, 1) column instead of being recomputed
        # per point, matching the economics of the dense grid.  Ufuncs are
        # elementwise, so results stay bit-identical to a flat evaluation;
        # ragged rows are padded by repeating the last point.  Fall back to
        # the flat call when padding outweighs the broadcast savings.
        col_starts = np.flatnonzero(np.r_[True, jj[1:] != jj[:-1]])
        counts = np.diff(np.r_[col_starts, jj.size])
        m = int(counts.max())
        if col_starts.size * m <= 2 * fresh_t.size:
            pos = col_starts[:, None] + np.minimum(np.arange(m), counts[:, None] - 1)
            w_rect, g_rect = winner_at_points(
                machine,
                n_vals[ii[pos]],
                p_vals[jj[col_starts]][:, None],
                model_keys,
            )
            valid = np.arange(m) < counts[:, None]
            w, g = w_rect[valid], g_rect[valid]
        else:
            w, g = winner_at_points(machine, n_vals[ii], p_vals[jj], model_keys)
        winners_flat[rowflat] = w
        gaps_flat[rowflat] = g
        evaluated_flat[rowflat] = True
        eval_batches.append((rowflat, w))

    i0, i1, j0, j1 = _starting_cells(n_count, p_count, 1 << max_depth)
    depth = 0
    while i0.size:
        if progress is not None:
            progress(
                {
                    "depth": depth,
                    "cells": int(i0.size),
                    "evaluated": int(evaluated_flat.sum()),
                }
            )
        depth += 1
        f00 = i0 * p_count + j0
        f01 = i0 * p_count + j1
        f10 = i1 * p_count + j0
        f11 = i1 * p_count + j1
        evaluate(np.concatenate([f00, f01, f10, f11]))

        # unit cells are finished once their corners are evaluated; drop
        # them before the gather-heavy bookkeeping (they dominate the
        # finest level, which is also the largest)
        live = (i1 - i0 > 1) | (j1 - j0 > 1)
        if not live.any():
            break
        i0, i1, j0, j1 = i0[live], i1[live], j0[live], j1[live]
        f00, f01, f10, f11 = f00[live], f01[live], f10[live], f11[live]

        w00 = winners_flat[f00]
        agree = (w00 == winners_flat[f01]) & (w00 == winners_flat[f10]) & (
            w00 == winners_flat[f11]
        )
        # threshold scales with the cell's log-extent (margins drift at a
        # bounded rate per octave) but is capped at one octave's worth:
        # past that, the corner-disagreement cascade is the real guard and
        # an uncapped threshold would force splitting every coarse cell
        cell_span = (log_n[i1] - log_n[i0]) + (log_p[j1] - log_p[j0])
        wide = np.minimum.reduce(
            [gaps_flat[f00], gaps_flat[f01], gaps_flat[f10], gaps_flat[f11]]
        ) > tol * np.minimum(cell_span, 1.0)

        fill = agree & wide
        if fill.any():
            # fill [i0, ei) x [j0, ej), extended through the last row and
            # column at the grid edge (no neighbouring cell owns them there)
            ei = np.where(i1[fill] == n_count - 1, n_count, i1[fill])
            ej = np.where(j1[fill] == p_count - 1, p_count, j1[fill])
            fill_rects.append((i0[fill], ei, j0[fill], ej, w00[fill]))

        split = ~fill
        si0, si1, sj0, sj1 = i0[split], i1[split], j0[split], j1[split]
        tall = si1 - si0 > 1
        wide_c = sj1 - sj0 > 1
        mi = np.where(tall, (si0 + si1) // 2, si1)
        mj = np.where(wide_c, (sj0 + sj1) // 2, sj1)
        child_i0 = [si0, si0[wide_c]]
        child_i1 = [mi, mi[wide_c]]
        child_j0 = [sj0, mj[wide_c]]
        child_j1 = [mj, sj1[wide_c]]
        child_i0 += [mi[tall], mi[tall & wide_c]]
        child_i1 += [si1[tall], si1[tall & wide_c]]
        child_j0 += [sj0[tall], mj[tall & wide_c]]
        child_j1 += [mj[tall], sj1[tall & wide_c]]
        i0 = np.concatenate(child_i0)
        i1 = np.concatenate(child_i1)
        j0 = np.concatenate(child_j0)
        j1 = np.concatenate(child_j1)

    if fill_rects:
        # half-open painting makes the fills disjoint (a cell's last row /
        # column is owned by its neighbour, which either paints it or
        # evaluates it); expand each rectangle into per-row flat intervals
        # and recover the paint with a single contiguous prefix sum —
        # evaluated points always take precedence over paint
        ri0 = np.concatenate([r[0] for r in fill_rects])
        rei = np.concatenate([r[1] for r in fill_rects])
        rj0 = np.concatenate([r[2] for r in fill_rects])
        rej = np.concatenate([r[3] for r in fill_rects])
        rval = np.concatenate([r[4] for r in fill_rects]) + 1
        heights = rei - ri0
        rows = np.repeat(ri0, heights)
        rows += _concat_aranges(heights)
        starts = rows * p_count + np.repeat(rj0, heights)
        ends = rows * p_count + np.repeat(rej, heights)
        vals = np.repeat(rval, heights).astype(np.int8)
        # intervals are disjoint, so all starts are distinct and all ends
        # are distinct: plain fancy-indexed += is safe (and much faster
        # than the unbuffered np.add.at)
        diff = np.zeros(n_count * p_count + 1, dtype=np.int8)
        diff[starts] += vals
        diff[ends] -= vals
        painted = np.cumsum(diff[:-1], dtype=np.intp)  # 0 stays "not painted"
        painted -= 1
        # evaluated points take precedence over paint: the borrowed edge
        # rows/columns of a fill rectangle may hold exact evaluations
        for rowflat, w in eval_batches:
            painted[rowflat] = w
        winners = painted.reshape(n_count, p_count)

    # every index is covered by the initial tiling, so nothing stays unknown
    assert (winners >= 0).all()
    return RefinedGrid(winners=winners, evaluated=evaluated, max_depth=max_depth, tol=tol)


def refine_crossover_curve(
    a: AlgorithmModel | str,
    b: AlgorithmModel | str,
    machine: MachineParams,
    *,
    p_lo: float = 4.0,
    p_hi: float = float(2**30),
    n_lo: float = 1.0,
    n_hi: float = 1e15,
    max_depth: int = 6,
    tol: float = 0.05,
    initial_points: int = 9,
) -> list[tuple[float, float | None]]:
    """Adaptively sample the equal-overhead curve ``n_EqualTo(p)``.

    Starts from *initial_points* log-spaced processor counts in
    ``[p_lo, p_hi]`` and recursively bisects (in ``log p``, up to
    *max_depth* times per interval) wherever the curve is interesting:
    the root appears or disappears between the endpoints, or its
    ``log n`` moves by more than *tol* relatively.  Flat stretches stay
    coarse; bends and onsets are sampled densely.

    Every returned ``(p, n_EqualTo(p))`` pair is a direct
    :func:`~repro.core.crossover.equal_overhead_n` evaluation — the
    same computation the dense :func:`~repro.core.crossover.crossover_curve`
    performs per point — so wherever the two sample the same *p* they
    agree exactly.  Points come back sorted by *p*.
    """
    if p_lo <= 0 or p_hi <= p_lo:
        raise ValueError(f"need 0 < p_lo < p_hi, got ({p_lo}, {p_hi})")
    if initial_points < 2:
        raise ValueError(f"initial_points must be >= 2, got {initial_points}")

    roots: dict[float, float | None] = {}

    def root_at(log_p: float) -> float | None:
        p = float(np.exp(log_p))
        if p not in roots:
            roots[p] = equal_overhead_n(a, b, p, machine, n_lo=n_lo, n_hi=n_hi)
        return roots[p]

    def interesting(ra: float | None, rb: float | None) -> bool:
        if (ra is None) != (rb is None):
            return True
        if ra is None or rb is None:
            return False
        la, lb = np.log(ra), np.log(rb)
        return bool(abs(la - lb) > tol * max(abs(la), abs(lb), 1.0))

    xs = np.linspace(np.log(p_lo), np.log(p_hi), initial_points)
    intervals = [(float(xs[k]), float(xs[k + 1]), 0) for k in range(initial_points - 1)]
    for x in xs:
        root_at(float(x))
    while intervals:
        x0, x1, depth = intervals.pop()
        if depth >= max_depth:
            continue
        if not interesting(root_at(x0), root_at(x1)):
            continue
        mid = (x0 + x1) / 2.0
        root_at(mid)
        intervals.append((x0, mid, depth + 1))
        intervals.append((mid, x1, depth + 1))
    return [(p, roots[p]) for p in sorted(roots)]
