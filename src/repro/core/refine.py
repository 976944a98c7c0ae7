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


def _split(
    ext: np.ndarray,
    win: np.ndarray,
    gap: np.ndarray,
    evaluated_flat: np.ndarray,
    p_count: int,
    evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray, np.ndarray, np.ndarray]:
    """Halve cells, evaluating each point their children add once.

    *ext*, *win* and *gap* hold one column per cell: its extents
    ``(i0, i1, j0, j1)`` and the winners and gaps at its corners
    ``(i0, j0), (i0, j1), (i1, j0), (i1, j1)``.  A cell splits at each
    midline whose extent exceeds one.  Its 3x3 lattice, row-major, is
    near end, midline and far end each way (a midline that cannot split
    is the far end); its new points are the near-edge midpoints and the
    centre, which no other cell has, then the far-edge midpoints, which
    a neighbour splitting beside it has as near-edge ones.  Returns the
    new points' flat indices and winners, the number of children, and
    the columns of the children that are not unit cells.
    """
    k = ext.shape[1]
    tall, broad = ext[1] - ext[0] > 1, ext[3] - ext[2] > 1
    lines_i = np.stack([ext[0], np.where(tall, (ext[0] + ext[1]) // 2, ext[1]), ext[1]])
    lines_j = np.stack([ext[2], np.where(broad, (ext[2] + ext[3]) // 2, ext[3]), ext[3]])
    owners = [np.flatnonzero(m) for m in (broad, tall, tall & broad, broad, tall)]
    cell = np.concatenate(owners)
    slot = np.repeat([1, 3, 4, 7, 5], [o.size for o in owners])
    flat = lines_i[slot // 3, cell] * p_count + lines_j[slot % 3, cell]
    near = owners[0].size + owners[1].size + owners[2].size
    evaluated_flat[flat[:near]] = True
    shared = np.flatnonzero(evaluated_flat[flat[near:]]) + near
    evaluated_flat[flat[near:]] = True
    fresh = np.ones(flat.size, dtype=bool)
    fresh[shared] = False
    todo = flat[fresh]
    w, g = evaluate(todo)

    # the near quarter of every cell, then the far column half of the
    # broad ones, the far row half of the tall ones and the far quarter
    # of the ones that are both; unit cells are finished where they stand
    quads = (np.arange(k), owners[0], owners[1], owners[2])
    child = np.concatenate(quads)
    origin = np.repeat([0, 1, 3, 4], [q.size for q in quads])
    a, b = origin // 3, origin % 3
    child_ext = np.stack(
        [lines_i[a, child], lines_i[a + 1, child], lines_j[b, child], lines_j[b + 1, child]]
    )
    keep = (child_ext[1] - child_ext[0] > 1) | (child_ext[3] - child_ext[2] > 1)
    if not keep.any():
        return todo, w, child.size, child_ext[:, keep], win[:, :0], gap[:, :0]
    new_win = np.empty(flat.size, dtype=w.dtype)
    new_gap = np.empty(flat.size)
    new_win[fresh], new_gap[fresh] = w, g
    if shared.size:
        # a shared midpoint takes the values of the near one it repeats
        # (looked up in index order, which keeps the binary searches local)
        by_flat = np.argsort(flat[:near])
        shared = shared[np.argsort(flat[shared])]
        source = by_flat[np.searchsorted(flat[:near][by_flat], flat[shared])]
        new_win[shared], new_gap[shared] = new_win[source], new_gap[source]
    win9 = np.empty((9, k), dtype=w.dtype)
    gap9 = np.empty((9, k))
    for arr, corners, new in ((win9, win, new_win), (gap9, gap, new_gap)):
        arr[[0, 2, 6, 8]] = corners
        arr[slot, cell] = new
        arr[3:6, ~tall] = arr[6:9, ~tall]
        arr[1::3, ~broad] = arr[2::3, ~broad]
    # a child's corners in its parent's lattice, from its near corner's slot
    take = (origin[keep] + np.array([[0], [1], [3], [4]])) * k + child[keep]
    return todo, w, child.size, child_ext[:, keep], win9.ravel()[take], gap9.ravel()[take]


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
    evaluated exactly.  Cells carry their corners' winners and gaps, so
    a split evaluates only the points its children add, each once, and
    nothing grid-sized but the ``evaluated`` mask is touched before the
    one final paint.

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
    of cells about to be examined, and the count of grid points exactly
    evaluated for the levels before it.  It is a pure observer (the
    serving layer streams it as NDJSON lines from
    ``POST /regions/stream``); refinement output is identical with or
    without it.
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
    with np.errstate(invalid="ignore", divide="ignore"):
        log_n = np.log2(np.maximum(n_vals, 0.0))
        log_p = np.log2(np.maximum(p_vals, 0.0))

    def evaluate(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return winner_at_points(machine, n_vals[flat // p_count], p_vals[flat % p_count], model_keys)

    # the starting lattice: every stride-th index and the last, each way
    # (any stride past the span makes one cell), evaluated as one
    # broadcast rectangle like the dense grid
    stride = 1 << min(max_depth, span.bit_length())
    rows = np.minimum(np.arange(0, n_count - 1 + stride, stride), n_count - 1)
    cols = np.minimum(np.arange(0, p_count - 1 + stride, stride), p_count - 1)
    w_lat, g_lat = winner_at_points(
        machine, n_vals[rows][:, None], p_vals[cols][None, :], model_keys
    )
    evaluated = np.zeros((n_count, p_count), dtype=bool)
    evaluated[np.ix_(rows, cols)] = True
    evaluated_flat = evaluated.ravel()
    eval_flat, eval_win = [(rows[:, None] * p_count + cols).ravel()], [w_lat.ravel()]

    # one column per cell (see _split) between neighbouring lattice lines;
    # unit cells are counted, then dropped as finished
    ri, ci = (np.arange(max(lines.size - 1, 1)) for lines in (rows, cols))
    ri, ci = np.repeat(ri, ci.size), np.tile(ci, ri.size)
    ri = np.stack([ri, ri, ri + 1, ri + 1]).clip(max=rows.size - 1)
    ci = np.stack([ci, ci + 1, ci, ci + 1]).clip(max=cols.size - 1)
    ext = np.stack([rows[ri[0]], rows[ri[2]], cols[ci[0]], cols[ci[1]]])
    win, gap = w_lat[ri, ci], g_lat[ri, ci]
    cells = ext.shape[1]
    live = (ext[1] - ext[0] > 1) | (ext[3] - ext[2] > 1)
    ext, win, gap = ext[:, live], win[:, live], gap[:, live]
    fill_ext, fill_win = [ext[:, :0]], [win[0, :0]]
    evaluated_before, evaluated_now, depth = 0, w_lat.size, 0
    while cells:
        if progress is not None:
            progress({"depth": depth, "cells": cells, "evaluated": evaluated_before})
        evaluated_before += evaluated_now
        depth += 1
        # threshold scales with the cell's log-extent (margins drift at a
        # bounded rate per octave) but is capped at one octave's worth:
        # past that, the corner-disagreement cascade is the real guard and
        # an uncapped threshold would force splitting every coarse cell
        cell_span = (log_n[ext[1]] - log_n[ext[0]]) + (log_p[ext[3]] - log_p[ext[2]])
        fill = (win == win[0]).all(axis=0)
        fill &= gap.min(axis=0) > tol * np.minimum(cell_span, 1.0)
        fill_ext.append(ext[:, fill])
        fill_win.append(win[0, fill])
        if fill.all():
            break
        todo, w, cells, ext, win, gap = _split(
            ext[:, ~fill], win[:, ~fill], gap[:, ~fill], evaluated_flat, p_count, evaluate
        )
        eval_flat.append(todo)
        eval_win.append(w)
        evaluated_now = todo.size

    # fill [i0, i1) x [j0, j1), extended through the last row and column at
    # the grid edge (no neighbouring cell owns them there); half-open
    # painting makes the fills disjoint (a cell's last row / column is
    # owned by its neighbour, which either paints it or evaluates it), so
    # their rows are disjoint runs of the flat grid
    top, bottom, left, right = np.concatenate(fill_ext, axis=1)
    bottom = np.where(bottom == n_count - 1, n_count, bottom)
    right = np.where(right == p_count - 1, p_count, right)
    heights = bottom - top
    row = np.arange(heights.sum()) - np.repeat(np.cumsum(heights) - heights - top, heights)
    starts = row * p_count + np.repeat(left, heights)
    ends = starts + np.repeat(right - left, heights)
    # disjoint runs sort into the same order by start as by end, so the
    # two sort apart; each run's winner rides in the low bits of its start
    bits = len(model_keys).bit_length()
    keyed = np.sort((starts << bits) | np.repeat(np.concatenate(fill_win), heights))
    starts = keyed >> bits
    ends.sort()
    # the grid as alternating gap and fill runs, painted once; gaps hold
    # -1 until the evaluated points are written over the paint (a fill's
    # edges may hold exact evaluations that differ from its winner)
    runs = np.empty(2 * ends.size + 1, dtype=np.intp)
    runs[0::2] = np.append(starts, n_count * p_count) - np.insert(ends, 0, 0)
    runs[1::2] = ends - starts
    values = np.full(runs.size, -1, dtype=np.intp)
    values[1::2] = keyed & ((1 << bits) - 1)
    winners = np.repeat(values, runs)
    at = np.concatenate(eval_flat)
    # every index is covered by the initial tiling, so nothing stays unknown
    assert np.count_nonzero(winners[at] < 0) == runs[0::2].sum()
    winners[at] = np.concatenate(eval_win)
    return RefinedGrid(
        winners=winners.reshape(n_count, p_count), evaluated=evaluated, max_depth=max_depth, tol=tol
    )


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
