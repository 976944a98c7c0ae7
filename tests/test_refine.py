"""Tests for the adaptive refinement layer (`repro.core.refine`).

The load-bearing property is the exactness contract: every *evaluated*
point of a refined grid is bit-identical to the dense
``winner_grid``, and on the paper's Figure 1-3 machine regimes the
*whole* refined grid (filled cells included) reproduces the dense one.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.machine import FUTURE_MIMD, NCUBE2_LIKE, SIMD_CM2_LIKE, MachineParams
from repro.core.models import COMPARISON_MODELS
from repro.core.crossover import equal_overhead_n
from repro.core.refine import (
    DEFAULT_TOL,
    RefinedGrid,
    refine_crossover_curve,
    refine_winner_grid,
    winner_at_points,
)
from repro.core.regions import region_map, winner_grid

FIGURE_MACHINES = (NCUBE2_LIKE, FUTURE_MIMD, SIMD_CM2_LIKE)

#: The exact lattice `region_map` uses for Figures 1-3.
PAPER_N = tuple(float(2**k) for k in range(0, 17))
PAPER_P = tuple(float(2**k) for k in range(0, 31))


#: The spans perfbench's ``model-maps`` refines, at 2048².
FINE_N = np.geomspace(1.0, 2.0**16, 2048)
FINE_P = np.geomspace(1.0, 2.0**30, 2048)

#: Per Figure 1-3 machine, what a 2048² refinement evaluates: the point
#: count and every ``(depth, cells, evaluated)`` progress event.  Any
#: change to which points are evaluated, or to what the stream reports
#: while they are, shows up here.
FINE_RECORD = {
    NCUBE2_LIKE.name: (110_610, [
        (0, 4, 0), (1, 16, 9), (2, 52, 25), (3, 148, 73), (4, 408, 209),
        (5, 1064, 575), (6, 2760, 1503), (7, 6744, 3893), (8, 15060, 9627),
        (9, 32900, 22542), (10, 71360, 50476),
    ]),
    FUTURE_MIMD.name: (111_092, [
        (0, 4, 0), (1, 16, 9), (2, 52, 25), (3, 172, 73), (4, 520, 222),
        (5, 1380, 664), (6, 3344, 1870), (7, 7448, 4858), (8, 15584, 11469),
        (9, 31664, 25371), (10, 62916, 54037),
    ]),
    SIMD_CM2_LIKE.name: (93_261, [
        (0, 4, 0), (1, 16, 9), (2, 52, 25), (3, 172, 73), (4, 472, 222),
        (5, 1176, 642), (6, 2764, 1691), (7, 6120, 4197), (8, 12684, 9676),
        (9, 26392, 21023), (10, 53398, 44688),
    ]),
}


def dense(machine, n_values, p_values):
    return winner_grid(machine, n_values, p_values, COMPARISON_MODELS)


@pytest.fixture(scope="module", params=FIGURE_MACHINES, ids=lambda m: m.name)
def fine(request):
    """A 2048² refinement of one Figure 1-3 machine, with its progress events."""
    events = []
    ref = refine_winner_grid(request.param, FINE_N, FINE_P, progress=events.append)
    return request.param, ref, events


class TestWinnerAtPoints:
    def test_matches_dense_grid_on_meshgrid(self):
        n = np.asarray(PAPER_N)[:, None]
        p = np.asarray(PAPER_P)[None, :]
        for machine in FIGURE_MACHINES:
            w, gap = winner_at_points(machine, n, p)
            np.testing.assert_array_equal(w, dense(machine, PAPER_N, PAPER_P))
            assert gap.shape == w.shape
            assert (gap >= 0).all()

    def test_infeasible_sentinel_and_infinite_gap(self):
        # p > n^3: nothing applies -> sentinel winner, infinite gap
        w, gap = winner_at_points(NCUBE2_LIKE, [2.0], [1024.0])
        assert w[0] == len(COMPARISON_MODELS)
        assert np.isinf(gap[0])


class TestBitIdentity:
    """The fuzz gate of the acceptance criteria."""

    @pytest.mark.parametrize("machine", FIGURE_MACHINES, ids=lambda m: m.name)
    def test_full_grid_identity_on_paper_lattice(self, machine):
        ref = refine_winner_grid(machine, PAPER_N, PAPER_P)
        np.testing.assert_array_equal(ref.winners, dense(machine, PAPER_N, PAPER_P))

    @pytest.mark.parametrize("machine", FIGURE_MACHINES, ids=lambda m: m.name)
    def test_full_grid_identity_on_fine_grid(self, machine):
        n_values = np.geomspace(1.0, 2.0**16, 97)
        p_values = np.geomspace(1.0, 2.0**30, 161)
        ref = refine_winner_grid(machine, n_values, p_values)
        d = dense(machine, n_values, p_values)
        np.testing.assert_array_equal(ref.winners, d)
        # the point of refinement: most of the grid was never evaluated
        assert ref.evaluated_fraction < 0.6

    @pytest.mark.parametrize("seed", range(12))
    def test_fuzz_random_machines_evaluated_cells_identical(self, seed):
        rng = np.random.default_rng(seed)
        machine = MachineParams(
            ts=float(10.0 ** rng.uniform(-2, 3)),
            tw=float(10.0 ** rng.uniform(-1, 2)),
            name=f"fuzz{seed}",
        )
        n_values = np.geomspace(1.0, 2.0 ** rng.integers(8, 17), rng.integers(20, 70))
        p_values = np.geomspace(1.0, 2.0 ** rng.integers(10, 31), rng.integers(20, 70))
        ref = refine_winner_grid(machine, n_values, p_values)
        d = dense(machine, n_values, p_values)
        np.testing.assert_array_equal(
            ref.winners[ref.evaluated], d[ref.evaluated]
        )
        # filled cells must at least carry a winner some corner computed
        assert (ref.winners >= 0).all()
        assert (ref.winners <= len(COMPARISON_MODELS)).all()

    def test_max_depth_zero_is_fully_dense(self):
        ref = refine_winner_grid(NCUBE2_LIKE, PAPER_N[:9], PAPER_P[:9], max_depth=0)
        assert ref.evaluated.all()
        np.testing.assert_array_equal(
            ref.winners, dense(NCUBE2_LIKE, PAPER_N[:9], PAPER_P[:9])
        )


class TestFineGrid:
    """The resolution perfbench measures, pinned against the dense grid."""

    def test_winners_equal_dense(self, fine):
        machine, ref, _ = fine
        assert ref.winners.dtype == np.intp
        np.testing.assert_array_equal(ref.winners, dense(machine, FINE_N, FINE_P))

    def test_evaluated_points_and_progress_are_pinned(self, fine):
        machine, ref, events = fine
        points, levels = FINE_RECORD[machine.name]
        assert ref.points_evaluated == points
        assert all(set(e) == {"depth", "cells", "evaluated"} for e in events)
        assert [(e["depth"], e["cells"], e["evaluated"]) for e in events] == levels

    def test_peak_memory_is_within_twice_the_result(self, fine):
        machine, _, _ = fine
        tracemalloc.start()
        try:
            ref = refine_winner_grid(machine, FINE_N, FINE_P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (ref.winners.nbytes + ref.evaluated.nbytes)


class TestEdgeShapes:
    """Degenerate and ragged lattices: full cover, exact evaluated cells."""

    @pytest.mark.parametrize(
        "n_count, p_count, max_depth",
        [
            (1, 1, None), (1, 2, None), (2, 1, None), (2, 2, None),
            (1, 97, None), (97, 1, None), (1, 97, 1), (97, 1, 0),
            (3, 1000, None), (1000, 3, None), (33, 17, None), (100, 37, 2),
            (65, 129, 0), (65, 129, 1), (129, 65, 1), (200, 301, None),
        ],
    )
    @pytest.mark.parametrize("machine", FIGURE_MACHINES, ids=lambda m: m.name)
    def test_covered_and_exact(self, machine, n_count, p_count, max_depth):
        n_values = np.geomspace(4.0, 2.0**16, n_count)
        p_values = np.geomspace(1.0, 2.0**30, p_count)
        ref = refine_winner_grid(machine, n_values, p_values, max_depth=max_depth)
        d = dense(machine, n_values, p_values)
        assert ref.winners.shape == ref.evaluated.shape == (n_count, p_count)
        assert ref.winners.dtype == np.intp
        assert ((ref.winners >= 0) & (ref.winners <= len(COMPARISON_MODELS))).all()
        np.testing.assert_array_equal(ref.winners[ref.evaluated], d[ref.evaluated])
        # every grid corner is on the starting lattice
        assert ref.evaluated[0, 0] and ref.evaluated[-1, -1]
        if max_depth == 0:
            assert ref.evaluated.all()

    def test_max_depth_past_the_span_starts_from_one_cell(self):
        n_values = np.geomspace(1.0, 2.0**16, 40)
        p_values = np.geomspace(1.0, 2.0**30, 50)
        deep = refine_winner_grid(NCUBE2_LIKE, n_values, p_values, max_depth=100)
        # 2**6 already spans the 49 index steps
        one = refine_winner_grid(NCUBE2_LIKE, n_values, p_values, max_depth=6)
        assert deep.max_depth == 100
        np.testing.assert_array_equal(deep.winners, one.winners)
        np.testing.assert_array_equal(deep.evaluated, one.evaluated)


class TestTolerance:
    def test_zero_tol_refines_only_on_disagreement(self):
        loose = refine_winner_grid(FUTURE_MIMD, PAPER_N, PAPER_P, tol=0.0)
        strict = refine_winner_grid(FUTURE_MIMD, PAPER_N, PAPER_P, tol=DEFAULT_TOL)
        assert loose.points_evaluated <= strict.points_evaluated
        # evaluated cells stay exact regardless of tol
        d = dense(FUTURE_MIMD, PAPER_N, PAPER_P)
        np.testing.assert_array_equal(loose.winners[loose.evaluated], d[loose.evaluated])

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            refine_winner_grid(NCUBE2_LIKE, PAPER_N, PAPER_P, tol=-0.1)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            refine_winner_grid(NCUBE2_LIKE, [], PAPER_P)

    def test_result_metadata(self):
        ref = refine_winner_grid(NCUBE2_LIKE, PAPER_N, PAPER_P, max_depth=3, tol=0.5)
        assert isinstance(ref, RefinedGrid)
        assert ref.max_depth == 3 and ref.tol == 0.5
        assert ref.points_evaluated + ref.points_filled == ref.evaluated.size
        assert 0 < ref.evaluated_fraction <= 1.0


class TestRegionMapIntegration:
    @pytest.mark.parametrize("machine", FIGURE_MACHINES, ids=lambda m: m.name)
    def test_refined_region_map_matches_dense(self, machine):
        d = region_map(machine, cache=False)
        r = region_map(machine, refine=True, cache=False)
        assert r.cells == d.cells

    def test_refined_and_dense_cached_separately(self):
        d = region_map(NCUBE2_LIKE, log2_p_max=10, log2_n_max=6)
        r = region_map(NCUBE2_LIKE, log2_p_max=10, log2_n_max=6, refine=True)
        assert r is not d  # distinct cache slots
        assert r.cells == d.cells

    def test_figures123_refine_flag(self):
        from repro.experiments import figures123

        a = figures123.run("fig2", p_step=2, n_step=2)
        b = figures123.run("fig2", p_step=2, n_step=2, refine=True)
        assert b.map.cells == a.map.cells


class TestRefineCrossoverCurve:
    def test_points_match_direct_evaluation(self):
        pts = refine_crossover_curve("gk", "cannon", NCUBE2_LIKE, max_depth=3)
        assert pts == sorted(pts)
        for p, n in pts[:: max(len(pts) // 8, 1)]:
            assert n == equal_overhead_n("gk", "cannon", p, NCUBE2_LIKE)

    def test_densifies_near_onset(self):
        # dns-vs-gk has an onset: the curve appears somewhere inside the
        # range, so adaptive sampling must add points beyond the initial 9
        pts = refine_crossover_curve("dns", "gk", SIMD_CM2_LIKE, initial_points=9)
        assert len(pts) > 9

    def test_validation(self):
        with pytest.raises(ValueError):
            refine_crossover_curve("gk", "cannon", NCUBE2_LIKE, p_lo=8.0, p_hi=4.0)
        with pytest.raises(ValueError):
            refine_crossover_curve("gk", "cannon", NCUBE2_LIKE, initial_points=1)
