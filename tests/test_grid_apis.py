"""Model methods on arrays must agree exactly with the same methods on scalars.

``time``/``overhead``/``applicable``/... are array-polymorphic: the region
analysis (``winner_grid``) calls them on whole ``(n, p)`` grids, so the
comparison is for exact equality, not approximate: an array path that
drifted from the scalar one would silently relabel region-map cells.
"""

import numpy as np
import pytest

from repro.core.machine import FUTURE_MIMD, NCUBE2_LIKE, SIMD_CM2_LIKE, MachineParams
from repro.core.models import COMPARISON_MODELS, MODELS
from repro.core.regions import best_algorithm, region_map, winner_grid

MACHINES = (NCUBE2_LIKE, FUTURE_MIMD, SIMD_CM2_LIKE, MachineParams(ts=7.5, tw=0.25))
N_SAMPLES = (2.0, 8.0, 64.0, 513.0, 4096.0, 1e6)
P_SAMPLES = (1.0, 4.0, 64.0, 1000.0, 2**20, 1e9)


@pytest.mark.parametrize("key", sorted(MODELS))
@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
class TestArrayScalarEquality:
    def test_time_on_arrays_matches_scalar(self, key, machine):
        model = MODELS[key]
        grid = model.time(
            np.asarray(N_SAMPLES)[:, None], np.asarray(P_SAMPLES)[None, :], machine
        )
        grid = np.broadcast_to(grid, (len(N_SAMPLES), len(P_SAMPLES)))
        for i, n in enumerate(N_SAMPLES):
            for j, p in enumerate(P_SAMPLES):
                assert grid[i, j] == model.time(n, p, machine), (key, n, p)

    def test_overhead_on_arrays_matches_scalar(self, key, machine):
        model = MODELS[key]
        grid = model.overhead(
            np.asarray(N_SAMPLES)[:, None], np.asarray(P_SAMPLES)[None, :], machine
        )
        grid = np.broadcast_to(grid, (len(N_SAMPLES), len(P_SAMPLES)))
        for i, n in enumerate(N_SAMPLES):
            for j, p in enumerate(P_SAMPLES):
                assert grid[i, j] == model.overhead(n, p, machine), (key, n, p)

    def test_applicable_on_arrays_matches_scalar(self, key, machine):
        model = MODELS[key]
        grid = np.broadcast_to(
            model.applicable(np.asarray(N_SAMPLES)[:, None], np.asarray(P_SAMPLES)[None, :]),
            (len(N_SAMPLES), len(P_SAMPLES)),
        )
        for i, n in enumerate(N_SAMPLES):
            for j, p in enumerate(P_SAMPLES):
                assert bool(grid[i, j]) == model.applicable(n, p), (key, n, p)


class TestArrayDerivedMetrics:
    def test_efficiency_and_speedup_on_arrays(self):
        model = MODELS["cannon"]
        machine = NCUBE2_LIKE
        ns = np.asarray([16.0, 64.0, 256.0])
        ps = np.asarray([4.0, 16.0, 64.0])
        eff = model.efficiency(ns[:, None], ps[None, :], machine)
        spd = model.speedup(ns[:, None], ps[None, :], machine)
        for i, n in enumerate(ns):
            for j, p in enumerate(ps):
                assert eff[i, j] == model.efficiency(n, p, machine)
                assert spd[i, j] == model.speedup(n, p, machine)

    def test_scalar_entry_points_still_scalar(self):
        model = MODELS["gk"]
        assert isinstance(model.time(64, 64, NCUBE2_LIKE), float)
        assert isinstance(model.overhead(64, 64, NCUBE2_LIKE), float)

    def test_arrays_reject_nonpositive(self):
        with pytest.raises(ValueError):
            MODELS["cannon"].time(np.asarray([4.0, 0.0]), 4.0, NCUBE2_LIKE)


@pytest.mark.parametrize("machine", MACHINES[:3], ids=lambda m: m.name)
class TestWinnerGrid:
    def test_matches_best_algorithm_cell_for_cell(self, machine):
        n_values = tuple(float(2**k) for k in range(0, 17, 2))
        p_values = tuple(float(2**k) for k in range(0, 31, 2))
        winners = winner_grid(machine, n_values, p_values)
        labels = tuple(COMPARISON_MODELS) + ("x",)
        for i, n in enumerate(n_values):
            for j, p in enumerate(p_values):
                assert labels[winners[i, j]] == best_algorithm(n, p, machine), (n, p)

    def test_region_map_uses_winner_grid(self, machine):
        rmap = region_map(machine, log2_p_max=12, log2_n_max=8, cache=False)
        for i, n in enumerate(rmap.n_values):
            for j, p in enumerate(rmap.p_values):
                assert rmap.cells[i][j] == best_algorithm(n, p, machine)


class TestRegionMapCache:
    def test_cached_instance_reused(self):
        from repro.core.cache import result_cache

        result_cache().clear()
        m1 = region_map(NCUBE2_LIKE, log2_p_max=10, log2_n_max=6)
        m2 = region_map(NCUBE2_LIKE, log2_p_max=10, log2_n_max=6)
        assert m2 is m1
        # a different grid or machine is a different entry
        m3 = region_map(NCUBE2_LIKE, log2_p_max=10, log2_n_max=7)
        assert m3 is not m1
        m4 = region_map(FUTURE_MIMD, log2_p_max=10, log2_n_max=6)
        assert m4 is not m1

    def test_cache_false_bypasses(self):
        m1 = region_map(NCUBE2_LIKE, log2_p_max=10, log2_n_max=6)
        m2 = region_map(NCUBE2_LIKE, log2_p_max=10, log2_n_max=6, cache=False)
        assert m2 is not m1
        assert m2 == m1
