"""Tests for the simple (all-to-all broadcast) algorithm (Section 4.1)."""

import math

import numpy as np
import pytest

from conftest import rand_pair
from repro.algorithms.simple import run_simple
from repro.core.machine import MachineParams
from repro.experiments.validation import simple_exact_time
from repro.simulator.topology import Mesh2D

MACHINE = MachineParams(ts=10.0, tw=2.0)


class TestCorrectness:
    @pytest.mark.parametrize("n,p", [(4, 4), (8, 16), (16, 16), (16, 64), (20, 16)])
    def test_product_exact(self, n, p):
        A, B = rand_pair(n, seed=n + p)
        res = run_simple(A, B, p, MACHINE)
        assert np.allclose(res.C, A @ B)

    def test_single_processor(self):
        A, B = rand_pair(6, seed=2)
        res = run_simple(A, B, 1, MACHINE)
        assert np.allclose(res.C, A @ B)

    def test_on_mesh_uses_ring(self):
        A, B = rand_pair(9, seed=2)
        res = run_simple(A, B, 9, MACHINE, topology=Mesh2D(3, 3))
        assert np.allclose(res.C, A @ B)


class TestValidation:
    def test_nonsquare_p(self):
        A, B = rand_pair(8, seed=0)
        with pytest.raises(ValueError):
            run_simple(A, B, 8, MACHINE)

    def test_too_many_procs(self):
        A, B = rand_pair(3, seed=0)
        with pytest.raises(ValueError):
            run_simple(A, B, 16, MACHINE)


class TestTiming:
    @pytest.mark.parametrize("n,p", [(16, 16), (32, 64), (24, 16)])
    def test_matches_exact_equation(self, n, p):
        A, B = rand_pair(n, seed=5)
        res = run_simple(A, B, p, MACHINE)
        assert res.parallel_time == pytest.approx(simple_exact_time(n, p, MACHINE))

    def test_faster_than_cannon_for_large_ts(self):
        # Eq. 2's ts term is 2*ts*log p vs Cannon's 2*ts*sqrt(p)
        from repro.algorithms.cannon import run_cannon

        machine = MachineParams(ts=500.0, tw=1.0)
        A, B = rand_pair(16, seed=5)
        t_simple = run_simple(A, B, 64, machine).parallel_time
        t_cannon = run_cannon(A, B, 64, machine).parallel_time
        assert t_simple < t_cannon


class TestMemoryInefficiency:
    def test_peak_words_scale(self):
        # Section 4.1: per-processor memory is O(n^2/sqrt(p)), total O(n^2 sqrt(p))
        n, p = 16, 16
        A, B = rand_pair(n, seed=5)
        res = run_simple(A, B, p, MACHINE)
        peaks = [peak for _, peak in res.sim.returns]
        side = math.isqrt(p)
        expected = 2 * side * (n * n // p) + n * n // p
        assert all(pk == expected for pk in peaks)
        assert sum(peaks) > 2 * n * n  # strictly more than the operands
