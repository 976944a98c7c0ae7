"""Tests for the GK algorithm — the paper's contribution (Sections 4.6, 9)."""

import numpy as np
import pytest

from conftest import rand_pair
from repro.algorithms.cannon import run_cannon
from repro.algorithms.gk import gk_cube_side, run_gk, run_gk_cm5
from repro.core.machine import CM5, MachineParams
from repro.core.models import MODELS
from repro.simulator.topology import FullyConnected

MACHINE = MachineParams(ts=10.0, tw=2.0)


class TestCubeSide:
    def test_values(self):
        assert gk_cube_side(1) == 1
        assert gk_cube_side(8) == 2
        assert gk_cube_side(512) == 8

    def test_non_cube_rejected(self):
        with pytest.raises(ValueError):
            gk_cube_side(9)


class TestCorrectness:
    @pytest.mark.parametrize("n,p", [(4, 8), (8, 8), (8, 64), (16, 64), (16, 512), (32, 8)])
    def test_product_exact(self, n, p):
        A, B = rand_pair(n, seed=n + p)
        res = run_gk(A, B, p, MACHINE)
        assert np.allclose(res.C, A @ B)

    def test_uneven_blocks(self):
        A, B = rand_pair(13, seed=4)
        res = run_gk(A, B, 8, MACHINE)
        assert np.allclose(res.C, A @ B)

    def test_single_processor(self):
        A, B = rand_pair(5, seed=1)
        res = run_gk(A, B, 1, MACHINE)
        assert np.allclose(res.C, A @ B)

    def test_full_dns_range(self):
        # unlike DNS (n^2 <= p), GK runs at any p = 2^(3q) <= n^3
        A, B = rand_pair(8, seed=2)
        for p in (1, 8, 64, 512):
            assert np.allclose(run_gk(A, B, p, MACHINE).C, A @ B)

    def test_cm5_variant(self):
        A, B = rand_pair(16, seed=3)
        res = run_gk_cm5(A, B, 64)
        assert np.allclose(res.C, A @ B)
        assert res.machine is CM5

    def test_route_mode_override(self):
        A, B = rand_pair(8, seed=3)
        res = run_gk(A, B, 64, MACHINE, topology=FullyConnected(64), route_mode="relay")
        assert np.allclose(res.C, A @ B)

    def test_cube_side_not_a_power_of_two(self):
        # a fully connected machine takes any cube; ranks are (i*r + j)*r + k
        A, B = rand_pair(9, seed=5)
        res = run_gk(A, B, 27, MACHINE, topology=FullyConnected(27))
        heap = run_gk(A, B, 27, MACHINE, topology=FullyConnected(27), scheduler="heap")
        assert res.sim.compiled, res.sim.compile_fallback
        assert res.parallel_time == heap.parallel_time
        assert np.array_equal(res.C, heap.C)
        assert np.allclose(res.C, A @ B)


class TestValidation:
    def test_non_cube_p(self):
        A, B = rand_pair(8, seed=0)
        with pytest.raises(ValueError):
            run_gk(A, B, 16, MACHINE)

    def test_p_above_n_cubed(self):
        A, B = rand_pair(2, seed=0)  # n^3 = 8 < 64
        with pytest.raises(ValueError):
            run_gk(A, B, 64, MACHINE)


class TestTiming:
    @pytest.mark.parametrize("n,p", [(16, 8), (16, 64), (32, 64)])
    def test_at_or_below_eq7(self, n, p):
        # Eq. 7 sums the phases sequentially; the simulator lets phases of
        # different ranks overlap, so it can only come in at or under it.
        A, B = rand_pair(n, seed=5)
        res = run_gk(A, B, p, MACHINE)
        model = MODELS["gk"].time(n, p, MACHINE)
        assert res.parallel_time <= model * 1.02
        assert res.parallel_time >= 0.6 * model

    def test_cm5_at_or_below_eq18(self):
        n, p = 32, 64
        A, B = rand_pair(n, seed=5)
        res = run_gk_cm5(A, B, p)
        model = MODELS["gk-cm5"].time(n, p, CM5)
        assert res.parallel_time <= model * 1.02
        assert res.parallel_time >= 0.6 * model

    def test_direct_routing_beats_relay(self):
        # the CM-5's one-hop routing saves the relay steps of Eq. 7
        n, p = 16, 64
        A, B = rand_pair(n, seed=6)
        topo = FullyConnected(p)
        t_relay = run_gk(A, B, p, MACHINE, topology=topo, route_mode="relay").parallel_time
        t_direct = run_gk(A, B, p, MACHINE, topology=topo, route_mode="direct").parallel_time
        assert t_direct < t_relay


class TestPaperComparison:
    def test_gk_beats_cannon_small_n(self):
        # Figure 4 regime: below the crossover GK wins, above it Cannon wins
        p = 64
        A, B = rand_pair(32, seed=7)
        e_gk = run_gk_cm5(A, B, p).efficiency
        e_cn = run_cannon(A, B, p, CM5, topology=FullyConnected(p)).efficiency
        assert e_gk > e_cn

    def test_cannon_beats_gk_large_n(self):
        p = 64
        A, B = rand_pair(160, seed=8)
        e_gk = run_gk_cm5(A, B, p).efficiency
        e_cn = run_cannon(A, B, p, CM5, topology=FullyConnected(p)).efficiency
        assert e_cn > e_gk
