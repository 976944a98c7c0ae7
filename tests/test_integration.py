"""Cross-module integration tests: algorithms x topologies x sizes."""

import numpy as np
import pytest

from conftest import rand_pair
from repro.algorithms import registry
from repro.algorithms.cannon import run_cannon
from repro.algorithms.gk import run_gk
from repro.algorithms.simple import run_simple
from repro.core.machine import CM5, MachineParams, NCUBE2_LIKE
from repro.simulator.engine import Engine
from repro.simulator.topology import FullyConnected, Hypercube, Mesh2D

M = MachineParams(ts=25.0, tw=1.5)


class TestAlgorithmMatrix:
    """Every algorithm, across a grid of feasible instances."""

    CASES = [
        ("simple", 8, 4), ("simple", 16, 16), ("simple", 25, 16), ("simple", 16, 64),
        ("cannon", 8, 4), ("cannon", 16, 16), ("cannon", 25, 16), ("cannon", 16, 64),
        ("fox", 8, 4), ("fox", 16, 16), ("fox", 25, 16),
        ("berntsen", 8, 8), ("berntsen", 16, 8), ("berntsen", 16, 64), ("berntsen", 32, 64),
        ("gk", 8, 8), ("gk", 16, 8), ("gk", 16, 64), ("gk", 9, 8), ("gk", 8, 512),
        ("dns", 4, 32), ("dns", 4, 64), ("dns", 8, 128),
    ]

    @pytest.mark.parametrize("key,n,p", CASES)
    def test_product_and_accounting(self, key, n, p):
        assert registry.get(key).feasible(n, p), (key, n, p)
        A, B = rand_pair(n, seed=hash((key, n, p)) % 2**31)
        res = registry.run(key, A, B, p, M)
        assert np.allclose(res.C, A @ B)
        assert res.parallel_time > 0
        # overhead identity: p*Tp - W == total non-useful time
        non_useful = sum(res.parallel_time - s.compute_time for s in res.sim.stats)
        extra = res.sim.total_compute_time - res.work
        assert res.total_overhead == pytest.approx(non_useful + extra, abs=1e-6)
        assert 0 < res.efficiency <= 1.0 + 1e-9


class TestTopologyMatrix:
    def test_cannon_same_on_mesh_and_hypercube(self):
        """Section 4.4: 'Cannon's algorithm's performance is the same on
        both mesh and hypercube architectures' (nearest-neighbor only)."""
        A, B = rand_pair(16, seed=3)
        t_hc = run_cannon(A, B, 16, M, topology=Hypercube(4)).parallel_time
        t_mesh = run_cannon(A, B, 16, M, topology=Mesh2D(4, 4)).parallel_time
        assert t_hc == t_mesh

    def test_cannon_fully_connected_matches_hypercube(self):
        A, B = rand_pair(16, seed=3)
        t_hc = run_cannon(A, B, 16, M).parallel_time
        t_fc = run_cannon(A, B, 16, M, topology=FullyConnected(16)).parallel_time
        assert t_hc == t_fc  # all rolls single-hop either way (ct, th=0)

    def test_simple_on_three_topologies(self):
        A, B = rand_pair(16, seed=4)
        for topo in (Hypercube(4), Mesh2D(4, 4), FullyConnected(16)):
            res = run_simple(A, B, 16, M, topology=topo)
            assert np.allclose(res.C, A @ B)

    def test_gk_relay_vs_direct_only_affects_time(self):
        A, B = rand_pair(16, seed=5)
        topo = FullyConnected(64)
        r1 = run_gk(A, B, 64, M, topology=topo, route_mode="relay")
        r2 = run_gk(A, B, 64, M, topology=topo, route_mode="direct")
        assert np.allclose(r1.C, r2.C)
        assert r1.parallel_time != r2.parallel_time

    def test_per_hop_latency_slows_multi_hop_algorithms(self):
        # th > 0 penalizes GK's relays but not Cannon's single-hop rolls
        A, B = rand_pair(16, seed=6)
        m_hop = M.with_(th=5.0)
        t_cannon = run_cannon(A, B, 16, M).parallel_time
        t_cannon_hop = run_cannon(A, B, 16, m_hop).parallel_time
        assert t_cannon_hop == pytest.approx(t_cannon + 2 * 3 * 5.0)  # 1 hop per roll


class TestEndToEnd:
    def test_figure4_point_end_to_end(self):
        """One full Figure 4 point: simulate both algorithms on the CM-5
        model, verify products, and check the efficiency ordering the
        paper reports for n < crossover."""
        A, B = rand_pair(48, seed=7)
        from repro.algorithms.gk import run_gk_cm5

        gk = run_gk_cm5(A, B, 64)
        cn = run_cannon(A, B, 64, CM5, topology=FullyConnected(64))
        assert np.allclose(gk.C, A @ B) and np.allclose(cn.C, A @ B)
        assert gk.efficiency > cn.efficiency  # n=48 < 83

    def test_selector_to_simulation_roundtrip(self):
        from repro.core.selector import select_and_run

        for n, p in ((32, 16), (96, 64)):
            A, B = rand_pair(n, seed=n)
            selection, result = select_and_run(A, B, p, NCUBE2_LIKE)
            assert np.allclose(result.C, A @ B)
            # prediction and simulation agree to the phase-overlap band
            assert result.parallel_time <= selection.predicted_time * 1.1

    def test_experiments_cli_smoke(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        out = tmp_path / "report.txt"
        assert main(["sec8", "--out", str(out)]) == 0
        text = out.read_text()
        assert "31.6" in text

    def test_contention_mode_preserves_results(self):
        """Link contention may change timing but never numerics."""
        from repro.algorithms.base import grid_array
        from repro.algorithms.cannon import cannon_program
        from repro.blockops.partition import BlockSpec

        A, B = rand_pair(16, seed=8)
        side = 4
        topo = Hypercube(4)
        layout = grid_array(topo, side, side, scheme="gray").tolist()
        spec = BlockSpec(16, 16, side, side)
        ab, bb = spec.scatter(A), spec.scatter(B)
        factories = [None] * 16
        for i in range(side):
            for j in range(side):
                factories[layout[i][j]] = cannon_program(
                    i, j, ab[i][(i + j) % side], bb[(i + j) % side][j],
                    [layout[i][c] for c in range(side)],
                    [layout[r][j] for r in range(side)],
                )
        res = Engine(topo, M, link_contention=True).run(factories)
        C = spec.gather([[res.returns[r] for r in row] for row in layout])
        assert np.allclose(C, A @ B)
