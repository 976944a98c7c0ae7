"""Tests for link routing and contention modeling."""

import numpy as np
import pytest

from conftest import rand_pair
from repro.core.machine import MachineParams
from repro.simulator.engine import Engine
from repro.simulator.network import LinkReservations, route_path
from repro.simulator.request import Recv, Send
from repro.simulator.topology import FullyConnected, Hypercube, Mesh2D

M = MachineParams(ts=10.0, tw=2.0)


class TestRoutePath:
    def test_hypercube_dimension_order(self):
        # 000 -> 011: correct bit 0 first, then bit 1
        assert route_path(Hypercube(3), 0b000, 0b011) == [0b000, 0b001, 0b011]

    def test_hypercube_same_node(self):
        assert route_path(Hypercube(3), 5, 5) == [5]

    def test_mesh_xy_routing(self):
        m = Mesh2D(4, 4, wraparound=False)
        path = route_path(m, m.rank(0, 0), m.rank(2, 2))
        assert path[0] == m.rank(0, 0) and path[-1] == m.rank(2, 2)
        # column-first then row (X-Y): second hop still in row 0
        assert path[1] == m.rank(0, 1)
        assert len(path) == 5  # 4 hops

    def test_mesh_wraparound_shortcut(self):
        m = Mesh2D(4, 4, wraparound=True)
        path = route_path(m, m.rank(0, 0), m.rank(0, 3))
        assert len(path) == 2  # one wraparound hop

    def test_fully_connected(self):
        assert route_path(FullyConnected(8), 2, 5) == [2, 5]

    def test_path_is_valid_walk(self):
        topo = Hypercube(4)
        for src, dst in ((0, 15), (3, 12), (7, 8)):
            path = route_path(topo, src, dst)
            assert len(path) == topo.distance(src, dst) + 1
            for a, b in zip(path, path[1:]):
                assert topo.distance(a, b) == 1


class TestLinkReservations:
    def test_free_link_starts_immediately(self):
        res = LinkReservations()
        assert res.earliest_start([(0, 1)], 5.0, 10.0) == 5.0

    def test_conflicting_reservation_serializes(self):
        res = LinkReservations()
        res.reserve([(0, 1)], 0.0, 10.0)
        assert res.earliest_start([(0, 1)], 0.0, 5.0) == 10.0

    def test_gap_filling(self):
        res = LinkReservations()
        res.reserve([(0, 1)], 0.0, 10.0)
        res.reserve([(0, 1)], 30.0, 10.0)
        assert res.earliest_start([(0, 1)], 0.0, 15.0) == 10.0  # fits the gap
        assert res.earliest_start([(0, 1)], 0.0, 25.0) == 40.0  # does not

    def test_multi_link_must_clear_all(self):
        res = LinkReservations()
        res.reserve([(0, 1)], 0.0, 10.0)
        res.reserve([(1, 2)], 15.0, 10.0)
        # needs both (0,1) and (1,2) free simultaneously for 6 units
        assert res.earliest_start([(0, 1), (1, 2)], 0.0, 6.0) == 25.0

    def test_directed_links_independent(self):
        res = LinkReservations()
        res.reserve([(0, 1)], 0.0, 10.0)
        assert res.earliest_start([(1, 0)], 0.0, 10.0) == 0.0

    def test_busy_time(self):
        res = LinkReservations()
        res.reserve([(0, 1)], 0.0, 10.0)
        res.reserve([(0, 1)], 20.0, 5.0)
        assert res.busy_time((0, 1)) == 15.0
        assert res.links_used == 1

    def test_zero_duration(self):
        res = LinkReservations()
        assert res.earliest_start([(0, 1)], 3.0, 0.0) == 3.0
        res.reserve([(0, 1)], 3.0, 0.0)
        assert res.links_used == 0


class TestEngineContention:
    def test_shared_link_serializes(self):
        # ranks 1 and 2 both route through link (0 -> ...)? use a path
        # collision: on a 4-node hypercube, 0->3 and 1->3 share link (1,3)
        def make_sender(src, dst):
            def prog(info):
                if info.rank == src:
                    yield Send(dst=dst, data=0, nwords=10)
                elif info.rank == dst:
                    yield Recv(src=src, tag=0)

            return prog

        def combined(info):
            # rank 0 sends to 3 (route 0->1->3), rank 1 sends to 3 (route 1->3)
            if info.rank == 0:
                yield Send(dst=3, data="a", nwords=10)
            elif info.rank == 1:
                yield Send(dst=3, data="b", nwords=10)
            elif info.rank == 3:
                yield Recv(src=0)
                yield Recv(src=1)

        free = Engine(Hypercube(2), M).run(combined)
        congested = Engine(Hypercube(2), M, link_contention=True).run(combined)
        assert congested.parallel_time > free.parallel_time

    def test_disjoint_paths_unaffected(self):
        def prog(info):
            if info.rank == 0:
                yield Send(dst=1, data=0, nwords=10)
            elif info.rank == 1:
                yield Recv(src=0)
            elif info.rank == 2:
                yield Send(dst=3, data=0, nwords=10)
            elif info.rank == 3:
                yield Recv(src=2)

        free = Engine(Hypercube(2), M).run(prog)
        congested = Engine(Hypercube(2), M, link_contention=True).run(prog)
        assert congested.parallel_time == free.parallel_time


class TestPaperAssumptionHolds:
    """The paper's conflict-free claims, verified under contention modeling."""

    def test_cannon_rolls_are_contention_free(self):
        # Gray-embedded ring rolls use disjoint single links: identical
        # times with and without link contention
        from repro.algorithms.cannon import run_cannon

        A, B = rand_pair(16, seed=1)
        topo1, topo2 = Hypercube(4), Hypercube(4)
        t_free = run_cannon(A, B, 16, M, topology=topo1).parallel_time
        eng = Engine(Hypercube(4), M, link_contention=True)
        # rebuild the same factories through the driver by monkey-free path:
        # simply rerun with a contention engine via the driver's topology
        from repro.algorithms import cannon as cannon_mod

        # driver does not expose the engine; emulate by running its program
        # set under a contending engine
        import numpy as np

        from repro.blockops.partition import BlockSpec
        from repro.algorithms.base import grid_array

        side = 4
        layout = grid_array(topo2, side, side, scheme="gray").tolist()
        spec = BlockSpec(16, 16, side, side)
        a_blocks = spec.scatter(A)
        b_blocks = spec.scatter(B)
        factories = [None] * 16
        for i in range(side):
            for j in range(side):
                factories[layout[i][j]] = cannon_mod.cannon_program(
                    i,
                    j,
                    a_blocks[i][(i + j) % side],
                    b_blocks[(i + j) % side][j],
                    [layout[i][c] for c in range(side)],
                    [layout[r][j] for r in range(side)],
                )
        res = eng.run(factories)
        assert res.parallel_time == t_free

    def test_recursive_doubling_contention_free_on_subcube(self):
        from repro.simulator.collectives import allgather_recursive_doubling

        group = list(range(8))

        def factory(info):
            def body():
                out = yield from allgather_recursive_doubling(
                    info, group, np.zeros(16)
                )
                return len(out)

            return body()

        t_free = Engine(Hypercube(3), M).run(factory).parallel_time
        t_cont = Engine(Hypercube(3), M, link_contention=True).run(factory).parallel_time
        assert t_cont == t_free
