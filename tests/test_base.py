"""Tests for the shared algorithm infrastructure (layouts, routing, result)."""

import numpy as np
import pytest

from conftest import rand_pair
from repro.algorithms.base import (
    MatmulResult,
    check_same_shape,
    cube_layout_3d,
    cube_route,
    default_topology,
    grid_groups,
    grid_layout,
    matmul_cost,
    serial_work,
)
from repro.core.machine import MachineParams
from repro.simulator.engine import run_spmd
from repro.simulator.topology import FullyConnected, Hypercube, Mesh2D, gray_code

M = MachineParams(ts=10.0, tw=2.0)


class TestCosts:
    def test_matmul_cost(self):
        assert matmul_cost(2, 3, 4) == 24.0

    def test_serial_work_square(self):
        assert serial_work(8) == 512.0


class TestCheckShape:
    def test_ok(self, rng):
        assert check_same_shape(rng.standard_normal((5, 5)), rng.standard_normal((5, 5))) == 5

    def test_rejects_rectangular(self, rng):
        with pytest.raises(ValueError):
            check_same_shape(rng.standard_normal((5, 4)), rng.standard_normal((4, 5)))

    def test_rejects_mismatch(self, rng):
        with pytest.raises(ValueError):
            check_same_shape(rng.standard_normal((5, 5)), rng.standard_normal((4, 4)))


class TestDefaultTopology:
    def test_hypercube(self):
        t = default_topology(16)
        assert isinstance(t, Hypercube) and t.size == 16

    def test_fully_connected(self):
        t = default_topology(10, "fully-connected")
        assert isinstance(t, FullyConnected) and t.size == 10

    def test_unknown(self):
        with pytest.raises(ValueError):
            default_topology(4, "torus9d")


class TestGridLayout:
    def test_binary_rows_are_subcubes(self):
        topo = Hypercube(4)
        layout = grid_layout(topo, 4, 4, scheme="binary")
        # each row's ranks differ only in the low 2 bits
        for row in layout:
            base = row[0] & ~0b11
            assert all(r & ~0b11 == base for r in row)

    def test_gray_ring_neighbors_one_hop(self):
        topo = Hypercube(4)
        layout = grid_layout(topo, 4, 4, scheme="gray")
        for i in range(4):
            for j in range(4):
                assert topo.distance(layout[i][j], layout[i][(j + 1) % 4]) == 1
                assert topo.distance(layout[i][j], layout[(i + 1) % 4][j]) == 1

    def test_layout_is_permutation(self):
        topo = Hypercube(4)
        for scheme in ("binary", "gray"):
            layout = grid_layout(topo, 4, 4, scheme=scheme)
            ranks = sorted(r for row in layout for r in row)
            assert ranks == list(range(16))

    def test_mesh_uses_own_coords(self):
        mesh = Mesh2D(2, 3)
        layout = grid_layout(mesh, 2, 3)
        assert layout == [[0, 1, 2], [3, 4, 5]]

    def test_mesh_shape_mismatch(self):
        with pytest.raises(ValueError):
            grid_layout(Mesh2D(2, 3), 3, 2)

    def test_grid_must_cover(self):
        with pytest.raises(ValueError):
            grid_layout(Hypercube(4), 2, 4)

    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            grid_layout(Hypercube(4), 4, 4, scheme="hilbert")

    def test_hypercube_rectangular_pow2_sides_ok(self):
        layout = grid_layout(Hypercube(4), 8, 2)
        assert len(layout) == 8 and len(layout[0]) == 2

    @pytest.mark.parametrize("scheme", ["binary", "gray"])
    def test_hypercube_layout_matches_per_entry_codes(self, scheme):
        """The array form equals concatenating each coordinate's code, entry
        by entry, as lists of Python ints."""
        code = gray_code if scheme == "gray" else (lambda x: x)
        for d in range(11):
            for row_bits in range(d + 1):
                rows, cols = 1 << row_bits, 1 << (d - row_bits)
                layout = grid_layout(Hypercube(d), rows, cols, scheme=scheme)
                assert layout == [
                    [(code(r) << (d - row_bits)) | code(c) for c in range(cols)]
                    for r in range(rows)
                ]
                assert all(type(x) is int for row in layout for x in row)

    def test_fully_connected_row_major(self):
        layout = grid_layout(FullyConnected(6), 2, 3)
        assert layout == [[0, 1, 2], [3, 4, 5]]


def _grid_cases():
    """(id, topology, scheme) at grid sides 1-8 and 64; a hypercube's side
    is a power of two."""
    for side in (*range(1, 9), 64):
        p = side * side
        if side & (side - 1) == 0:
            for scheme in ("gray", "binary"):
                yield f"hypercube-{scheme}-{side}", Hypercube.of_size(p), scheme
        yield f"mesh-{side}", Mesh2D(side, side), "binary"
        yield f"full-{side}", FullyConnected(p), "binary"


GRID_CASES = list(_grid_cases())


class TestGridGroups:
    @pytest.mark.parametrize(
        "topo,scheme", [c[1:] for c in GRID_CASES], ids=[c[0] for c in GRID_CASES]
    )
    def test_groups_and_coords_equal_the_nested_comprehensions(self, topo, scheme):
        side = int(round(topo.size ** 0.5))
        layout = grid_layout(topo, side, side, scheme=scheme)
        grid = grid_groups(layout)
        rows = [[layout[i][c] for c in range(side)] for i in range(side)]
        cols = [[layout[r][j] for r in range(side)] for j in range(side)]
        row_of = [None] * topo.size
        col_of = [None] * topo.size
        for i in range(side):
            for j in range(side):
                row_of[layout[i][j]], col_of[layout[i][j]] = i, j
        assert grid.rows == rows and grid.cols == cols
        assert grid.row_of == row_of and grid.col_of == col_of
        for values in (grid.rows, grid.cols):
            assert all(type(x) is int for group in values for x in group)
        assert all(type(x) is int for x in grid.row_of + grid.col_of)
        # the symmetry axes are the same groups, as int64 matrices
        parts = grid.partitions
        assert parts["row"].dtype == parts["col"].dtype == np.int64
        assert np.array_equal(parts["row"], np.asarray(rows))
        assert np.array_equal(parts["col"], np.asarray(cols))

    def test_groups_do_not_alias_the_layout(self):
        layout = grid_layout(Hypercube(4), 4, 4, scheme="gray")
        grid = grid_groups(layout)
        grid.rows[0].reverse()
        assert layout[0][0] == grid.rows[0][-1] != grid.rows[0][0]


class TestCubeLayout:
    def test_axis_groups_are_subcubes(self):
        topo = Hypercube(6)
        layout = cube_layout_3d(topo, 4)
        # fixing any two axes, the ranks along the third differ only in
        # that axis's bit-field (so each axis group is a subcube)
        i_group = [layout[(i, 2, 3)] for i in range(4)]
        assert len({g & 0b001111 for g in i_group}) == 1
        k_group = [layout[(1, 2, k)] for k in range(4)]
        assert len({g & 0b111100 for g in k_group}) == 1

    def test_is_permutation(self):
        layout = cube_layout_3d(Hypercube(6), 4)
        assert sorted(layout.values()) == list(range(64))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            cube_layout_3d(Hypercube(6), 3)


class TestCubeRoute:
    def test_relays_one_dimension_at_a_time(self):
        # route 0 -> 7 in a 3-cube: 3 messages, each a full (ts + tw*m) step
        def prog(info):
            got = yield from cube_route(info, 0, 7, "payload" if info.rank == 0 else None, nwords=5)
            return got if info.rank == 7 else None

        res = run_spmd(Hypercube(3), M, prog)
        assert res.returns[7] == "payload"
        assert res.parallel_time == pytest.approx(3 * (M.ts + 5 * M.tw))

    def test_same_src_dst(self):
        def prog(info):
            got = yield from cube_route(info, 2, 2, "x" if info.rank == 2 else None, nwords=1)
            return got

        res = run_spmd(Hypercube(2), M, prog)
        assert res.returns[2] == "x"
        assert res.parallel_time == 0.0

    def test_bystanders_unaffected(self):
        def prog(info):
            got = yield from cube_route(info, 0, 1, "x" if info.rank == 0 else None, nwords=1)
            return got if info.rank == 1 else "bystander"

        res = run_spmd(Hypercube(3), M, prog)
        assert res.returns[1] == "x"
        assert res.returns[5] == "bystander"
        assert res.stats[5].finish_time == 0.0


class TestMatmulResult:
    def test_derived_metrics(self):
        from repro.algorithms.cannon import run_cannon

        A, B = rand_pair(16, seed=1)
        res = run_cannon(A, B, 16, M)
        assert isinstance(res, MatmulResult)
        assert res.work == 16**3
        assert res.speedup == pytest.approx(res.work / res.parallel_time)
        assert res.efficiency == pytest.approx(res.speedup / 16)
        assert res.total_overhead == pytest.approx(16 * res.parallel_time - res.work)
        assert res.wallclock_seconds == pytest.approx(res.parallel_time * M.unit_time)
