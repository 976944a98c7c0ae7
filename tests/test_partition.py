"""Unit and property tests for repro.blockops.partition."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockops.partition import (
    BlockSpec,
    block_shape,
    block_slices,
    gather_blocks,
    int_cbrt,
    int_sqrt,
    is_perfect_square,
    is_power_of,
    scatter_blocks,
)


class TestHelpers:
    def test_is_perfect_square_true(self):
        for x in (0, 1, 4, 9, 16, 144, 10**8):
            assert is_perfect_square(x)

    def test_is_perfect_square_false(self):
        for x in (2, 3, 5, 8, 15, 10**8 + 1, -4):
            assert not is_perfect_square(x)

    def test_int_sqrt(self):
        assert int_sqrt(49) == 7
        assert int_sqrt(1) == 1

    def test_int_sqrt_raises(self):
        with pytest.raises(ValueError):
            int_sqrt(50)

    def test_int_cbrt(self):
        assert int_cbrt(27) == 3
        assert int_cbrt(1) == 1
        assert int_cbrt(512) == 8

    def test_int_cbrt_raises(self):
        with pytest.raises(ValueError):
            int_cbrt(26)
        with pytest.raises(ValueError):
            int_cbrt(-8)

    def test_is_power_of(self):
        assert is_power_of(8, 2)
        assert is_power_of(1, 2)
        assert is_power_of(64, 8)
        assert not is_power_of(12, 2)
        assert not is_power_of(0, 2)
        assert not is_power_of(8, 1)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_isqrt_roundtrip(self, x):
        assert is_perfect_square(x * x)
        assert int_sqrt(x * x) == x

    @given(st.integers(min_value=0, max_value=2000))
    def test_cbrt_roundtrip(self, x):
        assert int_cbrt(x**3) == x


class TestBlockSpecBasics:
    def test_validation_positive(self):
        with pytest.raises(ValueError):
            BlockSpec(0, 4, 1, 1)
        with pytest.raises(ValueError):
            BlockSpec(4, 4, 0, 2)

    def test_validation_grid_fits(self):
        with pytest.raises(ValueError):
            BlockSpec(3, 3, 4, 1)

    def test_uniform_flag(self):
        assert BlockSpec(8, 8, 4, 4).uniform
        assert not BlockSpec(9, 8, 4, 4).uniform

    def test_nblocks(self):
        assert BlockSpec(8, 8, 2, 4).nblocks == 8

    def test_even_bounds(self):
        spec = BlockSpec(8, 8, 4, 4)
        assert spec.row_bounds(0) == (0, 2)
        assert spec.row_bounds(3) == (6, 8)
        assert spec.block_shape(1, 2) == (2, 2)

    def test_uneven_bounds_leading_blocks_bigger(self):
        spec = BlockSpec(10, 10, 4, 4)  # 10 = 3+3+2+2
        sizes = [spec.row_bounds(b)[1] - spec.row_bounds(b)[0] for b in range(4)]
        assert sizes == [3, 3, 2, 2]
        assert sum(sizes) == 10

    def test_bounds_cover_matrix(self):
        spec = BlockSpec(17, 13, 5, 3)
        rows = [spec.row_bounds(b) for b in range(5)]
        assert rows[0][0] == 0 and rows[-1][1] == 17
        for (a0, a1), (b0, b1) in zip(rows, rows[1:]):
            assert a1 == b0

    def test_block_index_errors(self):
        spec = BlockSpec(8, 8, 2, 2)
        with pytest.raises(IndexError):
            spec.row_bounds(2)
        with pytest.raises(IndexError):
            spec.block_slice(0, 5)


class TestOwnerMaps:
    def test_owner_of_even(self):
        spec = BlockSpec(8, 8, 4, 4)
        assert spec.owner_of(0, 0) == (0, 0)
        assert spec.owner_of(7, 7) == (3, 3)
        assert spec.owner_of(2, 5) == (1, 2)

    def test_owner_out_of_range(self):
        spec = BlockSpec(8, 8, 4, 4)
        with pytest.raises(IndexError):
            spec.owner_of(8, 0)

    def test_local_index(self):
        spec = BlockSpec(8, 8, 4, 4)
        assert spec.local_index(3, 5) == (1, 1)

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.data(),
    )
    def test_owner_consistent_with_bounds(self, nr, nc, gr, gc, data):
        gr, gc = min(gr, nr), min(gc, nc)
        spec = BlockSpec(nr, nc, gr, gc)
        i = data.draw(st.integers(min_value=0, max_value=nr - 1))
        j = data.draw(st.integers(min_value=0, max_value=nc - 1))
        bi, bj = spec.owner_of(i, j)
        r0, r1 = spec.row_bounds(bi)
        c0, c1 = spec.col_bounds(bj)
        assert r0 <= i < r1 and c0 <= j < c1
        li, lj = spec.local_index(i, j)
        assert (li, lj) == (i - r0, j - c0)


class TestScatterGather:
    EVEN = [(8, 8, 4, 2), (8, 8, 2, 4), (440, 440, 22, 22), (5, 9, 5, 1)]
    UNEVEN = [(11, 7, 3, 4), (445, 443, 22, 22), (22, 5, 4, 3)]

    def test_scatter_shapes(self, rng):
        m = rng.standard_normal((10, 12))
        blocks = scatter_blocks(m, 3, 4)
        assert len(blocks) == 3 and len(blocks[0]) == 4
        assert blocks[0][0].shape == (4, 3)

    @pytest.mark.parametrize("nr, nc, gr, gc", EVEN)
    def test_roundtrip_even(self, rng, nr, nc, gr, gc):
        m = rng.standard_normal((nr, nc))
        out = gather_blocks(scatter_blocks(m, gr, gc))
        assert out.dtype == m.dtype
        assert np.array_equal(out, m)

    @pytest.mark.parametrize("nr, nc, gr, gc", UNEVEN)
    def test_roundtrip_uneven(self, rng, nr, nc, gr, gc):
        m = rng.standard_normal((nr, nc))
        out = gather_blocks(scatter_blocks(m, gr, gc))
        assert out.dtype == m.dtype
        assert np.array_equal(out, m)

    def test_scatter_shape_mismatch(self, rng):
        spec = BlockSpec(8, 8, 2, 2)
        with pytest.raises(ValueError):
            spec.scatter(rng.standard_normal((8, 9)))

    def test_gather_wrong_grid(self, rng):
        spec = BlockSpec(8, 8, 2, 2)
        blocks = spec.scatter(rng.standard_normal((8, 8)))
        with pytest.raises(ValueError):
            spec.gather(blocks[:1])

    @pytest.mark.parametrize(
        "shape, grid, at, wrong, want",
        [((8, 8), (2, 2), (0, 0), (3, 3), (4, 4)), ((11, 7), (3, 4), (2, 3), (4, 1), (3, 1))],
    )
    def test_gather_wrong_block_shape(self, rng, shape, grid, at, wrong, want):
        spec = BlockSpec(*shape, *grid)
        blocks = spec.scatter(rng.standard_normal(shape))
        blocks[at[0]][at[1]] = np.zeros(wrong)
        message = f"block ({at[0]},{at[1]}) has shape {wrong}, expected {want}"
        with pytest.raises(ValueError, match=re.escape(message)):
            spec.gather(blocks)

    def test_blocks_are_copies(self, rng):
        m = rng.standard_normal((8, 8))
        blocks = scatter_blocks(m, 2, 2)
        blocks[0][0][0, 0] = 1e9
        assert m[0, 0] != 1e9

    @settings(max_examples=30)
    @given(
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
    )
    def test_roundtrip_property(self, nr, nc, gr, gc):
        gr, gc = min(gr, nr), min(gc, nc)
        m = np.arange(nr * nc, dtype=float).reshape(nr, nc)
        spec = BlockSpec(nr, nc, gr, gc)
        assert np.array_equal(spec.gather(spec.scatter(m)), m)

    @pytest.mark.parametrize("nr, nc, gr, gc", EVEN + UNEVEN)
    def test_stack_matches_plain_slicing(self, rng, nr, nc, gr, gc):
        m = rng.standard_normal((nr, nc))
        # array_split's index groups: the leading n % g blocks are one longer
        rows = np.array_split(np.arange(nr), gr)
        cols = np.array_split(np.arange(nc), gc)
        plain = [m[r[0]:r[-1] + 1, c[0]:c[-1] + 1] for r in rows for c in cols]
        stack = BlockSpec(nr, nc, gr, gc).stack(m)
        assert len(stack) == len(plain)
        for got, want in zip(stack, plain):
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)


class TestOneDimensional:
    def test_block_slices_cover(self):
        slices = block_slices(10, 3)
        assert len(slices) == 3
        covered = np.concatenate([np.arange(10)[s] for s in slices])
        assert np.array_equal(covered, np.arange(10))

    def test_block_shape_1d(self):
        assert block_shape(10, 3, 0) == 4
        assert block_shape(10, 3, 2) == 3
