"""Tests for the Section 4 memory-requirement models."""

import pytest

from conftest import rand_pair
from repro.core.machine import MachineParams
from repro.core.memory import MEMORY_MODELS, memory_table

M = MachineParams(ts=10.0, tw=2.0)


class TestFormulas:
    def test_cannon_memory_efficient(self):
        m = MEMORY_MODELS["cannon"]
        assert m.memory_efficient
        # total is 3n^2 regardless of p: same as serial
        assert m.total_words(64, 16) == pytest.approx(3 * 64**2)
        assert m.blowup(64, 1024) == pytest.approx(1.0)

    def test_simple_blowup_sqrt_p(self):
        m = MEMORY_MODELS["simple"]
        assert not m.memory_efficient
        # O(n^2 sqrt(p)) total: blowup grows as sqrt(p)
        b16 = m.blowup(64, 16)
        b64 = m.blowup(64, 64)
        assert b64 / b16 == pytest.approx(2.0, rel=0.2)

    def test_berntsen_per_processor(self):
        m = MEMORY_MODELS["berntsen"]
        # paper: 2*n^2/p + n^2/p^(2/3)
        assert m.words_per_processor(16, 8) == pytest.approx(2 * 256 / 8 + 256 / 4)
        assert not m.memory_efficient

    def test_gk_blowup_cuberoot_p(self):
        m = MEMORY_MODELS["gk"]
        b8 = m.blowup(64, 8)
        b64 = m.blowup(64, 64)
        assert b64 / b8 == pytest.approx(2.0, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            MEMORY_MODELS["cannon"].words_per_processor(0, 4)


class TestAgainstSimulation:
    def test_simple_peak_matches_model(self):
        # the simple driver reports each rank's actual peak word count
        from repro.algorithms.simple import run_simple

        n, p = 16, 16
        A, B = rand_pair(n, seed=1)
        res = run_simple(A, B, p, M)
        peaks = [peak for _, peak in res.sim.returns]
        model = MEMORY_MODELS["simple"].words_per_processor(n, p)
        assert max(peaks) == pytest.approx(model)

    def test_cannon_blocks_match_model(self):
        # Cannon holds exactly A, B, C blocks: 3*n^2/p words
        n, p = 16, 16
        model = MEMORY_MODELS["cannon"].words_per_processor(n, p)
        assert model == 3 * (n * n // p)


class TestTable:
    def test_table_rows(self):
        rows = memory_table(64, 64)
        keys = {r["algorithm"] for r in rows}
        assert keys == {"simple", "cannon", "fox", "berntsen", "dns", "gk"}
        by_key = {r["algorithm"]: r for r in rows}
        # ordering of total memory at this point: cannon <= fox < gk < simple
        assert by_key["cannon"]["total_words"] <= by_key["fox"]["total_words"]
        assert by_key["gk"]["total_words"] > by_key["cannon"]["total_words"]

    def test_efficient_flags(self):
        rows = memory_table(32, 16)
        flags = {r["algorithm"]: r["memory_efficient"] for r in rows}
        assert flags["cannon"] and flags["fox"]
        assert not flags["simple"] and not flags["berntsen"] and not flags["gk"]
