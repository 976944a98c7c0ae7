"""Bench: the Section 4 memory claims (models vs simulated peaks)."""

import numpy as np
import pytest

from repro.core.machine import MachineParams
from repro.core.memory import MEMORY_MODELS, memory_table

M = MachineParams(ts=10.0, tw=2.0)


def test_bench_memory_table(benchmark):
    rows = benchmark(memory_table, 256, 64)
    by_key = {r["algorithm"]: r for r in rows}
    # memory-efficient algorithms match the serial footprint up to constants
    assert by_key["cannon"]["blowup_vs_serial"] == pytest.approx(1.0)
    assert by_key["fox"]["blowup_vs_serial"] < 2.0
    # the inefficient ones blow up as the paper says
    assert by_key["simple"]["blowup_vs_serial"] > 5.0  # O(sqrt(p))
    assert by_key["gk"]["blowup_vs_serial"] == pytest.approx(64 ** (1 / 3), rel=1e-6)
    assert by_key["berntsen"]["blowup_vs_serial"] > 1.0


def test_bench_simple_peak_vs_model(benchmark):
    """Simulated peak memory of the simple algorithm matches its model."""
    from repro.algorithms.simple import run_simple

    rng = np.random.default_rng(0)
    n, p = 32, 16
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))

    res = benchmark.pedantic(run_simple, args=(A, B, p, M), rounds=1, iterations=1)
    peaks = [peak for _, peak in res.sim.returns]
    model = MEMORY_MODELS["simple"].words_per_processor(n, p)
    assert max(peaks) == pytest.approx(model)
