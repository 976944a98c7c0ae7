"""Shared fixtures for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import cache as cache_mod
from repro.core.machine import MachineParams
from repro.serve import ReproServer


@pytest.fixture(autouse=True)
def _sandbox_caches(tmp_path, monkeypatch):
    """Isolate both cache tiers per test.

    The disk tier defaults to ``~/.cache/repro``; without this fixture
    tests would read shards left by earlier runs (or by the user) and
    leak their own.  Each test gets a fresh temp directory and an empty
    memory tier, and ``$REPRO_CACHE_DIR`` is pointed there too so
    subprocess-spawning tests stay sandboxed.  ``$REPRO_NO_DISK_CACHE``
    is cleared, so a developer's shell cannot turn off the disk tier
    that tests exercise.  Running servers bound the memory tier until
    the last of them stops and restores the bound the first found; the
    bound is lifted here too, and servers left running are forgotten,
    as a safety net for a test that fails before its server stops, so
    neither can leak into later tests.
    """
    cache_dir = tmp_path / "repro-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    cache_mod.configure_disk_cache(cache_dir)
    cache_mod.result_cache().clear()
    yield
    cache_mod.configure_disk_cache(None)
    ReproServer._running.clear()
    cache_mod.result_cache().resize(None)
    cache_mod.result_cache().clear()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def machine() -> MachineParams:
    """A small, round-number machine so expected costs are easy to compute."""
    return MachineParams(ts=10.0, tw=2.0, name="test")


@pytest.fixture
def zero_comm() -> MachineParams:
    return MachineParams(ts=0.0, tw=0.0, name="zero")


def rand_pair(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """A deterministic random matrix pair of order *n*."""
    r = np.random.default_rng(seed)
    return r.standard_normal((n, n)), r.standard_normal((n, n))
