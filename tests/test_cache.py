"""Tests for the two-tier keyed result cache (memory LRU + disk shards)."""

import dataclasses
import threading

import numpy as np
import pytest

from repro.core.cache import (
    CACHE_VERSION,
    DiskCache,
    ResultCache,
    cache_stats,
    configure_disk_cache,
    disk_cache,
    result_cache,
)
from repro.core.machine import NCUBE2_LIKE, MachineParams


class TestResultCache:
    def test_get_put_roundtrip(self):
        c = ResultCache()
        assert c.get("k") is None
        assert c.get("k", default=0) == 0
        c.put("k", 42)
        assert c.get("k") == 42
        assert "k" in c
        assert len(c) == 1

    def test_lru_eviction_order(self):
        c = ResultCache(maxsize=2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")  # refresh a; b is now least recent
        c.put("c", 3)
        assert "a" in c and "c" in c
        assert "b" not in c

    def test_stats_and_clear(self):
        c = ResultCache()
        c.put("k", 1)
        c.get("k")
        c.get("missing")
        assert c.stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "size": 1,
            "maxsize": None,
        }
        c.clear()
        stats = c.stats()
        assert stats["hits"] == stats["misses"] == stats["size"] == 0

    def test_default_is_unbounded(self):
        c = ResultCache()
        for i in range(5000):
            c.put(i, i)
        assert len(c) == 5000
        assert c.stats()["evictions"] == 0
        # every entry is still present — nothing was silently dropped
        assert c.get(0) == 0 and c.get(4999) == 4999

    def test_bounded_stays_within_limit(self):
        c = ResultCache(maxsize=8)
        for i in range(100):
            c.put(i, i)
        assert len(c) == 8
        assert c.stats()["maxsize"] == 8
        assert c.stats()["evictions"] == 92

    def test_eviction_counter(self):
        c = ResultCache(maxsize=2)
        for i in range(5):
            c.put(i, i)
        assert c.stats()["evictions"] == 3
        assert c.stats()["size"] == 2

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            ResultCache(maxsize=0)

    def test_overwrite_same_key(self):
        c = ResultCache()
        c.put("k", 1)
        c.put("k", 2)
        assert c.get("k") == 2
        assert len(c) == 1

    def test_concurrent_put_get(self):
        c = ResultCache(maxsize=64)

        def worker(base):
            for i in range(200):
                c.put((base, i % 50), i)
                c.get((base, (i + 1) % 50))

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(c) <= 64


class TestDiskCacheKeys:
    """Any input that changes the meaning of a result must change its key."""

    def _key(self, cache, machine, **overrides):
        payload = {
            "kind": "region_map",
            "machine": machine,
            "log2_p_max": 30,
            "log2_n_max": 16,
            "model_keys": ["berntsen", "cannon", "gk", "dns"],
        }
        payload.update(overrides)
        return cache.key_for(payload)

    def test_every_machine_field_changes_the_key(self, tmp_path):
        cache = DiskCache(tmp_path)
        base = MachineParams(ts=150.0, tw=3.0, name="m")
        base_key = self._key(cache, base)
        bumps = {"routing": "sf", "all_port": True}  # validated enum-ish fields
        for field in dataclasses.fields(MachineParams):
            value = getattr(base, field.name)
            if field.name in bumps:
                bumped = bumps[field.name]
            elif isinstance(value, float):
                bumped = value + 1.0
            else:
                bumped = str(value) + "x"
            changed = dataclasses.replace(base, **{field.name: bumped})
            assert self._key(cache, changed) != base_key, field.name

    def test_grid_spec_changes_the_key(self, tmp_path):
        cache = DiskCache(tmp_path)
        base = self._key(cache, NCUBE2_LIKE)
        assert self._key(cache, NCUBE2_LIKE, log2_p_max=29) != base
        assert self._key(cache, NCUBE2_LIKE, log2_n_max=15) != base
        assert self._key(cache, NCUBE2_LIKE, model_keys=["cannon", "gk"]) != base

    def test_salt_changes_the_key(self, tmp_path):
        a = DiskCache(tmp_path, salt=CACHE_VERSION)
        b = DiskCache(tmp_path, salt=CACHE_VERSION + "-next")
        assert self._key(a, NCUBE2_LIKE) != self._key(b, NCUBE2_LIKE)

    def test_stale_salt_misses_existing_shard(self, tmp_path):
        old = DiskCache(tmp_path, salt="v1")
        old.put_arrays(old.key_for({"k": 1}), {"a": np.arange(3)})
        new = DiskCache(tmp_path, salt="v2")
        assert new.get_arrays(new.key_for({"k": 1})) is None

    def test_key_is_stable_across_instances(self, tmp_path):
        a = DiskCache(tmp_path / "a")
        b = DiskCache(tmp_path / "b")
        assert self._key(a, NCUBE2_LIKE) == self._key(b, NCUBE2_LIKE)


class TestDiskCacheIO:
    def test_arrays_roundtrip_bit_identical(self, tmp_path):
        cache = DiskCache(tmp_path)
        arrays = {
            "w": np.arange(12, dtype=np.intp).reshape(3, 4),
            "f": np.array([0.1, np.pi, -1e300, np.nan]),
            "b": np.array([True, False]),
        }
        key = cache.key_for({"k": "roundtrip"})
        cache.put_arrays(key, arrays)
        loaded = cache.get_arrays(key)
        assert loaded is not None
        assert set(loaded) == set(arrays)
        for name, arr in arrays.items():
            assert loaded[name].dtype == arr.dtype
            assert loaded[name].tobytes() == arr.tobytes()

    def test_json_roundtrip_and_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = cache.key_for({"k": "json"})
        assert cache.get_json(key) is None
        rows = [{"algorithm": "cannon", "n": 16, "p": 4, "T_sim": 123.5}]
        cache.put_json(key, rows)
        assert cache.get_json(key) == rows
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_corrupt_shard_is_a_miss_and_removed(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = cache.key_for({"k": "corrupt"})
        cache.put_arrays(key, {"a": np.arange(4)})
        path = tmp_path / f"{key}.npz"
        path.write_bytes(b"not a zipfile")
        assert cache.get_arrays(key) is None
        assert not path.exists()

    def test_concurrent_writers_do_not_corrupt(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = cache.key_for({"k": "race"})
        payload = {"a": np.arange(2048, dtype=np.int64)}
        errors = []

        def writer():
            try:
                for _ in range(20):
                    cache.put_arrays(key, payload)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        loaded = cache.get_arrays(key)
        assert loaded is not None
        assert loaded["a"].tobytes() == payload["a"].tobytes()
        leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
        assert leftovers == []

    def test_clear_and_len(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put_arrays(cache.key_for({"k": 1}), {"a": np.arange(2)})
        cache.put_json(cache.key_for({"k": 2}), {"x": 1})
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {"hits": 0, "misses": 0, "writes": 0, "errors": 0}


class TestDiskCacheConfig:
    def test_configure_and_disable(self, tmp_path):
        configure_disk_cache(tmp_path / "shards")
        cache = disk_cache()
        assert cache is not None
        assert cache.root == str(tmp_path / "shards")
        configure_disk_cache(None, enabled=False)
        assert disk_cache() is None

    def test_env_turns_a_configured_tier_off(self, tmp_path, monkeypatch):
        """``REPRO_NO_DISK_CACHE=1`` wins over a path the CLIs configured."""
        configure_disk_cache(tmp_path / "shards")
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        assert disk_cache() is None
        assert cache_stats()["disk"] is None
        monkeypatch.delenv("REPRO_NO_DISK_CACHE")
        assert disk_cache().root == str(tmp_path / "shards")

    def test_cache_stats_shape(self, tmp_path):
        configure_disk_cache(tmp_path / "shards")
        stats = cache_stats()
        assert set(stats) == {"memory", "disk"}
        assert stats["disk"]["dir"] == str(tmp_path / "shards")
        configure_disk_cache(None, enabled=False)
        assert cache_stats()["disk"] is None


class TestGlobalCache:
    def test_singleton(self):
        assert result_cache() is result_cache()

    def test_shared_across_modules(self):
        # regions and sweep memoize into the same instance
        from repro.core.regions import region_map
        from repro.core.machine import NCUBE2_LIKE

        result_cache().clear()
        region_map(NCUBE2_LIKE, log2_p_max=8, log2_n_max=5)
        assert any(
            isinstance(k, tuple) and k and k[0] == "region_map"
            for k in list(result_cache()._data)
        )
