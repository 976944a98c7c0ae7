"""Two-tier keyed result cache for deterministic derived results.

Everything this package computes is a pure function of hashable inputs:
a sweep row is determined by ``(algorithm, n, p, machine, seed)``, a
region map by the machine and its grid.  This module provides the two
tiers that exploit that purity:

* :class:`ResultCache` — an in-process LRU (unbounded by default,
  boundable for long-lived servers) shared by the
  sweep harness (:mod:`repro.experiments.sweep`), the region analysis
  (:mod:`repro.core.regions`), the crossover analysis
  (:mod:`repro.core.crossover`), and the CLI, so repeated derivations
  within one process — regenerating a figure after a sweep,
  re-exporting the same grid in another format, interactive
  ``python -m repro`` sessions — pay for the computation once.
* :class:`DiskCache` — a content-addressed on-disk tier (NPZ/JSON
  shards) that persists those same results across processes, so a
  second ``python -m repro.experiments fig1`` or ``python -m repro
  regions`` invocation is near-instant.  Keys are SHA-256 hashes of a
  canonical JSON description of the inputs (machine parameters, grid
  spec, model set) plus a code-version salt (:data:`CACHE_VERSION`);
  writes are atomic renames, so concurrent writers — e.g. several
  ``sweep --jobs`` processes racing on the same shard — can at worst
  replace a shard with identical bytes, never corrupt it.

Only immutable or never-mutated values should be cached (sweep rows are
copied on the way out; :class:`~repro.core.regions.RegionMap` is
frozen).  ``MachineParams`` is a frozen dataclass and therefore usable
directly inside memory keys and canonicalizable into disk keys.

The disk tier is additive and on by default; disable it per process
with :func:`configure_disk_cache` (``enabled=False``, what the CLIs'
``--no-disk-cache`` does) or ``$REPRO_NO_DISK_CACHE=1``, or point it
elsewhere with ``path=`` / ``$REPRO_CACHE_DIR``.  Every payload a
caller reads back is bit-identical to what was stored: arrays
round-trip through NPZ as exact dtypes/bytes, scalars through JSON's
shortest-round-trip floats.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import tempfile
import threading
import warnings
import zipfile
from collections import OrderedDict
from typing import Any, Hashable, Mapping

import numpy as np

__all__ = [
    "CACHE_VERSION",
    "CorruptArtifactWarning",
    "ResultCache",
    "result_cache",
    "DiskCache",
    "disk_cache",
    "configure_disk_cache",
    "default_cache_dir",
    "cache_stats",
    "canonical_fingerprint",
]


class CorruptArtifactWarning(UserWarning):
    """A persisted artifact (disk-cache shard, checkpoint row) was unreadable.

    Corruption — a truncated write, a flipped bit, a foreign file — always
    degrades to recomputation (a cache miss, a re-simulated block), never
    to an unhandled exception; this warning is the audit trail that it
    happened.  Filter on it in tests, or escalate it to an error with
    ``-W error::repro.core.cache.CorruptArtifactWarning`` to make a
    pipeline fail loudly on storage rot.
    """

#: Code-version salt mixed into every disk key.  Bump it whenever the
#: *meaning* of a cached payload changes (a model expression, a grid
#: convention, a serialization format): old shards then simply miss
#: instead of resurrecting stale results.
CACHE_VERSION = "2026.1"


class ResultCache:
    """A thread-safe LRU mapping hashable keys to results.

    ``maxsize=None`` (the default) means unbounded — right for one-shot
    CLI runs, where the working set is the run itself and eviction could
    only hurt.  A long-lived process (``repro serve``) bounds the
    process-wide tier with :meth:`resize` so memory cannot grow without
    limit; evictions are counted and surfaced through :func:`cache_stats`.
    """

    def __init__(self, maxsize: int | None = None):
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.resize(maxsize)

    def resize(self, maxsize: int | None) -> None:
        """Re-bound the cache (``None`` = unbounded), evicting LRU entries past it."""
        if maxsize is not None and maxsize <= 0:
            raise ValueError("maxsize must be positive (or None for unbounded)")
        with self._lock:
            self.maxsize = maxsize
            self._evict()

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value for *key* (refreshing its LRU slot)."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert *key* -> *value*, evicting LRU entries past any bound."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            self._evict()

    def _evict(self) -> None:
        # the caller holds the lock
        if self.maxsize is not None:
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> dict[str, int | None]:
        """Hit/miss/eviction/size counters (for ``--cache-stats`` and tests)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._data),
                "maxsize": self.maxsize,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data


def _canonical(obj: Any) -> Any:
    """Reduce *obj* to plain JSON-encodable data, stably.

    Frozen dataclasses (``MachineParams``) contribute their class name
    plus *every* field, so changing any field — including cosmetic ones
    like ``name`` — produces a different disk key.  Tuples and lists
    flatten identically; dict keys are stringified and sorted by the
    JSON encoder.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: _canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        return {"__dataclass__": type(obj).__name__, **fields}
    if isinstance(obj, Mapping):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_canonical(v) for v in obj.tolist()]
    return obj


def canonical_fingerprint(payload: Any, *, salt: str = CACHE_VERSION) -> str:
    """SHA-256 hex digest of the canonical JSON form of *payload*.

    The one content-addressing primitive of the repo: disk-cache shard
    keys, sweep-block shards, and campaign scenario/battery IDs
    (:mod:`repro.campaign.schema`) all derive from it, so every layer
    inherits the same guarantees — frozen dataclasses contribute their
    class name plus *every* field, dict order never matters, and two
    payloads collide only if their canonical forms are identical.  *salt*
    namespaces independent key families (and versions them: bumping the
    salt orphans old keys instead of resurrecting stale payloads).
    """
    doc = json.dumps(
        {"salt": salt, "payload": _canonical(payload)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(doc.encode()).hexdigest()


class DiskCache:
    """Content-addressed persistent shards under one root directory.

    Two shard formats, chosen by the caller per payload:

    * ``<key>.npz`` — a named set of numpy arrays (``put_arrays`` /
      ``get_arrays``); bit-identical round-trip of dtype and contents.
    * ``<key>.json`` — any JSON-encodable payload (``put_json`` /
      ``get_json``); row lists are written one row per line (JSONL
      style) for greppability.

    Keys come from :meth:`key_for`: the SHA-256 of the canonical JSON
    form of a key payload plus the cache *salt*.  Writes go through a
    temporary file in the same directory followed by :func:`os.replace`
    (atomic on POSIX), making the shards safe under multi-process
    fan-out: racing writers of the same key rename identical content
    over each other.  Unreadable or truncated shards are treated as
    misses (and removed), never as errors.
    """

    def __init__(self, root: str | os.PathLike[str], *, salt: str = CACHE_VERSION):
        self.root = os.fspath(root)
        self.salt = salt
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.errors = 0

    # -- keys ---------------------------------------------------------------------

    def key_for(self, payload: Any) -> str:
        """The hex shard key for a canonical description of the inputs."""
        return canonical_fingerprint(payload, salt=self.salt)

    def _path(self, key: str, ext: str) -> str:
        return os.path.join(self.root, f"{key}.{ext}")

    # -- counters -----------------------------------------------------------------

    def _count(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "errors": self.errors,
            }

    # -- IO -----------------------------------------------------------------------

    def _write_atomic(self, path: str, data: bytes) -> None:
        os.makedirs(self.root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _drop_corrupt(self, path: str, cause: BaseException) -> None:
        warnings.warn(
            f"discarding corrupt cache shard {path} ({type(cause).__name__}: {cause}); "
            "treating it as a miss — the result will be recomputed",
            CorruptArtifactWarning,
            stacklevel=3,
        )
        try:
            os.unlink(path)
        except OSError:
            pass

    def put_arrays(self, key: str, arrays: Mapping[str, np.ndarray]) -> None:
        """Store a named set of arrays under *key* (atomic, best-effort)."""
        buf = io.BytesIO()
        np.savez_compressed(buf, **dict(arrays))
        try:
            self._write_atomic(self._path(key, "npz"), buf.getvalue())
        except OSError:
            self._count("errors")
            return
        self._count("writes")

    def get_arrays(self, key: str) -> dict[str, np.ndarray] | None:
        """The arrays stored under *key*, or ``None`` (miss / unreadable)."""
        path = self._path(key, "npz")
        try:
            with np.load(path, allow_pickle=False) as npz:
                out = {name: npz[name] for name in npz.files}
        except FileNotFoundError:
            self._count("misses")
            return None
        except (OSError, ValueError, zipfile.BadZipFile, EOFError, KeyError) as exc:
            self._drop_corrupt(path, exc)
            self._count("misses")
            return None
        self._count("hits")
        return out

    def put_json(self, key: str, payload: Any) -> None:
        """Store a JSON payload under *key*; lists land one item per line."""
        if isinstance(payload, list):
            body = "\n".join(json.dumps(item, default=float) for item in payload)
            text = '{"rows": [\n' + ",\n".join(body.splitlines()) + "\n]}"
        else:
            text = json.dumps({"value": payload}, default=float)
        try:
            self._write_atomic(self._path(key, "json"), text.encode())
        except OSError:
            self._count("errors")
            return
        self._count("writes")

    def get_json(self, key: str) -> Any | None:
        """The JSON payload stored under *key*, or ``None``."""
        path = self._path(key, "json")
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            self._count("misses")
            return None
        except (OSError, ValueError) as exc:
            self._drop_corrupt(path, exc)
            self._count("misses")
            return None
        if not isinstance(doc, dict):
            self._drop_corrupt(path, ValueError("shard is not a JSON object"))
            self._count("misses")
            return None
        self._count("hits")
        return doc["rows"] if "rows" in doc else doc.get("value")

    def clear(self) -> None:
        """Remove every shard under the root (counters reset too)."""
        try:
            names = os.listdir(self.root)
        except OSError:
            names = []
        for name in names:
            if name.endswith((".npz", ".json")) or name.startswith(".tmp-"):
                try:
                    os.unlink(os.path.join(self.root, name))
                except OSError:
                    pass
        with self._lock:
            self.hits = self.misses = self.writes = self.errors = 0

    def __len__(self) -> int:
        try:
            return sum(
                1 for name in os.listdir(self.root) if name.endswith((".npz", ".json"))
            )
        except OSError:
            return 0


_GLOBAL = ResultCache()

_DISK: DiskCache | None = None
_DISK_ENABLED = True
_DISK_PATH: str | None = None


def result_cache() -> ResultCache:
    """The process-wide memory tier shared by sweep, regions, and the CLI."""
    return _GLOBAL


def default_cache_dir() -> str:
    """Where disk shards live absent explicit configuration.

    ``$REPRO_CACHE_DIR`` wins, then ``$XDG_CACHE_HOME/repro``, then
    ``~/.cache/repro``.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return os.path.join(xdg, "repro")
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def configure_disk_cache(
    path: str | os.PathLike[str] | None = None, *, enabled: bool = True
) -> None:
    """Point the process-wide disk tier somewhere, or turn it off.

    The CLIs call this from ``--cache-dir`` / ``--no-disk-cache``;
    tests use it to sandbox shards under a temp directory.  Passing
    ``path=None`` with ``enabled=True`` re-resolves
    :func:`default_cache_dir`.
    """
    global _DISK, _DISK_ENABLED, _DISK_PATH
    _DISK_ENABLED = enabled
    _DISK_PATH = os.fspath(path) if path is not None else None
    _DISK = None


def disk_cache() -> DiskCache | None:
    """The process-wide disk tier, or ``None`` when disabled.

    Built lazily on first use; ``REPRO_NO_DISK_CACHE=1`` in the
    environment disables it without touching any call site, however the
    tier was configured (the CLIs configure it on every start).
    """
    global _DISK
    if not _DISK_ENABLED or os.environ.get("REPRO_NO_DISK_CACHE"):
        return None
    if _DISK is None:
        _DISK = DiskCache(_DISK_PATH if _DISK_PATH is not None else default_cache_dir())
    return _DISK


def cache_stats() -> dict[str, Any]:
    """Counters of both tiers (what ``--cache-stats`` prints)."""
    disk = disk_cache()
    return {
        "memory": result_cache().stats(),
        "disk": None if disk is None else {"dir": disk.root, **disk.stats()},
    }
