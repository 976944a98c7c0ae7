"""Warm start for the serving layer, and its default request specs.

Region maps and crossover curves are the service's expensive artifacts.
Handlers call :func:`~repro.core.regions.region_map` and
:func:`~repro.core.crossover.crossover_curve` directly; both memoize in
the process-wide memory tier (:func:`~repro.core.cache.result_cache`,
which a running server bounds to ``ServeConfig.cache_entries``) and in
the persistent disk tier, so there is no serving cache of its own.

Warm start: :meth:`ServeTier.preload` walks the paper's preset machines
and the default request specs at startup, pulling any persisted shards
into memory so the first client request after a restart is served
without recomputation.  With ``REPRO_NO_DISK_CACHE=1`` (or a cold
directory) the same walk computes the artifacts instead — the server
still starts warm, it just pays the compute once; the
``preload_computes`` counter records which of the two happened.
"""

from __future__ import annotations

from typing import Any

from repro.core import crossover, regions
from repro.core.cache import disk_cache
from repro.core.machine import PRESETS

__all__ = ["ServeTier", "DEFAULT_REGION_SPEC", "DEFAULT_CURVE_PAIRS", "DEFAULT_CURVE_P"]

#: The region grid served (and preloaded) by default — the paper's
#: Figures 1-3 ranges at full resolution.
DEFAULT_REGION_SPEC: dict[str, Any] = {
    "log2_p_max": 30,
    "log2_n_max": 16,
    "p_step": 1,
    "n_step": 1,
}

#: Crossover pairs preloaded by default: the boundaries the paper
#: discusses around Figures 1-3.
DEFAULT_CURVE_PAIRS: tuple[tuple[str, str], ...] = (
    ("cannon", "gk"),
    ("berntsen", "gk"),
)

#: Default processor counts for served crossover curves (powers of two
#: through the Figure 1-3 range).
DEFAULT_CURVE_P: tuple[float, ...] = tuple(float(2**k) for k in range(2, 31, 2))

#: Machines preloaded by default: the three figure regimes plus the
#: measured CM-5.
DEFAULT_PRELOAD_MACHINES: tuple[str, ...] = (
    "ncube2-like",
    "future-mimd",
    "simd-cm2-like",
    "cm5",
)


class ServeTier:
    """Warm-start bookkeeping: what the server preloaded at startup."""

    def __init__(self) -> None:
        self.preloaded = 0
        self.preload_computes = 0

    def preload(
        self,
        machines: tuple[str, ...] = DEFAULT_PRELOAD_MACHINES,
        *,
        curves: bool = True,
    ) -> dict[str, Any]:
        """Pull the default artifacts for *machines* into the memory tier.

        Persisted shards load; anything missing (cold directory,
        ``REPRO_NO_DISK_CACHE``) is computed once, now, instead of on
        the first unlucky request.  Returns a summary for /stats.
        """
        before = regions.region_compute_count() + crossover.crossover_compute_count()
        for name in machines:
            machine = PRESETS[name]
            regions.region_map(machine, **DEFAULT_REGION_SPEC)
            self.preloaded += 1
            if curves:
                for a, b in DEFAULT_CURVE_PAIRS:
                    crossover.crossover_curve(a, b, machine, DEFAULT_CURVE_P)
                    self.preloaded += 1
        self.preload_computes = (
            regions.region_compute_count() + crossover.crossover_compute_count() - before
        )
        return {
            "entries": self.preloaded,
            "computed_fresh": self.preload_computes,
            "disk_tier": "enabled" if disk_cache() is not None else "disabled",
        }

    def stats(self) -> dict[str, Any]:
        """Preload counters plus the fresh-compute odometers of the core layer."""
        return {
            "preloaded": self.preloaded,
            "preload_computes": self.preload_computes,
            "region_computes": regions.region_compute_count(),
            "curve_computes": crossover.crossover_compute_count(),
        }
