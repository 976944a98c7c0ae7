"""`repro.serve` — the always-on algorithm-selection service (ROADMAP item 1).

A stdlib-only asyncio HTTP server answering "best algorithm,
predicted time/efficiency/overhead split, and crossover neighborhood
for (n, p, machine)" at serving throughput.  The hot path is the
:class:`~repro.serve.batcher.MicroBatcher`: point requests parsed in
one turn of the event loop coalesce per machine fingerprint into single
vectorized :func:`~repro.core.prediction.predict_points` scans on the
next.  Region maps and crossover curves come from the memoized
:func:`~repro.core.regions.region_map` and
:func:`~repro.core.crossover.crossover_curve`, whose process memory
tier a running server bounds and :class:`~repro.serve.cache.ServeTier`
warms from the persistent disk tier at startup; simulator-backed predictions run through a bounded
async :class:`~repro.serve.jobs.JobQueue`.

Start it with ``python -m repro serve``; see ``docs/serving.md`` for
the endpoint reference, ``benchmarks/serve_loadgen.py`` for the
mixed-load smoke test, and perfbench's ``serve-closed`` workload for the
benchmark.
"""

from repro.serve.app import ReproServer, ServeConfig, run_server
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import ServeTier
from repro.serve.jobs import Job, JobQueue
from repro.serve.protocol import ProtocolError

__all__ = [
    "ReproServer",
    "ServeConfig",
    "run_server",
    "MicroBatcher",
    "ServeTier",
    "Job",
    "JobQueue",
    "ProtocolError",
]
