"""Performance guard: measure the fast paths against seed-style baselines.

Ten workloads are timed, each against a faithful replica of the
implementation it replaced:

* ``engine`` — one representative grid of simulations under the seed
  ``rescan`` scheduler vs the event-driven ``ready`` scheduler.
* ``engine_heap`` — the event-heap scheduler on a message-path-heavy
  relay-ring workload at ``p = 4096`` and ``p = 16384``.  Tokens travel
  toward decreasing ranks, so every rescan pass (which steps ranks in
  increasing order) advances each ring by a single hop and pays an
  O(p) scan per event — the scheduling cost the heap's O(log p) pops
  eliminate.  The *gated* configuration is fault-active: with a
  ``FaultPlan`` set, requesting ``scheduler="ready"`` silently resolves
  to the rescan reference (that fallback is exactly the 4096-rank
  ceiling the heap core removes), so the heap-vs-ready-setting speedup
  there is the honest measure of what selecting ``heap`` buys.  Plain
  no-fault numbers for all three schedulers are reported informationally.
* ``engine_compiled`` — the trace compiler (``scheduler="compiled"``)
  on fault-free Cannon at ``p = 65536`` (``--fast``: 4096) vs the event
  heap.  The compiled path replays the recorded batch schedule with zero
  generator resumes, so its advantage grows with rank count; the run is
  first cross-checked bit-identical against the heap at ``p <= 4096``
  (every per-rank account), then timed.  Gated at >= 8x on the full run.
* ``memory`` — peak RSS (``resource.getrusage``) of subprocess Cannon
  runs at ``p = 16384`` (``--fast``: 1024) under the heap vs compiled
  schedulers (the compiled replay never materializes 16k generators),
  plus an in-process ``tracemalloc`` smoke pass recording traced peak
  and live allocation blocks for both schedulers at ``p = 1024``.
* ``sweep`` — the seed sweep loop (per-row ``A @ B`` verification,
  rescan scheduler, no cache) vs the current harness (hoisted per-``n``
  verification, ready scheduler, ``jobs`` workers).  The *pipeline*
  numbers run the same grid twice — a sweep followed by a re-query, the
  figure-regeneration / re-export scenario the shared result cache is
  for — so the second pass is served from cache.
* ``region_map`` — the seed per-cell ``best_algorithm`` Python loop vs
  the vectorized ``winner_grid`` map, on the Figure 1 machine.
* ``collectives`` — the macro-collective fast path.  A broadcast-heavy
  program at ``p = 1024`` is timed under the macro path, the
  message-level ready path, and the rescan reference (the message-level
  reference configuration every other speedup here is judged against);
  the Figure 4/5 regeneration pipeline is timed in the default fast
  configuration vs that same reference.

* ``refinement`` — the adaptive region-map refinement
  (:func:`repro.core.refine.refine_winner_grid`) vs the dense vectorized
  ``winner_grid`` on fine Figure-1 grids.  Refinement evaluates only the
  O(N) region-boundary cells of an N x N grid, so its advantage is
  asymptotic in resolution: ~2x at 1024^2, >= 8x at 4096^2 (the gated
  resolution); each measured grid is also checked cell-for-cell against
  the dense result.
* ``disk_cache`` — the figures 1-3 pipeline cold (fresh shard
  directory) vs warm (same inputs, second process-equivalent run with
  the memory tier cleared), plus one pass against the *persistent*
  default cache directory so a repeated CI invocation can assert disk
  hits.
* ``serving`` — the :mod:`repro.serve` micro-batching hot path (see
  ``benchmarks/serve_loadgen.py``): 1000 concurrent point-prediction
  requests through the in-process ``dispatch()`` transport with the
  coalescer on vs off (one vectorized ``predict_points`` per batch vs
  one per request), gated at >= 8x with bit-identical responses, plus
  the warm-start restart check (preloading from disk shards must answer
  the first region request with zero fresh model evaluations).

The engine/sweep/region-map/collectives sections run with the disk tier
disabled so their baselines measure computation, not shard reloads.

Results land in ``BENCH_PR10.json`` together with pass/fail acceptance
flags (pipeline sweep >= 2.5x, region_map >= 5x, macro broadcast >= 4x
over the reference, Figure 4/5 pipeline >= 1.25x, refinement >= 8x at
its largest grid and >= 1.5x at 1024^2, warm disk-cache figures
pipeline >= 10x over cold, engine_heap fault-active >= 10x at
p = 16384, engine_compiled >= 8x over the heap at p = 65536 and
bit-identical to it at p <= 4096, serving batched throughput >= 8x
over batching-disabled with bit-identical responses and a warm start
that re-evaluates nothing).  Run it directly::

    python benchmarks/perf_guard.py [--fast] [--out BENCH_PR10.json]

``--fast`` shrinks the grids for CI smoke runs (the speedups there are
informational; acceptance is judged on the full grids).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.algorithms import registry  # noqa: E402
from repro.core.cache import (  # noqa: E402
    configure_disk_cache,
    disk_cache,
    result_cache,
)
from repro.core.machine import NCUBE2_LIKE, MachineParams  # noqa: E402
from repro.core.models import MODELS  # noqa: E402
from repro.core.regions import best_algorithm, region_map  # noqa: E402
from repro.experiments.sweep import sweep  # noqa: E402
from repro.simulator import collectives, engine  # noqa: E402
from repro.simulator.engine import Engine  # noqa: E402
from repro.simulator.faults import FaultPlan  # noqa: E402
from repro.simulator.request import Recv, Send  # noqa: E402
from repro.simulator.topology import FullyConnected  # noqa: E402

MACHINE = MachineParams(ts=10.0, tw=2.0)


def _seed_style_sweep(algorithms, n_values, p_values, machine, seed=0, verify=True):
    """The seed repository's sweep loop, verbatim: one sequential RNG,
    per-row ``A @ B`` verification, no hoisting, no cache."""
    rows = []
    rng = np.random.default_rng(seed)
    mats = {}
    for n in n_values:
        mats[n] = (rng.standard_normal((n, n)), rng.standard_normal((n, n)))
    for key in algorithms:
        entry = registry.get(key)
        model = MODELS[entry.model_key]
        for n in n_values:
            for p in p_values:
                if not entry.feasible(n, p):
                    continue
                A, B = mats[n]
                res = entry.run(A, B, p, machine=machine)
                if verify and not np.allclose(res.C, A @ B):
                    raise AssertionError(f"{key} wrong product at (n={n}, p={p})")
                rows.append(
                    {
                        "algorithm": key,
                        "n": n,
                        "p": p,
                        "T_sim": res.parallel_time,
                        "T_model": model.time(n, p, machine),
                        "efficiency_sim": res.efficiency,
                        "efficiency_model": model.efficiency(n, p, machine),
                        "overhead_sim": res.total_overhead,
                        "messages": res.sim.total_messages,
                        "words": res.sim.total_words,
                    }
                )
    return rows


def _seed_style_region_cells(machine, log2_p_max, log2_n_max):
    """The seed region_map core: one Python ``best_algorithm`` call per cell."""
    p_values = [float(2**k) for k in range(0, log2_p_max + 1)]
    n_values = [float(2**k) for k in range(0, log2_n_max + 1)]
    return [[best_algorithm(n, p, machine) for p in p_values] for n in n_values]


def _with_scheduler(name: str, fn):
    """Run *fn* with the module-default scheduler forced to *name*."""
    prev = engine.DEFAULT_SCHEDULER
    engine.DEFAULT_SCHEDULER = name
    try:
        return fn()
    finally:
        engine.DEFAULT_SCHEDULER = prev


def _with_config(scheduler: str, macro: bool, fn):
    """Run *fn* with both engine defaults (scheduler, macro path) forced."""
    prev_s = engine.DEFAULT_SCHEDULER
    prev_m = engine.DEFAULT_MACRO_COLLECTIVES
    engine.DEFAULT_SCHEDULER = scheduler
    engine.DEFAULT_MACRO_COLLECTIVES = macro
    try:
        return fn()
    finally:
        engine.DEFAULT_SCHEDULER = prev_s
        engine.DEFAULT_MACRO_COLLECTIVES = prev_m


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_engine(fast: bool, repeats: int) -> dict:
    from repro.algorithms.cannon import run_cannon

    n_values = (16, 32) if fast else (16, 32, 64)
    p_values = (16, 64) if fast else (16, 64, 256)

    def run_grid():
        for n in n_values:
            rng = np.random.default_rng(n)
            A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
            for p in p_values:
                run_cannon(A, B, p, machine=MACHINE)

    rescan = _time(lambda: _with_scheduler("rescan", run_grid), repeats)
    ready = _time(lambda: _with_scheduler("ready", run_grid), repeats)
    return {"rescan_s": rescan, "ready_s": ready, "speedup": rescan / ready}


def _relay_factory(ring_len: int):
    """Relay rings of *ring_len* consecutive ranks, one token per ring.

    The token moves toward decreasing ranks, so the rescan scheduler's
    increasing-rank pass advances each ring by exactly one hop per O(p)
    scan: total rescan work is O(ring_len * p) while the event count —
    what the heap scheduler's cost tracks — stays O(p).
    """

    def prog(info):
        base = (info.rank // ring_len) * ring_len
        pos = info.rank - base
        down = base + (pos - 1) % ring_len
        up = base + (pos + 1) % ring_len
        if pos == 0:
            yield Send(dst=down, data=0, nwords=8, tag=0)
            got = yield Recv(src=up, tag=0)
        else:
            got = yield Recv(src=up, tag=0)
            yield Send(dst=down, data=got, nwords=8, tag=0)
        return got

    return prog


def bench_engine_heap(fast: bool, repeats: int) -> dict:
    """Heap vs ready vs rescan on the message-path relay workload.

    Two configurations per machine size:

    * *plain* — no faults, no tracing.  All three schedulers are real
      alternatives here; the heap-vs-rescan ratio shows the scheduling
      asymptotics, the heap-vs-ready ratio is honest about the shared
      per-event floor (generator resumes, request objects) that no
      scheduler removes.
    * *fault_active* — an active ``FaultPlan`` (link degradation).  Here
      ``scheduler="ready"`` resolves to the rescan reference — the
      pre-heap engine had no fast path at all in this configuration —
      so this ratio is what the ``heap`` selection actually buys on
      fault-active runs, and it is the gated number.

    Every timed run's ``parallel_time`` is cross-checked between
    schedulers, so the speedup is never measured against a diverged
    simulation.
    """
    p_values = (1024,) if fast else (4096, 16384)
    ring_len = 4096
    plan = FaultPlan(seed=1, horizon=1e9, degrade_rate=0.05, degrade_factor=1.5)
    sizes: dict[str, dict] = {}
    for p in p_values:
        length = min(ring_len, p)
        prog = _relay_factory(length)
        topo = FullyConnected(p)
        # the p = 16384 rescan baseline alone runs for ~10 s; one repeat
        rep = repeats if p <= 4096 else 1

        def run_with(scheduler: str, fault: bool):
            eng = Engine(
                topo, MACHINE, scheduler=scheduler,
                fault_plan=plan if fault else None,
            )
            return eng.run([prog] * p).parallel_time

        t_p = {
            (s, f): run_with(s, f)
            for s in ("heap", "ready", "rescan") for f in (False, True)
        }
        assert len({t for (s, f), t in t_p.items() if not f}) == 1
        assert len({t for (s, f), t in t_p.items() if f}) == 1

        heap_s = _time(lambda: run_with("heap", False), rep)
        ready_s = _time(lambda: run_with("ready", False), rep)
        rescan_s = _time(lambda: run_with("rescan", False), rep)
        fault_heap_s = _time(lambda: run_with("heap", True), rep)
        fault_ready_setting_s = _time(lambda: run_with("ready", True), rep)
        sizes[str(p)] = {
            "ring_len": length,
            "plain": {
                "heap_s": heap_s,
                "ready_s": ready_s,
                "rescan_s": rescan_s,
                "heap_over_rescan": rescan_s / heap_s,
                "heap_over_ready": ready_s / heap_s,
            },
            "fault_active": {
                "heap_s": fault_heap_s,
                "ready_setting_s": fault_ready_setting_s,
                "speedup": fault_ready_setting_s / fault_heap_s,
                "note": "scheduler='ready' resolves to the rescan reference "
                        "when a FaultPlan is active; heap is the only fast "
                        "path in this configuration",
            },
        }
    return {
        "workload": "relay rings toward decreasing ranks, FullyConnected",
        "sizes": sizes,
    }


def _cannon_engine_setup(p: int):
    """Factories + symmetry for a pre-aligned Cannon run with 1x1 blocks.

    Replicates the ``run_cannon`` driver's setup (layout, scatter,
    program factories, SymmetrySpec) so the timed region is exactly
    ``Engine.run`` — the schedulers share the identical inputs and none
    of the host-side scatter/assembly cost dilutes the ratio.
    """
    from repro.algorithms.base import (
        default_topology, grid_coords, grid_layout, rank_vector,
    )
    from repro.algorithms.cannon import cannon_program
    from repro.blockops.partition import BlockSpec
    from repro.simulator.compile import SymmetrySpec

    side = int(np.sqrt(p) + 0.5)
    n = side
    rng = np.random.default_rng(p)
    A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    topo = default_topology(p)
    layout = grid_layout(topo, side, side, scheme="gray")
    spec = BlockSpec(n, n, side, side)
    row_groups = [[layout[i][c] for c in range(side)] for i in range(side)]
    col_groups = [[layout[r][j] for r in range(side)] for j in range(side)]
    row_of, col_of = grid_coords(layout)

    def program(info):
        i, j = row_of[info.rank], col_of[info.rank]
        return cannon_program(
            i, j, info.input("a"), info.input("b"), row_groups[i], col_groups[j],
        )(info)

    gi, gj = np.indices((side, side))
    k = (gi + gj) % side
    symmetry = SymmetrySpec(
        partitions={
            "row": np.asarray(row_groups, dtype=np.int64),
            "col": np.asarray(col_groups, dtype=np.int64),
        },
        inputs={
            "a": (spec.stack(A), rank_vector(layout, gi * side + k)),
            "b": (spec.stack(B), rank_vector(layout, k * side + gj)),
        },
    )
    return topo, program, symmetry


def bench_engine_compiled(fast: bool, repeats: int) -> dict:
    """Trace compilation vs the event heap on fault-free Cannon.

    The compiled scheduler records the symbolic request sequence of a
    few probe ranks, proves the program rank-symmetric, and replays the
    lowered batch schedule as whole-machine vectorized updates — zero
    generator resumes.  Identity first, speed second: at ``p <= 4096``
    every per-rank account is compared bitwise against the heap before
    anything is timed, so the gated ratio can never come from a
    diverged simulation.
    """
    p_identity = 1024 if fast else 4096
    p_gate = 4096 if fast else 65536
    sizes: dict[str, dict] = {}
    for p in sorted({p_identity, p_gate}):
        topo, factories, symmetry = _cannon_engine_setup(p)

        def run_with(scheduler: str):
            return Engine(
                topo, MACHINE, scheduler=scheduler, symmetry=symmetry
            ).run(factories)

        res_c = run_with("compiled")
        assert res_c.compiled, res_c.compile_fallback
        entry: dict = {"side": int(np.sqrt(p) + 0.5)}
        if p <= 4096:
            res_h = run_with("heap")
            arr_c, arr_h = res_c.arrays, res_h.arrays
            identical = res_c.parallel_time == res_h.parallel_time and all(
                np.array_equal(getattr(arr_c, f), getattr(arr_h, f))
                for f in ("clock", "compute_time", "send_time", "recv_wait_time",
                          "barrier_wait_time", "messages_sent", "words_sent")
            )
            entry["identical_to_heap"] = bool(identical)
        else:
            # identity is fuzz-gated at p <= 4096; at 64k only the
            # headline number is cross-checked (a full heap result is
            # produced by the timed run below anyway)
            entry["identical_to_heap"] = None

        rep_heap = repeats if p <= 4096 else 1
        heap_res: list = []

        def run_heap():
            heap_res.append(run_with("heap").parallel_time)

        heap_s = _time(run_heap, rep_heap)
        compiled_s = _time(lambda: run_with("compiled"), repeats)
        assert all(t == res_c.parallel_time for t in heap_res)
        entry.update({
            "heap_s": heap_s,
            "compiled_s": compiled_s,
            "speedup": heap_s / compiled_s,
            "parallel_time": res_c.parallel_time,
        })
        sizes[str(p)] = entry
    return {
        "workload": "pre-aligned Cannon, 1x1 blocks, fault-free hypercube",
        "sizes": sizes,
    }


_MEMORY_SNIPPET = """
import json, resource, sys
import numpy as np
from repro.algorithms.cannon import run_cannon
p, sched = int(sys.argv[1]), sys.argv[2]
side = int(np.sqrt(p) + 0.5)
rng = np.random.default_rng(0)
A = rng.standard_normal((side, side))
B = rng.standard_normal((side, side))
res = run_cannon(A, B, p, scheduler=sched)
print(json.dumps({
    "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "t_p": res.parallel_time,
    "compiled": res.sim.compiled,
}))
"""


def bench_memory(fast: bool) -> dict:
    """Peak RSS and allocation footprint, heap vs compiled schedulers.

    RSS is measured in a subprocess per scheduler (``ru_maxrss`` covers
    the whole run, and a fresh interpreter keeps the two measurements
    from polluting each other); the tracemalloc smoke pass runs
    in-process at ``p = 1024`` and records the traced peak plus live
    allocation blocks right after the run.
    """
    import tracemalloc

    p = 1024 if fast else 16384
    env = {**os.environ,
           "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")}
    rss: dict[str, dict] = {}
    for sched in ("heap", "compiled"):
        proc = subprocess.run(
            [sys.executable, "-c", _MEMORY_SNIPPET, str(p), sched],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        rss[sched] = json.loads(proc.stdout)
    assert rss["heap"]["t_p"] == rss["compiled"]["t_p"]

    smoke: dict[str, dict] = {}
    topo, factories, symmetry = _cannon_engine_setup(1024)
    for sched in ("heap", "compiled"):
        tracemalloc.start()
        Engine(topo, MACHINE, scheduler=sched, symmetry=symmetry).run(factories)
        _, peak = tracemalloc.get_traced_memory()
        blocks = sum(
            s.count for s in tracemalloc.take_snapshot().statistics("filename")
        )
        tracemalloc.stop()
        smoke[sched] = {"traced_peak_bytes": peak, "live_blocks": blocks}
    return {
        "p": p,
        "ru_maxrss_kb": {s: r["ru_maxrss_kb"] for s, r in rss.items()},
        "rss_ratio_heap_over_compiled":
            rss["heap"]["ru_maxrss_kb"] / rss["compiled"]["ru_maxrss_kb"],
        "tracemalloc_smoke_p1024": smoke,
    }


def bench_sweep(fast: bool, repeats: int, jobs: int) -> dict:
    algorithms = ("cannon", "gk", "berntsen", "dns")
    n_values = (8, 16) if fast else (16, 32, 64)
    p_values = (4, 16, 64) if fast else (4, 16, 64, 256)

    seed_once = _time(
        lambda: _with_scheduler(
            "rescan", lambda: _seed_style_sweep(algorithms, n_values, p_values, MACHINE)
        ),
        repeats,
    )

    def new_cold():
        result_cache().clear()
        sweep(algorithms, n_values, p_values, MACHINE, jobs=jobs)

    cold = _time(new_cold, repeats)

    # pipeline: sweep the grid, then re-query it (figure re-export). The
    # seed pays two full passes; the cache serves the second one here.
    pipeline_seed = 2.0 * seed_once

    def new_pipeline():
        result_cache().clear()
        sweep(algorithms, n_values, p_values, MACHINE, jobs=jobs)
        sweep(algorithms, n_values, p_values, MACHINE, jobs=jobs)

    pipeline_new = _time(new_pipeline, repeats)
    warm = _time(lambda: sweep(algorithms, n_values, p_values, MACHINE, jobs=jobs), repeats)

    return {
        "jobs": jobs,
        "seed_style_s": seed_once,
        "new_cold_s": cold,
        "new_warm_s": warm,
        "cold_speedup": seed_once / cold,
        "pipeline_seed_s": pipeline_seed,
        "pipeline_new_s": pipeline_new,
        "pipeline_speedup": pipeline_seed / pipeline_new,
    }


def _bcast_heavy_factory(p: int, rounds: int):
    """A broadcast-dominated SPMD program over the full machine.

    Rotating roots keep every round a genuine one-to-all broadcast (the
    pattern the GK algorithm's outer loop is made of) while the single
    full-machine group (``g = p``) is exactly where the macro executors
    amortize best.
    """
    group = list(range(p))

    def prog(info):
        data = np.ones(64)
        acc = 0.0
        for r in range(rounds):
            root = r % 8
            got = yield from collectives.bcast_binomial(
                info, group, root, data if info.rank == root else None
            )
            acc += float(got[0])
        return acc

    return prog


def bench_collectives(fast: bool, repeats: int) -> dict:
    from repro.experiments import figures45
    from repro.simulator.topology import Hypercube

    # the macro acceptance gate is judged at p = 1024 even in --fast runs
    # (the whole bench is a few seconds); only the fig4/5 grids shrink
    p, rounds = 1024, 32
    topo = Hypercube.of_size(p)
    factory = _bcast_heavy_factory(p, rounds)

    def run_bcast():
        engine.run_spmd(topo, NCUBE2_LIKE, factory)

    macro_s = _time(lambda: _with_config("ready", True, run_bcast), repeats)
    msg_ready_s = _time(lambda: _with_config("ready", False, run_bcast), repeats)
    reference_s = _time(lambda: _with_config("rescan", False, run_bcast), repeats)

    fig4_sizes = (16, 48) if fast else (16, 48, 96, 144)
    fig5_sizes = (66, 132) if fast else (66, 132, 264, 352)

    def run_fig45():
        figures45.run_fig4(sizes=fig4_sizes)
        figures45.run_fig5(sizes=fig5_sizes)

    fig45_fast_s = _time(lambda: _with_config("ready", True, run_fig45), repeats)
    fig45_reference_s = _time(lambda: _with_config("rescan", False, run_fig45), repeats)

    return {
        "bcast": {
            "p": p,
            "rounds": rounds,
            "macro_s": macro_s,
            "msg_ready_s": msg_ready_s,
            "reference_s": reference_s,
            "speedup_vs_reference": reference_s / macro_s,
            "speedup_vs_msg_ready": msg_ready_s / macro_s,
        },
        "fig45_pipeline": {
            "fig4_sizes": list(fig4_sizes),
            "fig5_sizes": list(fig5_sizes),
            "fast_s": fig45_fast_s,
            "reference_s": fig45_reference_s,
            "speedup_vs_reference": fig45_reference_s / fig45_fast_s,
        },
    }


def bench_refinement(fast: bool, repeats: int) -> dict:
    from repro.core.refine import refine_winner_grid
    from repro.core.regions import winner_grid

    resolutions = (256,) if fast else (1024, 4096)
    results: dict[str, dict] = {}
    for res in resolutions:
        n_values = np.geomspace(1.0, 2.0**16, res)
        p_values = np.geomspace(1.0, 2.0**30, res)
        # the 4096^2 dense baseline alone runs for seconds; one repeat
        # is plenty at that scale
        rep = repeats if res <= 1024 else 1
        dense_s = _time(lambda: winner_grid(NCUBE2_LIKE, n_values, p_values), rep)
        refined_s = _time(lambda: refine_winner_grid(NCUBE2_LIKE, n_values, p_values), rep)
        dense = winner_grid(NCUBE2_LIKE, n_values, p_values)
        refined = refine_winner_grid(NCUBE2_LIKE, n_values, p_values)
        results[str(res)] = {
            "dense_s": dense_s,
            "refined_s": refined_s,
            "speedup": dense_s / refined_s,
            "identical": bool((refined.winners == dense).all()),
            "evaluated_fraction": refined.evaluated_fraction,
        }
    return {"machine": "ncube2-like (Figure 1)", "resolutions": results}


def _figures123_pipeline():
    from repro.experiments import figures123

    for fig in ("fig1", "fig2", "fig3"):
        figures123.run(fig)


def bench_disk_cache(fast: bool, repeats: int) -> dict:
    """Cold vs warm figures 1-3 pipeline through the persistent tier.

    "Warm" means a second process-equivalent run: the memory tier is
    cleared between passes, so every reload is served by disk shards.
    """
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        configure_disk_cache(tmp)

        def cold():
            disk_cache().clear()
            result_cache().clear()
            _figures123_pipeline()

        cold_s = _time(cold, repeats)
        # leave the shards of the last cold pass in place and drop only
        # the memory tier: exactly what a fresh process would see
        result_cache().clear()

        def warm():
            result_cache().clear()
            _figures123_pipeline()

        warm_s = _time(warm, repeats)
        warm_stats = disk_cache().stats()

    # one pass against the *persistent* default directory, so a repeated
    # invocation (the CI smoke job runs this twice) can assert hits > 0
    configure_disk_cache(None)
    result_cache().clear()
    _figures123_pipeline()
    persistent = disk_cache()
    persistent_stats = {"dir": persistent.root, **persistent.stats()}

    configure_disk_cache(None, enabled=False)
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_speedup": cold_s / warm_s,
        "warm_disk_stats": warm_stats,
        "persistent": persistent_stats,
    }


def bench_region_map(fast: bool, repeats: int) -> dict:
    log2_p_max, log2_n_max = (20, 10) if fast else (30, 16)
    seed_s = _time(lambda: _seed_style_region_cells(NCUBE2_LIKE, log2_p_max, log2_n_max), repeats)

    def vectorized():
        region_map(NCUBE2_LIKE, log2_p_max=log2_p_max, log2_n_max=log2_n_max, cache=False)

    vec_s = _time(vectorized, repeats)
    return {
        "machine": "ncube2-like (Figure 1)",
        "seed_style_s": seed_s,
        "vectorized_s": vec_s,
        "speedup": seed_s / vec_s,
    }


def bench_serving(fast: bool, repeats: int) -> dict:
    """The serve_loadgen gate section (batched throughput + warm start).

    The serving load is sub-second, so the gate is judged at the full
    1000 concurrent queries even under ``--fast``; serve_loadgen manages
    its own temporary disk-shard directory for the warm-start check and
    restores the guard's disabled-disk state afterwards.
    """
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import serve_loadgen

    return serve_loadgen.gate_section(fast, repeats=repeats)


def _git_sha() -> str:
    """Short commit hash of the working tree, or ``"unknown"``."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_PR10.json")
    parser.add_argument("--fast", action="store_true", help="tiny grids for CI smoke runs")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--jobs", type=int, default=None,
                        help="sweep worker processes (default: cpu count)")
    args = parser.parse_args(argv)

    # computation benches must not be served by shards of earlier runs;
    # bench_disk_cache manages its own configuration
    configure_disk_cache(None, enabled=False)

    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    report = {
        "meta": {
            "fast": args.fast,
            "repeats": args.repeats,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_sha": _git_sha(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "engine": bench_engine(args.fast, args.repeats),
        "engine_heap": bench_engine_heap(args.fast, args.repeats),
        "engine_compiled": bench_engine_compiled(args.fast, args.repeats),
        "memory": bench_memory(args.fast),
        "sweep": bench_sweep(args.fast, args.repeats, jobs),
        "region_map": bench_region_map(args.fast, args.repeats),
        "collectives": bench_collectives(args.fast, args.repeats),
        "refinement": bench_refinement(args.fast, args.repeats),
        "disk_cache": bench_disk_cache(args.fast, args.repeats),
        "serving": bench_serving(args.fast, args.repeats),
    }
    configure_disk_cache(None)
    refres = report["refinement"]["resolutions"]
    largest = str(max(int(k) for k in refres))
    heap_sizes = report["engine_heap"]["sizes"]
    heap_largest = str(max(int(k) for k in heap_sizes))
    compiled_sizes = report["engine_compiled"]["sizes"]
    compiled_largest = str(max(int(k) for k in compiled_sizes))
    report["acceptance"] = {
        # judged at p = 16384 on full runs (--fast measures p = 1024 and
        # is informational, like every other gate)
        "engine_heap_p16384_speedup_ge_10x":
            heap_sizes[heap_largest]["fault_active"]["speedup"] >= 10.0,
        # judged at p = 65536 on full runs (--fast measures p = 4096)
        "engine_compiled_p65536_speedup_ge_8x":
            compiled_sizes[compiled_largest]["speedup"] >= 8.0,
        "engine_compiled_bit_identical": all(
            s["identical_to_heap"] is not False for s in compiled_sizes.values()
        ),
        # the seed-style baseline runs on the rescan scheduler, which the
        # ENG006 cleanup (no dead TraceEvent construction in the reference
        # helpers) made ~25% faster; the measured pipeline ratio moved from
        # ~3.5x to ~2.9-3.0x, so the gate sits under the new floor
        "sweep_pipeline_speedup_ge_2_5x":
            report["sweep"]["pipeline_speedup"] >= 2.5,
        "region_map_speedup_ge_5x": report["region_map"]["speedup"] >= 5.0,
        # the denominator is the rescan reference configuration, which the
        # ENG006 cleanup made ~25% faster (see the fig45/sweep gate notes);
        # the measured ratio moved from ~5.9x to ~4.6-4.9x while the macro
        # path itself is unchanged, so the gate sits under the new floor
        "macro_bcast_speedup_ge_4x":
            report["collectives"]["bcast"]["speedup_vs_reference"] >= 4.0,
        # the full-size fig 4/5 grids spend most of their time in local
        # numpy matmuls that are identical in both configurations, which
        # dilutes the scheduler/collective advantage relative to the
        # --fast grids (~2.2x there).  The ENG006 cleanup removed dead
        # TraceEvent construction from the rescan reference helpers,
        # making the *baseline* ~25% faster and lowering the measured
        # full-size floor from ~1.9x to ~1.35-1.5x; the gate sits under
        # the new floor
        "fig45_pipeline_speedup_ge_1_25x":
            report["collectives"]["fig45_pipeline"]["speedup_vs_reference"] >= 1.25,
        # refinement's advantage is asymptotic in resolution: gate the
        # 8x at the largest measured grid, hold a floor at 1024^2
        "refinement_speedup_ge_8x": refres[largest]["speedup"] >= 8.0,
        "refinement_1024_speedup_ge_1_5x":
            refres.get("1024", refres[largest])["speedup"] >= 1.5,
        "refinement_bit_identical": all(r["identical"] for r in refres.values()),
        "disk_cache_warm_speedup_ge_10x": report["disk_cache"]["warm_speedup"] >= 10.0,
        # the serving load is full-size even under --fast (sub-second);
        # identity is exact payload equality, not closeness — both modes
        # end in the same vectorized scan
        "serving_batched_speedup_ge_8x":
            report["serving"]["throughput"]["speedup"] >= 8.0,
        "serving_batched_identical":
            report["serving"]["throughput"]["identical_to_unbatched"],
        "serving_coalescing_counters_nonzero":
            report["serving"]["throughput"]["coalescing"]["batches"] > 0
            and report["serving"]["throughput"]["coalescing"]["batched_points"] > 0,
        "serving_warm_start_zero_reevaluations":
            report["serving"]["warm_start"]["zero_reevaluations"],
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    print(f"engine:     rescan {report['engine']['rescan_s']:.3f}s  "
          f"ready {report['engine']['ready_s']:.3f}s  "
          f"speedup {report['engine']['speedup']:.2f}x")
    for p, sz in heap_sizes.items():
        pl, fa = sz["plain"], sz["fault_active"]
        print(f"engine_heap: p={p} plain heap {pl['heap_s']:.3f}s "
              f"ready {pl['ready_s']:.3f}s rescan {pl['rescan_s']:.3f}s "
              f"({pl['heap_over_rescan']:.1f}x vs rescan)  "
              f"fault-active heap {fa['heap_s']:.3f}s "
              f"ready-setting {fa['ready_setting_s']:.3f}s "
              f"({fa['speedup']:.1f}x)")
    for p, sz in compiled_sizes.items():
        print(f"engine_compiled: p={p} heap {sz['heap_s']:.3f}s "
              f"compiled {sz['compiled_s']:.3f}s ({sz['speedup']:.1f}x)  "
              f"identical {sz['identical_to_heap']}")
    mem = report["memory"]
    print(f"memory:     p={mem['p']} rss heap {mem['ru_maxrss_kb']['heap']}kB "
          f"compiled {mem['ru_maxrss_kb']['compiled']}kB "
          f"(ratio {mem['rss_ratio_heap_over_compiled']:.2f}x)")
    print(f"sweep:      seed {report['sweep']['seed_style_s']:.3f}s  "
          f"cold {report['sweep']['new_cold_s']:.3f}s ({report['sweep']['cold_speedup']:.2f}x)  "
          f"warm {report['sweep']['new_warm_s']*1e3:.1f}ms  "
          f"pipeline {report['sweep']['pipeline_speedup']:.2f}x")
    print(f"region_map: seed {report['region_map']['seed_style_s']*1e3:.1f}ms  "
          f"vectorized {report['region_map']['vectorized_s']*1e3:.2f}ms  "
          f"speedup {report['region_map']['speedup']:.1f}x")
    bc = report["collectives"]["bcast"]
    f45 = report["collectives"]["fig45_pipeline"]
    print(f"collectives: bcast p={bc['p']} macro {bc['macro_s']:.3f}s  "
          f"reference {bc['reference_s']:.3f}s ({bc['speedup_vs_reference']:.2f}x, "
          f"{bc['speedup_vs_msg_ready']:.2f}x vs msg-ready)  "
          f"fig45 {f45['fast_s']:.3f}s vs {f45['reference_s']:.3f}s "
          f"({f45['speedup_vs_reference']:.2f}x)")
    for res, r in report["refinement"]["resolutions"].items():
        print(f"refinement: {res}x{res} dense {r['dense_s']*1e3:.1f}ms  "
              f"refined {r['refined_s']*1e3:.1f}ms  speedup {r['speedup']:.1f}x  "
              f"identical {r['identical']}  "
              f"evaluated {r['evaluated_fraction']*100:.1f}%")
    dc = report["disk_cache"]
    print(f"disk_cache: figs123 cold {dc['cold_s']*1e3:.1f}ms  "
          f"warm {dc['warm_s']*1e3:.1f}ms  speedup {dc['warm_speedup']:.1f}x  "
          f"persistent hits {dc['persistent']['hits']} "
          f"writes {dc['persistent']['writes']}")
    srv_t = report["serving"]["throughput"]
    srv_w = report["serving"]["warm_start"]
    print(f"serving:    {srv_t['queries']} queries batched "
          f"{srv_t['batched']['wall_s']*1e3:.1f}ms "
          f"(p99 {srv_t['batched']['p99_ms']:.2f}ms)  unbatched "
          f"{srv_t['unbatched']['wall_s']*1e3:.1f}ms  "
          f"speedup {srv_t['speedup']:.1f}x  "
          f"identical {srv_t['identical_to_unbatched']}  "
          f"batches {srv_t['coalescing']['batches']}  "
          f"warm fresh-computes {srv_w['fresh_computes']}")
    print(f"acceptance: {report['acceptance']}")
    print(f"wrote {args.out}")
    return 0 if all(report["acceptance"].values()) or args.fast else 1


if __name__ == "__main__":
    sys.exit(main())
