"""One workload process: import, report ready, run rounds, write the result.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``::

    python perfbench/worker.py --workload NAME --seed N --seconds S --out RESULT.json
        [--trace-out SPANS.json] [--tiny]
    python perfbench/worker.py --workload NAME --import-only

``--import-only`` is the baseline process: the workload's imports and
nothing else, so its peak RSS is what ``rss_delta_mb`` subtracts.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import importlib
import json
import os
import sys
import time

from procs import READY, peak_rss_kb, python_cmd, start_server, stop_server
from workloads import ENTRY_MODULES, Ops, ServeClosed, build

HERE = os.path.dirname(os.path.abspath(__file__))


def _enough(rounds: int, elapsed: float, seconds: float) -> bool:
    """Stop when one more round would end further past *seconds* than now is before it."""
    return elapsed + 0.5 * elapsed / rounds > seconds


def _rounds(workload, ops: Ops, seconds: float) -> tuple[list[list], float]:
    """Rounds of the workload's phases until *seconds* are about used.

    Returns the phases ``[phase, seconds, start, end]`` -- seconds the
    phase's operations took, and when the phase began and ended -- and
    the elapsed time.
    """
    walls: list[list] = []
    start = time.perf_counter()
    while True:
        for phase in workload.PHASES:
            begin = time.perf_counter()
            walls.append([phase, workload.round(ops, phase), begin, time.perf_counter()])
        elapsed = time.perf_counter() - start
        if _enough(len(walls) // len(workload.PHASES), elapsed, seconds):
            ops.speed.sample()
            return walls, elapsed


def _run_batch(args: argparse.Namespace, ops: Ops) -> dict:
    if args.trace_out:
        from tracing import Recorder, install

        # before build(): a workload's own hooks then wrap the traced functions
        recorder = Recorder()
        install(recorder)
        atexit.register(recorder.dump, args.trace_out)
    workload = build(args.workload, args.seed, args.tiny)
    walls, elapsed = _rounds(workload, ops, args.seconds)
    return {"walls": walls, "elapsed": elapsed}


async def _closed_loop(
    workload: ServeClosed, ops: Ops, port: int, min_rounds: int, seconds: float
) -> list[list]:
    """Rounds against one server: at least *min_rounds*, and about *seconds*."""
    await workload.open(port)
    try:
        walls: list[list] = []
        start = time.perf_counter()
        while True:
            ops.speed.maybe_sample()  # between rounds: both sides idle
            begin = time.perf_counter()
            took = await workload.round(ops, "cold")
            walls.append(["cold", took, begin, begin + took])
            rounds, elapsed = len(walls), time.perf_counter() - start
            if rounds >= min_rounds and _enough(rounds, elapsed, seconds):
                return walls
    finally:
        await workload.close()


def _run_serve(args: argparse.Namespace, ops: Ops) -> dict:
    """``ServeClosed.SERVERS`` servers one after another, each on an empty cache.

    Each takes an equal share of the rounds and of the time, so that
    every run makes at least ``MIN_ROUNDS`` rounds (enough p99 windows,
    however slow the host is) and the per-server figures (set-up time,
    memory) are medians over several servers.  A traced run uses one.
    """
    import asyncio

    from procs import get_json

    serve = ["-m", "repro", "serve", "--port", "0"]
    if args.trace_out:
        cmd = python_cmd(os.path.join(HERE, "tracing.py"), "--out", args.trace_out, *serve)
        servers, min_rounds = 1, 1
    else:
        cmd = python_cmd(*serve)
        servers = ServeClosed.SERVERS
        min_rounds = -(-ServeClosed.MIN_ROUNDS // servers)
    workload = ServeClosed(args.seed, args.tiny)
    walls: list[list] = []
    runs: list[dict] = []
    start = time.perf_counter()
    for i in range(servers):
        cache = os.path.join(os.environ["REPRO_CACHE_DIR"], f"server-{i}")
        server, port, setup_s = start_server(
            cmd, dict(os.environ, REPRO_CACHE_DIR=cache), os.getcwd(), timeout=120.0
        )
        try:
            ready_rss_kb = peak_rss_kb(server.pid)
            share = args.seconds * (i + 1) / servers - (time.perf_counter() - start)
            # the load generator's own collector pauses are not server
            # latency; what it allocates in the loop is acyclic, so
            # refcounting frees it
            gc.disable()
            try:
                walls += asyncio.run(_closed_loop(workload, ops, port, min_rounds, share))
            finally:
                gc.enable()
            stats = get_json(port, "/stats")
            # VmHWM, not the reaped ru_maxrss: that also counts the pages
            # the server shared with this process between fork and exec
            peak_kb = peak_rss_kb(server.pid)
        finally:
            stop_server(server)
        runs.append(
            {"setup_s": setup_s, "ready_rss_kb": ready_rss_kb, "peak_rss_kb": peak_kb,
             "stats": stats}
        )
    elapsed = time.perf_counter() - start
    ops.speed.sample()
    workload.verify(ops)
    return {"walls": walls, "elapsed": elapsed, "servers": runs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ENTRY_MODULES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out")
    parser.add_argument("--trace-out")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args(argv)

    for module in ENTRY_MODULES[args.workload]:
        importlib.import_module(module)
    print(READY, flush=True)
    if args.import_only:
        return 0

    import numpy

    ops = Ops()
    run = _run_serve if args.workload == "serve-closed" else _run_batch
    result = run(args, ops)
    result.update(
        workload=args.workload,
        seed=args.seed,
        records=ops.records,
        errors=ops.errors,
        speed=ops.speed.dump(),
        numpy=numpy.__version__,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
