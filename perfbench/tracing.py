"""Span tracing for the benchmark's traced runs, applied from outside the program.

Nothing in ``src/`` records spans.  Instead :func:`install` wraps the
public functions that mark each layer's boundary -- methods on their
class, module functions at every module attribute bound to them (a
``from x import f`` binding bypasses a patch on ``x`` alone) -- and
records one span per call: name, thread, start, end, parent span, and a
few counts read off the call's result.  Spans stay in memory and are
written out by :func:`dump` (at interpreter exit when run as the
bootstrap below).  :func:`layer_metrics` turns a dump into the named
per-layer metrics; a layer's self time is its span time minus the time
of the spans nested in it.

Run as a script it is the bootstrap for a program started with ``-m``::

    python perfbench/tracing.py --out spans.json -m repro serve --port 0

installs the wrappers, runs the module as ``__main__``, and writes the
spans when the process exits.

This module imports nothing from the program at import time, so the
benchmark's ``run.py`` (stdlib only) can use :func:`layer_metrics` and
:data:`LAYER_METRICS`.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import inspect
import json
import statistics
import sys
import threading
import time
from typing import Any, Callable

#: Per-layer metrics: (name, unit, better, end-to-end metric it should
#: move, workloads it shows on).  BENCHMARK.json's ``per_layer`` list
#: holds the same names, units and directions.
LAYER_METRICS: tuple[tuple[str, str, str, str, str], ...] = (
    ("import.total_s", "s", "lower", "setup_s", "all; most on model-maps, serve-closed"),
    ("import.scipy_s", "s", "lower", "setup_s", "all"),
    ("import.numpy_s", "s", "lower", "setup_s", "all"),
    ("import.repro_self_s", "s", "lower", "setup_s", "all"),
    ("simulator.engine.runs", "count", "lower", "wall_s", "paper-figs"),
    ("simulator.engine.s", "s", "lower", "wall_s", "paper-figs (little on scale-64k)"),
    ("simulator.engine.messages", "count", "lower", "- (guard)", "paper-figs, scale-64k"),
    ("simulator.engine.words", "count", "lower", "- (guard)", "paper-figs, scale-64k"),
    ("simulator.collectives.calls", "count", "lower", "wall_s", "paper-figs"),
    ("simulator.compile.record_s", "s", "lower", "wall_s", "scale-64k"),
    ("simulator.compile.replay_s", "s", "lower", "wall_s", "scale-64k"),
    ("simulator.compile.engaged_frac", "fraction", "higher", "wall_s", "scale-64k"),
    ("simulator.macro.batch_calls", "count", "lower", "wall_s", "scale-64k"),
    ("simulator.macro.batch_s", "s", "lower", "wall_s", "scale-64k"),
    ("simulator.trace.snapshot_s", "s", "lower", "wall_s, rss_delta_mb", "scale-64k"),
    ("blockops.scatter_s", "s", "lower", "wall_s, rss_delta_mb", "scale-64k; small on paper-figs"),
    ("blockops.gather_s", "s", "lower", "wall_s, rss_delta_mb", "scale-64k; small on paper-figs"),
    ("algorithms.driver_self_s", "s", "lower", "wall_s", "paper-figs, scale-64k"),
    ("core.winner_grid.calls", "count", "lower", "wall_s", "model-maps"),
    ("core.winner_grid.s", "s", "lower", "wall_s", "model-maps"),
    ("core.refine.s", "s", "lower", "wall_s", "model-maps"),
    ("core.refine.evaluated_frac", "fraction", "lower", "wall_s", "model-maps"),
    ("core.crossover.solves", "count", "lower", "wall_s", "model-maps (2 on paper-figs)"),
    ("core.crossover.s", "s", "lower", "wall_s", "model-maps"),
    ("core.isoefficiency.s", "s", "lower", "wall_s", "model-maps"),
    ("core.cache.mem_hits", "count", "higher", "warm_wall_s", "model-maps; serve-closed setup_s"),
    ("core.cache.disk_hits", "count", "higher", "warm_wall_s", "model-maps; serve-closed setup_s"),
    ("core.cache.disk_misses", "count", "lower", "wall_s", "model-maps; serve-closed setup_s"),
    ("core.cache.load_s", "s", "lower", "warm_wall_s", "model-maps"),
    ("core.cache.store_s", "s", "lower", "wall_s", "model-maps"),
    ("core.prediction.calls", "count", "lower", "latency_p50_ms, qps", "serve-closed"),
    ("core.prediction.points", "count", "lower", "latency_p50_ms, qps", "serve-closed"),
    ("core.prediction.s", "s", "lower", "latency_p50_ms, qps", "serve-closed"),
    ("serve.batcher.batches", "count", "lower", "latency_p50_ms, qps", "serve-closed"),
    ("serve.batcher.mean_batch", "points", "higher", "latency_p50_ms, qps", "serve-closed"),
    ("serve.batcher.timer_flush_frac", "fraction", "lower", "latency_p50_ms, qps", "serve-closed"),
    ("serve.predict.p50_ms", "ms", "lower", "latency_p99_ms", "serve-closed"),
    ("serve.predict_multi.p50_ms", "ms", "lower", "latency_p99_ms", "serve-closed"),
    ("serve.regions.p50_ms", "ms", "lower", "latency_p99_ms", "serve-closed"),
    ("serve.crossover.p50_ms", "ms", "lower", "latency_p99_ms", "serve-closed"),
    ("serve.tier.hits", "count", "higher", "latency_p99_ms", "serve-closed"),
    ("serve.tier.misses", "count", "lower", "latency_p99_ms", "serve-closed"),
    ("serve.preload_s", "s", "lower", "setup_s", "serve-closed"),
    ("trace.overhead_frac", "fraction", "lower", "-", "all"),
)

#: Paid once per process, not per round: reported as measured.  Every
#: other count or time is divided by the traced run's number of rounds,
#: so it does not depend on how many rounds fit into the run.
PER_PROCESS = frozenset(
    {"import.total_s", "import.scipy_s", "import.numpy_s", "import.repro_self_s", "serve.preload_s"}
)


# -- what gets wrapped -----------------------------------------------------------


def _sim_attrs(args: tuple, result: Any) -> dict[str, Any]:
    return {
        "messages": int(result.total_messages),
        "words": int(result.total_words),
        "compiled": bool(result.compiled),
    }


def _refine_attrs(args: tuple, result: Any) -> dict[str, Any]:
    return {"evaluated": int(result.points_evaluated), "cells": int(result.evaluated.size)}


def _hit_attrs(args: tuple, result: Any) -> dict[str, Any]:
    return {"hit": result is not None}


def _mem_attrs(args: tuple, result: Any) -> dict[str, Any]:
    from repro.core.cache import result_cache

    # ServeTier keeps its own ResultCache as an LRU; only the process-wide
    # memory tier counts as core.cache
    return {"hit": result is not None, "global": args[0] is result_cache()}


def _points_attrs(args: tuple, result: Any) -> dict[str, Any]:
    return {"points": len(result)}


def _dispatch_attrs(args: tuple, result: Any) -> dict[str, Any]:
    path = args[2] if len(args) > 2 else ""
    body = args[3] if len(args) > 3 else None
    if path == "/predict" and isinstance(body, dict) and "points" in body:
        path = "/predict_multi"
    return {"route": path, "status": result[0]}


_DRIVERS = {
    "repro.algorithms.cannon": ("run_cannon",),
    "repro.algorithms.gk": ("run_gk", "run_gk_cm5"),
    "repro.algorithms.berntsen": ("run_berntsen",),
    "repro.algorithms.simple": ("run_simple",),
    "repro.algorithms.fox": ("run_fox",),
    "repro.algorithms.dns": ("run_dns_block", "run_dns_one_per_element"),
    "repro.algorithms.registry": ("run",),
}

_COLLECTIVES = (
    "sendrecv",
    "bcast_binomial",
    "reduce_binomial",
    "allgather_recursive_doubling",
    "allgather_ring",
    "reduce_scatter_halving",
    "shift_cyclic",
    "barrier",
)

#: (span name, module, attribute path, attrs extractor).  Calls into a
#: generator function are counted, not timed (the call only builds the
#: generator).
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("simulator.engine", "repro.simulator.engine", "Engine.run", _sim_attrs),
    ("simulator.compile.record", "repro.simulator.compile", "compile_spmd", None),
    ("simulator.compile.replay", "repro.simulator.compile", "BatchSchedule.replay", None),
    ("simulator.macro.batch", "repro.simulator.macro", "run_batch_collective", None),
    ("simulator.trace.snapshot", "repro.simulator.trace", "RankArrays.snapshot", None),
    ("blockops.scatter", "repro.blockops.partition", "BlockSpec.scatter", None),
    ("blockops.gather", "repro.blockops.partition", "BlockSpec.gather", None),
    *(
        ("algorithms.driver", module, name, None)
        for module, names in _DRIVERS.items()
        for name in names
    ),
    *(
        ("simulator.collectives", "repro.simulator.collectives", name, None)
        for name in _COLLECTIVES
    ),
    ("core.winner_grid", "repro.core.regions", "winner_grid", None),
    ("core.refine", "repro.core.refine", "refine_winner_grid", _refine_attrs),
    ("core.crossover", "repro.core.crossover", "crossover_curve", None),
    ("core.crossover", "repro.core.crossover", "equal_overhead_n", None),
    ("core.isoefficiency", "repro.core.isoefficiency", "isoefficiency", None),
    ("core.cache.mem", "repro.core.cache", "ResultCache.get", _mem_attrs),
    ("core.cache.load", "repro.core.cache", "DiskCache.get_json", _hit_attrs),
    ("core.cache.load", "repro.core.cache", "DiskCache.get_arrays", _hit_attrs),
    ("core.cache.store", "repro.core.cache", "DiskCache.put_json", None),
    ("core.cache.store", "repro.core.cache", "DiskCache.put_arrays", None),
    ("core.prediction", "repro.core.prediction", "predict_points", _points_attrs),
    ("serve.preload", "repro.serve.cache", "ServeTier.preload", None),
    ("serve.dispatch", "repro.serve.app", "ReproServer.dispatch", _dispatch_attrs),
)


# -- the recorder ----------------------------------------------------------------


class Recorder:
    """In-memory spans and call counters for one process."""

    def __init__(self) -> None:
        # [name, thread id, start ns, end ns, parent index or -1, attrs]
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()  # a span's index is its list position

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func: Callable, attrs: Callable | None) -> Callable:
        if inspect.isgeneratorfunction(func):
            counts = self.counts

            @functools.wraps(func)
            def counted(*args: Any, **kwargs: Any) -> Any:
                counts[name] = counts.get(name, 0) + 1
                return func(*args, **kwargs)

            return counted

        spans, lock = self.spans, self._lock
        if inspect.iscoroutinefunction(func):
            # concurrent coroutines interleave on one thread, so async
            # spans are not nested into the thread's span stack

            @functools.wraps(func)
            async def timed_async(*args: Any, **kwargs: Any) -> Any:
                start = time.perf_counter_ns()
                result = await func(*args, **kwargs)
                end = time.perf_counter_ns()
                info = attrs(args, result) if attrs is not None else None
                with lock:
                    spans.append([name, threading.get_ident(), start, end, -1, info])
                return result

            return timed_async

        stack_of = self._stack

        @functools.wraps(func)
        def timed(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            with lock:
                index = len(spans)
                spans.append([name, threading.get_ident(), 0, 0, stack[-1] if stack else -1, None])
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index][2] = start
                spans[index][3] = end
            if attrs is not None:
                spans[index][5] = attrs(args, result)
            return result

        return timed

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def rebind(original: Callable, wrapper: Callable) -> None:
    """Point every loaded module attribute bound to *original* at *wrapper*."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(recorder: Recorder) -> None:
    """Wrap every target in :data:`TARGETS` (importing its module first)."""
    for _, module_name, _, _ in TARGETS:
        importlib.import_module(module_name)
    for name, module_name, path, attrs in TARGETS:
        module = sys.modules[module_name]
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            if isinstance(inspect.getattr_static(cls, meth), (staticmethod, classmethod)):
                raise TypeError(f"{module_name}.{path}: only plain methods are wrapped")
            setattr(cls, meth, recorder.wrap(name, getattr(cls, meth), attrs))
        else:
            original = getattr(module, path)
            rebind(original, recorder.wrap(name, original, attrs))


# -- from a dump to the per-layer metrics ------------------------------------------


def _p50_ms(durations: list[int]) -> float:
    return statistics.median(durations) / 1e6 if durations else 0.0


def layer_metrics(dump: dict[str, Any]) -> dict[str, float]:
    """Named per-layer values from one process's spans and counters."""
    spans = dump["spans"]
    counts = dump["counts"]
    child_ns = [0] * len(spans)
    for name, _tid, start, end, parent, _info in spans:
        if parent >= 0:
            child_ns[parent] += end - start

    total: dict[str, int] = {}
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    for i, (name, _tid, start, end, _parent, _info) in enumerate(spans):
        total[name] = total.get(name, 0) + end - start
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + end - start - child_ns[i]

    def infos(name: str) -> list[dict[str, Any]]:
        return [s[5] for s in spans if s[0] == name and s[5] is not None]

    def seconds(name: str) -> float:
        return total.get(name, 0) / 1e9

    engine = infos("simulator.engine")
    refine = infos("core.refine")
    mem = [i for i in infos("core.cache.mem") if i["global"]]
    loads = infos("core.cache.load")
    routes: dict[str, list[int]] = {}
    for name, _tid, start, end, _parent, info in spans:
        if name == "serve.dispatch" and info is not None:
            routes.setdefault(info["route"], []).append(end - start)
    cells = sum(i["cells"] for i in refine)
    return {
        "simulator.engine.runs": float(len(engine)),
        "simulator.engine.s": seconds("simulator.engine"),
        "simulator.engine.messages": float(sum(i["messages"] for i in engine)),
        "simulator.engine.words": float(sum(i["words"] for i in engine)),
        "simulator.collectives.calls": float(counts.get("simulator.collectives", 0)),
        "simulator.compile.record_s": seconds("simulator.compile.record"),
        "simulator.compile.replay_s": seconds("simulator.compile.replay"),
        "simulator.compile.engaged_frac": (
            sum(i["compiled"] for i in engine) / len(engine) if engine else 0.0
        ),
        "simulator.macro.batch_calls": float(calls.get("simulator.macro.batch", 0)),
        "simulator.macro.batch_s": seconds("simulator.macro.batch"),
        "simulator.trace.snapshot_s": seconds("simulator.trace.snapshot"),
        "blockops.scatter_s": seconds("blockops.scatter"),
        "blockops.gather_s": seconds("blockops.gather"),
        "algorithms.driver_self_s": self_ns.get("algorithms.driver", 0) / 1e9,
        "core.winner_grid.calls": float(calls.get("core.winner_grid", 0)),
        "core.winner_grid.s": seconds("core.winner_grid"),
        "core.refine.s": seconds("core.refine"),
        "core.refine.evaluated_frac": (
            sum(i["evaluated"] for i in refine) / cells if cells else 0.0
        ),
        "core.crossover.solves": float(calls.get("core.crossover", 0)),
        "core.crossover.s": seconds("core.crossover"),
        "core.isoefficiency.s": seconds("core.isoefficiency"),
        "core.cache.mem_hits": float(sum(i["hit"] for i in mem)),
        "core.cache.disk_hits": float(sum(i["hit"] for i in loads)),
        "core.cache.disk_misses": float(sum(not i["hit"] for i in loads)),
        "core.cache.load_s": seconds("core.cache.load"),
        "core.cache.store_s": seconds("core.cache.store"),
        "core.prediction.calls": float(calls.get("core.prediction", 0)),
        "core.prediction.points": float(sum(i["points"] for i in infos("core.prediction"))),
        "core.prediction.s": seconds("core.prediction"),
        "serve.predict.p50_ms": _p50_ms(routes.get("/predict", [])),
        "serve.predict_multi.p50_ms": _p50_ms(routes.get("/predict_multi", [])),
        "serve.regions.p50_ms": _p50_ms(routes.get("/regions", [])),
        "serve.crossover.p50_ms": _p50_ms(routes.get("/crossover", [])),
        "serve.preload_s": seconds("serve.preload"),
    }


def parse_importtime(stderr: str) -> dict[str, float]:
    """``import.*`` metrics from the ``-X importtime`` lines of one process."""
    by_root: dict[str, int] = {}
    total_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the column header
        self_us = int(fields[0])
        root = fields[2].strip().split(".")[0]
        by_root[root] = by_root.get(root, 0) + self_us
        total_us += self_us
    return {
        "import.total_s": total_us / 1e6,
        "import.scipy_s": by_root.get("scipy", 0) / 1e6,
        "import.numpy_s": by_root.get("numpy", 0) / 1e6,
        "import.repro_self_s": by_root.get("repro", 0) / 1e6,
    }


def _main(argv: list[str]) -> None:
    import argparse
    import runpy

    parser = argparse.ArgumentParser(description="run a module with layer spans recorded")
    parser.add_argument("--out", required=True, help="where the spans are written at exit")
    parser.add_argument("-m", dest="module", required=True, help="module to run as __main__")
    args, rest = parser.parse_known_args(argv)
    recorder = Recorder()
    install(recorder)
    atexit.register(recorder.dump, args.out)
    sys.argv = [args.module, *rest]
    runpy.run_module(args.module, run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    _main(sys.argv[1:])
