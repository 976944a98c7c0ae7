"""The benchmark's workloads, run inside one workload process each.

A workload is a loop of *rounds*.  A round runs the phases the
workload's ``PHASES`` names: ``cold``, the unit of work on fresh inputs
with the program's caches cleared, and on ``model-maps`` alone, the one
workload with a cache tier worth warming, ``warm`` reruns on the same
inputs with the memory tier cleared and the disk tier left warm (what a
second CLI invocation pays).  Every call into the program is one
*operation*; its latency is timed around the call alone, and its output
is checked afterwards (outside the timing) against goldens captured
from the program, or -- for served predictions -- against a direct
``predict_points`` call.  A check that
fails, an exception, or a non-2xx response counts the operation as
failed.

``python perfbench/workloads.py --capture`` rewrites ``goldens.json``
from the program on the path (``PYTHONPATH=src``), at full and tiny size.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import random
import sys
import time
from typing import Any, Callable

from speed import SpeedTrack

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens.json")

#: What each workload process imports before it reports ready -- the same
#: set the import-only baseline process imports.
ENTRY_MODULES: dict[str, tuple[str, ...]] = {
    "paper-figs": ("numpy", "repro.experiments.figures45", "repro.experiments.scaling"),
    "scale-64k": ("numpy", "repro.experiments.scaling"),
    "model-maps": (
        "numpy",
        "repro.core.cache",
        "repro.core.regions",
        "repro.core.refine",
        "repro.core.crossover",
        "repro.experiments.figures123",
        "repro.experiments.section6",
        "repro.experiments.table1",
    ),
    # what ``python -m repro serve`` imports before it binds its socket
    "serve-closed": ("numpy", "repro.cli", "repro.serve"),
}
WORKLOADS = tuple(ENTRY_MODULES)

#: Stated tolerances of the output checks.
SIM_RTOL = 1e-9  # simulated times/efficiencies: deterministic for fixed sizes
MODEL_RTOL = 1e-9  # closed-form model efficiencies
ROOT_RTOL = 1e-6  # root-finder outputs: crossovers, isoefficiency fits
PAPER_FIG4, PAPER_FIG5, PAPER_ATOL = 83.0, 295.0, 1.5
TABLE1_ATOL = 1e-3

#: Sizes per mode: "full" is what the benchmark measures, "tiny" is for
#: the benchmark's own tests.
SIZES: dict[str, dict[str, Any]] = {
    "full": {
        "fig4": (8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 160, 192),
        "fig5": (44, 66, 88, 110, 132, 176, 220, 264, 308, 352, 440),
        "scale_p": 65536,
        "dense": 1024,
        "refine": 4096,
        "curve_points": 64,
        "round_requests": 1000,
    },
    "tiny": {
        "fig4": (8, 16),
        "fig5": (44,),
        "scale_p": 64,
        "dense": 64,
        "refine": 128,
        "curve_points": 8,
        "round_requests": 20,
    },
}


def _mode(tiny: bool) -> str:
    return "tiny" if tiny else "full"


# -- operations ---------------------------------------------------------------------


class Ops:
    """Per-operation records ``[kind, seconds, ok, start]`` plus the first errors.

    The host-speed track is sampled between operations (see speed.py),
    never inside one.
    """

    def __init__(self) -> None:
        self.records: list[list[Any]] = []
        self.errors: list[str] = []
        self.speed = SpeedTrack()

    def fail(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def call(
        self, kind: str, fn: Callable[[], Any], check: Callable[[Any], str | None]
    ) -> float:
        """Time ``fn()``, then check its output; returns the seconds taken."""
        self.speed.maybe_sample()
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # any exception is a failed operation
            seconds = time.perf_counter() - start
            self.records.append([kind, seconds, False, start])
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return seconds
        seconds = time.perf_counter() - start
        try:
            problem = check(out)
        except Exception as exc:  # a check that cannot read the output fails it
            problem = f"check raised {type(exc).__name__}: {exc}"
        self.records.append([kind, seconds, problem is None, start])
        if problem is not None:
            self.fail(f"{kind}: {problem}")
        return seconds


def _close(got: Any, want: Any, rtol: float) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return math.isclose(float(got), float(want), rel_tol=rtol, abs_tol=0.0)


def _grid_hash(winners: Any) -> str:
    import numpy as np

    # winner indices are small; int8 keeps the copy (and the peak RSS the
    # check adds to the workload process) to one byte per cell
    arr = np.asarray(winners)
    if arr.size and (arr.min() < 0 or arr.max() > 127):
        return "out-of-range winner index"
    small = np.ascontiguousarray(arr, dtype=np.int8)
    return hashlib.sha256(repr(small.shape).encode() + small.tobytes()).hexdigest()


def _log_grid(hi_log2: int, size: int) -> Any:
    import numpy as np

    return np.geomspace(1.0, float(2**hi_log2), size)


def _curve_ps(count: int) -> list[float]:
    return [2.0 ** (2 + 28 * i / (count - 1)) for i in range(count)]


# -- paper-figs ------------------------------------------------------------------------


def _fig_summary(curves: Any) -> dict[str, Any]:
    return {
        "crossover_model": curves.crossover_model,
        "crossover_sim": curves.crossover_sim,
        "rows": {
            str(r["n"]): [r["E_gk_sim"], r["E_cannon_sim"], r["E_gk_model"], r["E_cannon_model"]]
            for r in curves.rows
        },
    }


def _check_fig(golden: dict[str, Any], paper: float, full: bool) -> Callable[[Any], str | None]:
    def check(curves: Any) -> str | None:
        got = _fig_summary(curves)
        if got["rows"].keys() != golden["rows"].keys():
            return f"sizes {sorted(got['rows'])} != {sorted(golden['rows'])}"
        for n, want in golden["rows"].items():
            have = got["rows"][n]
            for i, rtol in enumerate((SIM_RTOL, SIM_RTOL, MODEL_RTOL, MODEL_RTOL)):
                if not _close(have[i], want[i], rtol):
                    return f"n={n} column {i}: {have[i]!r} != {want[i]!r}"
        for key in ("crossover_model", "crossover_sim"):
            if not _close(got[key], golden[key], ROOT_RTOL):
                return f"{key} {got[key]!r} != {golden[key]!r}"
        if full and abs(got["crossover_model"] - paper) > PAPER_ATOL:
            return f"model crossover {got['crossover_model']} is not ~{paper}"
        return None

    return check


def _scaling_summary(results: dict[str, list[dict]]) -> dict[str, list[list[float]]]:
    return {
        part: [[r["efficiency_sim"], r["efficiency_model"]] for r in rows]
        for part, rows in sorted(results.items())
    }


def _check_rows(golden: dict[str, list[list[float]]], rtols: tuple[float, ...]) -> Callable:
    def check(summary: dict[str, list[list[float]]]) -> str | None:
        if summary.keys() != golden.keys():
            return f"parts {sorted(summary)} != {sorted(golden)}"
        for part, rows in golden.items():
            if len(summary[part]) != len(rows):
                return f"{part}: {len(summary[part])} rows != {len(rows)}"
            for have, want in zip(summary[part], rows):
                for h, w, rtol in zip(have, want, rtols):
                    if not _close(h, w, rtol):
                        return f"{part}: {h!r} != {w!r}"
        return None

    return check


class PaperFigs:
    """Verified Figs. 4 and 5 at full sizes plus the ``scaling`` experiment."""

    PHASES = ("cold",)

    def __init__(self, seed: int, tiny: bool, goldens: dict[str, Any]) -> None:
        from repro.experiments import figures45, scaling

        self.figures45, self.scaling = figures45, scaling
        self.sizes = SIZES[_mode(tiny)]
        self.golden = goldens["paper-figs"]
        self.full = not tiny
        self.rng = random.Random(seed)
        self.fig_seed = 0

    def round(self, ops: Ops, phase: str) -> float:
        self.fig_seed = self.rng.randrange(2**31)
        s = self.sizes
        wall = ops.call(
            "fig4",
            lambda: self.figures45.run_fig4(sizes=s["fig4"], seed=self.fig_seed),
            _check_fig(self.golden["fig4"], PAPER_FIG4, self.full),
        )
        wall += ops.call(
            "fig5",
            lambda: self.figures45.run_fig5(sizes=s["fig5"], seed=self.fig_seed),
            _check_fig(self.golden["fig5"], PAPER_FIG5, self.full),
        )
        wall += ops.call(
            "scaling",
            lambda: _scaling_summary(self.scaling.run()),
            _check_rows(self.golden["scaling"], (SIM_RTOL, MODEL_RTOL)),
        )
        return wall

    @staticmethod
    def capture(tiny: bool) -> dict[str, Any]:
        from repro.experiments import figures45, scaling

        s = SIZES[_mode(tiny)]
        return {
            "fig4": _fig_summary(figures45.run_fig4(sizes=s["fig4"])),
            "fig5": _fig_summary(figures45.run_fig5(sizes=s["fig5"])),
            "scaling": _scaling_summary(scaling.run()),
        }


# -- scale-64k -------------------------------------------------------------------------


class _EngineWatch:
    """Sees each engine result; turns any heap fallback into a failure.

    A 65,536-rank run that silently falls back to the heap scheduler
    takes minutes instead of seconds.  So a run that would not even try
    the compiled scheduler (another scheduler, or a reason the engine
    gives before probing, such as a missing ``SymmetrySpec``) raises
    before it starts, and a ``CompileFallback`` raised by the trace
    compiler is re-raised; the operation reports either as an error.
    The first check holds only while the watch is ``armed``, so other
    workloads' engine runs in the same process are left alone.
    """

    def __init__(self) -> None:
        from repro.simulator import compile as compile_mod
        from repro.simulator.engine import DEFAULT_SCHEDULER, Engine

        from tracing import rebind

        self.results: list[tuple[bool, float]] = []
        self.armed = False
        run, results = Engine.run, self.results

        def watched_run(engine: Any, factory: Any) -> Any:
            scheduler = engine.scheduler or DEFAULT_SCHEDULER
            blocker = engine._compiled_blocker()
            if self.armed and (scheduler != "compiled" or blocker is not None):
                raise RuntimeError(f"not trace-compiled: scheduler {scheduler!r}, {blocker}")
            res = run(engine, factory)
            results.append((bool(res.compiled), float(res.parallel_time)))
            return res

        Engine.run = watched_run  # type: ignore[method-assign]
        compile_spmd, fallback = compile_mod.compile_spmd, compile_mod.CompileFallback

        def strict_compile(*args: Any, **kwargs: Any) -> Any:
            try:
                return compile_spmd(*args, **kwargs)
            except fallback as exc:
                raise RuntimeError(f"trace compilation fell back to heap: {exc}") from exc

        rebind(compile_spmd, strict_compile)


class Scale64k:
    """One 65,536-rank Cannon run on the trace-compiled scheduler.

    The inputs are fixed: a compiled run moves no payloads, so its
    timing does not depend on matrix values and the seed changes nothing.
    """

    PHASES = ("cold",)

    def __init__(self, seed: int, tiny: bool, goldens: dict[str, Any]) -> None:
        from repro.experiments import scaling

        self.scaling = scaling
        self.p = SIZES[_mode(tiny)]["scale_p"]
        self.golden = goldens["scale-64k"]
        self.watch = _EngineWatch()

    def _run(self) -> list[float]:
        del self.watch.results[:]
        self.watch.armed = True
        try:
            rows = self.scaling.run_large_p(p_values=(self.p,), n0=2, verify=False)
        finally:
            self.watch.armed = False
        rows = rows["scaled_cannon"]
        if len(self.watch.results) != 1:
            raise RuntimeError(f"expected one engine run, saw {len(self.watch.results)}")
        compiled, parallel_time = self.watch.results[0]
        if not compiled:
            raise RuntimeError("the run was not trace-compiled")
        row = rows[0]
        return [parallel_time, row["efficiency_sim"], row["efficiency_model"]]

    def round(self, ops: Ops, phase: str) -> float:
        want = self.golden["run"]

        def check(got: list[float]) -> str | None:
            for h, w, rtol in zip(got, want, (SIM_RTOL, SIM_RTOL, MODEL_RTOL)):
                if not _close(h, w, rtol):
                    return f"{got} != {want}"
            return None

        return ops.call("run_large_p", self._run, check)

    @staticmethod
    def capture(tiny: bool) -> dict[str, Any]:
        return {"run": Scale64k(0, tiny, {"scale-64k": None})._run()}


# -- model-maps ------------------------------------------------------------------------


_CURVE_PAIRS = (("gk", "cannon"), ("gk", "berntsen"), ("cannon", "berntsen"), ("dns", "gk"))


def _figure_summary(result: Any) -> dict[str, Any]:
    return {
        "cells": hashlib.sha256(json.dumps(result.map.cells).encode()).hexdigest(),
        "curves": {
            f"{a}-{b}": [n for _, n in pts] for (a, b), pts in sorted(result.curves.items())
        },
    }


def _curves_close(got: list, want: list) -> bool:
    return len(got) == len(want) and all(_close(g, w, ROOT_RTOL) for g, w in zip(got, want))


class ModelMaps:
    """Algorithm-selection analysis with no simulator: the model layer alone."""

    #: a warm rerun costs a few ms against a second or so of cold work,
    #: so each round makes several, for a steady median
    PHASES = ("cold",) + ("warm",) * 5

    def __init__(self, seed: int, tiny: bool, goldens: dict[str, Any]) -> None:
        from repro.core import cache, crossover, refine, regions
        from repro.experiments import figures123, section6, table1

        self.cache, self.crossover, self.refine, self.regions = cache, crossover, refine, regions
        self.figures123, self.section6, self.table1 = figures123, section6, table1
        s = SIZES[_mode(tiny)]
        self.dense = (_log_grid(16, s["dense"]), _log_grid(30, s["dense"]))
        self.fine = (_log_grid(16, s["refine"]), _log_grid(30, s["refine"]))
        self.curve_ps = _curve_ps(s["curve_points"])
        self.golden = goldens["model-maps"]
        self.rng = random.Random(seed)
        self.figs: list[str] = []
        self.pairs: list[tuple[str, str]] = []

    # checks ------------------------------------------------------------------------

    def _check_hash(self, key: str) -> Callable[[Any], str | None]:
        want = self.golden["grids"][key]
        return lambda winners: None if _grid_hash(winners) == want else f"{key} winners differ"

    def _check_curve(self, key: str) -> Callable[[Any], str | None]:
        want = self.golden["curves"][key]

        def check(curve: Any) -> str | None:
            return None if _curves_close([n for _, n in curve], want) else f"curve {key} differs"

        return check

    def _check_figure(self, fig: str) -> Callable[[Any], str | None]:
        want = self.golden["figures"][fig]

        def check(result: Any) -> str | None:
            got = _figure_summary(result)
            if got["cells"] != want["cells"]:
                return f"{fig} region map differs"
            if got["curves"].keys() != want["curves"].keys() or not all(
                _curves_close(got["curves"][k], want["curves"][k]) for k in want["curves"]
            ):
                return f"{fig} crossover curves differ"
            return None

        return check

    def _check_section6(self, rows: list[dict]) -> str | None:
        got = [[r["claim"], bool(r["agrees"])] for r in rows]
        return None if got == self.golden["section6"] else "section6 claims differ"

    def _check_table1(self, rows: list[dict]) -> str | None:
        want = self.golden["table1"]
        got = [[r["algorithm"], r["fitted_exponent"], bool(r["matches"])] for r in rows]
        if [(g[0], g[2]) for g in got] != [(w[0], w[2]) for w in want]:
            return "table1 rows differ"
        if any(abs(g[1] - w[1]) > TABLE1_ATOL for g, w in zip(got, want)):
            return "table1 fitted exponents differ"
        return None

    # the unit of work -------------------------------------------------------------------

    def _cacheable(self, ops: Ops) -> float:
        wall = 0.0
        for fig in self.figs:
            machine = self.figures123.FIGURE_MACHINES[fig]
            for a, b in self.pairs:
                wall += ops.call(
                    "crossover_curve",
                    lambda: self.crossover.crossover_curve(a, b, machine, self.curve_ps),
                    self._check_curve(f"{fig}:{a}-{b}"),
                )
        for fig in self.figs:
            wall += ops.call("figure", lambda: self.figures123.run(fig), self._check_figure(fig))
        return wall

    def round(self, ops: Ops, phase: str) -> float:
        self.cache.result_cache().clear()
        disk = self.cache.disk_cache()
        if phase == "warm":
            return self._cacheable(ops)
        if disk is not None:
            disk.clear()
        self.figs = sorted(self.figures123.FIGURE_MACHINES)
        self.pairs = list(_CURVE_PAIRS)
        self.rng.shuffle(self.figs)
        self.rng.shuffle(self.pairs)
        wall = 0.0
        for fig in self.figs:
            machine = self.figures123.FIGURE_MACHINES[fig]
            wall += ops.call(
                "winner_grid",
                lambda: self.regions.winner_grid(machine, *self.dense),
                self._check_hash(f"{fig}:dense"),
            )
            wall += ops.call(
                "refine",
                lambda: self.refine.refine_winner_grid(machine, *self.fine).winners,
                self._check_hash(f"{fig}:refine"),
            )
        wall += self._cacheable(ops)
        wall += ops.call("section6", self.section6.run, self._check_section6)
        wall += ops.call("table1", self.table1.run, self._check_table1)
        return wall

    @staticmethod
    def capture(tiny: bool) -> dict[str, Any]:
        from repro.core import crossover, refine, regions
        from repro.experiments import figures123, section6, table1

        s = SIZES[_mode(tiny)]
        dense = (_log_grid(16, s["dense"]), _log_grid(30, s["dense"]))
        fine = (_log_grid(16, s["refine"]), _log_grid(30, s["refine"]))
        out: dict[str, Any] = {"grids": {}, "curves": {}, "figures": {}}
        for fig, machine in sorted(figures123.FIGURE_MACHINES.items()):
            out["grids"][f"{fig}:dense"] = _grid_hash(regions.winner_grid(machine, *dense))
            out["grids"][f"{fig}:refine"] = _grid_hash(
                refine.refine_winner_grid(machine, *fine).winners
            )
            for a, b in _CURVE_PAIRS:
                ps = _curve_ps(s["curve_points"])
                curve = crossover.crossover_curve(a, b, machine, ps, cache=False)
                out["curves"][f"{fig}:{a}-{b}"] = [n for _, n in curve]
            out["figures"][fig] = _figure_summary(figures123.run(fig))
        out["section6"] = [[r["claim"], bool(r["agrees"])] for r in section6.run()]
        out["table1"] = [
            [r["algorithm"], r["fitted_exponent"], bool(r["matches"])] for r in table1.run()
        ]
        return out


# -- serve-closed ----------------------------------------------------------------------

# The traffic mirrors the mixed load of ``benchmarks/serve_loadgen.py``
# (``make_queries`` for the point requests, ``_smoke_workload`` for the
# shares and bodies of the rest), minus its ``/jobs`` and ``/stats``
# requests; the one departure is 64 points per multi-point request, as
# the benchmark's specification asks, where the smoke load sends 8.

#: Machine payloads of the point requests and their weights (weighted
#: toward one machine so that concurrent requests can share a batch).
_POINT_MACHINES: tuple[Any, ...] = ("ncube2-like", "future-mimd", {"preset": "cm5", "ts": 90.0})
_POINT_WEIGHTS = (0.6, 0.3, 0.1)
#: Small region maps, tier-cached after the first of each.
_REGION_BODIES = tuple(
    {"machine": "ncube2-like", "log2_p_max": 10 + i, "log2_n_max": 8} for i in range(3)
)
_CROSSOVER_BODIES = ({"machine": "future-mimd", "a": "cannon", "b": "gk"},)
#: Request mix, by count per 485 requests of the smoke load.
_MIX = (("predict", 440), ("predict_multi", 20), ("regions", 15), ("crossover", 10))
MULTI_POINTS = 64
CONNECTIONS = 2


def _point(rng: random.Random) -> dict[str, float]:
    return {"n": 2.0 ** rng.uniform(0.0, 16.0), "p": 2.0 ** rng.uniform(0.0, 30.0)}


def make_round(rng: random.Random, count: int) -> list[tuple[str, dict[str, Any]]]:
    """*count* requests ``(kind, body)`` drawn from the mix."""
    kinds = [k for k, _ in _MIX]
    weights = [w for _, w in _MIX]
    out: list[tuple[str, dict[str, Any]]] = []
    for kind in rng.choices(kinds, weights, k=count):
        if kind == "predict":
            machine = rng.choices(_POINT_MACHINES, _POINT_WEIGHTS)[0]
            out.append((kind, {"machine": machine, **_point(rng)}))
        elif kind == "predict_multi":
            machine = rng.choices(_POINT_MACHINES, _POINT_WEIGHTS)[0]
            points = [_point(rng) for _ in range(MULTI_POINTS)]
            out.append((kind, {"machine": machine, "points": points}))
        elif kind == "regions":
            out.append((kind, dict(rng.choice(_REGION_BODIES))))
        else:
            out.append((kind, dict(rng.choice(_CROSSOVER_BODIES))))
    return out


_PATHS = {
    "predict": "/predict",
    "predict_multi": "/predict",
    "regions": "/regions",
    "crossover": "/crossover",
}


class _Client:
    """One keep-alive HTTP/1.1 connection; JSON bodies both ways."""

    def __init__(self, port: int) -> None:
        self.port = port

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)

    async def request(self, path: str, body: dict[str, Any]) -> tuple[int, Any]:
        data = json.dumps(body).encode()
        self.writer.write(
            (
                f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
            ).encode("latin-1")
            + data
        )
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, json.loads(await self.reader.readexactly(length))

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


class ServeClosed:
    """A closed loop of two keep-alive connections against ``repro serve``.

    Every round sends freshly drawn requests, as many as one p99 window
    holds at full size.  A run drives ``SERVERS`` servers one after
    another and makes at least ``MIN_ROUNDS`` rounds over them.  Each
    connection sends its next request only after the previous answer
    arrives.  Responses are kept and verified after the loop, so
    checking costs no client time inside it.
    """

    PHASES = ("cold",)
    MIN_ROUNDS = 12
    SERVERS = 4

    def __init__(self, seed: int, tiny: bool) -> None:
        self.rng = random.Random(seed)
        self.count = SIZES[_mode(tiny)]["round_requests"]
        self.requests: list[tuple[str, dict[str, Any]]] = []
        self.answers: list[tuple[str, dict[str, Any], int, Any, int]] = []
        self.clients: list[_Client] = []

    async def open(self, port: int) -> None:
        self.clients = [_Client(port) for _ in range(CONNECTIONS)]
        for client in self.clients:
            await client.open()

    async def close(self) -> None:
        for client in self.clients:
            await client.close()

    async def round(self, ops: Ops, phase: str) -> float:
        self.requests = make_round(self.rng, self.count)

        async def drive(client: _Client, share: list[tuple[str, dict[str, Any]]]) -> None:
            for kind, body in share:
                start = time.perf_counter()
                try:
                    status, payload = await client.request(_PATHS[kind], body)
                except (OSError, ValueError, asyncio.IncompleteReadError) as exc:
                    ops.records.append([kind, time.perf_counter() - start, False, start])
                    ops.fail(f"{kind}: {type(exc).__name__}: {exc}")
                    raise
                ops.records.append([kind, time.perf_counter() - start, True, start])
                self.answers.append((kind, body, status, payload, len(ops.records) - 1))

        start = time.perf_counter()
        await asyncio.gather(
            *(drive(c, self.requests[i::CONNECTIONS]) for i, c in enumerate(self.clients))
        )
        return time.perf_counter() - start

    def verify(self, ops: Ops) -> None:
        """Check every answer; a wrong or non-2xx one marks its operation failed."""
        from repro.core import crossover, regions
        from repro.core.prediction import predict_points
        from repro.serve.cache import DEFAULT_CURVE_P, DEFAULT_REGION_SPEC
        from repro.serve.protocol import machine_from_payload, machine_payload, region_payload

        def roundtrip(value: Any) -> Any:
            return json.loads(json.dumps(value))

        def failed(rec: int, message: str) -> None:
            if ops.records[rec][2]:
                ops.fail(f"{ops.records[rec][0]}: {message}")
            ops.records[rec][2] = False

        # every point of one machine goes into one direct predict_points call
        by_machine: dict[str, list[tuple[int, dict[str, float], Any]]] = {}
        echo: dict[str, Any] = {}
        expected: dict[str, Any] = {}
        for kind, body, status, payload, rec in self.answers:
            if status != 200:
                failed(rec, f"HTTP {status}: {payload}")
                continue
            if kind in ("predict", "predict_multi"):
                points = body["points"] if kind == "predict_multi" else [body]
                key = json.dumps(body["machine"], sort_keys=True)
                if key not in echo:
                    echo[key] = roundtrip(machine_payload(machine_from_payload(body["machine"])))
                if payload.get("machine") != echo[key]:
                    failed(rec, "machine echo differs")
                served = payload.get("predictions", ())
                if payload.get("count") != len(points) or len(served) != len(points):
                    failed(rec, "wrong prediction count")
                    continue
                by_machine.setdefault(key, []).extend(
                    (rec, pt, record) for pt, record in zip(points, served)
                )
                continue
            key = json.dumps(body, sort_keys=True)
            if key not in expected:
                machine = machine_from_payload(body["machine"])
                if kind == "regions":
                    grid = {k: v for k, v in body.items() if k != "machine"}
                    spec = {**DEFAULT_REGION_SPEC, **grid}
                    rmap = regions.region_map(machine, **spec, cache=False)
                    expected[key] = roundtrip(region_payload(rmap))
                else:
                    curve = crossover.crossover_curve(
                        body["a"], body["b"], machine, DEFAULT_CURVE_P, cache=False
                    )
                    expected[key] = roundtrip(
                        {
                            "machine": machine_payload(machine),
                            "a": body["a"],
                            "b": body["b"],
                            "curve": [{"p": p, "n_equal": n} for p, n in curve],
                        }
                    )
            if payload != expected[key]:
                failed(rec, "payload differs from a direct call")
        for key, items in by_machine.items():
            machine = machine_from_payload(json.loads(key))
            ns = [pt["n"] for _, pt, _ in items]
            batch = predict_points(machine, ns, [pt["p"] for _, pt, _ in items])
            for i, (rec, _pt, record) in enumerate(items):
                if record != roundtrip(batch.point(i)):
                    failed(rec, "point differs from predict_points")


def build(name: str, seed: int, tiny: bool) -> Any:
    goldens = load_goldens()[_mode(tiny)]
    return {"paper-figs": PaperFigs, "scale-64k": Scale64k, "model-maps": ModelMaps}[name](
        seed, tiny, goldens
    )


def load_goldens() -> dict[str, Any]:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def _capture() -> None:
    out = {}
    for mode in ("full", "tiny"):
        tiny = mode == "tiny"
        out[mode] = {
            "paper-figs": PaperFigs.capture(tiny),
            "scale-64k": Scale64k.capture(tiny),
            "model-maps": ModelMaps.capture(tiny),
        }
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: PYTHONPATH=src python perfbench/workloads.py --capture")
    from repro.core.cache import configure_disk_cache

    configure_disk_cache(enabled=False)
    _capture()
