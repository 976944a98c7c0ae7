"""Load generator and perf harness for the ``repro.serve`` service.

Three checks back the serving section of ``perf_guard``:

* **throughput** — the same 1000-query point-prediction load is driven
  through ``ReproServer.dispatch()`` (the in-process transport: the real
  handler/validation/batching stack minus only the kernel socket) twice,
  once with the micro-batcher enabled and once with batching disabled
  (one ``predict_points`` call per request — the pre-batching behavior).
  Wall time, throughput, and p50/p99 per-request latency are recorded
  for both; the gated number is the wall-clock speedup, and the two
  modes' response payloads are compared for exact equality — both routes
  end in the same vectorized scan, so batching must be bit-invisible.
* **warm start** — a temporary disk-shard directory is populated with
  the default preload artifacts, the memory tier is dropped (the fresh-
  process state), and a new server preloads from it.  The fresh-compute
  odometers (``region_compute_count`` / ``crossover_compute_count``)
  must not move during preload or the first region request, and that
  request must be a memory-tier hit: a restarted server serves its
  region maps without re-evaluating a single model.
* **smoke** (``--smoke``) — a real HTTP server on an ephemeral port
  takes a 500-query mixed load (single/multi point predictions, region
  maps, crossover curves, simulator jobs) over keep-alive connections;
  zero errors and non-zero coalescing counters are asserted.  Then one
  keep-alive socket sends the same ``POST /regions/stream`` twice: the
  first must stream progress lines before its one ``result`` line, the
  repeat must say ``cached: true``.

Run it directly::

    python benchmarks/serve_loadgen.py [--fast] [--smoke] [--out FILE]

``perf_guard`` imports :func:`gate_section` instead of shelling out.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import tempfile
import time
from typing import Any

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import crossover, regions  # noqa: E402
from repro.core.cache import (  # noqa: E402
    configure_disk_cache,
    disk_cache,
    result_cache,
)
from repro.core.machine import PRESETS  # noqa: E402
from repro.serve.app import ReproServer, ServeConfig  # noqa: E402
from repro.serve.cache import (  # noqa: E402
    DEFAULT_CURVE_P,
    DEFAULT_CURVE_PAIRS,
    DEFAULT_PRELOAD_MACHINES,
    DEFAULT_REGION_SPEC,
)

#: Machine payloads the load mixes, weighted toward one fingerprint so
#: batches actually grow (requests only coalesce within a fingerprint).
_LOAD_MACHINES: tuple[Any, ...] = (
    "ncube2-like",
    "future-mimd",
    {"preset": "cm5", "ts": 90.0},
)
_LOAD_WEIGHTS = (0.6, 0.3, 0.1)


def make_queries(count: int, seed: int = 0) -> list[dict[str, Any]]:
    """*count* deterministic point-prediction request bodies."""
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(_LOAD_MACHINES), size=count, p=_LOAD_WEIGHTS)
    log_n = rng.uniform(0.0, 16.0, size=count)
    log_p = rng.uniform(0.0, 30.0, size=count)
    return [
        {
            "machine": _LOAD_MACHINES[int(c)],
            "n": float(2.0**ln),
            "p": float(2.0**lp),
        }
        for c, ln, lp in zip(picks, log_n, log_p)
    ]


# -- throughput: batched vs batching-disabled through dispatch() -----------------


async def _drive(
    server: ReproServer, queries: list[dict[str, Any]]
) -> tuple[float, np.ndarray, list[dict[str, Any]]]:
    """Fire all *queries* concurrently; wall time + per-request latency."""
    latency = np.empty(len(queries))
    payloads: list[dict[str, Any]] = [{}] * len(queries)

    async def one(i: int, body: dict[str, Any]) -> None:
        t0 = time.perf_counter()
        status, payload = await server.dispatch("POST", "/predict", body)
        latency[i] = time.perf_counter() - t0
        if status != 200:
            raise AssertionError(f"query {i}: HTTP {status}: {payload}")
        payloads[i] = payload

    t0 = time.perf_counter()
    await asyncio.gather(*(one(i, q) for i, q in enumerate(queries)))
    return time.perf_counter() - t0, latency, payloads


def _run_mode(
    batching: bool, queries: list[dict[str, Any]], repeats: int
) -> tuple[float, np.ndarray, list[dict[str, Any]], dict[str, Any]]:
    """Best-of-*repeats* wall time for one batching mode (fresh server)."""

    async def go() -> tuple[float, np.ndarray, list[dict[str, Any]], dict[str, Any]]:
        server = ReproServer(ServeConfig(batching=batching, preload=False))
        best = float("inf")
        best_lat: np.ndarray = np.empty(0)
        best_payloads: list[dict[str, Any]] = []
        for _ in range(repeats):
            wall, lat, payloads = await _drive(server, queries)
            if wall < best:
                best, best_lat, best_payloads = wall, lat, payloads
        return best, best_lat, best_payloads, server.batcher.stats()

    return asyncio.run(go())


def _latency_ms(latency: np.ndarray) -> dict[str, float]:
    return {
        "p50_ms": float(np.percentile(latency, 50) * 1e3),
        "p99_ms": float(np.percentile(latency, 99) * 1e3),
        "max_ms": float(latency.max() * 1e3),
    }


def bench_throughput(fast: bool, repeats: int = 3, queries: int = 1000) -> dict:
    """The gated load: *queries* concurrent points, batched vs not.

    The gate is judged at >= 1000 concurrent queries even in ``--fast``
    runs — the whole bench is sub-second, so there is nothing to shrink.
    """
    load = make_queries(queries)
    wall_b, lat_b, pay_b, stats_b = _run_mode(True, load, repeats)
    wall_u, lat_u, pay_u, _ = _run_mode(False, load, repeats)
    return {
        "queries": queries,
        "repeats": repeats,
        "batched": {
            "wall_s": wall_b,
            "throughput_qps": queries / wall_b,
            **_latency_ms(lat_b),
        },
        "unbatched": {
            "wall_s": wall_u,
            "throughput_qps": queries / wall_u,
            **_latency_ms(lat_u),
        },
        "speedup": wall_u / wall_b,
        # both modes end in the same vectorized scan; the responses must
        # be *equal*, not merely close
        "identical_to_unbatched": pay_b == pay_u,
        "coalescing": {
            k: stats_b[k]
            for k in (
                "batches",
                "batched_points",
                "max_batch_seen",
                "mean_batch",
                "full_flushes",
                "turn_flushes",
            )
        },
    }


# -- warm start: preload from disk shards, zero fresh model evaluations ----------


def warm_start_check(fast: bool) -> dict:
    """Populate shards, restart-equivalent preload, assert zero computes."""
    with tempfile.TemporaryDirectory(prefix="repro-serve-warm-") as tmp:
        configure_disk_cache(tmp)
        try:
            # drop the memory tier first: a memory hit would serve the
            # populate pass without ever writing the disk shards the
            # restart below is supposed to preload from
            result_cache().clear()
            for name in DEFAULT_PRELOAD_MACHINES:
                machine = PRESETS[name]
                regions.region_map(machine, **DEFAULT_REGION_SPEC)
                for a, b in DEFAULT_CURVE_PAIRS:
                    crossover.crossover_curve(a, b, machine, DEFAULT_CURVE_P)
            # fresh-process state: memory tier gone, shards remain
            result_cache().clear()
            before = regions.region_compute_count() + crossover.crossover_compute_count()
            disk_before = disk_cache().stats()["hits"]

            async def go() -> tuple[dict[str, Any], int]:
                server = ReproServer(ServeConfig(preload=True))
                server.preload_summary = await asyncio.to_thread(server.tier.preload)
                hits = result_cache().stats()["hits"]
                status, _payload = await server.dispatch(
                    "POST", "/regions", {"machine": DEFAULT_PRELOAD_MACHINES[0]}
                )
                if status != 200:
                    raise AssertionError(f"warm region request: HTTP {status}")
                return server.preload_summary, result_cache().stats()["hits"] - hits

            summary, memory_hits = asyncio.run(go())
            fresh = (
                regions.region_compute_count()
                + crossover.crossover_compute_count()
                - before
            )
            disk_hits = disk_cache().stats()["hits"] - disk_before
        finally:
            configure_disk_cache(None, enabled=False)
    return {
        "preload": summary,
        "fresh_computes": fresh,
        "disk_hits": disk_hits,
        "memory_hits": memory_hits,
        "zero_reevaluations": fresh == 0
        and summary["computed_fresh"] == 0
        and disk_hits > 0
        and memory_hits > 0,
    }


def gate_section(fast: bool, repeats: int = 3) -> dict:
    """The ``serving`` section of the perf_guard report."""
    return {
        "throughput": bench_throughput(fast, repeats=repeats),
        "warm_start": warm_start_check(fast),
    }


# -- smoke: real HTTP transport, mixed load, keep-alive --------------------------


class _HttpClient:
    """A keep-alive JSON-over-HTTP/1.1 client on asyncio streams."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def request(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> tuple[int, dict[str, Any]]:
        assert self.reader is not None and self.writer is not None
        data = json.dumps(body).encode() if body is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + data)
        await self.writer.drain()
        status_line = await self.reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        raw = await self.reader.readexactly(length)
        return status, json.loads(raw)

    async def stream(self, path: str, body: dict[str, Any]) -> list[dict[str, Any]]:
        """POST *body* and read a chunked NDJSON reply: one event per line."""
        assert self.reader is not None and self.writer is not None
        data = json.dumps(body).encode()
        self.writer.write(
            (
                f"POST {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Length: {len(data)}\r\n\r\n"
            ).encode("latin-1")
            + data
        )
        await self.writer.drain()
        status_line = await self.reader.readline()
        chunked = False
        while (line := await self.reader.readline()) not in (b"\r\n", b"\n"):
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "transfer-encoding":
                chunked = value.strip().lower() == "chunked"
        if not chunked:
            raise AssertionError(f"{path}: not a chunked stream: {status_line!r}")
        text = b""
        while size := int(await self.reader.readline(), 16):
            text += (await self.reader.readexactly(size + 2))[:-2]
        await self.reader.readexactly(2)  # the CRLF ending the chunked body
        return [json.loads(line) for line in text.splitlines()]

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


def _smoke_workload(queries: int) -> list[tuple[str, str, dict[str, Any] | None]]:
    """A deterministic mixed request list: mostly points, plus artifacts."""
    rng = np.random.default_rng(7)
    work: list[tuple[str, str, dict[str, Any] | None]] = []
    point_queries = make_queries(queries - 60, seed=1)
    for body in point_queries:
        work.append(("POST", "/predict", body))
    for i in range(20):  # multi-point batches
        pts = make_queries(8, seed=100 + i)
        work.append(
            ("POST", "/predict",
             {"machine": pts[0]["machine"],
              "points": [{"n": q["n"], "p": q["p"]} for q in pts]})
        )
    for i in range(15):  # small region maps (tier-cached after the first)
        work.append(
            ("POST", "/regions",
             {"machine": "ncube2-like", "log2_p_max": 10 + i % 3, "log2_n_max": 8})
        )
    for _ in range(10):  # crossover curves
        work.append(
            ("POST", "/crossover",
             {"machine": "future-mimd", "a": "cannon", "b": "gk"})
        )
    for i in range(10):  # simulator jobs (tiny runs)
        work.append(
            ("POST", "/jobs",
             {"algorithm": "cannon", "n": 8, "p": 4,
              "machine": "ncube2-like", "seed": i % 3})
        )
    for _ in range(5):
        work.append(("GET", "/stats", None))
    order = rng.permutation(len(work))
    return [work[int(i)] for i in order]


#: The streamed map: one no other smoke request computes.
_STREAM_BODY = {"machine": "future-mimd", "log2_p_max": 20, "log2_n_max": 12}


def run_smoke(queries: int = 500, connections: int = 16) -> dict:
    """The ``make serve-smoke`` entry: mixed HTTP load, zero errors."""
    work = _smoke_workload(queries)

    async def go() -> dict:
        server = ReproServer(ServeConfig(port=0, preload=False))
        await server.start()
        assert server.port is not None
        job_ids: list[str] = []
        statuses: list[int] = []
        try:
            async def worker(slice_: list[tuple[str, str, dict[str, Any] | None]]) -> None:
                client = _HttpClient("127.0.0.1", server.port or 0)
                await client.open()
                try:
                    for method, path, body in slice_:
                        status, payload = await client.request(method, path, body)
                        statuses.append(status)
                        if status not in (200, 202):
                            raise AssertionError(
                                f"{method} {path} -> HTTP {status}: {payload}"
                            )
                        if path == "/jobs" and status == 202:
                            job_ids.append(payload["job"]["id"])
                finally:
                    await client.close()

            slices = [work[i::connections] for i in range(connections)]
            await asyncio.gather(*(worker(s) for s in slices))

            # poll every submitted job to completion over a fresh connection
            client = _HttpClient("127.0.0.1", server.port)
            await client.open()
            try:
                for job_id in job_ids:
                    for _ in range(500):
                        status, payload = await client.request(
                            "GET", f"/jobs/{job_id}"
                        )
                        assert status == 200, payload
                        if payload["job"]["status"] in ("done", "error"):
                            break
                        await asyncio.sleep(0.01)
                    assert payload["job"]["status"] == "done", payload
                # the refinement stream, fresh then repeated, on one
                # keep-alive socket
                fresh, repeat = [
                    await client.stream("/regions/stream", _STREAM_BODY) for _ in range(2)
                ]
                _, stats = await client.request("GET", "/stats")
            finally:
                await client.close()
        finally:
            await server.stop()

        batcher = stats["batcher"]
        if server.errors:
            raise AssertionError(f"server recorded {server.errors} errors")
        if not (batcher["batches"] > 0 and batcher["batched_points"] > 0):
            raise AssertionError(f"no coalescing happened: {batcher}")
        events = [e["event"] for e in fresh]
        if len(events) < 2 or set(events[:-1]) != {"progress"} or events[-1] != "result":
            raise AssertionError(f"fresh stream is not progress lines, then one result: {events}")
        if [e["event"] for e in repeat] != ["result"] or repeat[0]["cached"] is not True:
            raise AssertionError(f"repeated stream is not one cached result: {repeat}")
        if repeat[0]["rows"] != fresh[-1]["rows"]:
            raise AssertionError("repeated stream returned a different map")
        return {
            "requests": len(statuses),
            "connections": connections,
            "jobs_completed": len(job_ids),
            "errors": server.errors,
            "coalescing": {
                k: batcher[k]
                for k in ("batches", "batched_points", "max_batch_seen", "mean_batch")
            },
            "stream_progress_lines": len(events) - 1,
        }

    return asyncio.run(go())


# -- CLI -------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="mixed HTTP load over a real socket; exit 1 on any error")
    parser.add_argument("--fast", action="store_true",
                        help="kept for symmetry with perf_guard (the load is already small)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--queries", type=int, default=1000)
    parser.add_argument("--out", default=None, help="write the section as JSON")
    args = parser.parse_args(argv)

    configure_disk_cache(None, enabled=False)
    if args.smoke:
        summary = run_smoke()
        print(f"serve-smoke: {summary['requests']} requests over "
              f"{summary['connections']} connections, {summary['errors']} errors, "
              f"{summary['jobs_completed']} jobs, "
              f"coalescing {summary['coalescing']}, "
              f"stream {summary['stream_progress_lines']} progress lines then a "
              "result, repeat cached")
        return 0

    section = gate_section(args.fast, repeats=args.repeats)
    thr, warm = section["throughput"], section["warm_start"]
    print(f"throughput: {thr['queries']} queries  "
          f"batched {thr['batched']['wall_s']*1e3:.1f}ms "
          f"({thr['batched']['throughput_qps']:.0f} q/s, "
          f"p99 {thr['batched']['p99_ms']:.2f}ms)  "
          f"unbatched {thr['unbatched']['wall_s']*1e3:.1f}ms "
          f"({thr['unbatched']['throughput_qps']:.0f} q/s, "
          f"p99 {thr['unbatched']['p99_ms']:.2f}ms)  "
          f"speedup {thr['speedup']:.1f}x  identical {thr['identical_to_unbatched']}")
    print(f"coalescing: {thr['coalescing']}")
    print(f"warm_start: preload {warm['preload']}  fresh computes {warm['fresh_computes']}  "
          f"disk hits {warm['disk_hits']}  memory hits {warm['memory_hits']}  "
          f"zero_reevaluations {warm['zero_reevaluations']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(section, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    ok = (
        thr["speedup"] >= 8.0
        and thr["identical_to_unbatched"]
        and thr["coalescing"]["batches"] > 0
        and warm["zero_reevaluations"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
