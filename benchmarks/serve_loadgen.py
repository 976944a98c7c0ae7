"""Mixed-load smoke test of the ``repro.serve`` HTTP service (``make serve-smoke``).

A real server on an ephemeral port takes a 500-query mixed load
(single/multi point predictions, region maps, crossover curves,
simulator jobs) over 16 keep-alive connections; zero errors and
non-zero coalescing counters are asserted.  Then one keep-alive socket
sends the same ``POST /regions/stream`` twice: the first must stream
progress lines before its one ``result`` line, the repeat must say
``cached: true``.  Exit 1 on any failure::

    python benchmarks/serve_loadgen.py

The serving speed is measured by perfbench's ``serve-closed`` workload
(``perfbench/README.md``).
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from typing import Any

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.cache import configure_disk_cache  # noqa: E402
from repro.serve.app import ReproServer, ServeConfig  # noqa: E402

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


def main() -> int:
    configure_disk_cache(None, enabled=False)
    summary = run_smoke()
    print(f"serve-smoke: {summary['requests']} requests over "
          f"{summary['connections']} connections, {summary['errors']} errors, "
          f"{summary['jobs_completed']} jobs, "
          f"coalescing {summary['coalescing']}, "
          f"stream {summary['stream_progress_lines']} progress lines then a "
          "result, repeat cached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
