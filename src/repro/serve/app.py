"""The asyncio HTTP application — stdlib only, no frameworks.

``ReproServer`` owns the serving components (micro-batcher, warm-start
preloader, job queue, and the listening socket) and routes requests
through one transport-independent :meth:`~ReproServer.dispatch` method,
which tests also call in-process — a request through ``dispatch()``
takes the real handler/validation/batching stack, minus only the kernel
socket.

Routes::

    GET  /healthz           liveness
    GET  /stats             batcher/cache/job/eval counters
    POST /predict           {machine, n, p} or {machine, points: [...]}
    POST /regions           {machine, log2_p_max?, log2_n_max?, refine?, ...}
    POST /regions/stream    {machine, ..., model_keys?}; NDJSON progress, then the map
    POST /crossover         {machine, a, b, p_values?}
    POST /jobs              {algorithm, n, p, machine, seed?, scheduler?}
    GET  /jobs/<id>         job status / result

The HTTP layer speaks enough HTTP/1.1 for real clients (keep-alive,
content-length request bodies, JSON in and out, chunked NDJSON for the
one stream) and answers bad framing with a status before closing: an
over-long request line 400, an over-long header line or more than
:data:`MAX_HEADERS` headers 431, a request slower than
:data:`READ_DEADLINE_S` 408; a connection idle that long is closed.
Model evaluation never happens in a handler: point predictions go
through the batcher, region maps and curves through the memoized
``region_map`` / ``crossover_curve``, simulator runs through the job
queue — the SRV001 lint rule holds every file in this package to that.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any, ClassVar, NoReturn

from repro.core import crossover, regions
from repro.core.cache import cache_stats, result_cache
from repro.core.machine import MachineParams
from repro.core.models import MODELS
from repro.core.prediction import prediction_counts, simulated_prediction
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import DEFAULT_CURVE_P, ServeTier
from repro.serve.jobs import JobQueue
from repro.serve.protocol import (
    MAX_BODY_BYTES,
    ProtocolError,
    finite_float,
    json_bytes,
    machine_from_payload,
    machine_payload,
    model_keys_from_payload,
    parse_points,
    region_payload,
)

__all__ = ["ServeConfig", "ReproServer", "run_server"]

#: Hard ceilings on served grid extents: past these the artifact is big
#: enough that a client should run the CLI, not a request handler.
MAX_LOG2_P, MAX_LOG2_N = 40, 24

#: Ceilings on job-backed simulator runs (matrix order / rank count).
MAX_JOB_N, MAX_JOB_P = 1024, 65536

#: Most header lines one request may carry; more is answered 431.
MAX_HEADERS = 100

#: Seconds a client has to send one request: its request line, headers
#: and body.  A connection that sends no request line in that time (an
#: idle keep-alive client) is closed without a response; a request that
#: has started and not finished is answered 408, then closed.
READ_DEADLINE_S = 10.0

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    408: "Request Timeout", 413: "Payload Too Large",
    431: "Request Header Fields Too Large", 503: "Service Unavailable",
}


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"{name} is not a JSON number; send finite numbers only")


#: The one request decoder: strict JSON, so ``NaN``/``Infinity``/``-Infinity``
#: (which ``json.loads`` accepts) are refused at the wire.
_JSON = json.JSONDecoder(parse_constant=_reject_constant)


def _parse_object(data: bytes) -> dict[str, Any]:
    """Decode one JSON request object; ``ValueError`` says what is wrong."""
    text = data.decode(json.detect_encoding(data), "surrogatepass")
    try:
        parsed = _JSON.decode(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(parsed, dict):
        raise ValueError(f"expected a JSON object, got {type(parsed).__name__}")
    return parsed


@dataclass(frozen=True)
class ServeConfig:
    """Everything `python -m repro serve` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (the bound port lands in ReproServer.port)
    max_batch: int = 256
    cache_entries: int = 512
    workers: int = 2
    max_pending_jobs: int = 256
    preload: bool = True


class ReproServer:
    """The serving application: components + dispatch + transports."""

    #: ``cache_entries`` of each server started in this process and not yet
    #: stopped, and the memory tier's bound before the first of them started
    _running: ClassVar[dict[ReproServer, int]] = {}
    _bound_before: ClassVar[int | None] = None

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.batcher = MicroBatcher(max_batch=self.config.max_batch)
        self.tier = ServeTier()
        self.jobs = JobQueue(
            workers=self.config.workers, max_pending=self.config.max_pending_jobs
        )
        self.preload_summary: dict[str, Any] | None = None
        self._server: asyncio.base_events.Server | None = None
        self.port: int | None = None
        self.connections = 0
        self.errors = 0

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        # a long-lived process must not grow without limit: while servers
        # run, the one process-wide memory tier their artifacts and job
        # results live in holds the tightest of their bounds (the CLI
        # leaves it unbounded); once the last stops, it gets back the bound
        # the first found, whatever order they start and stop in
        running = ReproServer._running
        if not running:
            ReproServer._bound_before = result_cache().maxsize
        running[self] = self.config.cache_entries
        result_cache().resize(min(running.values()))
        await self.jobs.start()
        if self.config.preload:
            # preloading may compute on a cold cache: keep the loop free
            self.preload_summary = await asyncio.to_thread(self.tier.preload)
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        await self.jobs.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        running = ReproServer._running
        if running.pop(self, None) is not None:
            result_cache().resize(min(running.values(), default=ReproServer._bound_before))

    # -- transport-independent routing ------------------------------------------

    async def dispatch(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> tuple[int, dict[str, Any]]:
        """Route one request; returns ``(status, response_payload)``.

        Both the HTTP layer and in-process callers (tests) call this —
        there is exactly one handler stack.
        """
        try:
            if method == "GET" and path == "/healthz":
                return 200, {"ok": True, "service": "repro.serve"}
            if method == "GET" and path == "/stats":
                return 200, self._stats_payload()
            if method == "GET" and path.startswith("/jobs/"):
                return self._job_status(path[len("/jobs/"):])
            if method == "POST" and path == "/predict":
                return await self._predict(body or {})
            if method == "POST" and path == "/regions":
                return await self._regions(body or {})
            if method == "POST" and path == "/crossover":
                return await self._crossover(body or {})
            if method == "POST" and path == "/jobs":
                return self._submit_job(body or {})
            return 404, {"error": f"no route for {method} {path}"}
        except ProtocolError as exc:
            self.errors += 1
            return exc.status, {"error": str(exc)}
        except asyncio.QueueFull:
            self.errors += 1
            return 503, {"error": "job queue is full; retry later"}

    # -- handlers ---------------------------------------------------------------

    def _stats_payload(self) -> dict[str, Any]:
        return {
            "batcher": self.batcher.stats(),
            "artifacts": self.tier.stats(),
            "jobs": self.jobs.stats(),
            "core_cache": cache_stats(),
            "predictions": prediction_counts(),
            "preload": self.preload_summary,
            "connections": self.connections,
            "errors": self.errors,
        }

    async def _predict(self, body: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        machine = machine_from_payload(body.get("machine"))
        points = parse_points(body)
        if len(points) == 1:
            records = [await self.batcher.predict_one(machine, *points[0])]
        else:
            records = await self.batcher.predict_many(machine, points)
        return 200, {
            "machine": machine_payload(machine),
            "count": len(records),
            "predictions": records,
        }

    def _region_args(self, body: dict[str, Any]) -> tuple[MachineParams, dict[str, Any]]:
        """The machine and the ``region_map`` grid arguments of a region request."""
        machine = machine_from_payload(body.get("machine"))
        spec = {
            "log2_p_max": body.get("log2_p_max", 30),
            "log2_n_max": body.get("log2_n_max", 16),
            "p_step": body.get("p_step", 1),
            "n_step": body.get("n_step", 1),
        }
        for name, value in spec.items():
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ProtocolError(f"{name!r} must be a positive integer")
        if spec["log2_p_max"] > MAX_LOG2_P or spec["log2_n_max"] > MAX_LOG2_N:
            raise ProtocolError(
                f"grid too large (log2_p_max <= {MAX_LOG2_P}, "
                f"log2_n_max <= {MAX_LOG2_N}); use the CLI for bigger maps",
                status=413,
            )
        return machine, spec

    async def _regions(self, body: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        machine, spec = self._region_args(body)
        refine = body.get("refine", False)
        if not isinstance(refine, bool):
            raise ProtocolError("'refine' must be true or false")
        rmap = await asyncio.to_thread(
            regions.region_map, machine, refine=refine, **spec
        )
        return 200, region_payload(rmap)

    async def _crossover(self, body: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        machine = machine_from_payload(body.get("machine"))
        a, b = body.get("a"), body.get("b")
        for label, key in (("a", a), ("b", b)):
            if not isinstance(key, str) or key not in MODELS:
                raise ProtocolError(
                    f"{label!r} must name a model; known: {sorted(MODELS)}"
                )
        raw_p = body.get("p_values")
        if raw_p is None:
            p_values = DEFAULT_CURVE_P
        else:
            if not isinstance(raw_p, list) or not 0 < len(raw_p) <= 512:
                raise ProtocolError("'p_values' must be a list of 1 to 512 numbers")
            p_values = tuple(finite_float(v, "each of 'p_values'") for v in raw_p)
            if min(p_values) < 1:
                raise ProtocolError("'p_values' must all be >= 1")
        curve = await asyncio.to_thread(
            crossover.crossover_curve, a, b, machine, p_values
        )
        return 200, {
            "machine": machine_payload(machine),
            "a": a,
            "b": b,
            "curve": [
                {"p": p, "n_equal": n if n is None else float(n)} for p, n in curve
            ],
        }

    def _submit_job(self, body: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        machine = machine_from_payload(body.get("machine"))
        algorithm = body.get("algorithm")
        from repro.algorithms import registry

        if not isinstance(algorithm, str) or algorithm not in registry.REGISTRY:
            raise ProtocolError(
                f"'algorithm' must be one of {sorted(registry.REGISTRY)}"
            )
        n, p = body.get("n"), body.get("p")
        for label, value, cap in (("n", n, MAX_JOB_N), ("p", p, MAX_JOB_P)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ProtocolError(f"{label!r} must be a positive integer")
            if value > cap:
                raise ProtocolError(f"{label!r} too large for a job ({value} > {cap})")
        seed = body.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ProtocolError("'seed' must be a non-negative integer")
        from repro.simulator.engine import SCHEDULERS

        scheduler = body.get("scheduler")
        if scheduler is not None and scheduler not in SCHEDULERS:
            raise ProtocolError(f"'scheduler' must be one of {', '.join(SCHEDULERS)}")
        params = {
            "algorithm": algorithm,
            "n": n,
            "p": p,
            "machine": machine_payload(machine),
            "seed": seed,
            "scheduler": scheduler,
        }

        def run() -> dict[str, Any]:
            return simulated_prediction(
                algorithm, n, p, machine, seed=seed, scheduler=scheduler
            )

        job = self.jobs.submit("simulate", dict(params), run)
        return 202, {"job": job.payload()}

    def _job_status(self, job_id: str) -> tuple[int, dict[str, Any]]:
        job = self.jobs.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        return 200, {"job": job.payload()}

    # -- HTTP transport ----------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        try:
            while True:
                started: list[bytes] = []
                try:
                    message = await asyncio.wait_for(
                        _read_request(reader, started), READ_DEADLINE_S
                    )
                except asyncio.TimeoutError:
                    if started:
                        await self._write_http(
                            writer, 408, {"error": f"request took over {READ_DEADLINE_S:g} s"}
                        )
                    break
                except ProtocolError as exc:
                    await self._write_http(writer, exc.status, {"error": str(exc)})
                    break
                if message is None:
                    break
                method, target, headers, raw = message
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._respond(writer, method, target.split("?", 1)[0], raw, keep_alive)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        except asyncio.CancelledError:
            # loop shutdown while this connection sat idle in readline:
            # end the handler quietly (a cancelled task's exception would
            # otherwise be logged by the streams connection callback)
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        raw: bytes,
        keep_alive: bool,
    ) -> None:
        """Answer one request: a JSON response, or the refinement stream."""
        try:
            body = _parse_object(raw) if raw else None
        except ValueError as exc:
            status, payload = 400, {"error": f"bad JSON body: {exc}"}
        else:
            if method == "POST" and path == "/regions/stream":
                try:
                    machine, spec = self._region_args(body or {})
                    spec["model_keys"] = model_keys_from_payload(body or {})
                except ProtocolError as exc:
                    self.errors += 1
                    status, payload = exc.status, {"error": str(exc)}
                else:
                    await self._stream_regions(writer, machine, spec, keep_alive)
                    return
            else:
                status, payload = await self.dispatch(method, path, body)
        await self._write_http(writer, status, payload, keep_alive=keep_alive)

    async def _write_http(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        *,
        keep_alive: bool = False,
    ) -> None:
        data = json_bytes(payload)
        framing = f"Content-Length: {len(data)}"
        writer.write(_head(status, "application/json", framing, keep_alive) + data)
        await writer.drain()

    async def _stream_regions(
        self,
        writer: asyncio.StreamWriter,
        machine: MachineParams,
        spec: dict[str, Any],
        keep_alive: bool,
    ) -> None:
        """Send a refined region map as NDJSON: progress lines, then the map.

        The map comes from ``region_map`` with a progress observer, so it
        shares its cache entry with ``/regions`` under ``refine: true``;
        a map either cache tier answers streams no progress and its
        ``result`` line says ``cached: true``.
        """
        writer.write(
            _head(200, "application/x-ndjson", "Transfer-Encoding: chunked", keep_alive)
        )
        loop = asyncio.get_running_loop()
        events: asyncio.Queue[dict[str, Any] | None] = asyncio.Queue()

        def progress(info: dict[str, int]) -> None:
            loop.call_soon_threadsafe(events.put_nowait, {"event": "progress", **info})

        task = asyncio.ensure_future(
            asyncio.to_thread(regions.region_map, machine, refine=True, progress=progress, **spec)
        )
        # queued after every progress event: the worker thread hands
        # those to the loop before it hands over its result
        task.add_done_callback(lambda _: events.put_nowait(None))
        cached = True
        while (event := await events.get()) is not None:
            cached = False
            await _write_chunk(writer, json_bytes(event) + b"\n")
        result = {"event": "result", "cached": cached, **region_payload(task.result())}
        await _write_chunk(writer, json_bytes(result) + b"\n")
        writer.write(b"0\r\n\r\n")
        await writer.drain()


async def _read_request(
    reader: asyncio.StreamReader, started: list[bytes]
) -> tuple[str, str, dict[str, str], bytes] | None:
    """One request's method, target, headers and body; ``None`` at end of stream.

    The request line is appended to *started* once it has arrived, so a
    caller whose deadline expires can tell a stalled request from an
    idle connection.
    """
    try:
        request_line = await reader.readline()
    except ValueError:  # longer than the reader's 64 KiB limit
        raise ProtocolError("request line too long") from None
    if not request_line or request_line in (b"\r\n", b"\n"):
        return None
    started.append(request_line)
    try:
        method, target, _version = request_line.decode("latin-1").split()
    except ValueError:
        raise ProtocolError("malformed request line") from None
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        try:
            line = await reader.readline()
        except ValueError:  # longer than the reader's 64 KiB limit
            raise ProtocolError("header line too long", status=431) from None
        if not line:
            return None
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise ProtocolError(f"more than {MAX_HEADERS} header lines", status=431)
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        length = -1
    if length < 0:
        raise ProtocolError("bad content-length")
    if length > MAX_BODY_BYTES:
        raise ProtocolError(f"body too large (> {MAX_BODY_BYTES} bytes)", status=413)
    return method, target, headers, await reader.readexactly(length)


def _head(status: int, content_type: str, framing: str, keep_alive: bool) -> bytes:
    return (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"{framing}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode("latin-1")


async def _write_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
    writer.write(b"%x\r\n%s\r\n" % (len(data), data))
    await writer.drain()


def run_server(config: ServeConfig | None = None, *, max_seconds: float | None = None) -> str:
    """Run the service until interrupted (or for *max_seconds* — smoke mode)."""
    config = config or ServeConfig()

    async def main() -> str:
        server = ReproServer(config)
        await server.start()
        print(
            f"repro.serve listening on http://{config.host}:{server.port} "
            f"(preloaded={server.tier.preloaded} artifacts)",
            flush=True,
        )
        try:
            if max_seconds is None:
                await asyncio.Event().wait()  # serve forever
            else:
                await asyncio.sleep(max_seconds)
        finally:
            await server.stop()
        stats = server.batcher.stats()
        return (
            f"served {stats['requests']} predictions in {stats['batches']} batches "
            f"(mean batch {stats['mean_batch']:.1f})"
        )

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:
        return "repro.serve: interrupted"
