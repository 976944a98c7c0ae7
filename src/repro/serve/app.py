"""The asyncio HTTP/WebSocket application — stdlib only, no frameworks.

``ReproServer`` owns the four serving components (micro-batcher, serve
tier, job queue, and the listening socket) and routes requests through
one transport-independent :meth:`~ReproServer.dispatch` method, which
is also the load generator's in-process transport — a benchmark through
``dispatch()`` measures the real handler/validation/batching stack,
minus only the kernel socket.

Routes::

    GET  /healthz           liveness
    GET  /stats             batcher/cache/job/eval counters
    POST /predict           {machine, n, p} or {machine, points: [...]}
    POST /regions           {machine, log2_p_max?, log2_n_max?, ...}
    POST /crossover         {machine, a, b, p_values?}
    POST /jobs              {algorithm, n, p, machine, seed?, scheduler?}
    GET  /jobs/<id>         job status / result
    WS   /ws/regions        streamed refinement progress, then the map

The HTTP layer speaks enough HTTP/1.1 for real clients (keep-alive,
content-length bodies, JSON in and out); the WebSocket layer implements
the RFC 6455 server side for text frames.  Model evaluation never
happens in a handler: point predictions go through the batcher, region
maps and curves through the serve tier, simulator runs through the job
queue — the SRV001 lint rule holds every file in this package to that.
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import dataclass
from typing import Any, NoReturn

from repro.core import regions
from repro.core.cache import cache_stats
from repro.core.machine import MachineParams
from repro.core.models import COMPARISON_MODELS, MODELS
from repro.core.prediction import prediction_counts, simulated_prediction
from repro.core.refine import refine_winner_grid
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
    ws_accept_key,
)

__all__ = ["ServeConfig", "ReproServer", "run_server"]

#: Hard ceilings on served grid extents: past these the artifact is big
#: enough that a client should run the CLI, not a request handler.
MAX_LOG2_P, MAX_LOG2_N = 40, 24

#: Ceilings on job-backed simulator runs (matrix order / rank count).
MAX_JOB_N, MAX_JOB_P = 1024, 65536


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"{name} is not a JSON number; send finite numbers only")


#: The one request decoder: strict JSON, so ``NaN``/``Infinity``/``-Infinity``
#: (which ``json.loads`` accepts) are refused at the wire.
_JSON = json.JSONDecoder(parse_constant=_reject_constant)


def _parse_object(data: bytes | str) -> dict[str, Any]:
    """Decode one JSON request object; ``ValueError`` says what is wrong."""
    if isinstance(data, bytes):
        data = data.decode(json.detect_encoding(data), "surrogatepass")
    parsed = _JSON.decode(data)
    if not isinstance(parsed, dict):
        raise ValueError(f"expected a JSON object, got {type(parsed).__name__}")
    return parsed


@dataclass(frozen=True)
class ServeConfig:
    """Everything `python -m repro serve` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (the bound port lands in ReproServer.port)
    max_batch: int = 256
    max_wait_us: float = 500.0
    batching: bool = True
    cache_entries: int = 512
    workers: int = 2
    max_pending_jobs: int = 256
    preload: bool = True


class ReproServer:
    """The serving application: components + dispatch + transports."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.batcher = MicroBatcher(
            max_batch=self.config.max_batch,
            max_wait_us=self.config.max_wait_us,
            enabled=self.config.batching,
        )
        self.tier = ServeTier(max_entries=self.config.cache_entries)
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
        await self.jobs.start()
        if self.config.preload:
            # preloading may compute on a cold cache: keep the loop free
            self.preload_summary = await asyncio.to_thread(self.tier.preload)
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        await self.batcher.flush()
        await self.jobs.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- transport-independent routing ------------------------------------------

    async def dispatch(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> tuple[int, dict[str, Any]]:
        """Route one request; returns ``(status, response_payload)``.

        Both the HTTP layer and the load generator's in-process
        transport call this — there is exactly one handler stack.
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
            "serve_cache": self.tier.stats(),
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

    def _region_spec(self, body: dict[str, Any]) -> dict[str, Any]:
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
        return spec

    async def _regions(self, body: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        machine = machine_from_payload(body.get("machine"))
        spec = self._region_spec(body)
        refine = bool(body.get("refine", False))
        rmap = await asyncio.to_thread(
            self.tier.region, machine, refine=refine, **spec
        )
        return 200, region_payload(rmap)

    async def _crossover(self, body: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        machine = machine_from_payload(body.get("machine"))
        a, b = body.get("a"), body.get("b")
        for label, key in (("a", a), ("b", b)):
            if key not in MODELS:
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
        curve = await asyncio.to_thread(self.tier.curve, a, b, machine, p_values)
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

        if algorithm not in registry.REGISTRY:
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
                request_line = await reader.readline()
                if not request_line or request_line in (b"\r\n", b"\n"):
                    break
                try:
                    method, target, _version = request_line.decode("latin-1").split()
                except ValueError:
                    await self._write_http(writer, 400, {"error": "malformed request line"})
                    break
                headers = await self._read_headers(reader)
                if headers is None:
                    break
                if headers.get("upgrade", "").lower() == "websocket":
                    await self._websocket(reader, writer, target, headers)
                    return
                status, payload, keep_alive = await self._handle_http(
                    reader, method, target, headers
                )
                await self._write_http(writer, status, payload, keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.LimitOverrunError,
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

    async def _read_headers(
        self, reader: asyncio.StreamReader
    ) -> dict[str, str] | None:
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line:
                return None
            if line in (b"\r\n", b"\n"):
                return headers
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

    async def _handle_http(
        self,
        reader: asyncio.StreamReader,
        method: str,
        target: str,
        headers: dict[str, str],
    ) -> tuple[int, dict[str, Any], bool]:
        keep_alive = headers.get("connection", "").lower() != "close"
        path = target.split("?", 1)[0]
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            return 400, {"error": "bad content-length"}, False
        if length > MAX_BODY_BYTES:
            return 413, {"error": f"body too large (> {MAX_BODY_BYTES} bytes)"}, False
        body: dict[str, Any] | None = None
        if length:
            raw = await reader.readexactly(length)
            try:
                body = _parse_object(raw)
            except ValueError as exc:
                return 400, {"error": f"bad JSON body: {exc}"}, keep_alive
        status, payload = await self.dispatch(method, path, body)
        return status, payload, keep_alive

    _REASONS = {
        200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
        413: "Payload Too Large", 503: "Service Unavailable",
    }

    async def _write_http(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        *,
        keep_alive: bool = False,
    ) -> None:
        data = json_bytes(payload)
        head = (
            f"HTTP/1.1 {status} {self._REASONS.get(status, 'Status')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + data)
        await writer.drain()

    # -- WebSocket transport -----------------------------------------------------

    async def _websocket(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        target: str,
        headers: dict[str, str],
    ) -> None:
        path = target.split("?", 1)[0]
        key = headers.get("sec-websocket-key")
        if path != "/ws/regions" or not key:
            await self._write_http(writer, 404, {"error": f"no websocket at {path}"})
            return
        writer.write(
            (
                "HTTP/1.1 101 Switching Protocols\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Accept: {ws_accept_key(key)}\r\n"
                "\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        try:
            text = await _ws_read_text(reader, writer)
            if text is None:
                return
            try:
                body = _parse_object(text)
            except ValueError as exc:
                await _ws_send_text(
                    writer, json_bytes({"event": "error", "error": f"bad JSON request: {exc}"})
                )
                return
            await self._stream_region(writer, body)
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            return
        finally:
            try:
                await _ws_send_close(writer)
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                pass

    async def _stream_region(
        self, writer: asyncio.StreamWriter, body: dict[str, Any]
    ) -> None:
        """Serve a region map, streaming refinement progress while it builds."""
        try:
            machine = machine_from_payload(body.get("machine"))
            spec = self._region_spec(body)
            model_keys = model_keys_from_payload(body)
        except ProtocolError as exc:
            self.errors += 1
            await _ws_send_text(writer, json_bytes({"event": "error", "error": str(exc)}))
            return
        tier_spec = {**spec, "refine": True, "model_keys": list(model_keys)}
        cached = self.tier.region_get(machine, tier_spec)
        if cached is not None:
            await _ws_send_text(
                writer,
                json_bytes({"event": "result", "cached": True, **region_payload(cached)}),
            )
            return
        loop = asyncio.get_running_loop()
        events: asyncio.Queue[dict[str, Any]] = asyncio.Queue()

        def progress(info: dict[str, int]) -> None:
            loop.call_soon_threadsafe(events.put_nowait, {"event": "progress", **info})

        n_values = tuple(
            float(2**k) for k in range(0, spec["log2_n_max"] + 1, spec["n_step"])
        )
        p_values = tuple(
            float(2**k) for k in range(0, spec["log2_p_max"] + 1, spec["p_step"])
        )

        def compute() -> regions.RegionMap:
            refined = refine_winner_grid(
                machine, n_values, p_values, model_keys, progress=progress
            )
            return regions.region_map_from_grid(
                machine, n_values, p_values, refined.winners, model_keys
            )

        task = asyncio.ensure_future(asyncio.to_thread(compute))
        while not task.done() or not events.empty():
            try:
                event = await asyncio.wait_for(events.get(), timeout=0.02)
            except asyncio.TimeoutError:
                continue
            await _ws_send_text(writer, json_bytes(event))
        rmap = task.result()
        self.tier.region_put(machine, tier_spec, rmap)
        await _ws_send_text(
            writer,
            json_bytes({"event": "result", "cached": False, **region_payload(rmap)}),
        )


# -- minimal RFC 6455 framing (server side, text frames) -------------------------


async def _ws_read_text(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> str | None:
    """Read one text message; answers pings, returns None on close."""
    buffer = b""
    while True:
        b1, b2 = await reader.readexactly(2)
        opcode = b1 & 0x0F
        fin = b1 & 0x80
        masked = b2 & 0x80
        length = b2 & 0x7F
        if length == 126:
            (length,) = struct.unpack(">H", await reader.readexactly(2))
        elif length == 127:
            (length,) = struct.unpack(">Q", await reader.readexactly(8))
        mask = await reader.readexactly(4) if masked else b""
        payload = await reader.readexactly(length) if length else b""
        if mask:
            payload = bytes(c ^ mask[i % 4] for i, c in enumerate(payload))
        if opcode == 0x8:  # close
            return None
        if opcode == 0x9:  # ping -> pong
            writer.write(b"\x8a" + bytes([len(payload)]) + payload)
            await writer.drain()
            continue
        if opcode in (0x1, 0x0):  # text / continuation
            buffer += payload
            if fin:
                return buffer.decode("utf-8", errors="replace")


async def _ws_send_text(writer: asyncio.StreamWriter, data: bytes) -> None:
    """Send one unmasked (server->client) text frame."""
    length = len(data)
    if length < 126:
        head = bytes([0x81, length])
    elif length < 1 << 16:
        head = b"\x81\x7e" + struct.pack(">H", length)
    else:
        head = b"\x81\x7f" + struct.pack(">Q", length)
    writer.write(head + data)
    await writer.drain()


async def _ws_send_close(writer: asyncio.StreamWriter) -> None:
    writer.write(b"\x88\x00")
    await writer.drain()


def run_server(config: ServeConfig | None = None, *, max_seconds: float | None = None) -> str:
    """Run the service until interrupted (or for *max_seconds* — smoke mode)."""
    config = config or ServeConfig()

    async def main() -> str:
        server = ReproServer(config)
        await server.start()
        print(
            f"repro.serve listening on http://{config.host}:{server.port} "
            f"(batching={'on' if config.batching else 'off'}, "
            f"preloaded={server.tier.preloaded} artifacts)",
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
