"""End-to-end tests for the repro.serve HTTP application.

A real server runs on an ephemeral port; clients are hand-rolled on
asyncio streams (the repo has no HTTP client dependency, and speaking
the wire protocol directly is the point — these tests cover the
transport layer, not just ``dispatch``).
"""

import asyncio
import json

import pytest

from repro.core import regions
from repro.core.cache import result_cache
from repro.serve import ReproServer, ServeConfig

_SMALL_MAP = {"machine": "cm5", "log2_p_max": 8, "log2_n_max": 6}


async def _http(reader, writer, method, path, body=None, close=False):
    """One request over an open connection; returns (status, payload)."""
    data = b"" if body is None else json.dumps(body).encode()
    conn = "close" if close else "keep-alive"
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(data)}\r\nConnection: {conn}\r\n\r\n"
    )
    writer.write(head.encode() + data)
    await writer.drain()
    return await _read_response(reader)


async def _read_response(reader):
    """The (status, payload) of one HTTP response."""
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode().partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    return status, json.loads(await reader.readexactly(length))


def _serve(test_coro, **config_kw):
    """Run *test_coro(server, host, port)* against a live server."""
    config_kw.setdefault("preload", False)

    async def go():
        server = ReproServer(ServeConfig(**config_kw))
        await server.start()
        try:
            return await test_coro(server, "127.0.0.1", server.port)
        finally:
            await server.stop()

    return asyncio.run(go())


class TestHttp:
    def test_healthz_and_stats(self):
        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            status, payload = await _http(reader, writer, "GET", "/healthz")
            assert status == 200 and payload["ok"]
            status, stats = await _http(reader, writer, "GET", "/stats")
            assert status == 200
            assert {"batcher", "artifacts", "jobs", "predictions"} <= set(stats)
            writer.close()

        _serve(scenario)

    def test_concurrent_predicts_coalesce(self):
        async def scenario(server, host, port):
            async def one(i):
                reader, writer = await asyncio.open_connection(host, port)
                status, payload = await _http(
                    reader, writer, "POST", "/predict",
                    {"machine": "cm5", "n": 256.0 + i, "p": 64}, close=True,
                )
                writer.close()
                return status, payload

            results = await asyncio.gather(*(one(i) for i in range(40)))
            assert all(status == 200 for status, _ in results)
            assert all(r["predictions"][0]["algorithm"] for _, r in results)
            stats = server.batcher.stats()
            assert stats["batches"] >= 1
            assert stats["batched_points"] == 40
            # 40 concurrent sockets coalesced into far fewer scans
            assert stats["batches"] < 40

        _serve(scenario)

    def test_multi_point_and_machine_override(self):
        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            status, payload = await _http(
                reader, writer, "POST", "/predict",
                {
                    "machine": {"preset": "cm5", "tw": 9.0},
                    "points": [{"n": 128, "p": 16}, {"n": 2048, "p": 4096}],
                },
            )
            assert status == 200 and payload["count"] == 2
            assert payload["machine"]["tw"] == 9.0
            writer.close()

        _serve(scenario)

    def test_keep_alive_connection_reuse(self):
        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            for n in (64.0, 128.0, 256.0):
                status, _ = await _http(
                    reader, writer, "POST", "/predict",
                    {"machine": "ncube2-like", "n": n, "p": 16},
                )
                assert status == 200
            writer.close()
            assert server.connections == 1  # one socket served all three

        _serve(scenario)

    def test_error_statuses(self):
        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            cases = [
                ("POST", "/predict", {"machine": "nope", "n": 4, "p": 4}, 400),
                ("POST", "/predict", {"machine": "cm5", "n": -1, "p": 4}, 400),
                ("POST", "/predict", {"machine": {"bogus": 1.0}, "n": 4, "p": 4}, 400),
                ("GET", "/nope", None, 404),
                ("GET", "/jobs/job-999999", None, 404),
                ("POST", "/regions",
                 {"machine": "cm5", "log2_p_max": 99}, 413),
                ("POST", "/jobs",
                 {"machine": "cm5", "algorithm": "cannon", "n": 4096, "p": 4}, 400),
                ("POST", "/jobs",
                 {"machine": "cm5", "algorithm": "cannon", "n": 16, "p": 4,
                  "scheduler": "ready"}, 400),
                ("POST", "/crossover", {"machine": "cm5", "a": "x", "b": "gk"}, 400),
            ]
            for method, path, body, want in cases:
                status, payload = await _http(reader, writer, method, path, body)
                assert status == want, (path, status, payload)
                assert "error" in payload
                if body and "scheduler" in body:
                    assert "rescan, heap, compiled" in payload["error"]
            writer.close()

        _serve(scenario)

    def test_malformed_json_body(self):
        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            raw = b"{not json"
            writer.write(
                (
                    f"POST /predict HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(raw)}\r\n\r\n"
                ).encode() + raw
            )
            await writer.drain()
            status = int((await reader.readline()).split()[1])
            assert status == 400
            writer.close()

        _serve(scenario)

    def test_negative_content_length(self):
        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: -5\r\n\r\n")
            await writer.drain()
            assert await _read_response(reader) == (400, {"error": "bad content-length"})
            writer.close()

        _serve(scenario)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_constants_rejected(self, constant):
        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            raw = (
                f'{{"machine": {{"ts": {constant}, "tw": 3}}, "n": 64, "p": 16}}'
            ).encode()
            writer.write(
                (
                    f"POST /predict HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(raw)}\r\n\r\n"
                ).encode() + raw
            )
            await writer.drain()
            status, payload = await _read_response(reader)
            assert status == 400 and constant in payload["error"]
            # keep-alive survives the rejection, and nothing reached the batcher
            status, payload = await _http(reader, writer, "GET", "/stats")
            assert status == 200 and payload["batcher"]["requests"] == 0
            writer.close()

        _serve(scenario)

    @pytest.mark.parametrize(
        "machine",
        [{"ts": float("nan"), "tw": 3}, {"preset": "cm5", "tw": float("inf")},
         {"ts": 1, "tw": 3, "unit_time": float("inf")}, {"ts": 10**400, "tw": 3}],
    )
    def test_non_finite_machine_is_400_not_a_prediction(self, machine):
        async def scenario(server, host, port):
            status, payload = await server.dispatch(
                "POST", "/predict", {"machine": machine, "n": 64, "p": 16}
            )
            assert status == 400, payload
            assert "must be a finite number" in payload["error"]

        _serve(scenario)

    def test_regions_and_crossover(self):
        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            status, payload = await _http(
                reader, writer, "POST", "/regions",
                {"machine": "future-mimd", "log2_p_max": 16, "log2_n_max": 10},
            )
            assert status == 200
            assert len(payload["rows"]) == 11  # one row per log2(n)
            assert len(payload["rows"][0]) == 17  # one letter per log2(p)
            assert payload["fractions"]
            status, payload = await _http(
                reader, writer, "POST", "/crossover",
                {"machine": "cm5", "a": "cannon", "b": "gk",
                 "p_values": [16, 256, 4096]},
            )
            assert status == 200 and len(payload["curve"]) == 3
            writer.close()

        _serve(scenario)

    def test_cache_entries_bound_covers_maps_and_curves(self):
        async def scenario(server, host, port):
            for k in range(6):
                status, _ = await server.dispatch(
                    "POST", "/regions",
                    {"machine": "cm5", "log2_p_max": 4 + k, "log2_n_max": 4},
                )
                assert status == 200
                status, _ = await server.dispatch(
                    "POST", "/crossover",
                    {"machine": "cm5", "a": "cannon", "b": "gk", "p_values": [4**k]},
                )
                assert status == 200

        _serve(scenario, cache_entries=2)
        # 12 distinct artifacts went through the one bounded memory tier
        assert len(result_cache()) == 2

    def test_job_lifecycle_and_cached_resubmit(self):
        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            body = {"machine": "cm5", "algorithm": "cannon", "n": 8, "p": 4, "seed": 1}
            status, payload = await _http(reader, writer, "POST", "/jobs", body)
            assert status == 202
            job_id = payload["job"]["id"]
            for _ in range(500):
                status, payload = await _http(reader, writer, "GET", f"/jobs/{job_id}")
                if payload["job"]["status"] in ("done", "error"):
                    break
                await asyncio.sleep(0.01)
            job = payload["job"]
            assert job["status"] == "done", job
            assert job["result"]["verified"] is True
            assert job["result"]["simulated_time"] > 0
            # identical params: answered from the result cache, instantly
            status, payload = await _http(reader, writer, "POST", "/jobs", body)
            assert status == 202
            assert payload["job"]["cached"] is True
            assert payload["job"]["status"] == "done"
            writer.close()

        _serve(scenario)


async def _stream(reader, writer, body):
    """``POST /regions/stream``: ``(status, events)``, or a JSON error's payload."""
    data = json.dumps(body).encode()
    writer.write(
        (
            f"POST /regions/stream HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(data)}\r\n\r\n"
        ).encode() + data
    )
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    headers = {}
    while (line := await reader.readline()) not in (b"\r\n", b"\n"):
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding") != "chunked":
        length = int(headers["content-length"])
        return status, json.loads(await reader.readexactly(length))
    assert headers["content-type"] == "application/x-ndjson"
    text = b""
    while size := int(await reader.readline(), 16):
        text += await reader.readexactly(size)
        assert await reader.readexactly(2) == b"\r\n"
    assert await reader.readexactly(2) == b"\r\n"  # end of the chunked body
    return status, [json.loads(line) for line in text.splitlines()]


class TestStream:
    def test_streams_progress_then_result_then_cached(self):
        request = {"machine": "ncube2-like", "log2_p_max": 20, "log2_n_max": 12}

        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            status, first = await _stream(reader, writer, request)
            assert status == 200
            assert any(e["event"] == "progress" for e in first)
            depths = [e["depth"] for e in first if e["event"] == "progress"]
            assert depths == sorted(depths)
            assert [e["event"] for e in first].count("result") == 1
            result = first[-1]
            assert result["event"] == "result" and result["cached"] is False
            assert len(result["rows"]) == 13
            # the repeat, on the same keep-alive socket, comes straight
            # from the memory tier: one cached result line, no progress
            status, second = await _stream(reader, writer, request)
            assert [e["event"] for e in second] == ["result"]
            assert second[0]["cached"] is True
            assert second[0]["rows"] == result["rows"]
            status, payload = await _http(reader, writer, "GET", "/healthz")
            assert status == 200 and payload["ok"]
            writer.close()

        _serve(scenario)

    def test_result_equals_refined_regions_and_shares_its_entry(self):
        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            body = {"machine": "future-mimd", "log2_p_max": 18, "log2_n_max": 10}
            _, events = await _stream(reader, writer, body)
            status, plain = await _http(
                reader, writer, "POST", "/regions", {**body, "refine": True}
            )
            assert status == 200
            result = events[-1]
            assert result["cached"] is False
            assert {k: v for k, v in result.items() if k not in ("event", "cached")} == plain
            # a map the plain endpoint refined first streams as cached
            body = {"machine": "cm5", "log2_p_max": 16, "log2_n_max": 9}
            _, plain = await _http(reader, writer, "POST", "/regions", {**body, "refine": True})
            _, events = await _stream(reader, writer, body)
            assert [e["event"] for e in events] == ["result"]
            assert events[0]["cached"] is True
            assert events[0]["rows"] == plain["rows"]
            writer.close()

        _serve(scenario)

    def test_bad_request_is_a_4xx_response(self):
        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            status, payload = await _stream(reader, writer, {"machine": "nope"})
            assert status == 400 and "unknown machine preset" in payload["error"]
            status, payload = await _stream(
                reader, writer, {"machine": "cm5", "log2_p_max": 99}
            )
            assert status == 413 and "error" in payload
            # keep-alive survives the rejections
            status, _ = await _http(reader, writer, "GET", "/healthz")
            assert status == 200
            writer.close()

        _serve(scenario)

    def test_non_finite_json_constant_is_400(self):
        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            # json.dumps writes the float as the bare constant NaN
            status, payload = await _stream(
                reader, writer, {"machine": {"ts": float("nan"), "tw": 3.0}}
            )
            assert status == 400 and "NaN" in payload["error"]
            writer.close()

        _serve(scenario)


class TestFraming:
    """Bad framing gets a status, then a close; never an unhandled exception."""

    @staticmethod
    def _probe(data, *, half_close=True):
        """Send raw *data*; the status line (``b""`` on a close) and loop errors."""

        async def scenario(server, host, port):
            errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(data)
                await writer.drain()
                if half_close:
                    writer.write_eof()
                line = await asyncio.wait_for(reader.readline(), 5)
                await asyncio.wait_for(reader.read(), 5)  # the server closes after answering
            except ConnectionResetError:  # closed with our bytes unread
                line = b""
            writer.close()
            await asyncio.sleep(0.05)  # let the connection handler finish
            return line, errors

        return _serve(scenario)

    @pytest.mark.parametrize(
        "data, want",
        [
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", b"400"),
            (b"GET /healthz HTTP/1.1\r\nX: " + b"a" * 70_000 + b"\r\n\r\n", b"431"),
            (b"GET /healthz HTTP/1.1\r\n" + b"X: y\r\n" * 20_000 + b"\r\n", b"431"),
        ],
        ids=["long-request-line", "long-header-line", "20k-headers"],
    )
    def test_oversized_framing(self, data, want):
        line, errors = self._probe(data)
        assert line == b"" or line.split()[1] == want, line
        assert errors == []

    def test_header_cap_is_inclusive(self):
        from repro.serve.app import MAX_HEADERS

        data = b"GET /healthz HTTP/1.1\r\n" + b"X: y\r\n" * MAX_HEADERS + b"\r\n"
        line, errors = self._probe(data)
        assert line.split()[1] == b"200"
        assert errors == []

    def test_slow_headers_get_408(self, monkeypatch):
        monkeypatch.setattr("repro.serve.app.READ_DEADLINE_S", 0.2)
        line, errors = self._probe(
            b"POST /predict HTTP/1.1\r\nHost: t\r\n", half_close=False
        )
        assert line.split()[1] == b"408"
        assert errors == []

    @pytest.mark.parametrize("request_first", [False, True], ids=["fresh", "after-a-request"])
    def test_idle_connection_closes_without_a_response(self, monkeypatch, request_first):
        monkeypatch.setattr("repro.serve.app.READ_DEADLINE_S", 0.2)

        async def scenario(server, host, port):
            errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            reader, writer = await asyncio.open_connection(host, port)
            if request_first:
                assert (await _http(reader, writer, "GET", "/healthz"))[0] == 200
            rest = await asyncio.wait_for(reader.read(), 5)  # until the server closes
            writer.close()
            await asyncio.sleep(0.05)  # let the connection handler finish
            return rest, errors

        rest, errors = _serve(scenario)
        assert rest == b""
        assert errors == []


class TestDispatch:
    """Transport-independent routing (the in-process path)."""

    def test_unknown_route(self):
        async def scenario(server, host, port):
            status, payload = await server.dispatch("PUT", "/predict", {})
            assert status == 404 and "error" in payload

        _serve(scenario)

    def test_protocol_error_maps_to_status(self):
        async def scenario(server, host, port):
            status, _ = await server.dispatch(
                "POST", "/predict", {"machine": "cm5", "points": []}
            )
            assert status == 400
            status, _ = await server.dispatch(
                "POST", "/predict",
                {"machine": "cm5",
                 "points": [{"n": 1, "p": 1}] * 5000},
            )
            assert status == 413

        _serve(scenario)

    @pytest.mark.parametrize(
        "path, body, label",
        [
            ("/predict", {"n": 10**400, "p": 16}, "point field 'n'"),
            ("/predict", {"points": [{"n": 64, "p": json.loads("1e999")}]}, "point field 'p'"),
            ("/crossover", {"p_values": json.loads("[16, 1e999]")}, "each of 'p_values'"),
            ("/crossover", {"p_values": [16, 10**400]}, "each of 'p_values'"),
        ],
    )
    def test_numbers_beyond_float_range_are_400(self, path, body, label):
        # 1e999 is a valid JSON literal that decodes to inf without ever
        # reaching the decoder's parse_constant; 10**400 overflows float()
        async def scenario(server, host, port):
            request = {"machine": "cm5", "a": "gk", "b": "cannon", **body}
            status, payload = await server.dispatch("POST", path, request)
            assert status == 400, payload
            assert payload["error"] == f"{label} must be a finite number"

        _serve(scenario)

    @pytest.mark.parametrize(
        "refine", ["false", 0, 1, [], None], ids=["string", "zero", "one", "list", "null"]
    )
    def test_non_boolean_refine_is_400_and_computes_nothing(self, refine):
        async def scenario(server, host, port):
            before = regions.region_compute_count()
            answer = await server.dispatch("POST", "/regions", {**_SMALL_MAP, "refine": refine})
            return answer, regions.region_compute_count() - before

        (status, payload), computes = _serve(scenario)
        assert status == 400
        assert payload == {"error": "'refine' must be true or false"}
        assert computes == 0

    def test_boolean_or_absent_refine_maps(self):
        async def scenario(server, host, port):
            answers = {}
            for label, extra in (("absent", {}), ("false", {"refine": False}), ("true", {"refine": True})):
                before = regions.region_compute_count()
                status, payload = await server.dispatch("POST", "/regions", {**_SMALL_MAP, **extra})
                answers[label] = status, payload, regions.region_compute_count() - before
            return answers

        answers = _serve(scenario)
        assert {status for status, _, _ in answers.values()} == {200}
        # absent and false are the one dense map; true computes the refined one
        assert [computes for _, _, computes in answers.values()] == [1, 0, 1]
        assert answers["absent"][1] == answers["false"][1]
        assert answers["true"][1]["rows"] == answers["absent"][1]["rows"]

    def test_cli_serve_command_smoke(self, capsys):
        from repro.cli import main

        rc = main(["serve", "--port", "0", "--max-seconds", "0.2", "--no-preload"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro.serve listening on" in out
