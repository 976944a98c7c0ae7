"""Protocol fuzz against a live server: a 2xx, a 4xx or a close, never a crash.

Each test starts one server on its own event loop in a background
thread; hypothesis drives plain blocking sockets at it.  An exchange
sends one drawn request, half-closes (so a short body ends in a close,
not a wait) and reads to the end.  Every response in the reply must
carry a 2xx or 4xx status, and the server loop's exception handler must
stay empty: an unhandled exception in a connection handler fails the
test even when the client saw a clean close.
"""

import asyncio
import contextlib
import json
import socket
import threading

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve import ReproServer, ServeConfig


@contextlib.contextmanager
def _live_server():
    """A started server on a background loop: ``(exchange, errors)``."""
    loop = asyncio.new_event_loop()
    errors = []
    loop.set_exception_handler(lambda _loop, context: errors.append(context))
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def call(coro):
        return asyncio.run_coroutine_threadsafe(coro, loop).result(timeout=30)

    async def settle():
        # the handler ends a few loop turns after its socket closes
        await asyncio.sleep(0.002)
        for _ in range(5):
            await asyncio.sleep(0)

    server = ReproServer(ServeConfig(preload=False, workers=1))
    call(server.start())

    def exchange(data):
        """Send *data*, half-close, read to the end; ``b""`` on a reset."""
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            try:
                sock.sendall(data)
                sock.shutdown(socket.SHUT_WR)
                chunks = []
                while chunk := sock.recv(1 << 16):
                    chunks.append(chunk)
                reply = b"".join(chunks)
            except (ConnectionResetError, BrokenPipeError):  # closed on unread bytes
                reply = b""
        call(settle())
        return reply

    try:
        yield exchange, errors
    finally:
        call(server.stop())
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()
    assert errors == [], errors


def _statuses(reply):
    """The status of every response in *reply*, parsed in order."""
    statuses = []
    while reply:
        head, sep, reply = reply.partition(b"\r\n\r\n")
        assert sep, head
        status_line, *lines = head.split(b"\r\n")
        statuses.append(int(status_line.split()[1]))
        headers = dict(line.split(b": ", 1) for line in lines)
        if headers.get(b"Transfer-Encoding") == b"chunked":
            size = None
            while size != 0:
                size_line, _, reply = reply.partition(b"\r\n")
                size = int(size_line, 16)
                reply = reply[size + 2:]
        else:
            reply = reply[int(headers[b"Content-Length"]):]
    return statuses


def _check(exchange, errors, data):
    reply = exchange(data)
    assert errors == [], errors
    for status in _statuses(reply):
        assert 200 <= status < 300 or 400 <= status < 500, (status, reply[:300])


def _request(request_line, headers, content_length, body):
    lines = [request_line]
    lines += [f"{name}: {value}".encode("utf-8", "surrogatepass") for name, value in headers]
    if content_length is not None:
        length = str(len(body)) if content_length == "exact" else content_length
        lines.append(b"Content-Length: " + length.encode("utf-8", "surrogatepass"))
    return b"\r\n".join(lines) + b"\r\n\r\n" + body


_ROUTES = ["/predict", "/regions", "/regions/stream", "/crossover"]
_PATHS = st.sampled_from(
    ["/healthz", "/stats", "/jobs", "/jobs/job-000001", "/nope", "/predict?x=1", *_ROUTES]
) | st.text(max_size=12).map(lambda t: "/" + t)
_REQUEST_LINES = st.builds(
    lambda method, path, version: f"{method} {path} {version}".encode("utf-8", "surrogatepass"),
    st.sampled_from(["GET", "POST", "PUT", "HEAD"]) | st.text(max_size=6),
    _PATHS,
    st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/9", ""]),
) | st.binary(max_size=40)
_HEADERS = st.lists(
    st.tuples(
        st.sampled_from(["Host", "Connection", "Content-Type", "Transfer-Encoding"])
        | st.text(max_size=8),
        st.sampled_from(["close", "keep-alive", "chunked", "application/json"])
        | st.text(max_size=12),
    ),
    max_size=5,
)
_CONTENT_LENGTHS = st.none() | st.just("exact") | st.integers(-3, 1 << 21).map(str) | st.text(
    max_size=5
)
_NESTED = st.integers(1, 5000).flatmap(
    lambda depth: st.sampled_from(
        [b"[" * depth + b"]" * depth, b"[" * depth, b'{"a":' * depth + b"1" + b"}" * depth]
    )
)
_NAN_BODIES = st.sampled_from(
    [
        b"NaN",
        b"[Infinity]",
        b'{"machine": {"ts": NaN, "tw": 3}, "n": 64, "p": 16}',
        b'{"machine": "cm5", "n": -Infinity, "p": 16}',
        b'{"machine": "cm5", "a": "gk", "b": "cannon", "p_values": [16, NaN]}',
    ]
)
_RAW_BODIES = st.binary(max_size=64) | _NESTED | _NAN_BODIES

_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-(1 << 70), 1 << 70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
)
_ANY = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)
_NUMBER = st.integers(-4, 1 << 64) | st.floats(allow_nan=False, allow_infinity=False) | _ANY
_GRID = st.integers(-1, 12) | _ANY  # small grids keep every map cheap
_MODEL = st.sampled_from(["cannon", "gk", "dns", "berntsen", "simple", "nope"]) | _ANY
_MACHINE = (
    st.sampled_from(["cm5", "ncube2-like", "nope"])
    | st.fixed_dictionaries(
        {},
        optional={
            "preset": st.sampled_from(["cm5", "future-mimd"]) | _ANY,
            "ts": _NUMBER,
            "tw": _NUMBER,
            "name": _ANY,
            "all_port": _ANY,
            "routing": _ANY,
        },
    )
    | _ANY
)
#: Bodies in the API's own vocabulary.  No job fields: a valid job
#: would start a simulation.
_API_BODIES = st.fixed_dictionaries(
    {},
    optional={
        "machine": _MACHINE,
        "n": _NUMBER,
        "p": _NUMBER,
        "points": st.lists(st.fixed_dictionaries({"n": _NUMBER, "p": _NUMBER}) | _ANY, max_size=4)
        | _ANY,
        "log2_p_max": _GRID,
        "log2_n_max": _GRID,
        "p_step": _GRID,
        "n_step": _GRID,
        "refine": _ANY,
        "model_keys": st.lists(_MODEL, max_size=3) | _ANY,
        "a": _MODEL,
        "b": _MODEL,
        "p_values": st.lists(_NUMBER, max_size=4) | _ANY,
    },
)


def test_framing_fuzz():
    with _live_server() as (exchange, errors):

        @settings(max_examples=120, deadline=None)
        @given(_REQUEST_LINES, _HEADERS, _CONTENT_LENGTHS, _RAW_BODIES)
        @example(b"GET /" + b"a" * 70_000 + b" HTTP/1.1", [], None, b"")
        @example(b"GET /healthz HTTP/1.1", [("X", "a" * 70_000)], None, b"")
        @example(b"GET /healthz HTTP/1.1", [("X", "y")] * 20_000, None, b"")
        @example(b"POST /predict HTTP/1.1", [], "exact", b"[" * 100_000)
        def exchange_framing(request_line, headers, content_length, body):
            _check(exchange, errors, _request(request_line, headers, content_length, body))

        exchange_framing()


def test_api_body_fuzz():
    with _live_server() as (exchange, errors):

        @settings(max_examples=150, deadline=None)
        @given(st.sampled_from(_ROUTES), _API_BODIES)
        @example("/crossover", {"machine": "cm5", "a": [], "b": "gk"})
        @example("/regions/stream", {"machine": "cm5", "model_keys": [["gk"]]})
        def exchange_api(path, body):
            data = json.dumps(body).encode()
            request_line = f"POST {path} HTTP/1.1".encode()
            _check(exchange, errors, _request(request_line, [("Host", "t")], "exact", data))

        exchange_api()
