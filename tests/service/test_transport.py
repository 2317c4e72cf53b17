"""The one HTTP transport, driven over raw sockets.

A node (:class:`AnalysisServer`) and the cluster front end
(:class:`ClusterFrontEnd`) share :class:`HTTPTransport` and the
:class:`HTTPRoutes` request conventions, so every framing, limit and
convention check here runs against both.
"""

import logging
import os
import re
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BackDroidConfig
from repro.service import (
    AnalysisServer,
    ServiceClient,
    ServiceError,
    StoreAwareScheduler,
)
from repro.service.cluster import ClusterFrontEnd, ClusterRouter, NodeDirectory
from repro.service.server import HANDLER_THREADS, MAX_BODY_BYTES, MAX_HEADERS
from repro.store import ArtifactStore

#: Past asyncio's 64 KiB stream limit.
LONG = 70 * 1024


def _node(_tmp_dir):
    scheduler = StoreAwareScheduler(
        BackDroidConfig(search_backend="indexed"), workers=1
    )
    return AnalysisServer(scheduler, port=0)


def _front_end(tmp_dir):
    return ClusterFrontEnd(ClusterRouter(tmp_dir / "store"))


SERVERS = {"node": _node, "front-end": _front_end}


def _stop(server) -> None:
    if isinstance(server, AnalysisServer):
        server.shutdown(drain=True)
    else:
        server.shutdown()


@pytest.fixture(scope="module", params=sorted(SERVERS))
def address(request, tmp_path_factory):
    """A started node or front end; its listening (host, port)."""
    server = SERVERS[request.param](tmp_path_factory.mktemp(request.param))
    server.start()
    try:
        yield server.address
    finally:
        _stop(server)


# ----------------------------------------------------------------------
# Raw-socket helpers
# ----------------------------------------------------------------------
def _parse(data: bytes) -> list:
    """Every ``(status, headers, body)`` response in a raw byte stream."""
    responses = []
    while data:
        head, sep, rest = data.partition(b"\r\n\r\n")
        assert sep, f"truncated response: {data[:200]!r}"
        lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        responses.append((int(lines[0].split()[1]), headers, rest[:length]))
        data = rest[length:]
    return responses


def _exchange(address, data: bytes, half_close: bool = False) -> list:
    """Send raw bytes; every response read until the *server* closes.

    Without ``half_close`` the client keeps its side open, so the read
    only ends if the server closes the connection itself; a server that
    keeps it open fails the read with a timeout.
    """
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return _parse(b"".join(chunks))
            chunks.append(chunk)


def _read_response(sock) -> tuple:
    """One complete response from a connection that stays open."""
    data = b""
    while True:
        chunk = sock.recv(65536)
        assert chunk, "connection closed before a full response"
        data += chunk
        head, sep, rest = data.partition(b"\r\n\r\n")
        if sep:
            length = re.search(rb"(?i)content-length: *(\d+)", head)
            if len(rest) >= int(length.group(1)):
                return _parse(data)[0]


def _get(path: str, version: str = "HTTP/1.1", headers: str = "") -> bytes:
    return f"GET {path} {version}\r\nHost: t\r\n{headers}\r\n".encode()


# ----------------------------------------------------------------------
# Framing and limits
# ----------------------------------------------------------------------
class TestFraming:
    def test_malformed_request_line_is_400_and_closed(self, address):
        [(status, headers, _)] = _exchange(address, b"NONSENSE\r\n\r\n")
        assert status == 400
        assert headers["connection"] == "close"

    @pytest.mark.parametrize(
        "length", ["twelve", "-1", str(MAX_BODY_BYTES + 1)]
    )
    def test_bad_content_length_is_400_without_reading_the_body(
        self, address, length
    ):
        # No body follows: a server that tried to read one would stall
        # past the client's timeout instead of answering.
        request = (
            f"POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode()
        [(status, headers, body)] = _exchange(address, request)
        assert status == 400
        assert headers["connection"] == "close"
        assert b"error" in body

    def test_http10_request_is_closed_after_the_response(self, address):
        [(status, _, _)] = _exchange(address, _get("/healthz", "HTTP/1.0"))
        assert status == 200

    def test_connection_close_is_honoured(self, address):
        [(status, headers, _)] = _exchange(
            address, _get("/healthz", headers="Connection: close\r\n")
        )
        assert status == 200
        assert headers["connection"] == "close"

    def test_two_requests_share_one_keep_alive_connection(self, address):
        with socket.create_connection(address, timeout=5.0) as sock:
            for path in ("/healthz", "/v1/stats"):
                sock.sendall(_get(path))
                status, headers, _ = _read_response(sock)
                assert status == 200
                assert "connection" not in headers

    def test_request_line_past_the_stream_limit_is_414(self, address):
        request = _get("/" + "a" * LONG)
        [(status, headers, _)] = _exchange(address, request)
        assert status == 414
        assert headers["connection"] == "close"

    def test_header_line_past_the_stream_limit_is_431(self, address):
        request = _get("/healthz", headers=f"X-Long: {'a' * LONG}\r\n")
        [(status, headers, _)] = _exchange(address, request)
        assert status == 431
        assert headers["connection"] == "close"

    def test_header_lines_are_capped(self, address):
        # Host, Connection and the extras: exactly the cap is served,
        # one line more is a 431.
        extras = "".join(f"X-{i}: v\r\n" for i in range(MAX_HEADERS - 2))
        at_cap = _get("/healthz", headers=extras + "Connection: close\r\n")
        [(status, _, _)] = _exchange(address, at_cap)
        assert status == 200
        over = _get("/healthz", headers=extras + "X-One: more\r\nX: y\r\n")
        [(status, headers, _)] = _exchange(address, over)
        assert status == 431
        assert headers["connection"] == "close"

    @settings(max_examples=40, deadline=None)
    @given(
        start=st.sampled_from(
            [
                b"POST /v1/jobs",
                b"GET /healthz",
                b"GET /v1/stats",
                b"GET /v1/jobs/job-000001?trace",
                b"DELETE /v1/jobs/job-000001",
            ]
        ),
        header_lines=st.lists(
            st.binary(min_size=1, max_size=120).map(
                lambda b: b.replace(b"\r", b"-").replace(b"\n", b"-")
            ),
            max_size=MAX_HEADERS + 5,
        ),
        body=st.binary(max_size=2048),
    )
    def test_arbitrary_headers_and_bodies_never_get_a_5xx(
        self, address, start, header_lines, body
    ):
        request = (
            start
            + b" HTTP/1.1\r\n"
            + b"".join(line + b"\r\n" for line in header_lines)
            + f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            .encode()
            + body
        )
        responses = _exchange(address, request, half_close=True)
        assert responses, "no response"
        assert all(status < 500 for status, _, _ in responses), responses
        [(status, _, _)] = _exchange(address, _get("/healthz", "HTTP/1.0"))
        assert status == 200


# ----------------------------------------------------------------------
# Request conventions (one copy, shared by node and front end)
# ----------------------------------------------------------------------
class TestConventions:
    @pytest.mark.parametrize("path", ["/healthz/", "/v1/stats?x=1"])
    def test_trailing_slash_and_query_are_normalized(self, address, path):
        [(status, _, _)] = _exchange(address, _get(path, "HTTP/1.0"))
        assert status == 200

    def test_deeply_nested_json_body_is_400(self, address):
        body = b"[" * 60000  # past the decoder's recursion limit
        request = (
            f"POST /v1/jobs HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode() + body
        [(status, _, payload)] = _exchange(address, request)
        assert status == 400
        assert b"not valid JSON" in payload

    def test_unsupported_method_is_501(self, address):
        request = b"PUT /v1/jobs HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
        [(status, headers, _)] = _exchange(address, request)
        assert status == 501
        assert headers["connection"] == "close"

    @pytest.mark.parametrize("kind", sorted(SERVERS))
    def test_handler_exception_is_500(self, kind, tmp_path, monkeypatch):
        server = SERVERS[kind](tmp_path)

        def broken(path, query):
            raise RuntimeError("boom")

        handler = server.api if kind == "node" else server.router
        monkeypatch.setattr(handler, "_get", broken)
        server.start()
        try:
            [(status, headers, body)] = _exchange(
                server.address, _get("/healthz")
            )
        finally:
            _stop(server)
        assert status == 500
        assert headers["connection"] == "close"
        assert b"boom" in body


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(SERVERS))
def test_shutdown_with_an_idle_keep_alive_connection_logs_nothing(
    kind, tmp_path, caplog
):
    server = SERVERS[kind](tmp_path).start()
    with socket.create_connection(server.address, timeout=5.0) as sock:
        sock.sendall(_get("/healthz"))
        assert _read_response(sock)[0] == 200
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            _stop(server)
        assert sock.recv(1) == b""  # shutdown closed the idle connection
    errors = [r for r in caplog.records if r.name == "asyncio"]
    assert errors == [], [r.getMessage() for r in errors]


@pytest.mark.parametrize("kind", sorted(SERVERS))
def test_shutdown_with_a_handler_parked_in_wait_closed_logs_nothing(
    kind, tmp_path, caplog, parked_close
):
    server = SERVERS[kind](tmp_path).start()
    request = _get("/healthz", headers="Connection: close\r\n")
    assert [r[0] for r in _exchange(server.address, request)] == [200]
    assert parked_close.wait(timeout=5.0)
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        _stop(server)
    errors = [r for r in caplog.records if r.name == "asyncio"]
    assert errors == [], [r.getMessage() for r in errors]


def test_front_end_answers_healthz_while_forwards_hang(tmp_path, monkeypatch):
    # The only node accepts connections (the kernel completes them into
    # the listen backlog) but never answers.  More forwards than the
    # event loop's default executor has threads hang on it; the front
    # end's own health check must not queue behind them.
    stuck = min(32, (os.cpu_count() or 1) + 4) + 2
    assert stuck < HANDLER_THREADS
    hung = socket.create_server(("127.0.0.1", 0), backlog=stuck + 8)
    store_dir = tmp_path / "store"
    NodeDirectory(ArtifactStore(store_dir), ttl_seconds=60.0).announce(
        "n1",
        {"host": "127.0.0.1", "port": hung.getsockname()[1], "depth": 0},
    )
    entered = []
    real_submit = ServiceClient.submit

    def counted_submit(self, payload):
        if self.endpoints == [hung.getsockname()]:
            entered.append(payload)  # a forward, not a test submission
        return real_submit(self, payload)

    monkeypatch.setattr(ServiceClient, "submit", counted_submit)
    front = ClusterFrontEnd(
        ClusterRouter(store_dir, lease_ttl=60.0, client_timeout=30.0)
    ).start()
    answers = []

    def submit(index):
        client = ServiceClient(*front.address, timeout=60.0, retries=0)
        try:
            client.submit({"app": f"bench:{index}", "scale": 0.05})
        except ServiceError as exc:
            answers.append(exc.status)

    submitters = [
        threading.Thread(target=submit, args=(i,)) for i in range(stuck)
    ]
    try:
        for thread in submitters:
            thread.start()
        deadline = time.monotonic() + 20.0
        while len(entered) < stuck:
            assert time.monotonic() < deadline, f"{len(entered)} forwards"
            time.sleep(0.01)
        time.sleep(0.2)  # let the last forwards connect and send
        started = time.monotonic()
        [(status, _, body)] = _exchange(front.address, _get("/healthz", "HTTP/1.0"))
        elapsed = time.monotonic() - started
        assert status == 200 and b"front-end" in body
        assert elapsed < 1.0, f"/healthz took {elapsed:.2f}s"
    finally:
        hung.close()  # resets the hung forwards: each fails over to none
        for thread in submitters:
            thread.join(timeout=30.0)
        front.shutdown()
    assert answers == [503] * stuck
