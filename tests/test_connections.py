"""Kept-alive HTTP/1.1 connections: client reuse, framing, stop, idle timeout.

The raw-socket tests speak HTTP by hand, so they see exactly what the
server writes and when it closes — what ``http.client`` would hide.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time

import pytest

import repro.service.server as server_module
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import LabelingServer

GOOD_BODY = b'{"domain": "airline", "seed": 0}'


def _post(body: bytes, length: str | None = None) -> bytes:
    """One raw ``POST /label`` request; ``length`` overrides Content-Length."""
    length = str(len(body)) if length is None else length
    return (
        b"POST /label HTTP/1.1\r\nHost: test\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: " + length.encode() + b"\r\n\r\n" + body
    )


def _read_until_closed(sock: socket.socket, wait_s: float = 10.0) -> bytes:
    """Everything the server sends until it closes the connection.

    Fails the test if the connection is still open after ``wait_s``.
    """
    sock.settimeout(wait_s)
    chunks = []
    try:
        while True:
            data = sock.recv(65536)
            if not data:
                return b"".join(chunks)
            chunks.append(data)
    except ConnectionResetError:
        return b"".join(chunks)
    except socket.timeout:
        pytest.fail(f"connection still open after {wait_s} s: {b''.join(chunks)!r}")


def _responses(raw: bytes) -> list[tuple[int, dict, bytes]]:
    """Split a byte stream of HTTP responses: (status, headers, body) each."""
    out = []
    while raw:
        head, _, rest = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = {
            name.strip().lower(): value.strip()
            for name, _, value in (line.partition(":") for line in lines[1:])
        }
        length = int(headers.get("content-length", len(rest)))
        out.append((int(lines[0].split()[1]), headers, rest[:length]))
        raw = rest[length:]
    return out


@pytest.fixture
def server():
    with LabelingServer(port=0, cache_size=4) as running:
        yield running


def _connect(server: LabelingServer) -> socket.socket:
    return socket.create_connection((server.host, server.port), timeout=10)


# ----------------------------------------------------------------------
# Framing: a body the server did not read ends the connection.
# ----------------------------------------------------------------------


class TestUnreadBodyClosesTheConnection:
    @pytest.mark.parametrize(
        "length, status",
        [("banana", 400), ("-3", 400), (str(64 * 1024 * 1024), 413)],
        ids=["garbage-length", "negative-length", "oversized-length"],
    )
    def test_bad_length_then_good_request_on_one_socket(self, server, length, status):
        # Before, the unread body was parsed as the next request line: the
        # stdlib answered it with an HTML 400 and dropped the good request.
        with _connect(server) as sock:
            sock.sendall(_post(GOOD_BODY, length) + _post(GOOD_BODY))
            responses = _responses(_read_until_closed(sock))
        assert len(responses) == 1
        got, headers, body = responses[0]
        assert got == status
        assert headers["connection"] == "close"
        assert json.loads(body)["ok"] is False
        # The server is fine: a new connection gets the good request answered.
        assert ServiceClient(server.url).label(domain="airline")["ok"]

    def test_truncated_body_is_400_and_closes(self, server):
        with _connect(server) as sock:
            sock.sendall(_post(GOOD_BODY[:10], str(len(GOOD_BODY))))
            sock.shutdown(socket.SHUT_WR)
            responses = _responses(_read_until_closed(sock))
        assert [(status, h["connection"]) for status, h, _ in responses] == [
            (400, "close")
        ]
        assert "truncated" in json.loads(responses[0][2])["error"]

    def test_read_body_keeps_the_connection_open(self, server):
        with _connect(server) as sock:
            sock.sendall(_post(b"[1, 2]") + _post(GOOD_BODY))
            sock.shutdown(socket.SHUT_WR)  # the server closes after both
            responses = _responses(_read_until_closed(sock))
        assert [status for status, _, _ in responses] == [400, 200]
        assert "connection" not in responses[0][1]


# ----------------------------------------------------------------------
# Untrusted request heads: JSON errors, no header injection.
# ----------------------------------------------------------------------


class TestMalformedRequestsGetJson:
    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"GARBAGE\r\n\r\n", 400),
            (b"GET / HTTP/9.9\r\n\r\n", 505),
            (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n", 431),
        ],
        ids=["garbled-request-line", "http-9.9", "long-header-line"],
    )
    def test_stdlib_errors_use_the_json_error_shape(self, server, request_bytes, status):
        with _connect(server) as sock:
            sock.sendall(request_bytes)
            responses = _responses(_read_until_closed(sock))
        assert len(responses) == 1
        got, headers, body = responses[0]
        assert got == status
        assert headers["content-type"] == "application/json"
        assert headers["connection"] == "close"
        payload = json.loads(body)
        assert payload["ok"] is False
        assert payload["error"]
        assert payload["error_type"] == "invalid_request"
        assert payload["request_id"] == headers["x-request-id"]
        # The server is fine afterwards.
        assert ServiceClient(server.url).healthz()["status"] == "ok"


class TestRequestIdHeader:
    def _echoed(self, server, header: bytes) -> tuple[dict, dict]:
        body = b"{}"  # a 400, which still carries the request id
        with _connect(server) as sock:
            sock.sendall(
                b"POST /label HTTP/1.1\r\nHost: test\r\n" + header
                + b"Connection: close\r\nContent-Length: 2\r\n\r\n" + body
            )
            responses = _responses(_read_until_closed(sock))
        assert len(responses) == 1
        _, headers, raw = responses[0]
        return headers, json.loads(raw)

    def test_folded_header_is_not_echoed_raw(self, server):
        headers, payload = self._echoed(
            server, b"X-Request-Id: abc\r\n Injected: yes\r\n"
        )
        assert "injected" not in headers
        assert re.fullmatch(r"[0-9a-f]{32}", headers["x-request-id"])
        assert payload["request_id"] == headers["x-request-id"]

    @pytest.mark.parametrize(
        "given, kept",
        [(b"my-req-1", True), (b"a" * 128, True), (b"a" * 129, False),
         (b"two words", False), (b"caf\xc3\xa9", False)],
        ids=["plain", "128-chars", "129-chars", "space", "non-ascii"],
    )
    def test_only_short_visible_ascii_ids_are_honored(self, server, given, kept):
        headers, payload = self._echoed(server, b"X-Request-Id: " + given + b"\r\n")
        assert payload["request_id"] == headers["x-request-id"]
        if kept:
            assert headers["x-request-id"] == given.decode()
        else:
            assert re.fullmatch(r"[0-9a-f]{32}", headers["x-request-id"])


# ----------------------------------------------------------------------
# Lifecycle: stop() and the idle timeout end kept-alive connections.
# ----------------------------------------------------------------------


def test_stop_ends_kept_alive_connections():
    server = LabelingServer(port=0, cache_size=4).start()
    try:
        with _connect(server) as sock:
            sock.sendall(_post(GOOD_BODY))
            first = sock.recv(65536)
            assert first.startswith(b"HTTP/1.1 200")
            server.stop()
            try:
                sock.sendall(_post(GOOD_BODY))
            except OSError:  # already reset: nothing was answered
                return
            assert _read_until_closed(sock) == b""
    finally:
        server.stop()


def test_idle_timeout_closes_a_stalled_sender(monkeypatch, server):
    monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.2)
    with _connect(server) as sock:
        sock.sendall(b"POST /lab")  # half a request line, then silence
        start = time.monotonic()
        assert _read_until_closed(sock, wait_s=10.0) == b""
        assert time.monotonic() - start < 5.0


# ----------------------------------------------------------------------
# The client: one kept-alive connection per thread.
# ----------------------------------------------------------------------


class TestClientConnections:
    def test_one_threads_calls_reuse_one_connection(self, server):
        client = ServiceClient(server.url)
        client.healthz()
        sock = client._connection().sock
        for _ in range(5):
            assert client.label(domain="airline")["ok"]
        assert client._connection().sock is sock
        # Another thread gets a connection of its own.
        other = {}
        thread = threading.Thread(
            target=lambda: (client.healthz(), other.update(sock=client._connection().sock))
        )
        thread.start()
        thread.join()
        assert other["sock"] is not None and other["sock"] is not sock

    def test_server_idle_close_is_healed_transparently(self, monkeypatch, server):
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.2)
        client = ServiceClient(server.url, retries=0)
        client.healthz()
        stale = client._connection().sock
        time.sleep(0.6)  # the server closes the idle connection
        assert client.label(domain="airline")["ok"]
        assert client.last_attempts == 1
        assert client._connection().sock is not stale

    def test_kept_alive_round_trips_do_not_wait_on_delayed_acks(self, server):
        # Headers and body sent apart stall each response ~40 ms behind the
        # client's delayed ACK (Nagle); 20 hits would then take >= 0.8 s.
        client = ServiceClient(server.url)
        client.label(domain="hotels")
        start = time.perf_counter()
        for _ in range(20):
            assert client.label(domain="hotels")["cached"] is True
        assert time.perf_counter() - start < 20 * 0.040 / 2

    def test_stopped_server_is_a_connection_error(self):
        server = LabelingServer(port=0, cache_size=4).start()
        client = ServiceClient(server.url, retries=0)
        client.healthz()
        server.stop()
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0
