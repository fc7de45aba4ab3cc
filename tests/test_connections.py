"""Kept-alive HTTP/1.1 connections: client reuse, framing, stop, idle timeout.

The raw-socket tests speak HTTP by hand, so they see exactly what the
server writes and when it closes — what ``http.client`` would hide.
"""

from __future__ import annotations

import http.client
import io
import json
import re
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.server as server_module
from repro.service.client import ServiceError
from repro.service.server import LabelingServer
from repro.service.wire import read_headers

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
    def test_bad_length_then_good_request_on_one_socket(
        self, server, length, status, client_for
    ):
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
        assert client_for(server.url).label(domain="airline")["ok"]

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
    def test_stdlib_errors_use_the_json_error_shape(
        self, server, request_bytes, status, client_for
    ):
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
        assert client_for(server.url).healthz()["status"] == "ok"


    def test_error_answers_are_counted_under_other(self, client_for):
        requests = [
            b"GARBAGE\r\n\r\n",
            b"GET / HTTP/9.9\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
            b"HEAD /healthz HTTP/1.1\r\n\r\n",
        ]
        with LabelingServer(port=0) as server:
            for request_bytes in requests:
                with _connect(server) as sock:
                    sock.sendall(request_bytes)
                    _read_until_closed(sock)
            http = client_for(server.url).metrics()["http"]
        assert http["by_status"] == {"400": 1, "431": 1, "501": 1, "505": 1}
        assert http["by_endpoint"] == {"other": 4}
        assert http["requests_total"] == 4
        assert http["latency"]["window"] == 0  # untimed: nothing was handled

    def test_head_gets_status_and_headers_only(self, server):
        with _connect(server) as sock:
            sock.sendall(b"HEAD /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            raw = _read_until_closed(sock)
        head, blank, rest = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 501 ")
        assert b"\r\nConnection: close" in head
        assert blank and rest == b""


# ----------------------------------------------------------------------
# Request heads: the server reads the header block itself.
# ----------------------------------------------------------------------


class TestRequestHeads:
    @pytest.mark.parametrize("lines, status", [(99, 200), (100, 431), (101, 431)])
    def test_header_line_limit(self, server, lines, status):
        # As in http.client, the blank line that ends the block counts too.
        fields = b"".join(b"X-Field-%d: v\r\n" % i for i in range(lines - 1))
        with _connect(server) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\n" + fields + b"Connection: close\r\n\r\n"
            )
            responses = _responses(_read_until_closed(sock))
        assert [got for got, _, _ in responses] == [status]
        if status == 431:
            assert json.loads(responses[0][2])["error"] == "Too many headers"

    @pytest.mark.parametrize(
        "version, field, answered",
        [
            (b"HTTP/1.0", b"", 1),
            (b"HTTP/1.0", b"Connection: keep-alive\r\n", 2),
            (b"HTTP/1.1", b"", 2),
            (b"HTTP/1.1", b"connection: Keep-Alive\r\n", 2),
            (b"HTTP/1.1", b"Connection: close\r\n", 1),
        ],
        ids=["1.0", "1.0-keep-alive", "1.1", "1.1-keep-alive", "1.1-close"],
    )
    def test_connection_header(self, server, version, field, answered):
        # A second request follows on the socket; it is answered only if
        # the first one left the connection open.
        with _connect(server) as sock:
            sock.sendall(
                b"GET /healthz " + version + b"\r\nHost: test\r\n" + field + b"\r\n"
                + b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
            )
            responses = _responses(_read_until_closed(sock))
        assert [got for got, _, _ in responses] == [200] * answered

    def test_expect_100_continue_is_answered_before_the_body(self, server):
        with _connect(server) as sock:
            sock.sendall(
                b"POST /label HTTP/1.1\r\nHost: test\r\nExpect: 100-continue\r\n"
                b"Content-Length: " + str(len(GOOD_BODY)).encode() + b"\r\n\r\n"
            )
            interim = b""
            try:
                while not interim.endswith(b"\r\n\r\n"):
                    interim += sock.recv(65536)
            except socket.timeout:
                pytest.fail(f"no interim answer before the body: {interim!r}")
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(GOOD_BODY)
            sock.shutdown(socket.SHUT_WR)
            responses = _responses(_read_until_closed(sock))
        assert [got for got, _, _ in responses] == [200]
        assert json.loads(responses[0][2])["ok"] is True


# Header blocks as clients write them, plus the odd lines email.parser
# treats specially: obs-folds, a nameless field, a line that is not a
# field, a fold before any field.  A bare CR is left out: email.parser
# splits lines on it, which no HTTP parser should copy; so is a line that
# starts "From ", which it takes for an mbox envelope.
_TCHAR = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_NAMES = st.one_of(
    st.sampled_from(
        ["Content-Length", "Connection", "Expect", "X-Request-Id", "Host", "X-A"]
    ).flatmap(lambda name: st.sampled_from([name, name.lower(), name.upper()])),
    st.text(_TCHAR, min_size=1, max_size=8),
)
_VALUES = st.text(
    st.characters(min_codepoint=0, max_codepoint=0xFF, blacklist_characters="\r\n"),
    max_size=12,
)
_EOL = st.sampled_from(["\r\n", "\n"])
_BLANKS = st.sampled_from(["", " ", "  ", "\t"])
_FOLD = st.builds(
    lambda lead, value: lead + value, st.sampled_from([" ", "\t", " \t"]), _VALUES
)
_FIELD = st.builds(
    lambda name, blank, value, folds: [f"{name}:{blank}{value}", *folds],
    _NAMES, _BLANKS, _VALUES, st.lists(_FOLD, max_size=2),
)
_ODD = st.sampled_from(
    [[":nameless"], ["no colon here"], ["Bad Name: v"], [" fold first"]]
)
_BLOCKS = st.builds(
    lambda groups, eols, end: "".join(
        line + eols[i % len(eols)] for i, line in enumerate(sum(groups, []))
    ) + end,
    st.lists(st.one_of(_FIELD, _FIELD, _FIELD, _ODD), max_size=12),
    st.lists(_EOL, min_size=1, max_size=3),
    _EOL,
)


def _email_fields(block: bytes) -> dict:
    """``http.client.parse_headers``'s first value per lower-cased name, an
    obs-fold joined with one space as RFC 9112 prescribes."""
    message = http.client.parse_headers(io.BytesIO(block))
    return {
        name.lower(): re.sub(r"\r?\n[ \t]+", " ", message.get(name))
        for name in message.keys()
    }


@settings(max_examples=400)
@given(_BLOCKS, st.binary(max_size=8))
def test_read_headers_matches_http_client(block, body):
    raw = block.encode("latin-1")
    stream = io.BytesIO(raw + body)
    assert dict(read_headers(stream)) == _email_fields(raw)
    assert stream.read() == body  # read through the blank line, no further


@pytest.mark.parametrize(
    "block, error",
    [
        (b"X-Long: " + b"a" * 65_536 + b"\r\n\r\n", http.client.LineTooLong),
        (b"X: v\r\n" * 100 + b"\r\n", http.client.HTTPException),
    ],
    ids=["long-line", "101-lines"],
)
def test_read_headers_limits_match_http_client(block, error):
    for parse in (read_headers, http.client.parse_headers):
        with pytest.raises(error):
            parse(io.BytesIO(block))


def test_headers_lookup_ignores_case():
    block = b"Content-Length: 5\r\ncontent-length: 6\r\n\r\n"
    headers = read_headers(io.BytesIO(block))
    assert headers.get("CONTENT-LENGTH") == headers["content-length"] == "5"
    assert "Content-length" in headers and "X-Absent" not in headers
    assert headers.get("X-Absent", "") == ""


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
    def test_one_threads_calls_reuse_one_connection(self, server, client_for):
        client = client_for(server.url)
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

    def test_close_ends_every_threads_connection(self, server, client_for):
        client = client_for(server.url)
        client.healthz()
        socks = [client._connection().sock]
        called, done = threading.Event(), threading.Event()

        def other_thread():  # stays alive, connection open, until done
            client.healthz()
            socks.append(client._connection().sock)
            called.set()
            done.wait(10)

        thread = threading.Thread(target=other_thread)
        thread.start()
        try:
            assert called.wait(10)
            assert len(server._httpd._connections) == 2
            client.close()
            assert all(sock.fileno() == -1 for sock in socks)
            # The server's handlers see the close and end at once, not at
            # the idle timeout.
            deadline = time.monotonic() + 5.0
            while server._httpd._connections and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not server._httpd._connections
        finally:
            done.set()
            thread.join()
        assert client.healthz()["status"] == "ok"  # on a fresh socket
        assert client._connection().sock not in socks

    def test_server_idle_close_is_healed_transparently(self, monkeypatch, server, client_for):
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.2)
        client = client_for(server.url, retries=0)
        client.healthz()
        stale = client._connection().sock
        time.sleep(0.6)  # the server closes the idle connection
        assert client.label(domain="airline")["ok"]
        assert client.last_attempts == 1
        assert client._connection().sock is not stale

    def test_kept_alive_round_trips_do_not_wait_on_delayed_acks(self, server, client_for):
        # Headers and body sent apart stall each response ~40 ms behind the
        # client's delayed ACK (Nagle); 20 hits would then take >= 0.8 s.
        client = client_for(server.url)
        client.label(domain="hotels")
        start = time.perf_counter()
        for _ in range(20):
            assert client.label(domain="hotels")["cached"] is True
        assert time.perf_counter() - start < 20 * 0.040 / 2

    def test_stopped_server_is_a_connection_error(self, client_for):
        server = LabelingServer(port=0, cache_size=4).start()
        client = client_for(server.url, retries=0)
        client.healthz()
        server.stop()
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0
