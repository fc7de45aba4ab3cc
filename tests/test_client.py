"""``ServiceClient``'s own HTTP/1.1 exchange, against raw-socket servers.

Each fake server here writes exact bytes, so the tests see every framing
the client must read (chunked, close-delimited, HTTP/1.0, interim
answers, a dribbled response) and every way a response can be broken.  A
Hypothesis test checks the client against ``http.client`` on generated
responses.
"""

from __future__ import annotations

import http.client
import json
import re
import shutil
import socket
import ssl
import subprocess
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.client import ServiceClient, ServiceError, _host_port


def _read_request(conn: socket.socket) -> tuple[bytes, bytes] | None:
    """One request off ``conn``: head and body, or ``None`` at the close."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return None
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    match = re.search(rb"(?i)\r\ncontent-length: *(\d+)", head)
    length = int(match.group(1)) if match else 0
    while len(body) < length:
        chunk = conn.recv(65536)
        if not chunk:
            break
        body += chunk
    return head, body


@contextmanager
def _raw_server(answer, wrap=None):
    """Serve each accepted connection on its own thread.

    ``answer(conn, head, body, log)`` is called for every request read and
    writes the bytes of the reply; it returns ``False`` to close the
    connection.  Yields ``(port, log)``: ``log["requests"]`` lists the
    ``(connection number, head)`` of every request, ``log["accepted"]``
    counts connections.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    log = {"requests": [], "accepted": 0}
    lock = threading.Lock()

    def serve(conn, number):
        try:
            with conn, (wrap(conn) if wrap else conn) as stream:
                while True:
                    request = _read_request(stream)
                    if request is None:
                        return
                    with lock:
                        log["requests"].append((number, request[0]))
                    if answer(stream, request[0], request[1], log) is False:
                        return
        except OSError:
            return

    def accept_loop():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            with lock:
                log["accepted"] += 1
                number = log["accepted"]
            threading.Thread(target=serve, args=(conn, number), daemon=True).start()

    thread = threading.Thread(target=accept_loop, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1], log
    finally:
        listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        listener.close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def _reply(status: str, body: bytes, *fields: str) -> bytes:
    head = "".join(f"{field}\r\n" for field in fields)
    return f"HTTP/1.1 {status}\r\n{head}\r\n".encode("latin-1") + body


def _length_reply(payload: dict, *fields: str, status: str = "200 OK") -> bytes:
    body = json.dumps(payload).encode()
    return _reply(status, body, f"Content-Length: {len(body)}", *fields)


# ----------------------------------------------------------------------
# Framing.
# ----------------------------------------------------------------------


class TestFraming:
    def test_chunked_body_keeps_the_connection(self, client_for):
        body = b'{"framing": "chunked", "n": [1, 2, 3]}'
        chunks = b"".join(
            b"%x;ext=1\r\n%s\r\n" % (len(part), part) for part in (body[:5], body[5:])
        )
        reply = _reply("200 OK", chunks + b"0\r\nX-Trailer: t\r\n\r\n",
                       "Transfer-Encoding: chunked")
        with _raw_server(lambda conn, *_: conn.sendall(reply)) as (port, log):
            client = client_for(f"http://127.0.0.1:{port}", retries=0)
            assert client.healthz() == json.loads(body)
            sock = client._connection().sock
            assert client.healthz() == json.loads(body)
            assert client._connection().sock is sock
        assert log["accepted"] == 1 and len(log["requests"]) == 2

    def test_close_delimited_body(self, client_for):
        def answer(conn, *_):
            conn.sendall(_reply("200 OK", b'{"framing": "close"}'))
            return False

        with _raw_server(answer) as (port, log):
            client = client_for(f"http://127.0.0.1:{port}", retries=0)
            assert client.healthz() == {"framing": "close"}
            assert client._connection().sock is None
            assert client.healthz() == {"framing": "close"}
        assert log["accepted"] == 2

    def test_connection_close_then_reconnect(self, client_for):
        def answer(conn, *_):
            conn.sendall(_length_reply({"ok": True}, "Connection: close"))
            return False

        with _raw_server(answer) as (port, log):
            client = client_for(f"http://127.0.0.1:{port}", retries=0)
            assert client.healthz() == {"ok": True}
            assert client._connection().sock is None
            assert client.healthz() == {"ok": True}
            assert client.last_attempts == 1
        assert [number for number, _ in log["requests"]] == [1, 2]

    def test_http_1_0_answer_closes_the_socket(self, client_for):
        # The server leaves its end open; the client still closes its own.
        def answer(conn, *_):
            body = b'{"version": "1.0"}'
            conn.sendall(
                b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
            )

        with _raw_server(answer) as (port, log):
            client = client_for(f"http://127.0.0.1:{port}", retries=0)
            assert client.healthz() == {"version": "1.0"}
            assert client._connection().sock is None
            assert client.healthz() == {"version": "1.0"}
        assert log["accepted"] == 2

    def test_interim_answers_are_skipped(self, client_for):
        reply = (
            b"HTTP/1.1 100 Continue\r\n\r\n"
            b"HTTP/1.1 103 Early Hints\r\nLink: </a>; rel=preload\r\n\r\n"
            + _length_reply({"final": True}, "X-Final: yes")
        )
        with _raw_server(lambda conn, *_: conn.sendall(reply)) as (port, _):
            client = client_for(f"http://127.0.0.1:{port}", retries=0)
            assert client.label(domain="airline") == {"final": True}
            assert client.label(domain="airline") == {"final": True}

    def test_response_dribbled_one_byte_per_write(self, client_for):
        reply = _reply(
            "200 OK", b'{"slow": "dribble"}', "Content-Length: 19", "X-Pad: abc"
        )

        def answer(conn, *_):
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for i in range(len(reply)):
                conn.sendall(reply[i:i + 1])
                time.sleep(0.0005)

        with _raw_server(answer) as (port, log):
            client = client_for(f"http://127.0.0.1:{port}", retries=0)
            assert client.healthz() == {"slow": "dribble"}
            assert client.healthz() == {"slow": "dribble"}
        assert log["accepted"] == 1

    def test_body_shorter_than_its_length_is_status_zero(self, client_for):
        def answer(conn, *_):
            conn.sendall(_reply("200 OK", b'{"cut": ', "Content-Length: 50"))
            return False

        with _raw_server(answer) as (port, log):
            client = client_for(f"http://127.0.0.1:{port}", retries=2)
            with pytest.raises(ServiceError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 0
            assert client._connection().sock is None
            # The request was sent and answered, if badly: it is not resent.
            assert client.last_attempts == 1
        assert len(log["requests"]) == 1

    def test_more_than_100_header_lines_is_status_zero(self, client_for):
        fields = [f"X-Field-{i}: v" for i in range(101)]
        reply = _reply("200 OK", b"{}", "Content-Length: 2", *fields)
        with _raw_server(lambda conn, *_: conn.sendall(reply)) as (port, _):
            client = client_for(f"http://127.0.0.1:{port}", retries=0)
            with pytest.raises(ServiceError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 0
            assert "headers" in str(excinfo.value)
            assert client._connection().sock is None

    def test_overlong_header_line_is_status_zero(self, client_for):
        reply = _reply("200 OK", b"{}", "Content-Length: 2", "X-Long: " + "a" * 65_536)
        with _raw_server(lambda conn, *_: conn.sendall(reply)) as (port, _):
            client = client_for(f"http://127.0.0.1:{port}", retries=0)
            with pytest.raises(ServiceError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 0
            assert "65536 bytes when reading header line" in str(excinfo.value)
            assert client._connection().sock is None

    @pytest.mark.parametrize(
        "reply",
        [b"HTTP/1.1 abc OK\r\n\r\n", b"ICY 200 OK\r\n\r\n", b"HTTP/2 200 OK\r\n\r\n",
         b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"],
        ids=["status", "protocol", "version", "chunk-size"],
    )
    def test_malformed_response_is_status_zero(self, reply, client_for):
        def answer(conn, *_):
            conn.sendall(reply)
            return False

        with _raw_server(answer) as (port, log):
            client = client_for(f"http://127.0.0.1:{port}", retries=2)
            with pytest.raises(ServiceError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 0
        assert len(log["requests"]) == 1


# ----------------------------------------------------------------------
# Requests: one write, the Host header, the base path.
# ----------------------------------------------------------------------


class TestRequests:
    def test_request_is_one_write_under_a_base_path(self, client_for):
        with _raw_server(lambda conn, *_: conn.sendall(_length_reply({}))) as (port, log):
            client = client_for(f"http://127.0.0.1:{port}/prefix/", retries=0)
            client.label(domain="airline", request_id="rid-1")
            client.metrics()
        (_, post), (_, get) = log["requests"]
        lines = post.decode("latin-1").split("\r\n")
        assert lines[0] == "POST /prefix/label HTTP/1.1"
        assert f"Host: 127.0.0.1:{port}" in lines
        assert "X-Request-Id: rid-1" in lines and "Content-Type: application/json" in lines
        assert get.decode("latin-1").startswith("GET /prefix/metrics HTTP/1.1\r\n")
        assert b"Content-Length" not in get

    @pytest.mark.parametrize(
        "url, host, port",
        [
            ("http://example.com", "example.com", 80),
            ("http://example.com:80", "example.com", 80),
            ("http://example.com:8080/base", "example.com", 8080),
            ("https://example.com", "example.com", 443),
            ("https://example.com:8443", "example.com", 8443),
            ("http://[::1]:8080", "::1", 8080),
            ("http://[::1]", "::1", 80),
            ("http://[fe80::1%25eth0]:81", "fe80::1%25eth0", 81),
            ("http://Example.COM:", "Example.COM", 80),
        ],
    )
    def test_host_and_port_match_http_client(self, url, host, port):
        https = url.startswith("https")
        netloc = url.split("/")[2]
        got = _host_port(netloc, 443 if https else 80)
        assert got[:2] == (host, port)
        # The Host header http.client would send for the same netloc.
        cls = http.client.HTTPSConnection if https else http.client.HTTPConnection
        connection = cls(netloc)
        connection.putrequest("GET", "/")
        assert f"Host: {got[2]}".encode() in connection._buffer

    def test_nonnumeric_port_is_refused(self):
        with pytest.raises(ValueError, match="nonnumeric port"):
            ServiceClient("http://example.com:abc")

    def test_invalid_target_is_not_sent(self, client_for):
        with _raw_server(lambda conn, *_: conn.sendall(_length_reply({}))) as (port, log):
            client = client_for(f"http://127.0.0.1:{port}", retries=2)
            with pytest.raises(ServiceError) as excinfo:
                client.trace("two words")
            assert excinfo.value.status == 0
            with pytest.raises(ValueError):
                client.request("GET", "/healthz", request_id="a\r\nInjected: 1")
        assert log["requests"] == []


# ----------------------------------------------------------------------
# Retries: only a connection that could not be made is retried.
# ----------------------------------------------------------------------


def test_read_timeout_is_not_resent(client_for):
    # The server accepts and reads the request, and never answers.
    def answer(conn, *_):
        time.sleep(5)
        return False

    with _raw_server(answer) as (port, log):
        client = client_for(
            f"http://127.0.0.1:{port}", timeout=0.3, retries=2, backoff_s=0.01
        )
        start = time.monotonic()
        with pytest.raises(ServiceError) as excinfo:
            client.label(domain="airline")
        elapsed = time.monotonic() - start
        assert excinfo.value.status == 0
        assert client.last_attempts == 1
        assert 0.25 <= elapsed < 0.8, elapsed  # 3 x 0.3 s if it were resent
        assert len(log["requests"]) == 1


def test_non_json_success_is_not_resent(client_for):
    with _raw_server(
        lambda conn, *_: conn.sendall(_reply("200 OK", b"<html/>", "Content-Length: 7"))
    ) as (port, log):
        client = client_for(f"http://127.0.0.1:{port}", retries=2, backoff_s=0.01)
        with pytest.raises(ServiceError, match="not valid JSON"):
            client.healthz()
        assert client.last_attempts == 1
    assert len(log["requests"]) == 1


def test_last_attempts_is_kept_per_thread(client_for):
    # Thread A's path is shed twice; thread B's call lands between A's
    # attempts, and each thread reads its own count afterwards.
    a_shed = threading.Event()
    a_done = threading.Event()

    def answer(conn, head, body, log):
        if head.startswith(b"GET /a "):
            shed = sum(1 for _, h in log["requests"] if h.startswith(b"GET /a ")) <= 2
            if shed:
                conn.sendall(_length_reply(
                    {"ok": False, "retry_after": 0.15}, "Retry-After: 0.15",
                    status="429 Too Many Requests",
                ))
                a_shed.set()
                return
        conn.sendall(_length_reply({"ok": True}))

    got = {}
    with _raw_server(answer) as (port, log):
        client = client_for(f"http://127.0.0.1:{port}", retries=2)

        def thread_a():
            got["a_response"] = client.request("GET", "/a")
            got["a"] = client.last_attempts
            a_done.set()

        def thread_b():
            a_shed.wait(5)
            got["b_response"] = client.request("GET", "/b")
            a_done.wait(5)
            got["b"] = client.last_attempts

        threads = [threading.Thread(target=t) for t in (thread_a, thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        # Before it reads, B waited for A to finish its three attempts.
        assert got == {"a_response": {"ok": True}, "a": 3,
                       "b_response": {"ok": True}, "b": 1}
        assert client.last_attempts == 0  # this thread made no call


# ----------------------------------------------------------------------
# https:// URLs.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def certificate(tmp_path_factory):
    """A self-signed certificate for ``localhost`` and its key."""
    if shutil.which("openssl") is None:
        pytest.skip("no openssl command to make a certificate with")
    directory = tmp_path_factory.mktemp("tls")
    cert, key = directory / "cert.pem", directory / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-days", "2",
         "-subj", "/CN=localhost", "-addext", "subjectAltName=DNS:localhost",
         "-keyout", str(key), "-out", str(cert)],
        check=True, capture_output=True, timeout=60,
    )
    return cert, key


def test_https_url_speaks_tls_to_the_url_host(certificate, monkeypatch, client_for):
    cert, key = certificate
    server_context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    server_context.load_cert_chain(cert, key)
    made = []
    default_context = ssl.create_default_context

    def trusting_context():
        # The default context, trusting the test's own certificate too.
        context = default_context()
        context.load_verify_locations(cert)
        made.append(context)
        return context

    monkeypatch.setattr(ssl, "create_default_context", trusting_context)
    wrap = lambda conn: server_context.wrap_socket(conn, server_side=True)  # noqa: E731
    with _raw_server(lambda conn, *_: conn.sendall(_length_reply({"tls": True})),
                     wrap=wrap) as (port, log):
        client = client_for(f"https://localhost:{port}", retries=0)
        assert client.healthz() == {"tls": True}
        assert isinstance(client._connection().sock, ssl.SSLSocket)
        assert client.healthz() == {"tls": True}
        assert made and made[0].check_hostname
        client._connection().close()
        # Verified against the URL's host: another name fails the handshake.
        other = client_for(f"https://127.0.0.1:{port}", retries=0)
        with pytest.raises(ServiceError) as excinfo:
            other.healthz()
        assert excinfo.value.status == 0
    assert log["accepted"] >= 2
    assert f"Host: localhost:{port}".encode() in log["requests"][0][1]


# ----------------------------------------------------------------------
# Differential: the client reads what http.client reads.
# ----------------------------------------------------------------------


def _unfold(value: str | None) -> str | None:
    """An obs-folded value as one line, as the service's header reader gives it."""
    return None if value is None else re.sub(r"\r?\n[ \t]+", " ", value)


def _http_client_outcome(port: int) -> tuple:
    """What the ``http.client`` transport made of one ``GET /healthz``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        connection.request("GET", "/healthz", headers={"Accept": "application/json"})
        response = connection.getresponse()
        raw = response.read()
    except (OSError, http.client.HTTPException):
        return ("error", 0, {}, None)
    finally:
        connection.close()
    if 200 <= response.status < 300:
        try:
            return ("ok", json.dumps(json.loads(raw)))
        except ValueError:
            return ("error", 0, {}, None)
    try:
        payload = json.loads(raw)
    except ValueError:
        payload = None
    return ("error", response.status, payload if isinstance(payload, dict) else {},
            _unfold(response.getheader("Retry-After")))


def _client_outcome(port: int) -> tuple:
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=5, retries=0)
    try:
        return ("ok", json.dumps(client.healthz()))
    except ServiceError as exc:
        return ("error", exc.status, exc.payload,
                getattr(exc, "retry_after_header", None))
    finally:
        client.close()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=6,
)
_BODIES = st.one_of(
    _JSON.map(lambda value: json.dumps(value).encode()),
    st.binary(max_size=12),
)
_OTHER_FIELDS = st.lists(
    st.tuples(
        st.sampled_from(["Server", "Content-Type", "X-Request-Id", "Connection",
                         "x-a", "Date"]),
        st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=10),
    ),
    max_size=4,
)
# At most one Retry-After: http.client joins repeats with ", ", the
# service's reader keeps the first, as it does for every field.
_RETRY_AFTER = st.one_of(
    st.none(),
    st.sampled_from(["0.05", "1", " 2 ", "", "Wed, 21 Oct 2026 07:28:00 GMT",
                     "3\r\n 4"]),
)


@st.composite
def _responses(draw) -> bytes:
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]))
    status = draw(st.sampled_from(
        ["200 OK", "201 Created", "204 No Content", "400 Bad Request",
         "404 Not Found", "429 Too Many Requests", "500 Internal Server Error",
         "503 Service Unavailable", "503", "200  spaced  reason "]
    ))
    body = draw(_BODIES)
    fields = [f"{name}: {value}" for name, value in draw(_OTHER_FIELDS)]
    retry_after = draw(_RETRY_AFTER)
    if retry_after is not None:
        fields.insert(draw(st.integers(0, len(fields))), f"Retry-After: {retry_after}")
    framing = draw(st.sampled_from(["length", "chunked", "close", "short", "long"]))
    if framing == "chunked":
        cuts = sorted(draw(st.lists(st.integers(0, len(body)), max_size=3)))
        parts = [body[a:b] for a, b in zip([0, *cuts], [*cuts, len(body)]) if b > a]
        ext = draw(st.sampled_from(["", ";a=b", " "]))
        payload = b"".join(b"%x%s\r\n%s\r\n" % (len(p), ext.encode(), p) for p in parts)
        payload += b"0\r\n" + draw(st.sampled_from([b"", b"T: 1\r\n"])) + b"\r\n"
        fields.append("Transfer-Encoding: " + draw(st.sampled_from(["chunked", "Chunked"])))
    elif framing == "close":
        payload = body
    else:
        declared = len(body) + {"length": 0, "short": 3, "long": -1}[framing]
        payload = body
        fields.append(f"Content-Length: {max(declared, 0)}")
    interim = b""
    if draw(st.booleans()):
        interim = b"HTTP/1.1 100 Continue\r\n" + draw(
            st.sampled_from([b"", b"X-Interim: 1\r\n"])
        ) + b"\r\n"
    head = f"{version} {status}\r\n" + "".join(f"{f}\r\n" for f in fields) + "\r\n"
    return interim + head.encode("latin-1") + payload


@pytest.fixture(scope="module")
def replay_server():
    """A server that answers every request with ``state["reply"]``, then closes."""
    state = {"reply": b""}

    def answer(conn, *_):
        conn.sendall(state["reply"])
        conn.shutdown(socket.SHUT_WR)
        return False

    with _raw_server(answer) as (port, _):
        yield port, state


@settings(max_examples=150, deadline=None)
@given(reply=_responses())
def test_client_reads_responses_as_http_client_does(replay_server, reply):
    port, state = replay_server
    state["reply"] = reply
    assert _client_outcome(port) == _http_client_outcome(port)
