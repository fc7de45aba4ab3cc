"""A small keep-alive HTTP client for the labeling service — no dependencies.

Used by the tests, the examples and the benchmark to exercise the real
HTTP surface; also a reasonable starting point for callers in other
processes.  Every method returns the decoded JSON payload; failures raise
:class:`ServiceError` carrying the HTTP status (``0`` when no usable
response arrived — connection refused, DNS failure, a timeout, a malformed
response, a non-JSON body) and the server's error payload when there was
one.

The client speaks HTTP/1.1 itself, on one socket per calling thread that
it keeps open across calls, so one client may be shared by many threads.
A request leaves in one write with Nagle's algorithm off.  The response
head is read by :func:`repro.service.wire.read_headers`, the server's own
reader; the body is framed by ``Content-Length``, by ``Transfer-Encoding:
chunked``, or by the close when neither is given.  Interim ``1xx``
answers are skipped.  The socket is closed after an answer that says
``Connection: close`` or is HTTP/1.0, after any failure, when its thread
ends, and by :meth:`ServiceClient.close`.  An ``https://`` base URL wraps
the socket with ``ssl.create_default_context()`` for the URL's host, as
``http.client.HTTPSConnection`` does.  When the server has closed a
kept-alive socket in the meantime (its idle timeout, a restart), the
request fails before any response byte arrives; it is then sent once more
on a fresh connection, and that does not count as a retry.

The client cooperates with the service's backpressure: an HTTP 429
(admission shed) or 503 (this server never sends one, but a proxy in front
of it may) response is retried up to ``retries`` times, sleeping whatever
``retry_after`` the response names (payload field or ``Retry-After``
header, capped at ``max_backoff_s``).  A connection that could not be made
at all is retried on a fixed ``backoff_s`` — the server may simply not be
up yet.  Everything else is not retried: 400, 404, 500 and 504 are
answers, and a request that was sent may already be running, so a read
timeout, a dropped connection or a malformed answer raises at once rather
than send the work again.
"""

from __future__ import annotations

import json
import re
import socket
import ssl
import threading
import time
import weakref
from http.client import (
    BadStatusLine,
    HTTPException,
    IncompleteRead,
    RemoteDisconnected,
    UnknownProtocol,
)
from urllib.parse import urlsplit

from ..schema.clusters import Mapping
from ..schema.interface import QueryInterface
from ..schema.serialize import corpus_to_dict
from .wire import MAX_LINE, Headers, LineTooLong, TooManyHeaders, read_headers

__all__ = ["ServiceClient", "ServiceError"]

#: Statuses that signal "try again shortly" rather than "you are wrong".
_RETRYABLE_STATUSES = (429, 503)

#: Bytes the client buffers per read: a hit's head and body in one recv.
_READ_BUFFER = 64 * 1024

#: A byte a request target may not hold: only visible ASCII is sent.
_BAD_TARGET = re.compile(r"[^!-~]")


class ServiceError(RuntimeError):
    """A failed service call: non-2xx, unreachable, or an unparseable body."""

    def __init__(self, status: int, payload: dict | None, message: str) -> None:
        super().__init__(
            f"HTTP {status}: {message}" if status else message
        )
        self.status = status
        # A misbehaving (or non-repro) server can answer with any JSON
        # value; only a dict is a usable error payload — anything else
        # would break the retry loop's ``payload.get(...)`` probes.
        self.payload = payload if isinstance(payload, dict) else {}


class _Unreachable(ServiceError):
    """No connection could be made, so nothing was sent: safe to retry."""


class _Connection:
    """One thread's socket to the service and the buffered reader over it."""

    __slots__ = ("sock", "rfile", "__weakref__")

    def __init__(self) -> None:
        self.sock: socket.socket | None = None
        self.rfile = None

    def close(self) -> None:
        rfile, sock = self.rfile, self.sock
        self.rfile = self.sock = None
        if rfile is not None:
            rfile.close()
        if sock is not None:
            sock.close()

    def __del__(self) -> None:  # its thread ended: release the socket
        self.close()


def _host_port(netloc: str, default_port: int) -> tuple[str, int, str]:
    """The host and port of ``netloc``, and its ``Host`` header value,
    derived as ``http.client`` derives them (``[::1]:8080`` included)."""
    host, port = netloc, default_port
    colon = host.rfind(":")
    if colon > host.rfind("]"):
        if host[colon + 1:]:
            try:
                port = int(host[colon + 1:])
            except ValueError:
                raise ValueError(f"nonnumeric port: {host[colon + 1:]!r}") from None
        host = host[:colon]
    if host[:1] == "[" and host[-1:] == "]":
        host = host[1:-1]
    name = host if host.isascii() else host.encode("idna").decode("ascii")
    if ":" in host:  # IPv6: bracketed, without its zone
        name = "[" + name.partition("%")[0] + "]"
    return host, port, name if port == default_port else f"{name}:{port}"


def _status_line(line: bytes) -> tuple[str, int, str]:
    """Version, status and reason of a status line, checked as
    ``http.client`` checks them."""
    if len(line) > MAX_LINE:
        raise LineTooLong("status line")
    if not line:
        raise RemoteDisconnected("Remote end closed connection without response")
    words = str(line, "iso-8859-1").split(None, 2)
    if len(words) < 2 or not words[0].startswith("HTTP/"):
        raise BadStatusLine(repr(line))
    try:
        status = int(words[1])
    except ValueError:
        raise BadStatusLine(repr(line)) from None
    if not 100 <= status <= 999:
        raise BadStatusLine(repr(line))
    return words[0], status, words[2].strip() if len(words) > 2 else ""


def _content_length(value: str | None) -> int | None:
    """A ``Content-Length`` value as ``http.client`` reads it: ``None``
    when absent, not an integer, or negative."""
    try:
        length = int(value)
    except (TypeError, ValueError):
        return None
    return length if length >= 0 else None


def _read_exactly(rfile, size: int) -> bytes:
    data = rfile.read(size)
    if len(data) < size:
        raise IncompleteRead(data, size - len(data))
    return data


def _read_chunked(rfile) -> bytes:
    """A ``Transfer-Encoding: chunked`` body; extensions and trailers are
    read and dropped."""
    chunks = []
    while True:
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise LineTooLong("chunk size")
        try:
            size = int(line.partition(b";")[0], 16)
        except ValueError:
            raise IncompleteRead(b"".join(chunks)) from None
        if size < 0:
            raise IncompleteRead(b"".join(chunks))
        if size == 0:
            break
        chunks.append(_read_exactly(rfile, size))
        _read_exactly(rfile, 2)  # the CRLF after the chunk
    while True:
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise LineTooLong("trailer line")
        if line in (b"\r\n", b"\n", b""):
            return b"".join(chunks)


def _read_response(rfile, line: bytes) -> tuple[int, str, Headers, bytes, bool]:
    """The response whose status line is ``line``, read from ``rfile``:
    status, reason, head, body, and whether the connection must close."""
    while True:
        version, status, reason = _status_line(line)
        headers = read_headers(rfile)
        if status >= 200:
            break
        # An interim answer (100 Continue); the real one follows.
        line = rfile.readline(MAX_LINE + 1)
    if version in ("HTTP/1.0", "HTTP/0.9"):
        close = True
    elif version.startswith("HTTP/1."):
        close = "close" in headers.get("connection", "").lower()
    else:
        raise UnknownProtocol(version)
    if status in (204, 304):
        return status, reason, headers, b"", close
    if headers.get("transfer-encoding", "").lower() == "chunked":
        return status, reason, headers, _read_chunked(rfile), close
    length = _content_length(headers.get("content-length"))
    if length is None:  # the body runs to the close
        return status, reason, headers, rfile.read(), True
    return status, reason, headers, _read_exactly(rfile, length), close


class ServiceClient:
    """Talk JSON to a running labeling service at ``base_url``."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        retries: int = 2,
        backoff_s: float = 0.05,
        max_backoff_s: float = 2.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        parts = urlsplit(self.base_url)
        https = parts.scheme == "https"
        self._host, self._port, host = _host_port(parts.netloc, 443 if https else 80)
        self._tls = ssl.create_default_context() if https else None
        self._path = parts.path
        # The fixed part of every request head.
        self._head = (
            f"Host: {host}\r\nAccept-Encoding: identity\r\n"
            "Accept: application/json\r\n"
        )
        self._local = threading.local()
        # Every thread's connection, for close(); weakly, as each closes itself.
        self._connections: weakref.WeakSet[_Connection] = weakref.WeakSet()
        self._connections_lock = threading.Lock()
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_s = float(backoff_s)
        self.max_backoff_s = float(max_backoff_s)

    @property
    def last_attempts(self) -> int:
        """How many attempts the calling thread's most recent ``request`` used."""
        return getattr(self._local, "last_attempts", 0)

    # ------------------------------------------------------------------
    # Transport.
    # ------------------------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        request_id: str | None = None,
    ) -> dict:
        """One logical call (with backpressure retries); decoded JSON back.

        ``request_id`` rides as ``X-Request-Id`` so the server correlates
        every attempt (and its trace) with this logical call.
        """
        attempts = self.retries + 1
        for attempt in range(1, attempts + 1):
            self._local.last_attempts = attempt
            try:
                return self._round_trip(method, path, payload, request_id)
            except ServiceError as exc:
                retryable = (
                    exc.status in _RETRYABLE_STATUSES or isinstance(exc, _Unreachable)
                )
                if not retryable or attempt >= attempts:
                    raise
                time.sleep(self._delay_for(exc))
        raise AssertionError("unreachable")  # pragma: no cover

    def _delay_for(self, exc: ServiceError) -> float:
        """The server's ``retry_after`` when stated, else the fixed backoff."""
        retry_after = exc.payload.get("retry_after") if exc.payload else None
        if retry_after is None:
            retry_after = getattr(exc, "retry_after_header", None)
        try:
            delay = float(retry_after) if retry_after is not None else self.backoff_s
        except (TypeError, ValueError):
            delay = self.backoff_s
        return max(0.0, min(delay, self.max_backoff_s))

    def _connection(self) -> _Connection:
        """The calling thread's connection; its ``sock`` is ``None`` until
        a request opens it, and again once it is closed."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = _Connection()
            with self._connections_lock:
                self._connections.add(connection)
        return connection

    def close(self) -> None:
        """Close every thread's kept-alive socket (a later request opens a
        fresh one); call it when none of this client's requests is in flight."""
        with self._connections_lock:
            for connection in self._connections:
                connection.close()

    def _connect(self, connection: _Connection) -> None:
        try:
            sock = socket.create_connection((self._host, self._port), self.timeout)
        except OSError as exc:
            raise _Unreachable(
                0, None, f"connection to {self.base_url} failed: {exc}"
            ) from None
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        connection.sock = sock  # so a failed TLS handshake still closes it
        if self._tls is not None:
            connection.sock = self._tls.wrap_socket(sock, server_hostname=self._host)
        connection.rfile = connection.sock.makefile("rb", _READ_BUFFER)

    def _exchange(self, request: bytes) -> tuple[int, str, Headers, bytes]:
        """Send ``request`` on this thread's connection; the response back."""
        connection = self._connection()
        try:
            line = b""
            if connection.sock is not None:
                try:
                    connection.sock.sendall(request)
                    line = connection.rfile.readline(MAX_LINE + 1)
                except (BrokenPipeError, ConnectionResetError, ConnectionAbortedError):
                    pass
                if not line:
                    # The server closed the kept-alive connection; nothing
                    # came back, so the request goes again on a new one.
                    connection.close()
            if connection.sock is None:
                self._connect(connection)
                connection.sock.sendall(request)
                line = connection.rfile.readline(MAX_LINE + 1)
            status, reason, headers, body, close = _read_response(connection.rfile, line)
        except BaseException:
            connection.close()
            raise
        if close:
            connection.close()
        return status, reason, headers, body

    def _round_trip(
        self,
        method: str,
        path: str,
        payload: dict | None,
        request_id: str | None = None,
    ) -> dict:
        target = self._path + path
        if _BAD_TARGET.search(target):
            raise ServiceError(0, None, f"invalid request target {target!r}")
        head = f"{method} {target} HTTP/1.1\r\n{self._head}"
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        if request_id is not None:
            if "\r" in request_id or "\n" in request_id:
                raise ValueError(f"invalid X-Request-Id {request_id!r}")
            head += f"X-Request-Id: {request_id}\r\n"
        try:
            status, reason, headers, raw = self._exchange(
                (head + "\r\n").encode("latin-1") + body
            )
        except (OSError, HTTPException, LineTooLong, TooManyHeaders) as exc:
            # No usable HTTP response: timed out, dropped, malformed.
            raise ServiceError(
                0, None, f"connection to {self.base_url} failed: {exc}"
            ) from None
        if 200 <= status < 300:
            try:
                return json.loads(raw)
            except (json.JSONDecodeError, ValueError):
                raise ServiceError(
                    0, None, f"response body is not valid JSON: {raw[:80]!r}"
                ) from None
        try:
            error_payload = json.loads(raw)
        except (json.JSONDecodeError, ValueError):
            error_payload = None
        if not isinstance(error_payload, dict):
            error_payload = None
        message = (
            error_payload.get("error")
            if error_payload
            else raw.decode("utf-8", "replace")
        )
        error = ServiceError(status, error_payload, message or reason)
        error.retry_after_header = headers.get("Retry-After")
        raise error

    # ------------------------------------------------------------------
    # Endpoints.
    # ------------------------------------------------------------------

    def healthz(self) -> dict:
        """``GET /healthz``."""
        return self.request("GET", "/healthz")

    def metrics(self) -> dict:
        """``GET /metrics``."""
        return self.request("GET", "/metrics")

    def label(
        self,
        corpus: dict | None = None,
        domain: str | None = None,
        seed: int = 0,
        options: dict | None = None,
        lexicon: dict | None = None,
        lint: bool = False,
        timeout: float | None = None,
        request_id: str | None = None,
    ) -> dict:
        """``POST /label`` with either a corpus document or a domain name."""
        payload: dict = {}
        if corpus is not None:
            payload["corpus"] = corpus
        if domain is not None:
            payload["domain"] = domain
            payload["seed"] = seed
        if options:
            payload["options"] = options
        if lexicon:
            payload["lexicon"] = lexicon
        if lint:
            payload["lint"] = True
        if timeout is not None:
            payload["timeout"] = timeout
        return self.request("POST", "/label", payload, request_id=request_id)

    def label_corpus(
        self, interfaces: list[QueryInterface], mapping: Mapping, **kwargs
    ) -> dict:
        """Serialize in-memory corpus objects and ``POST /label`` them."""
        return self.label(corpus=corpus_to_dict(interfaces, mapping), **kwargs)

    def batch(
        self,
        requests: list[dict],
        jobs: int | None = None,
        timeout: float | None = None,
        request_id: str | None = None,
    ) -> dict:
        """``POST /batch`` over a list of label-request payloads."""
        payload: dict = {"requests": requests}
        if jobs is not None:
            payload["jobs"] = jobs
        if timeout is not None:
            payload["timeout"] = timeout
        return self.request("POST", "/batch", payload, request_id=request_id)

    def trace(self, request_id: str) -> dict:
        """``GET /trace/<request_id>`` — the span trace of a served request."""
        return self.request("GET", f"/trace/{request_id}")
