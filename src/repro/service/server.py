"""Stdlib-only HTTP JSON API over the labeling engine.

Endpoints
---------
``GET /healthz``   liveness: ``{"status": "ok", "uptime_s": ...}``.
``GET /metrics``   request counts per endpoint/status (every unknown path
                   counts as ``other``), latency percentiles computed
                   from a fixed-size ring buffer, engine + cache counters.
``POST /label``    one labeling request (see :mod:`repro.service.engine`
                   for the payload shape); repeated identical requests are
                   served from the result cache.
``POST /batch``    ``{"requests": [...], "jobs": N, "timeout": s}`` — the
                   engine fans the items over at most ``N`` threads, never
                   more than the server's ``jobs``; per-item failures come
                   back as error entries, HTTP status stays 200.
``GET /trace/<id>``  the span trace of a recently served request (see
                   :mod:`repro.obs`), from a bounded in-memory LRU; 404
                   once evicted or when tracing is disabled.

Every POST response (success, error, 429/503 shed alike) carries a
``request_id`` — honored from an ``X-Request-Id`` request header of 1-128
visible ASCII characters, else generated — echoed both in the JSON payload
and as an ``X-Request-Id`` response header.  ``POST /label`` answers with
the bytes :meth:`~repro.service.engine.LabelingEngine.label_json` builds,
written as they are; every other answer is encoded in the same compact
form (:func:`~repro.service.cache.json_bytes`).  A request the server cannot
parse (a garbled request line, an unsupported HTTP version, an oversized
header line, more than 100 header lines) gets the same JSON error shape,
is counted in ``/metrics`` under ``other``, and its connection closes.

The server reads and writes HTTP/1.1 itself.  The request line gets the
checks ``http.server`` makes (a line over 65,536 bytes is a 414); the
header block is read by :func:`repro.service.wire.read_headers`, with
``http.client``'s limits and field values but without its
``email.parser`` pass.  A serving process imports none of
``http.server``, ``http.client``, ``ssl`` or ``email``.

With tracing enabled (``tracing=True`` or a trace log configured), each
POST runs under a request-scoped trace whose span tree lands in the LRU
behind ``GET /trace/<id>`` and, with ``serve --trace-log DIR``, in a
CRC-checked span log.

Both POST endpoints pass through a bounded admission queue
(:class:`repro.service.admission.AdmissionController`): work beyond the
concurrency cap queues, and a full queue sheds with **HTTP 429** plus a
``Retry-After`` header / ``retry_after`` field.  A per-request timeout
answers **HTTP 504**, and a failure inside the pipeline **HTTP 500** —
see ``docs/resilience.md``.

Built on ``socketserver.ThreadingTCPServer`` so the package keeps its
no-dependency guarantee; one daemon thread per connection runs the
request loop, all shared state behind the engine's and the metrics
registry's locks.  Connections are HTTP/1.1 keep-alive.  Each response
(status line; ``Server``, ``Date``, ``Content-Type`` and
``Content-Length``; then ``Retry-After``, ``X-Request-Id`` and
``Connection`` where they apply; the body) leaves in one ``sendall`` with
Nagle's algorithm off, so a kept-alive client never waits on a delayed
ACK.  A response whose request body was not read in full (a bad or oversized
``Content-Length``, a truncated body) says ``Connection: close`` and ends
the connection, since the unread bytes would otherwise be parsed as the
next request.  A connection idle for :data:`IDLE_TIMEOUT_S` (between
requests, or a sender stalled inside one) is closed and frees its thread.
:class:`LabelingServer` wraps the lifecycle (ephemeral-port bind, start,
graceful shutdown that also ends kept-alive connections) for both the CLI
and the tests.
"""

from __future__ import annotations

import json
import re
import socket
import socketserver
import sys
import threading
import time
from collections import deque
from functools import partial
from http import HTTPStatus

from .. import __version__
from ..obs import Trace, TraceLog, new_request_id
from ..perf import Counters
from .admission import AdmissionController
from .cache import LRUCache, json_bytes
from .engine import BatchOutcome, LabelingEngine, RequestError, parse_batch
from .wire import MAX_LINE, LineTooLong, TooManyHeaders, read_headers

__all__ = ["LabelingServer", "MetricsRegistry", "PayloadTooLargeError"]

#: Seconds a connection may sit idle (waiting for its next request, or on
#: a stalled sender mid-request) before its handler closes it.
IDLE_TIMEOUT_S = 30.0

#: An ``X-Request-Id`` the server echoes: 1-128 visible ASCII characters.
_REQUEST_ID = re.compile(r"[!-~]{1,128}")

#: HTTP status for each error type of :meth:`BatchOutcome.failure`.
_ERROR_STATUS = {
    "invalid_request": 400, "payload_too_large": 413, "overloaded": 429,
    "internal": 500, "timeout": 504,
}


#: The status line of each status code, with its standard reason phrase.
_STATUS_LINES = {
    status.value: b"HTTP/1.1 %d %s\r\n" % (status.value, status.phrase.encode())
    for status in HTTPStatus
}

_SERVER = b"Server: repro/%s Python/%s\r\n" % (
    __version__.encode(), sys.version.split()[0].encode()
)

#: English names, whatever the locale, as RFC 9110's IMF-fixdate needs.
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = (
    "", "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)

#: The second the ``Server`` and ``Date`` lines below were made for.
_stamped: tuple[int, bytes] = (-1, b"")


def _server_and_date() -> bytes:
    """The ``Server`` and ``Date`` header lines, the date made once a
    second (``Tue, 20 Oct 2026 16:49:01 GMT``)."""
    global _stamped
    now = int(time.time())
    second, lines = _stamped
    if second != now:
        t = time.gmtime(now)
        lines = _SERVER + b"Date: %s, %02d %s %04d %02d:%02d:%02d GMT\r\n" % (
            _DAYS[t.tm_wday].encode(), t.tm_mday, _MONTHS[t.tm_mon].encode(),
            t.tm_year, t.tm_hour, t.tm_min, t.tm_sec,
        )
        _stamped = (now, lines)
    return lines


class PayloadTooLargeError(RequestError):
    """A declared request body too large to read (maps to HTTP 413)."""

    error_type = "payload_too_large"

    def __init__(self, declared: int, limit: int) -> None:
        super().__init__(
            f"declared Content-Length {declared} exceeds the "
            f"{limit}-byte limit"
        )
        self.declared = declared
        self.limit = limit


class MetricsRegistry:
    """Request counts per endpoint and status, and a latency ring buffer
    with percentiles."""

    def __init__(self, window: int = 1024) -> None:
        self._lock = threading.Lock()
        self._latencies: deque[float] = deque(maxlen=window)
        self.by_endpoint = Counters()
        self.by_status = Counters()
        self._started = time.time()
        # The sorted sample is snapshotted once and reused until the next
        # record() invalidates it, so back-to-back /metrics polls of an
        # idle window don't re-sort (the list is replaced, never mutated,
        # so a reference handed out under the lock stays consistent).
        self._sorted: list[float] | None = None

    def record(
        self, endpoint: str, status: int, elapsed_ms: float | None = None
    ) -> None:
        """Count one answer; its latency joins the ring when it was timed."""
        self.by_endpoint.add(endpoint)
        self.by_status.add(str(status))
        if elapsed_ms is None:
            return
        with self._lock:
            self._latencies.append(elapsed_ms)
            self._sorted = None

    @staticmethod
    def _percentile(ordered: list[float], pct: float) -> float:
        """Nearest-rank percentile of an already-sorted sample."""
        if not ordered:
            return 0.0
        rank = max(1, -(-len(ordered) * pct // 100))  # ceil without math
        return ordered[int(rank) - 1]

    def snapshot(self) -> dict:
        with self._lock:
            if self._sorted is None:
                self._sorted = sorted(self._latencies)
            sample = self._sorted
        by_endpoint = dict(sorted(self.by_endpoint.snapshot().items()))
        by_status = dict(sorted(self.by_status.snapshot().items()))
        latency = {
            "window": len(sample),
            "p50_ms": round(self._percentile(sample, 50), 3),
            "p90_ms": round(self._percentile(sample, 90), 3),
            "p99_ms": round(self._percentile(sample, 99), 3),
            "max_ms": round(sample[-1], 3) if sample else 0.0,
            "mean_ms": round(sum(sample) / len(sample), 3) if sample else 0.0,
        }
        return {
            "uptime_s": round(time.time() - self._started, 3),
            "requests_total": sum(by_endpoint.values()),
            "by_endpoint": by_endpoint,
            "by_status": by_status,
            "latency": latency,
        }


class _LabelingHTTPServer(socketserver.ThreadingTCPServer):
    """A threading TCP server carrying the engine + metrics for its handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address,
        engine: LabelingEngine,
        quiet: bool = True,
        admission: AdmissionController | None = None,
        tracing: bool = False,
        trace_log: TraceLog | None = None,
        trace_capacity: int = 128,
    ):
        super().__init__(address, _Handler)
        self.engine = engine
        self.metrics = MetricsRegistry()
        self.quiet = quiet
        self.admission = admission or AdmissionController()
        self.trace_log = trace_log
        self.tracing = bool(tracing or trace_log is not None)
        self.traces = LRUCache(capacity=trace_capacity)
        # Open connections, so stopping can end the kept-alive ones.
        self.stopping = threading.Event()
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address):
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Answer no further request and wake every idle handler.

        ``SHUT_RD`` ends a handler's wait for its next request line; a
        response being written still goes out, then the handler closes.
        """
        self.stopping.set()
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:  # its handler closed it meanwhile
                pass


class _Handler(socketserver.StreamRequestHandler):
    """One connection's request loop: read a request, route it to one of
    the endpoints, answer JSON with Content-Length, until one closes it."""

    server: _LabelingHTTPServer
    disable_nagle_algorithm = True

    #: Hard cap on a declared request body.  A client announcing more gets
    #: a clean 413 *before* the server tries to read it — blindly trusting
    #: a huge Content-Length would block the handler on ``rfile.read``.
    MAX_BODY_BYTES = 16 * 1024 * 1024

    # ------------------------------------------------------------------
    # Plumbing.
    # ------------------------------------------------------------------

    def setup(self) -> None:
        self.timeout = IDLE_TIMEOUT_S  # read per connection
        super().setup()

    def handle(self) -> None:
        try:
            while self._handle_one():
                pass
        except (TimeoutError, ConnectionError):  # idle, stalled or gone
            pass

    def _handle_one(self) -> bool:
        """Read and answer one request; whether the connection stays open.

        The request line is checked as ``http.server`` checks it, the
        header block read by :func:`read_headers`; ``Connection`` and
        ``Expect: 100-continue`` act as they do in the stdlib.
        """
        self.command = self.requestline = ""
        self.request_version = "HTTP/1.1"
        self.close_connection = True
        line = self.rfile.readline(MAX_LINE + 1)
        # A kept-alive connection gets no answer once the server stops.
        if not line or self.server.stopping.is_set():
            return False
        if len(line) > MAX_LINE:
            return self._refuse(414, "Request-URI Too Long")
        self.requestline = str(line, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            numbers = version[5:].split(".") if version.startswith("HTTP/") else ()
            if len(numbers) != 2 or not all(
                n.isascii() and n.isdigit() and len(n) <= 10 for n in numbers
            ):
                return self._refuse(400, f"Bad request version ({version!r})")
            if int(numbers[0]) >= 2:
                return self._refuse(505, f"Invalid HTTP version ({version[5:]})")
            self.close_connection = (int(numbers[0]), int(numbers[1])) < (1, 1)
        if not 2 <= len(words) <= 3:
            return self._refuse(400, f"Bad request syntax ({self.requestline!r})")
        self.command, self.path = words[:2]
        if len(words) == 2:
            if self.command != "GET":
                return self._refuse(
                    400, f"Bad HTTP/0.9 request type ({self.command!r})"
                )
            self.close_connection = True
            self.request_version = "HTTP/0.9"  # answered with the body only
        else:
            self.request_version = words[2]
        if self.path.startswith("//"):
            self.path = "/" + self.path.lstrip("/")
        try:
            self.headers = read_headers(self.rfile)
        except LineTooLong:
            return self._refuse(431, "Line too long")
        except TooManyHeaders:
            return self._refuse(431, "Too many headers")
        connection = self.headers.get("Connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (
            self.headers.get("Expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            # The interim answer must leave now: the client may hold the
            # body back until it arrives.
            self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        if self.command == "GET":
            self._get()
        elif self.command == "POST":
            self._post()
        else:
            return self._refuse(501, f"Unsupported method ({self.command!r})")
        return not self.close_connection

    def _log(self, message: str) -> None:
        if not self.server.quiet:  # pragma: no cover - operator logging
            stamp = time.strftime("%d/%b/%Y %H:%M:%S")
            sys.stderr.write(f"{self.client_address[0]} - - [{stamp}] {message}\n")

    def _refuse(self, status: int, message: str) -> bool:
        """Answer a request the server could not parse with the JSON error
        shape (its status, ``Connection: close``), counted under ``other``;
        the connection closes."""
        self._log(f"code {status}, message {message}")
        self.request_version = "HTTP/1.1"  # an HTTP/0.9 request too
        request_id = new_request_id()
        self.server.metrics.record("other", status)
        self._send_json(status, {
            "ok": False,
            "error": message,
            "error_type": "invalid_request",
            "request_id": request_id,
        }, {"X-Request-Id": request_id, "Connection": "close"})
        return False

    def _send_json(
        self, status: int, payload: dict | bytes, headers: dict | None = None
    ) -> None:
        """Answer ``payload`` in one write: JSON bytes as they are, or a
        dict encoded compactly.  A ``HEAD`` answer carries the head only,
        an HTTP/0.9 answer the body only."""
        self._log(f'"{self.requestline}" {status} -')
        body = payload if isinstance(payload, bytes) else json_bytes(payload)
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        head = b"%s%sContent-Type: application/json\r\nContent-Length: %d\r\n%s\r\n" % (
            _STATUS_LINES[status], _server_and_date(), len(body), extra.encode("latin-1")
        )
        if self.command == "HEAD":
            body = b""
        if self.request_version == "HTTP/0.9":
            head = b""
        self.connection.sendall(head + body)

    def _read_json(self):
        declared = self.headers.get("Content-Length")
        try:
            length = int(declared or 0)
        except ValueError:
            # A garbage header is the client's bug: answer 400, not 500.
            raise RequestError(
                f"invalid Content-Length header: {declared!r}"
            ) from None
        if length <= 0:
            raise RequestError("request body required")
        if length > self.MAX_BODY_BYTES:
            raise PayloadTooLargeError(length, self.MAX_BODY_BYTES)
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            raise RequestError(
                f"request body not received within {IDLE_TIMEOUT_S} s"
            ) from None
        if len(raw) < length:
            raise RequestError(
                f"request body truncated: {len(raw)} of {length} bytes"
            )
        self._unread_body = False
        try:
            return json.loads(raw)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8; too deep
            raise RequestError(f"body is not valid JSON: {exc}") from None

    def _handle(self, endpoint: str, fn, request_id: str | None = None) -> None:
        start = time.perf_counter()
        headers: dict | None = None
        # Cleared by _read_json once it has read the whole declared body.
        self._unread_body = (
            "Transfer-Encoding" in self.headers
            or self.headers.get("Content-Length", "0").strip() != "0"
        )
        trace: Trace | None = None
        if request_id is not None and self.server.tracing:
            trace = Trace(request_id=request_id, name=endpoint.lstrip("/") or "request")
            inner = fn

            def fn():
                with trace.scope():
                    return inner()

        try:
            status, payload = fn()
        except Exception as exc:  # noqa: BLE001 - the server must answer
            # The batch classifier names the type (and a shed's
            # retry_after); the type picks the status.  A shed (429) also
            # states Retry-After as a header, the structured backpressure
            # clients key their backoff on.
            outcome = BatchOutcome.failure(exc)
            status = _ERROR_STATUS[outcome.error_type]
            payload = {
                "ok": False,
                "error": outcome.error,
                "error_type": outcome.error_type,
                **(outcome.detail or {}),
            }
            if "retry_after" in payload:
                headers = {"Retry-After": f"{exc.retry_after:.3f}"}
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        if request_id is not None:
            if isinstance(payload, dict):  # label_json's bytes carry it
                payload["request_id"] = request_id
            headers = {**(headers or {}), "X-Request-Id": request_id}
        if trace is not None:
            trace.meta["endpoint"] = endpoint
            trace.meta["status"] = status
            record = trace.to_dict()
            self.server.traces.put(request_id, record)
            if self.server.trace_log is not None:
                self.server.trace_log.append(record)
        if self._unread_body:
            # The unread bytes would be parsed as the next request line.
            self.close_connection = True
            headers = {**(headers or {}), "Connection": "close"}
        self.server.metrics.record(endpoint, status, elapsed_ms)
        self._send_json(status, payload, headers)

    # ------------------------------------------------------------------
    # Endpoints.
    # ------------------------------------------------------------------

    def _get(self) -> None:
        if self.path == "/healthz":
            self._handle("/healthz", lambda: (200, {
                "status": "ok",
                "uptime_s": self.server.engine.stats()["uptime_s"],
            }))
        elif self.path == "/metrics":
            self._handle("/metrics", lambda: (200, {
                "http": self.server.metrics.snapshot(),
                "engine": self.server.engine.stats(),
                "admission": self.server.admission.stats(),
            }))
        elif self.path.startswith("/trace/"):
            self._handle("/trace", self._get_trace)
        else:
            self._handle("other", self._not_found)

    def _post(self) -> None:
        given = (self.headers.get("X-Request-Id") or "").strip()
        request_id = given if _REQUEST_ID.fullmatch(given) else new_request_id()
        if self.path == "/label":
            self._handle(
                "/label", partial(self._post_label, request_id), request_id=request_id
            )
        elif self.path == "/batch":
            self._handle("/batch", self._post_batch, request_id=request_id)
        else:
            self._handle("other", self._not_found)

    def _not_found(self):
        return 404, {
            "ok": False, "error": f"no such endpoint {self.path!r}",
            "error_type": "not_found",
        }

    def _get_trace(self):
        request_id = self.path[len("/trace/"):]
        record = self.server.traces.get(request_id)
        if record is None:
            detail = (
                "tracing is disabled on this server"
                if not self.server.tracing
                else "not traced, or evicted from the trace store"
            )
            return 404, {
                "ok": False,
                "error": f"no trace for request id {request_id!r} ({detail})",
                "error_type": "not_found",
            }
        return 200, {"ok": True, "trace": record}

    def _post_label(self, request_id: str):
        payload = self._read_json()
        with self.server.admission.admit():
            return 200, self.server.engine.label_json(payload, request_id)

    def _post_batch(self):
        payloads, jobs, timeout = parse_batch(self._read_json())
        # The threads are the server's to spend: a body may lower them only.
        limit = self.server.engine.default_jobs
        jobs = limit if jobs is None else min(jobs, limit)
        with self.server.admission.admit():
            results = self.server.engine.label_batch(
                payloads, jobs=jobs, timeout=timeout
            )
        return 200, {
            "ok": all(r.get("ok") for r in results),
            "count": len(results),
            "results": results,
        }


class LabelingServer:
    """Lifecycle wrapper: bind, serve on a background thread, stop cleanly.

    ::

        with LabelingServer(port=0) as server:     # 0 = ephemeral port
            client = ServiceClient(server.url)
            client.healthz()

    ``serve_forever()`` (no background thread) is what ``repro serve``
    uses; ``stop()`` is idempotent and also runs on context exit.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = 128,
        jobs: int = 1,
        engine: LabelingEngine | None = None,
        quiet: bool = True,
        max_concurrent: int = 8,
        max_queue: int = 32,
        retry_after_s: float = 0.5,
        executor: str = "thread",
        disk_cache=None,
        tracing: bool = False,
        trace_log=None,
        trace_capacity: int = 128,
    ) -> None:
        self.engine = engine or LabelingEngine(
            cache_size=cache_size,
            jobs=jobs,
            executor=executor,
            disk_cache=disk_cache,
        )
        # A trace log may arrive as a TraceLog or as a directory path.
        if trace_log is not None and not isinstance(trace_log, TraceLog):
            trace_log = TraceLog(trace_log)
        self._httpd = _LabelingHTTPServer(
            (host, port),
            self.engine,
            quiet=quiet,
            admission=AdmissionController(
                max_concurrent=max_concurrent,
                max_queue=max_queue,
                retry_after_s=retry_after_s,
            ),
            tracing=tracing,
            trace_log=trace_log,
            trace_capacity=trace_capacity,
        )
        self._thread: threading.Thread | None = None
        self._loop_entered = False
        self._stopped = False

    @property
    def trace_log(self) -> TraceLog | None:
        return self._httpd.trace_log

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "LabelingServer":
        """Serve on a daemon thread; returns immediately."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._loop_entered = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-serve:{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (or interrupt)."""
        self._loop_entered = True
        self._httpd.serve_forever()

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, end connections, drop caches.

        Idempotent.  In-flight handlers finish their response; then every
        connection closes, kept-alive ones included, and none is answered
        again.
        """
        if self._stopped:
            return
        self._stopped = True
        # shutdown() handshakes with a serve loop; calling it when no loop
        # ever ran would block forever on the loop-exit event.
        if self._loop_entered:
            self._httpd.shutdown()
        self._httpd.close_connections()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.engine.close()

    def __enter__(self) -> "LabelingServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
