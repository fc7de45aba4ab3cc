"""A small keep-alive HTTP client for the labeling service — no dependencies.

Used by the tests, the examples and the benchmark to exercise the real
HTTP surface; also a reasonable starting point for callers in other
processes.  Every method returns the decoded JSON payload; failures raise
:class:`ServiceError` carrying the HTTP status (``0`` when no response
arrived at all — connection refused, DNS failure, a non-JSON body) and the
server's error payload when there was one.

Each thread that calls a :class:`ServiceClient` gets its own
``http.client`` connection and keeps it open across calls (HTTP/1.1
keep-alive), so one client may be shared by many threads.  When the server
has closed a kept-alive connection in the meantime (its idle timeout, a
restart), the request fails before any response byte arrives; it is then
sent once more on a fresh connection, and that does not count as a retry.

The client cooperates with the service's backpressure: an HTTP 429
(admission shed) or 503 (open circuit breaker / transient exhaustion)
response is retried up to ``retries`` times, sleeping whatever
``retry_after`` the response names (payload field or ``Retry-After``
header, capped at ``max_backoff_s``).  Connection-level failures retry on
a fixed ``backoff_s`` — the server may simply not be up yet.  Everything
else (400, 404, 500, 504) is not retried: those are answers.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from urllib.parse import urlsplit

from ..schema.clusters import Mapping
from ..schema.interface import QueryInterface
from ..schema.serialize import corpus_to_dict

__all__ = ["ServiceClient", "ServiceError"]

#: Statuses that signal "try again shortly" rather than "you are wrong".
_RETRYABLE_STATUSES = (429, 503)


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
        self._connection_class = (
            http.client.HTTPSConnection
            if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self._netloc, self._path = parts.netloc, parts.path
        self._local = threading.local()
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_s = float(backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        #: How many attempts the most recent ``request`` call used.
        self.last_attempts = 0

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
            self.last_attempts = attempt
            try:
                return self._round_trip(method, path, payload, request_id)
            except ServiceError as exc:
                retryable = exc.status in _RETRYABLE_STATUSES or exc.status == 0
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

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection (``http.client`` is not thread-safe)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._connection_class(self._netloc, timeout=self.timeout)
            self._local.connection = connection
        return connection

    def _exchange(
        self, method: str, path: str, body: bytes | None, headers: dict
    ) -> tuple[http.client.HTTPResponse, bytes]:
        """One request on this thread's connection: the response and its body."""
        connection = self._connection()
        reused = connection.sock is not None
        target = self._path + path
        try:
            try:
                connection.request(method, target, body=body, headers=headers)
                response = connection.getresponse()
            except (BrokenPipeError, ConnectionResetError, ConnectionAbortedError):
                if not reused:
                    raise
                # The server closed the idle connection; nothing came back.
                connection.close()
                connection.request(method, target, body=body, headers=headers)
                response = connection.getresponse()
            return response, response.read()
        except BaseException:
            connection.close()
            raise

    def _round_trip(
        self,
        method: str,
        path: str,
        payload: dict | None,
        request_id: str | None = None,
    ) -> dict:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if request_id is not None:
            headers["X-Request-Id"] = request_id
        try:
            response, raw = self._exchange(method, path, body, headers)
        except (OSError, http.client.HTTPException) as exc:
            # No HTTP response at all: refused, unresolvable, timed out.
            raise ServiceError(
                0, None, f"connection to {self.base_url} failed: {exc}"
            ) from None
        if 200 <= response.status < 300:
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
        error = ServiceError(response.status, error_payload, message or response.reason)
        error.retry_after_header = response.getheader("Retry-After")
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
