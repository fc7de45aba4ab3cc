"""repro.service — the labeling pipeline as a long-lived, concurrent service.

The paper's workload is inherently online: a deep-web integrator crawls
query interfaces continuously and must label each freshly integrated
interface.  This package wraps the one-shot pipeline in the pieces that
workload needs:

``fingerprint``  stable content hashes of (corpus, lexicon overlay,
                 naming options) — the cache key;
``cache``        a thread-safe LRU result cache; :class:`ResultCache`
                 stores each entry as CRC-checked JSON bytes, so a hit is
                 those bytes and a corrupted entry is evicted and
                 recomputed, never served;
``engine``       :class:`LabelingEngine` — request validation, cache
                 consultation, pipeline execution, a thread batch executor
                 with per-item timeout and error isolation, plus the
                 resilience stack (retry, per-corpus circuit breaker,
                 fault-plan scope, strict oracle verification);
``parallel``     the shared CPU-derived ``--jobs`` default and the
                 ``executor`` names still accepted (every batch computes
                 in this process);
``diskcache``    a persistent, CRC-checked JSONL warm-start layer under
                 the in-memory result cache;
``server``       a stdlib-only HTTP JSON API (``POST /label``,
                 ``POST /batch``, ``GET /healthz``, ``GET /metrics``,
                 ``GET /trace/<request_id>``) behind a bounded admission
                 queue (429 + ``Retry-After`` on overload), with
                 request-scoped tracing (:mod:`repro.obs`) and a
                 ``request_id`` echoed on every POST response;
``client``       a keep-alive HTTP/1.1 client on its own sockets (one
                 connection per thread) that honors the service's
                 backpressure;
``wire``         the header-block reader server and client share.

Start a server with ``python -m repro serve`` or in-process::

    from repro.service import LabelingServer, ServiceClient

    with LabelingServer(port=0) as server:
        client = ServiceClient(server.url)
        print(client.label(domain="airline")["classification"])
"""

from .cache import LRUCache, ResultCache
from .client import ServiceClient, ServiceError
from .diskcache import DiskCache
from .engine import (
    BatchOutcome,
    LabelingEngine,
    LabelingRequest,
    RequestError,
    execute_batch,
)
from .fingerprint import corpus_fingerprint, fingerprint_document
from .parallel import default_jobs, normalize_jobs
from .server import LabelingServer, MetricsRegistry, PayloadTooLargeError

__all__ = [
    "BatchOutcome",
    "DiskCache",
    "LRUCache",
    "LabelingEngine",
    "LabelingRequest",
    "LabelingServer",
    "MetricsRegistry",
    "PayloadTooLargeError",
    "RequestError",
    "ResultCache",
    "ServiceClient",
    "ServiceError",
    "corpus_fingerprint",
    "default_jobs",
    "execute_batch",
    "fingerprint_document",
    "normalize_jobs",
]
