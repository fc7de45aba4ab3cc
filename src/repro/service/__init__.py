"""repro.service — the labeling pipeline as a long-lived, concurrent service.

The paper's workload is inherently online: a deep-web integrator crawls
query interfaces continuously and must label each freshly integrated
interface.  This package wraps the one-shot pipeline in the pieces that
workload needs:

``fingerprint``  stable content hashes of (corpus, lexicon overlay,
                 naming options) — the cache key;
``cache``        a thread-safe LRU cache; the engine's memory tier is one,
                 holding each entry as JSON bytes, so a hit is those bytes;
``engine``       :class:`LabelingEngine` — request validation, cache
                 consultation, pipeline execution, a thread batch executor
                 with per-item timeout and error isolation, and strict
                 oracle verification;
``admission``    the bounded admission queue in front of both POST
                 endpoints (429 + ``Retry-After`` when it is full);
``parallel``     the shared CPU-derived ``--jobs`` default and the
                 ``executor`` names still accepted (every batch computes
                 in this process);
``diskcache``    a persistent warm-start layer under the memory tier:
                 segments of CRC-checked lines holding entry bytes, so a
                 torn write or on-disk rot is skipped, never served;
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

import importlib

#: Each exported name and the submodule it lives in.  A name is imported
#: on first use (PEP 562), so ``repro serve`` never loads the client and
#: the ``ssl`` and ``http.client`` modules behind it.
_EXPORTS = {
    "BatchOutcome": "engine",
    "DiskCache": "diskcache",
    "LRUCache": "cache",
    "LabelingEngine": "engine",
    "LabelingRequest": "engine",
    "LabelingServer": "server",
    "MetricsRegistry": "server",
    "PayloadTooLargeError": "server",
    "RequestError": "engine",
    "ServiceClient": "client",
    "ServiceError": "client",
    "corpus_fingerprint": "fingerprint",
    "default_jobs": "parallel",
    "execute_batch": "engine",
    "fingerprint_document": "fingerprint",
    "normalize_jobs": "parallel",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
