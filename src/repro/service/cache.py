"""A thread-safe LRU cache for labeling results, with observable counters.

The labeling pipeline is deterministic, so a result keyed by the corpus
fingerprint (:mod:`repro.service.fingerprint`) never goes stale — the only
eviction policy needed is capacity.  The cache is a plain ordered-dict LRU
guarded by a lock: correct under the thread-per-connection server and
batch-thread concurrency the service runs with, and cheap enough that a
hit costs microseconds against the pipeline's tens of milliseconds.

The engine's memory tier is an :class:`LRUCache` of entry bytes: each
entry once, as immutable JSON bytes (insertion order kept,
:func:`json_bytes`).  ``get`` returns those bytes themselves: the engine
splices its per-request keys onto them, so a hit neither decodes nor
re-serializes the entry, and nothing a caller holds aliases what the
cache keeps.

Counters (hits / misses / evictions, one :class:`~repro.perf.Counters`)
are part of the public contract — ``GET /metrics`` reports them, and
operators size ``capacity`` from them.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict

from ..perf import Counters

__all__ = ["LRUCache", "json_bytes"]

_MISSING = object()


def json_bytes(value) -> bytes:
    """``value`` as compact JSON bytes, keys in insertion order: the one
    form of a stored entry and of every server response."""
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


class LRUCache:
    """Least-recently-used mapping with a capacity bound and counters.

    ``get`` refreshes recency; ``put`` evicts the coldest entry once
    ``capacity`` is exceeded.  ``capacity <= 0`` disables storage entirely
    (every lookup is a miss) so a service can run cache-less without a
    second code path.  All operations are safe to call from any thread.
    """

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = int(capacity)
        self._entries: OrderedDict[str, object] = OrderedDict()
        self._lock = threading.Lock()
        self.counters = Counters("hits", "misses", "evictions")

    def get(self, key: str):
        """The cached value for ``key`` (refreshed as most recent), or ``None``."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.counters.add("misses")
                return None
            self.counters.add("hits")
            self._entries.move_to_end(key)
            return value

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key``, evicting LRU entries over capacity."""
        if self.capacity <= 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.counters.add("evictions")

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters keep accumulating)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """JSON-ready counters, size and capacity (what ``GET /metrics`` embeds)."""
        with self._lock:
            return {
                **self.counters.snapshot(),
                "size": len(self._entries),
                "capacity": self.capacity,
            }
