"""A thread-safe LRU cache for labeling results, with observable counters.

The labeling pipeline is deterministic, so a result keyed by the corpus
fingerprint (:mod:`repro.service.fingerprint`) never goes stale — the only
eviction policy needed is capacity.  The cache is a plain ordered-dict LRU
guarded by a lock: correct under the thread-per-connection server and
batch-thread concurrency the service runs with, and cheap enough that a
hit costs microseconds against the pipeline's tens of milliseconds.

:class:`ResultCache` stores each entry once, as immutable JSON bytes
(insertion order kept, :func:`json_bytes`) with a CRC-32 over exactly
those bytes.  ``get`` checks the CRC and returns the bytes themselves:
the engine splices its per-request keys onto them, so a hit neither
decodes nor re-serializes the entry, and nothing a caller holds aliases
what the cache keeps.  An entry whose bytes no longer match — a chaos
``corrupt`` fault, or real memory rot — is *evicted and reported as a
miss*, so the engine recomputes instead of serving a silently wrong
labeling.  The pipeline being deterministic makes that recovery exact.

Counters (hits / misses / evictions / corruptions, one
:class:`~repro.perf.Counters`) are part of the public contract —
``GET /metrics`` reports them, and operators size ``capacity`` (and alarm
on ``corruptions``) from them.
"""

from __future__ import annotations

import json
import threading
import zlib
from collections import OrderedDict

from ..perf import Counters

__all__ = ["LRUCache", "ResultCache", "json_bytes"]

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
        self.counters = Counters("hits", "misses", "evictions", "corruptions")

    def get(self, key: str):
        """The cached value for ``key`` (refreshed as most recent), or ``None``."""
        with self._lock:
            entry = self._entries.get(key, _MISSING)
            value = entry if entry is _MISSING else self._open(key, entry)
            if value is _MISSING:
                self.counters.add("misses")
                return None
            self.counters.add("hits")
            self._entries.move_to_end(key)
            return value

    def _open(self, key: str, entry):
        """The value a stored entry holds, or ``_MISSING`` (under the lock)."""
        return entry

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


class ResultCache(LRUCache):
    """An :class:`LRUCache` of JSON values kept as checksummed bytes.

    ``put`` stores ``(json bytes, crc32(bytes))``; ``get`` checks the CRC
    under the lock and returns the stored bytes.
    A mismatch is *eviction + miss* — a corrupted labeling is never
    served.  The ``corrupt`` method flips a stored bit; it exists for the
    chaos plan's ``cache.get``/``corrupt`` faults and the integrity tests,
    which use it to prove the read path catches exactly this.
    """

    def _open(self, key: str, entry):
        blob, crc = entry
        if zlib.crc32(blob) == crc:
            return blob
        # Integrity failure: drop the entry, report a miss — the caller
        # recomputes and the deterministic pipeline restores the exact
        # result the corrupted entry used to hold.
        del self._entries[key]
        self.counters.add("corruptions")
        return _MISSING

    def put(self, key: str, blob: bytes) -> None:
        """Store an entry's JSON bytes (:func:`json_bytes`) under ``key``."""
        super().put(key, (blob, zlib.crc32(blob)))

    def corrupt(self, key: str) -> bool:
        """Tamper with the stored entry for ``key`` (chaos/test hook).

        Flips one bit of the stored bytes without refreshing the checksum,
        exactly like bit rot would; returns whether an entry existed.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            blob, crc = entry
            tampered = bytearray(blob)
            tampered[len(tampered) // 2] ^= 0x01
            self._entries[key] = (bytes(tampered), crc)
            return True
