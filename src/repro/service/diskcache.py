"""Persistent warm-start layer under the in-memory :class:`ResultCache`.

A :class:`DiskCache` is an append-only JSONL segment store living in one
directory.  Each line is one :mod:`repro.records` record whose value is::

    {"e": <engine-config fingerprint>, "k": <corpus fingerprint>,
     "r": <response dict>}

so the CRC-32 covers both keys as well as the response.  The two
fingerprints jointly key an entry: ``k`` describes the input
(:func:`repro.service.fingerprint.corpus_fingerprint`) and ``e`` describes
the computation (response format + verify mode + lexicon content, see
:meth:`repro.service.engine.LabelingEngine.engine_fingerprint`) — a cache
directory can therefore be shared across engine configurations without
ever serving a result computed under different semantics.

Design points:

* **Append-only writes.**  A ``put`` appends one line and flushes; there
  is no in-place mutation, so a crash mid-write can at worst leave one
  truncated final line (which the CRC check then skips).
* **CRC-verified reads.**  Segments are read as bytes and every line is
  checked by :func:`repro.records.decode`; a damaged line (bit flip, bad
  UTF-8, truncation) is counted, reported via :meth:`stats`, and never
  served — the engine just recomputes.
* **Compaction.**  When the live segment grows past ``max_bytes`` the
  store rewrites one latest record per ``(e, k)`` pair into a fresh
  segment (atomic ``os.replace``) and deletes the old ones.  Records
  belonging to *other* engine configurations are preserved verbatim.
* **Startup load.**  The whole store is read once at construction into a
  plain dict, so a warm restart serves every previously computed corpus
  with zero recomputation; ``load_ms`` is reported in ``/metrics``.

All mutating operations are lock-guarded; the engine may call ``put``
from many batch worker threads at once.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from pathlib import Path

from ..perf import Counters
from ..records import decode, encode

__all__ = ["DiskCache"]

log = logging.getLogger(__name__)

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".jsonl"


class DiskCache:
    """Append-only JSONL result store with CRC-checked warm-start loading."""

    def __init__(
        self,
        directory: str | Path,
        engine_fingerprint: str,
        max_bytes: int = 4 * 1024 * 1024,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.engine_fingerprint = engine_fingerprint
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        # Live entries for THIS engine configuration (corpus fp -> value)
        # and the latest record per foreign (e, k) pair — carried through
        # compaction so other configurations keep their warm starts.
        self._entries: dict[str, object] = {}
        self._foreign: dict[tuple[str, str], dict] = {}
        self.counters = Counters("hits", "misses", "corrupt_records", "compactions")
        self._load_ms = 0.0
        self._load()

    # ------------------------------------------------------------------
    # Load / read path.
    # ------------------------------------------------------------------

    def _segments(self) -> list[Path]:
        return sorted(
            p
            for p in self.directory.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}")
            if p.is_file()
        )

    def _load(self) -> None:
        start = time.perf_counter()
        for segment in self._segments():
            try:
                lines = segment.read_bytes().split(b"\n")
            except OSError as exc:  # pragma: no cover - unreadable segment
                log.warning("disk cache: cannot read %s: %s", segment, exc)
                continue
            for lineno, line in enumerate(lines, 1):
                if not line.strip():
                    continue
                record = decode(line)
                if not (
                    isinstance(record, dict) and record.keys() == {"e", "k", "r"}
                    and isinstance(record["e"], str) and isinstance(record["k"], str)
                ):
                    self.counters.add("corrupt_records")
                    log.warning(
                        "disk cache: skipping corrupt record %s:%d",
                        segment.name,
                        lineno,
                    )
                    continue
                if record["e"] == self.engine_fingerprint:
                    self._entries[record["k"]] = record["r"]
                else:
                    self._foreign[(record["e"], record["k"])] = record
        self._load_ms = round((time.perf_counter() - start) * 1000.0, 3)

    def get(self, key: str):
        """The stored value for ``key`` under this engine config, or ``None``.

        Values were CRC-verified at load/put time.  The value is the
        stored object itself: callers deep-copy before mutating (the engine
        does on every disk hit).
        """
        with self._lock:
            value = self._entries.get(key)
            self.counters.add("misses" if value is None else "hits")
            return value

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # Write path.
    # ------------------------------------------------------------------

    def _active_segment(self) -> Path:
        segments = self._segments()
        if segments:
            return segments[-1]
        return self.directory / f"{_SEGMENT_PREFIX}00000{_SEGMENT_SUFFIX}"

    def _next_segment(self) -> Path:
        segments = self._segments()
        index = 0
        if segments:
            stem = segments[-1].name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
            try:
                index = int(stem) + 1
            except ValueError:  # pragma: no cover - alien file name
                index = len(segments)
        return self.directory / f"{_SEGMENT_PREFIX}{index:05d}{_SEGMENT_SUFFIX}"

    def _record(self, key: str, value) -> dict:
        return {"e": self.engine_fingerprint, "k": key, "r": value}

    def put(self, key: str, value) -> None:
        """Append one record and remember it; compact past ``max_bytes``."""
        line = encode(self._record(key, value))
        with self._lock:
            self._entries[key] = value
            segment = self._active_segment()
            with segment.open("a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()
            try:
                size = segment.stat().st_size
            except OSError:  # pragma: no cover - raced deletion
                size = 0
            if size > self.max_bytes:
                self._compact()

    def _compact(self) -> None:
        """Rewrite one latest record per key into a fresh segment (atomic).

        Caller holds the lock.  The new segment is written to a temp file
        and ``os.replace``d into place before the old segments are removed,
        so a crash at any point leaves a loadable store.  Foreign records
        re-encode to the very lines they were read from.
        """
        old_segments = self._segments()
        target = self._next_segment()
        tmp = target.with_suffix(".tmp")
        records = [self._record(key, self._entries[key]) for key in sorted(self._entries)]
        with tmp.open("w", encoding="utf-8") as handle:
            for record in records + list(self._foreign.values()):
                handle.write(encode(record) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
        for segment in old_segments:
            if segment != target:
                try:
                    segment.unlink()
                except OSError:  # pragma: no cover - raced deletion
                    pass
        self.counters.add("compactions")

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """JSON-ready counters (the ``disk`` section of ``GET /metrics``)."""
        with self._lock:
            segments = self._segments()
            try:
                size_bytes = sum(s.stat().st_size for s in segments)
            except OSError:  # pragma: no cover - raced deletion
                size_bytes = 0
            return {
                "directory": str(self.directory),
                "entries": len(self._entries),
                "foreign_entries": len(self._foreign),
                **self.counters.snapshot(),
                "segments": len(segments),
                "size_bytes": size_bytes,
                "load_ms": self._load_ms,
            }
