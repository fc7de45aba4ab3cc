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

* **Append-only writes.**  A ``put`` encodes its one record and appends
  the line to the active segment through a handle the store keeps open,
  then flushes; it globs nothing, stats nothing and re-encodes no other
  record.  There is no in-place mutation, so a crash mid-write can at
  worst leave one truncated final line (which the CRC check then skips;
  the next append starts on a fresh line).
* **Segments.**  Once the active segment holds more than ``max_bytes`` the
  next ``put`` starts a new one, so ``max_bytes`` is the segment size.
* **CRC-verified reads.**  Segments are read as bytes and every line is
  checked by :func:`repro.records.decode`; a damaged line (bit flip, bad
  UTF-8, truncation) is counted, reported via :meth:`stats`, and never
  served — the engine just recomputes.
* **Compaction (Bitcask's merge rule).**  The store counts its *live*
  bytes (the latest record of each ``(e, k)`` pair) and its *dead* bytes
  (superseded, corrupt and blank lines); together they are the bytes of
  its segments.  When a ``put`` leaves the dead bytes at least equal to
  the live ones, the store re-reads the directory, rewrites one latest
  record per ``(e, k)`` pair into a fresh segment (fsync, atomic
  ``os.replace``) and deletes the segments it read.  Each compaction
  rewrites at most twice the bytes put since the previous one, so its
  cost is amortized O(1) per ``put``; distinct keys never trigger it.
  Records belonging to *other* engine configurations are copied verbatim.
* **Startup load.**  The whole store is read once at construction into a
  plain dict, so a warm restart serves every previously computed corpus
  with zero recomputation; ``load_ms`` is reported in ``/metrics``.
* **Shared directories.**  Several stores (say, one per server process)
  may share a directory.  A compaction re-reads the directory first, so
  it keeps the records other stores appended, and names its segment after
  the ones it found.  A store whose active segment another store's
  compaction deleted sees it on its next ``put`` (the open file has no
  links left), re-reads the directory and appends the record again.  A
  record appended between another store's read and its delete can still
  be lost; it is recomputed on its next miss.

All mutating operations are lock-guarded; the engine may call ``put``
from many batch worker threads at once.
"""

from __future__ import annotations

import logging
import os
import threading
import time
import weakref
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
        # Live entries for THIS engine configuration (corpus fp -> value),
        # the latest record line per foreign (e, k) pair — carried verbatim
        # through compaction so other configurations keep their warm
        # starts — and the byte length of every (e, k) pair's latest line.
        self._entries: dict[str, object] = {}
        self._foreign: dict[tuple[str, str], bytes] = {}
        self._sizes: dict[tuple[str, str], int] = {}
        self._live_bytes = 0
        self._dead_bytes = 0
        self._segments: list[Path] = []
        # The active segment: its append handle (opened on the first put),
        # its size, and whether it ends mid-line (a torn final write).
        self._handle = None
        self._closer = None
        self._active_bytes = 0
        self._torn = False
        self.counters = Counters("hits", "misses", "corrupt_records", "compactions")
        start = time.perf_counter()
        self._load(report=True)
        self._load_ms = round((time.perf_counter() - start) * 1000.0, 3)

    # ------------------------------------------------------------------
    # Load / read path.
    # ------------------------------------------------------------------

    def _load(self, report: bool) -> None:
        """Read every segment into fresh state (caller holds the lock, or
        is ``__init__``).  Corrupt lines are counted and logged only when
        ``report`` is set: a re-read meets the same lines again."""
        self._entries, self._foreign, self._sizes = {}, {}, {}
        self._live_bytes = self._dead_bytes = 0
        self._segments, self._active_bytes, self._torn = [], 0, False
        for segment in sorted(
            p
            for p in self.directory.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}")
            if p.is_file()
        ):
            try:
                data = segment.read_bytes()
            except OSError as exc:  # pragma: no cover - unreadable segment
                log.warning("disk cache: cannot read %s: %s", segment, exc)
                continue
            self._segments.append(segment)
            self._active_bytes = len(data)
            self._torn = bool(data) and not data.endswith(b"\n")
            lines = data.split(b"\n")
            for lineno, line in enumerate(lines, 1):
                # Every line but the last (torn or empty) ends in a newline.
                size = len(line) + (lineno < len(lines))
                if line.strip():
                    self._load_line(segment, lineno, line, size, report)
                else:
                    self._dead_bytes += size

    def _load_line(
        self, segment: Path, lineno: int, line: bytes, size: int, report: bool
    ) -> None:
        record = decode(line)
        if not (
            isinstance(record, dict) and record.keys() == {"e", "k", "r"}
            and isinstance(record["e"], str) and isinstance(record["k"], str)
        ):
            self._dead_bytes += size
            if report:
                self.counters.add("corrupt_records")
                log.warning(
                    "disk cache: skipping corrupt record %s:%d", segment.name, lineno
                )
            return
        if record["e"] == self.engine_fingerprint:
            self._entries[record["k"]] = record["r"]
        else:
            self._foreign[(record["e"], record["k"])] = line
        self._replace_live((record["e"], record["k"]), size)

    def _replace_live(self, key: tuple[str, str], size: int) -> None:
        """Account ``key``'s new line of ``size`` bytes; its old one dies."""
        previous = self._sizes.get(key)
        if previous is not None:
            self._dead_bytes += previous
            self._live_bytes -= previous
        self._sizes[key] = size
        self._live_bytes += size

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

    def _next_segment(self) -> Path:
        index = 0
        if self._segments:
            stem = self._segments[-1].name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
            try:
                index = int(stem) + 1
            except ValueError:  # pragma: no cover - alien file name
                index = len(self._segments)
        return self.directory / f"{_SEGMENT_PREFIX}{index:05d}{_SEGMENT_SUFFIX}"

    def _record(self, key: str, value) -> dict:
        return {"e": self.engine_fingerprint, "k": key, "r": value}

    def put(self, key: str, value) -> None:
        """Append one record and remember it; compact once the dead bytes
        reach the live bytes."""
        line = (encode(self._record(key, value)) + "\n").encode("utf-8")
        with self._lock:
            self._append(line)
            if os.fstat(self._handle.fileno()).st_nlink == 0:
                # Another store's compaction deleted the active segment:
                # take up the directory as it left it and append again.
                self._close_handle()
                self._load(report=False)
                self._append(line)
            self._entries[key] = value
            self._replace_live((self.engine_fingerprint, key), len(line))
            if self._dead_bytes and self._dead_bytes >= self._live_bytes:
                self._compact()

    def _append(self, line: bytes) -> None:
        """Write ``line`` to the active segment, starting a new one when
        the active one is over ``max_bytes`` (caller holds the lock)."""
        if not self._segments or self._active_bytes > self.max_bytes:
            self._close_handle()
            self._segments.append(self._next_segment())
            self._active_bytes, self._torn = 0, False
        if self._handle is None:
            self._handle = self._segments[-1].open("ab")
            self._closer = weakref.finalize(self, self._handle.close)
        if self._torn:
            # Never extend a torn final line: end it (a dead byte) first.
            line = b"\n" + line
            self._dead_bytes += 1
            self._torn = False
        self._handle.write(line)
        self._handle.flush()
        self._active_bytes += len(line)

    def _compact(self) -> None:
        """Rewrite one latest record per key into a fresh segment (atomic).

        Caller holds the lock.  The directory is re-read first, so records
        other stores appended to it are kept and the new segment's name
        follows every segment there.  The new segment is written to a temp
        file and ``os.replace``d into place before the segments read are
        removed, so a crash at any point leaves a loadable store.  Foreign
        records are copied as the very lines they were read from.
        """
        self._close_handle()
        self._load(report=False)
        target = self._next_segment()
        tmp = target.with_suffix(".tmp")
        size = 0
        with tmp.open("wb") as handle:
            for key in sorted(self._entries):
                line = (encode(self._record(key, self._entries[key])) + "\n").encode("utf-8")
                self._sizes[self.engine_fingerprint, key] = len(line)
                size += handle.write(line)
            for line in self._foreign.values():
                size += handle.write(line + b"\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
        for segment in self._segments:
            try:
                segment.unlink()
            except OSError:  # pragma: no cover - raced deletion
                pass
        self._segments = [target]
        self._live_bytes = self._active_bytes = size
        self._dead_bytes = 0
        self._torn = False
        self.counters.add("compactions")

    def close(self) -> None:
        """Close the active segment's handle (the next ``put`` reopens it)."""
        with self._lock:
            self._close_handle()

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._closer()
            self._handle = None

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """JSON-ready counters (the ``disk`` section of ``GET /metrics``)."""
        with self._lock:
            return {
                "directory": str(self.directory),
                "entries": len(self._entries),
                "foreign_entries": len(self._foreign),
                **self.counters.snapshot(),
                "segments": len(self._segments),
                "size_bytes": self._live_bytes + self._dead_bytes,
                "live_bytes": self._live_bytes,
                "dead_bytes": self._dead_bytes,
                "load_ms": self._load_ms,
            }
