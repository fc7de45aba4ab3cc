"""Persistent warm-start layer under the in-memory :class:`ResultCache`.

A :class:`DiskCache` is an append-only segment store living in one
directory.  Each line is one :mod:`repro.records` record whose payload is
``<e> <k> <entry bytes>``, so the CRC-32 covers both keys as well as the
entry.  The entry is written as the engine encoded it and never parsed
here, so a disk hit answers exactly those bytes.  ``k`` describes the input
(:func:`~repro.service.fingerprint.corpus_fingerprint`) and ``e`` the
computation (:meth:`~repro.service.engine.LabelingEngine.engine_fingerprint`),
so engines of several configurations can share a directory without ever
serving a result computed under different semantics.  An entry holds no
newline (compact JSON text never does).

Design points:

* **An index, not the values.**  Like Bitcask's *keydir*, the store keeps
  only the segment, offset and length of each ``(e, k)`` pair's latest
  line.  It reads and checks every segment once at construction to build
  it (``load_ms`` in ``/metrics``), so a warm restart recomputes nothing;
  a ``get`` reads its one line and checks it again.
* **Append-only writes.**  A ``put`` encodes its one record and appends
  the line to the active segment through a handle the store keeps open,
  then flushes; it globs nothing, stats nothing and re-encodes no other
  record.  A crash mid-write can at worst leave one truncated final line
  (which the CRC check then skips; the next append starts a fresh line).
  Once the active segment holds more than ``max_bytes`` the next ``put``
  starts a new one, so ``max_bytes`` is the segment size.
* **CRC-verified reads.**  Every line is checked by
  :func:`repro.records.decode`; a damaged line (bit flip, truncation), or
  a record of an older layout, is counted, reported via :meth:`stats`,
  and never served — the engine just recomputes.
* **Compaction (Bitcask's merge rule).**  The store counts its *live*
  bytes (the latest line of each ``(e, k)`` pair) and its *dead* bytes
  (superseded, corrupt and blank lines); together they are the bytes of
  its segments.  When a ``put`` leaves the dead bytes at least equal to
  the live ones, the store re-reads the directory, copies each live line
  verbatim into a fresh segment (fsync, atomic ``os.replace``) and
  deletes the segments it read.  Each compaction rewrites at most twice
  the bytes put since the previous one, so its cost is amortized O(1)
  per ``put``; distinct keys never trigger it.
* **Shared directories.**  Several stores (say, one per server process)
  may share a directory.  A compaction re-reads the directory first, so
  it keeps the records other stores appended, and names its segment after
  the ones it found.  A store whose active segment another store's
  compaction deleted sees it on its next ``put`` (the file has no links
  left), re-reads the directory and appends the record again.  A record
  appended between another store's read and its delete can be lost, and
  a ``get`` of a line compacted away is a miss; both are recomputed.

All operations are lock-guarded; the engine may call ``put`` from many
batch worker threads at once.
"""

from __future__ import annotations

import io
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


def _fields(line: bytes) -> tuple[tuple[bytes, bytes], bytes] | None:
    """A line's ``((engine, key), entry)``, or ``None`` unless it checks."""
    payload = decode(line.rstrip(b"\n"))
    fields = payload.split(b" ", 2) if payload is not None else ()
    return ((fields[0], fields[1]), fields[2]) if len(fields) == 3 else None


def _token(name: str) -> bytes:
    """A fingerprint as a record field, which a space or newline would split."""
    if " " in name or "\n" in name:
        raise ValueError(f"not a disk-cache fingerprint: {name!r}")
    return name.encode()


class DiskCache:
    """Append-only entry store with an in-memory index to its lines."""

    def __init__(
        self,
        directory: str | Path,
        engine_fingerprint: str,
        max_bytes: int = 4 * 1024 * 1024,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.engine_fingerprint = engine_fingerprint
        self._engine = _token(engine_fingerprint)
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        # The active segment's append handle, opened on the first put.
        self._handle = None
        self._closer = None
        self.counters = Counters("hits", "misses", "corrupt_records", "compactions")
        start = time.perf_counter()
        self._load(report=True)
        self._load_ms = round((time.perf_counter() - start) * 1000.0, 3)

    # ------------------------------------------------------------------
    # Load / read path.
    # ------------------------------------------------------------------

    def _load(self, report: bool) -> dict[Path, bytes]:
        """Index every segment afresh and return the bytes read (caller
        holds the lock, or is ``__init__``).  Corrupt lines are counted
        and logged only when ``report`` is set: a re-read meets the same
        lines again."""
        # (engine, key) -> (segment, offset, length) of the pair's latest
        # line, its newline included.
        self._index: dict[tuple[bytes, bytes], tuple[Path, int, int]] = {}
        self._live_bytes = self._dead_bytes = 0
        self._segments: list[Path] = []
        # The active (last) segment's size, and whether it ends mid-line.
        self._active_bytes, self._torn = 0, False
        contents: dict[Path, bytes] = {}
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
            contents[segment] = data
            self._active_bytes = len(data)
            self._torn = bool(data) and not data.endswith(b"\n")
            offset = 0
            # Lines keep their newline; only a torn last line has none.
            for lineno, line in enumerate(io.BytesIO(data), 1):
                fields = _fields(line)
                if fields is not None:
                    self._replace_live(fields[0], (segment, offset, len(line)))
                else:
                    self._dead_bytes += len(line)
                    if report and line.strip():
                        self.counters.add("corrupt_records")
                        log.warning(
                            "disk cache: skipping corrupt record %s:%d",
                            segment.name, lineno,
                        )
                offset += len(line)
        return contents

    def _replace_live(self, pair: tuple, place: tuple[Path, int, int]) -> None:
        """Index ``pair``'s new line at ``place``; its old line dies."""
        previous = self._index.get(pair)
        if previous is not None:
            self._dead_bytes += previous[2]
            self._live_bytes -= previous[2]
        self._index[pair] = place
        self._live_bytes += place[2]

    def get(self, key: str) -> bytes | None:
        """The entry's bytes for ``key`` under this engine config, or
        ``None``, also when its indexed line cannot be read (another store
        compacted it away, say) or no longer checks and names this pair."""
        pair = (self._engine, key.encode())
        with self._lock:
            fields = None
            if pair in self._index:
                segment, offset, length = self._index[pair]
                try:  # a bare fd and one pread: a file object costs more
                    fd = os.open(segment, os.O_RDONLY)
                    try:
                        fields = _fields(os.pread(fd, length, offset))
                    finally:
                        os.close(fd)
                except OSError:
                    pass
            entry = fields[1] if fields is not None and fields[0] == pair else None
            self.counters.add("misses" if entry is None else "hits")
            return entry

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

    def put(self, key: str, entry: bytes) -> None:
        """Append one record holding ``entry`` and index it; compact once
        the dead bytes reach the live bytes."""
        pair = (self._engine, _token(key))
        line = encode(b" ".join((*pair, entry))) + b"\n"
        with self._lock:
            place = self._append(line)
            if os.fstat(self._handle.fileno()).st_nlink == 0:
                # Another store's compaction deleted the active segment:
                # take up the directory as it left it and append again.
                self._close_handle()
                self._load(report=False)
                place = self._append(line)
            self._replace_live(pair, place)
            if self._dead_bytes and self._dead_bytes >= self._live_bytes:
                self._compact()

    def _append(self, line: bytes) -> tuple[Path, int, int]:
        """Write ``line`` to the active segment, starting a new one when
        the active one is over ``max_bytes``; returns where it landed
        (caller holds the lock)."""
        if not self._segments or self._active_bytes > self.max_bytes:
            self._close_handle()
            self._segments.append(self._next_segment())
            self._active_bytes, self._torn = 0, False
        if self._handle is None:
            self._handle = self._segments[-1].open("ab")
            self._closer = weakref.finalize(self, self._handle.close)
        size = len(line)
        if self._torn:
            # Never extend a torn final line: end it (a dead byte) first.
            line = b"\n" + line
            self._dead_bytes += 1
            self._torn = False
        self._handle.write(line)
        self._handle.flush()
        self._active_bytes += len(line)
        return self._segments[-1], self._active_bytes - size, size

    def _compact(self) -> None:
        """Copy each indexed line verbatim into a fresh segment (atomic).

        Caller holds the lock.  The directory is re-read first, so records
        other stores appended to it are kept and the new segment's name
        follows every segment there.  The new segment is written to a temp
        file and ``os.replace``d into place before the segments read are
        removed, so a crash at any point leaves a loadable store.
        """
        self._close_handle()
        contents = self._load(report=False)
        target = self._next_segment()
        tmp = target.with_suffix(".tmp")
        index, size = {}, 0
        with tmp.open("wb") as handle:
            for pair, (segment, offset, length) in self._index.items():
                line = contents[segment][offset : offset + length].rstrip(b"\n") + b"\n"
                index[pair] = (target, size, len(line))
                size += handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
        for segment in self._segments:
            try:
                segment.unlink()
            except OSError:  # pragma: no cover - raced deletion
                pass
        self._index = index
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
            entries = sum(e == self._engine for e, _ in self._index)
            return {
                "directory": str(self.directory),
                "entries": entries,
                "foreign_entries": len(self._index) - entries,
                **self.counters.snapshot(),
                "segments": len(self._segments),
                "size_bytes": self._live_bytes + self._dead_bytes,
                "live_bytes": self._live_bytes,
                "dead_bytes": self._dead_bytes,
                "load_ms": self._load_ms,
            }
