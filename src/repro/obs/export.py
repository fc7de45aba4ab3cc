"""Trace persistence and interchange: span log and Chrome export.

Two consumers of a finished :class:`~repro.obs.tracer.Trace`:

* :class:`TraceLog` — a structured span log (``serve --trace-log DIR``):
  one :mod:`repro.records` line per span, whose payload is the span's
  compact JSON behind the same CRC-32 header as the disk cache's
  segments, so a crash mid-write can at worst truncate the final line
  and a reader never trusts a corrupt record.
* :func:`chrome_trace` — the ``chrome://tracing`` / Perfetto JSON array
  form ("trace event format", ``ph: "X"`` complete events), for looking
  at a request's phase timeline in a real trace viewer.

The server keeps recent traces for ``GET /trace/<request_id>`` in a plain
:class:`repro.service.cache.LRUCache`.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

from ..records import decode, encode

__all__ = ["TraceLog", "chrome_trace"]

_LOG_FILE = "spans.jsonl"
_span_json = json.JSONEncoder(separators=(",", ":"), default=str).encode


def _flatten_spans(record: dict, request_id: str):
    """Yield one flat, JSON-ready dict per span of a trace dict (pre-order).

    ``id`` is the span's pre-order index within its trace; ``parent`` is
    the parent's index (``None`` for the root) — enough to rebuild the
    tree without nesting records.
    """
    counter = 0

    def walk(span: dict, parent: int | None):
        nonlocal counter
        index = counter
        counter += 1
        flat = {
            "request_id": request_id,
            "id": index,
            "parent": parent,
            "name": span["name"],
            "start_ms": span["start_ms"],
            "duration_ms": span["duration_ms"],
        }
        if span.get("tags"):
            flat["tags"] = span["tags"]
        if span.get("events"):
            flat["events"] = span["events"]
        yield flat
        for child in span.get("children") or []:
            yield from walk(child, index)

    yield from walk(record["root"], None)


class TraceLog:
    """CRC-safe append-only span log (one record per span).

    Each line is :func:`repro.records.encode` of one flat span's compact
    JSON.  Appends are lock-guarded and flushed; :meth:`load` skips (and
    counts) a line whose CRC fails or whose payload is not JSON instead of
    failing, mirroring :class:`repro.service.diskcache.DiskCache`.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / _LOG_FILE
        self._lock = threading.Lock()
        self._records = 0
        self._traces = 0

    def append(self, trace_record: dict) -> int:
        """Append every span of one trace dict; returns spans written."""
        spans = _flatten_spans(trace_record, trace_record.get("request_id", ""))
        lines = [encode(_span_json(flat).encode()) for flat in spans]
        payload = b"\n".join(lines) + b"\n"
        with self._lock:
            with self.path.open("ab") as handle:
                handle.write(payload)
                handle.flush()
            self._records += len(lines)
            self._traces += 1
        return len(lines)

    @staticmethod
    def load(path: str | Path) -> tuple[list[dict], int]:
        """Read a span log back: ``(valid records, corrupt line count)``."""
        records, corrupt = [], 0
        for line in Path(path).read_bytes().split(b"\n"):
            if not line.strip():
                continue
            payload = decode(line)
            if payload is not None:
                try:
                    records.append(json.loads(payload))
                    continue
                except (ValueError, RecursionError):  # a CRC over non-JSON bytes
                    pass
            corrupt += 1
        return records, corrupt

    def stats(self) -> dict:
        with self._lock:
            return {
                "path": str(self.path),
                "traces": self._traces,
                "spans": self._records,
            }


def chrome_trace(traces) -> list[dict]:
    """Trace dicts → the Chrome ``chrome://tracing`` JSON array form.

    One complete (``ph: "X"``) event per span; each trace gets its own
    ``pid`` so several requests sit side by side in the viewer.  Times are
    microseconds, as the format requires.  The returned list serializes
    with ``json.dump`` directly.
    """

    events: list[dict] = []
    for pid, record in enumerate(traces, start=1):
        request_id = record.get("request_id", "?")
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"request {request_id}"},
            }
        )

        def walk(span: dict, depth: int):
            events.append(
                {
                    "name": span["name"],
                    "cat": "repro",
                    "ph": "X",
                    "pid": pid,
                    "tid": 1,
                    "ts": round(span["start_ms"] * 1000.0, 1),
                    "dur": round(span["duration_ms"] * 1000.0, 1),
                    "args": {**(span.get("tags") or {}), "depth": depth},
                }
            )
            for e in span.get("events") or []:
                events.append(
                    {
                        "name": e["name"],
                        "cat": "repro",
                        "ph": "i",
                        "s": "t",
                        "pid": pid,
                        "tid": 1,
                        "ts": round(e["at_ms"] * 1000.0, 1),
                        "args": e.get("attrs") or {},
                    }
                )
            for child in span.get("children") or []:
                walk(child, depth + 1)

        walk(record["root"], 0)
    return events
