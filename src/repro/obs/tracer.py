"""Request-scoped span tracing — zero-dependency, zero-cost when off.

A :class:`Trace` is one request's tree of :class:`Span` records: every
pipeline phase, cache consultation and retry attempt becomes a span (with
monotonic-clock start/duration) or an event on the enclosing span.  The
trace's clock is injectable, so tests pin span timings with a fake clock
and assert the whole tree as a golden.

Activation mirrors :mod:`repro.resilience.faults`: a context-local scope
(:meth:`Trace.scope`) names the trace governing the current execution, and
the instrumented call sites — :func:`span`, :func:`event` — consult it.
When no trace is active (the overwhelmingly common case) both are a read
of one module-level integer and an immediate return: the labeling hot
paths pay nothing, and ``benchmarks/test_bench_obs.py`` asserts the
disabled path stays within noise of the un-traced baseline.

Concurrency: one trace may receive spans from many batch workers.  The
fan-out pattern is *attach* (:meth:`Trace.attach`): the parent creates one
span per item in submission order, and each worker thread activates its
own scope rooted at its item's span — span trees stay deterministic and no
two workers ever share a span stack.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Trace",
    "current_span",
    "current_trace",
    "event",
    "format_trace",
    "is_active",
    "new_request_id",
    "span",
]


def new_request_id() -> str:
    """A fresh opaque request id (hex, no separators)."""
    return uuid.uuid4().hex


def _round_ms(seconds: float) -> float:
    return round(seconds * 1000.0, 3)


class Span:
    """One timed operation: name, tags, point events, child spans.

    Times are stored as absolute readings of the owning trace's clock;
    serialization (:meth:`to_dict`) converts them to offsets from a base,
    normally the trace start.
    """

    __slots__ = ("name", "tags", "events", "children", "start_s", "end_s")

    def __init__(self, name: str, tags: dict | None = None) -> None:
        self.name = name
        self.tags: dict = tags or {}
        self.events: list[dict] = []
        self.children: list["Span"] = []
        self.start_s: float = 0.0
        self.end_s: float = 0.0

    @property
    def duration_ms(self) -> float:
        return _round_ms(max(0.0, self.end_s - self.start_s))

    def add_event(self, name: str, at_s: float, attrs: dict) -> None:
        self.events.append({"name": name, "at_s": at_s, "attrs": attrs})

    def iter_spans(self):
        """This span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, name: str) -> list["Span"]:
        """Every span named ``name`` in this subtree (pre-order)."""
        return [s for s in self.iter_spans() if s.name == name]

    def to_dict(self, base_s: float = 0.0) -> dict:
        """JSON-ready record with times as ms offsets from ``base_s``."""
        record: dict = {
            "name": self.name,
            "start_ms": _round_ms(self.start_s - base_s),
            "duration_ms": self.duration_ms,
        }
        if self.tags:
            record["tags"] = dict(self.tags)
        if self.events:
            record["events"] = [
                {
                    "name": e["name"],
                    "at_ms": _round_ms(e["at_s"] - base_s),
                    **({"attrs": e["attrs"]} if e["attrs"] else {}),
                }
                for e in self.events
            ]
        if self.children:
            record["children"] = [c.to_dict(base_s) for c in self.children]
        return record

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, {self.duration_ms}ms, {len(self.children)} children)"


class Trace:
    """One request's span tree plus the clock every span reads.

    ``clock`` must be monotonic-like (only differences are used); tests
    inject a deterministic fake so the golden span tree has pinned
    durations.  ``request_id`` is the service's correlation key — honored
    from ``X-Request-Id`` or generated.
    """

    def __init__(
        self,
        request_id: str | None = None,
        name: str = "request",
        clock=time.monotonic,
    ) -> None:
        self.request_id = request_id or new_request_id()
        self.clock = clock
        self.root = Span(name)
        self.meta: dict = {}

    # ------------------------------------------------------------------
    # Activation.
    # ------------------------------------------------------------------

    @contextmanager
    def scope(self):
        """Activate this trace for the current context, timing the root."""
        with self.attach(self.root):
            yield self

    @contextmanager
    def attach(self, span: Span):
        """Activate this trace with the span stack rooted at ``span``.

        The fan-out entry point: a batch worker thread attaches at its
        item's pre-created span, so its spans graft under that item while
        sibling workers write to their own subtrees.  Starts/finishes
        ``span`` around the enclosed block.
        """
        global _ACTIVE
        scope = _TraceScope(trace=self, stack=[span])
        span.start_s = self.clock()
        token = _SCOPE.set(scope)
        with _ACTIVE_LOCK:
            _ACTIVE += 1
        try:
            yield span
        finally:
            with _ACTIVE_LOCK:
                _ACTIVE -= 1
            _SCOPE.reset(token)
            span.end_s = self.clock()

    # ------------------------------------------------------------------
    # Introspection / serialization.
    # ------------------------------------------------------------------

    def find(self, name: str) -> list[Span]:
        return self.root.find(name)

    def to_dict(self) -> dict:
        """JSON-ready trace: request id, metadata, span tree (ms offsets)."""
        record = {
            "request_id": self.request_id,
            "duration_ms": self.root.duration_ms,
            "root": self.root.to_dict(self.root.start_s),
        }
        if self.meta:
            record["meta"] = dict(self.meta)
        return record


@dataclass
class _TraceScope:
    """The context-local state: which trace, and the open-span stack."""

    trace: Trace
    stack: list[Span] = field(default_factory=list)


_SCOPE: ContextVar[_TraceScope | None] = ContextVar("repro_trace_scope", default=None)

#: Count of live scopes across all threads; the hot-path fast-exit guard.
_ACTIVE = 0
_ACTIVE_LOCK = threading.Lock()


def is_active() -> bool:
    """True when a trace scope governs the current context."""
    return bool(_ACTIVE) and _SCOPE.get() is not None


def current_trace() -> Trace | None:
    """The trace governing the current context, if any."""
    if not _ACTIVE:
        return None
    scope = _SCOPE.get()
    return scope.trace if scope is not None else None


def current_span() -> Span | None:
    """The innermost open span of the current context, if any."""
    if not _ACTIVE:
        return None
    scope = _SCOPE.get()
    if scope is None or not scope.stack:
        return None
    return scope.stack[-1]


class _NoopSpan:
    """Reusable, reentrant no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NOOP = _NoopSpan()


class _SpanContext:
    """Context manager opening one child span on the active scope's stack."""

    __slots__ = ("_scope", "_span")

    def __init__(self, scope: _TraceScope, span: Span) -> None:
        self._scope = scope
        self._span = span

    def __enter__(self) -> Span:
        self._scope.stack[-1].children.append(self._span)
        self._scope.stack.append(self._span)
        self._span.start_s = self._scope.trace.clock()
        return self._span

    def __exit__(self, *exc_info):
        self._span.end_s = self._scope.trace.clock()
        popped = self._scope.stack.pop()
        assert popped is self._span, "span stack corrupted"
        return False


def span(name: str, **tags):
    """Open a child span on the active trace; a shared no-op when none.

    ::

        with span("phase:partitions") as sp:
            ...
            if sp is not None:        # tracing may be disabled
                sp.tags["groups"] = len(groups)

    Costs one integer read when no trace is active.
    """
    if not _ACTIVE:
        return _NOOP
    scope = _SCOPE.get()
    if scope is None or not scope.stack:
        return _NOOP
    return _SpanContext(scope, Span(name, tags or None))


def event(name: str, **attrs) -> None:
    """Record a point event on the innermost open span (no-op when off)."""
    if not _ACTIVE:
        return
    scope = _SCOPE.get()
    if scope is None or not scope.stack:
        return
    scope.stack[-1].add_event(name, scope.trace.clock(), attrs)


# ----------------------------------------------------------------------
# Rendering (the ``repro trace`` CLI and ``GET /trace`` debugging aid).
# ----------------------------------------------------------------------


def _format_tags(record: dict) -> str:
    tags = record.get("tags")
    if not tags:
        return ""
    inner = " ".join(f"{k}={v}" for k, v in tags.items())
    return f"  [{inner}]"


def _format_span(record: dict, prefix: str, is_last: bool, lines: list[str]) -> None:
    connector = "└─ " if is_last else "├─ "
    lines.append(
        f"{prefix}{connector}{record['name']} "
        f"({record['duration_ms']:.3f} ms){_format_tags(record)}"
    )
    child_prefix = prefix + ("   " if is_last else "│  ")
    events = record.get("events") or []
    children = record.get("children") or []
    for e in events:
        attrs = e.get("attrs") or {}
        inner = (" " + " ".join(f"{k}={v}" for k, v in attrs.items())) if attrs else ""
        tail = "└· " if not children and e is events[-1] else "├· "
        lines.append(f"{child_prefix}{tail}@{e['at_ms']:.3f} ms {e['name']}{inner}")
    for index, child in enumerate(children):
        _format_span(child, child_prefix, index == len(children) - 1, lines)


def format_trace(trace: "Trace | dict") -> str:
    """A human-readable span tree with per-span durations.

    Accepts a live :class:`Trace` or its :meth:`Trace.to_dict` form (what
    ``GET /trace/<id>`` returns).
    """
    record = trace.to_dict() if isinstance(trace, Trace) else trace
    root = record["root"]
    lines = [
        f"{root['name']} ({root['duration_ms']:.3f} ms)"
        f"  request_id={record.get('request_id', '?')}{_format_tags(root)}"
    ]
    for e in root.get("events") or []:
        attrs = e.get("attrs") or {}
        inner = (" " + " ".join(f"{k}={v}" for k, v in attrs.items())) if attrs else ""
        lines.append(f"·· @{e['at_ms']:.3f} ms {e['name']}{inner}")
    children = root.get("children") or []
    for index, child in enumerate(children):
        _format_span(child, "", index == len(children) - 1, lines)
    return "\n".join(lines)
