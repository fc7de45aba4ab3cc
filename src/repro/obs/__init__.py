"""repro.obs — request-scoped observability for the labeling service.

The service debugs phase-by-phase: when a request misbehaves, the question
is *which* pipeline phase (group relations → partitions → combine closure
→ conflict repair → internal-node inference) consumed the time or raised
the error.  This package answers it with zero dependencies and zero cost
when disabled:

``tracer``   context-local span tracing (:class:`Trace`, :class:`Span`,
             the :func:`span`/:func:`event` call sites instrumented
             through the pipeline, engine and batch executor) with an
             injectable monotonic clock;
``export``   persistence and interchange: the CRC-checked span log
             (``serve --trace-log``) and the ``chrome://tracing``
             exporter.

Tracing is ambient: activate a :meth:`Trace.scope` around any labeling
call and every instrumented layer below it contributes spans::

    from repro.obs import Trace, format_trace
    from repro.service import LabelingEngine

    trace = Trace()
    with trace.scope():
        LabelingEngine().label({"domain": "airline"})
    print(format_trace(trace))

With no scope active, the instrumentation points cost one integer read —
labeling output is byte-identical either way (asserted by
``tests/test_obs.py``; overhead by ``benchmarks/test_bench_obs.py``).
"""

from .export import TraceLog, chrome_trace
from .tracer import (
    Span,
    Trace,
    current_span,
    current_trace,
    event,
    format_trace,
    is_active,
    new_request_id,
    span,
)

__all__ = [
    "Span",
    "Trace",
    "TraceLog",
    "chrome_trace",
    "current_span",
    "current_trace",
    "event",
    "format_trace",
    "is_active",
    "new_request_id",
    "span",
]
