"""Process-pool plumbing for the batch backend: worker warm-up + tasks.

The thread backend in :func:`repro.service.engine.execute_batch` is bounded
by the GIL for the CPU-heavy parts of the pipeline (the ``Combine*``
closure, the Definition-1 token loops).  The process backend fans the same
work over a ``ProcessPoolExecutor``; everything that crosses the process
boundary lives in this module so it is importable — hence picklable — from
worker processes:

* :func:`init_worker` — the pool initializer.  It receives one
  :class:`~repro.lexicon.compiled.CompiledLexicon` (pickled once per
  worker, never per task) and builds the worker's long-lived default
  comparator.  Every task dispatched to that worker reuses it.
* :class:`PayloadTask` — one parsed labeling request and the engine's
  verify mode as a picklable callable that runs
  :func:`repro.service.engine.compute`, with the comparator chosen by
  :func:`repro.service.engine.comparator_for` (the default, or a per-worker
  overlay comparator); its result is the JSON-ready response dict, so
  nothing exotic rides the return pickle.
* :func:`default_jobs` — the documented CPU-derived default the ``batch``,
  ``serve`` and ``chaos`` CLI subcommands share.

Worker state is module-global by design: a ``ProcessPoolExecutor`` worker
is a fresh interpreter whose only channel for warm state is the
initializer, and globals are how that state survives across tasks.
"""

from __future__ import annotations

import os
import threading

__all__ = [
    "EXECUTORS",
    "PayloadTask",
    "default_jobs",
    "init_worker",
    "normalize_jobs",
    "worker_comparator",
]

#: The executor kinds the batch backend accepts.
EXECUTORS = ("thread", "process")

#: Cap on the CPU-derived default: labeling is memory-light but the curve
#: flattens past a handful of workers (per-worker warm-up and result
#: pickling take over), so more than 8 defaults helps nobody.
MAX_DEFAULT_JOBS = 8


def default_jobs() -> int:
    """The shared CLI default for ``--jobs``: ``os.cpu_count()`` capped at 8.

    ``sched_getaffinity`` is preferred where available — in a container the
    affinity mask, not the host core count, is what can actually run.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    return max(1, min(MAX_DEFAULT_JOBS, cores))


def normalize_jobs(jobs) -> int:
    """Normalize a ``jobs`` knob to a usable worker count (``>= 1``).

    ``None`` means "pick for me" and resolves to :func:`default_jobs`
    (which itself survives ``os.cpu_count()`` returning ``None``).  ``0``
    is clamped to 1 — "no parallelism", not "no workers".  A negative or
    non-integral value is a caller bug and raises ``ValueError`` with a
    message naming the offender; the HTTP layer maps that to a 400.
    """
    if jobs is None:
        return default_jobs()
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        try:
            coerced = int(str(jobs))
        except (TypeError, ValueError):
            raise ValueError(f"jobs must be an integer, got {jobs!r}") from None
        jobs = coerced
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return max(1, jobs)


def validate_executor(executor: str) -> str:
    if executor not in EXECUTORS:
        raise ValueError(
            f"executor must be one of {', '.join(EXECUTORS)}; got {executor!r}"
        )
    return executor


# ----------------------------------------------------------------------
# Worker-side state (one interpreter per pool worker).
# ----------------------------------------------------------------------

_WORKER: dict = {}
#: The worker's lexicon-overlay comparators (an LRU, see ``comparator_for``).
_OVERLAYS: dict = {}
_OVERLAYS_LOCK = threading.Lock()


def init_worker(compiled) -> None:
    """Pool initializer: build the worker's default comparator once.

    ``compiled`` is the parent's :class:`CompiledLexicon` — immutable and
    cheaply pickled, it arrives exactly once per worker.  Caching, breakers
    and retry stay in the parent.
    """
    from ..core.label import LabelAnalyzer
    from ..core.semantics import SemanticComparator

    _WORKER["comparator"] = SemanticComparator(LabelAnalyzer(compiled))


def worker_comparator():
    """The warm per-worker comparator, or ``None`` outside a pool worker."""
    return _WORKER.get("comparator")


class PayloadTask:
    """One labeling request as a picklable zero-argument callable.

    ``payload`` is a parsed :class:`~repro.service.engine.LabelingRequest`
    (what the engine ships) or a raw payload dict; ``verify`` is the
    engine's mode, carried per task so it holds on any thread or process
    that runs the task.  Calling the task runs
    :func:`~repro.service.engine.compute` with the request's comparator,
    built on the default lexicon when the pool has no :func:`init_worker`
    (e.g. the thread fallback after a broken pool).
    """

    __slots__ = ("payload", "verify", "trace")

    def __init__(self, payload, verify: str = "off", trace: bool = False) -> None:
        self.payload = payload
        self.verify = verify
        self.trace = trace

    def __call__(self) -> dict:
        from .engine import LabelingRequest, comparator_for, compute

        if not _WORKER:
            from ..lexicon.compiled import default_compiled

            init_worker(default_compiled())
        request = self.payload
        if not isinstance(request, LabelingRequest):
            request = LabelingRequest.from_payload(request)
        comparator = comparator_for(
            request, _WORKER["comparator"], _OVERLAYS, _OVERLAYS_LOCK
        )
        if not self.trace:
            return compute(request, comparator, self.verify)
        # The parent asked for spans: build a standalone worker-local trace
        # and ship its tree home inside the response (the parent pops the
        # key and grafts the tree under this item's span).
        from ..obs.tracer import Trace

        trace = Trace(name="worker")
        trace.root.tags["pid"] = os.getpid()
        with trace.scope():
            response = compute(request, comparator, self.verify)
        response["_obs_trace"] = trace.root.to_dict(trace.root.start_s)
        return response

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PayloadTask({type(self.payload).__name__})"
