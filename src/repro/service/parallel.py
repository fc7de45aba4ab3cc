"""Process-pool plumbing: where a batch item's ``compute`` runs.

:meth:`repro.service.engine.LabelingEngine.label_batch` has one path on
every executor: items fan out over threads, and under
``executor="process"`` each cache miss's ``compute`` step runs in a worker
process instead of the item's thread.  The pipeline is CPU-bound and
holds the GIL for its ``Combine*`` closure and Definition-1 token loops,
so workers are what give a batch more than one core.  Everything that
crosses the process boundary lives in this module so it is importable —
hence picklable — from worker processes:

* :class:`WorkerPool` — the one process pool, shared by the engine's
  batches and ``run_all_domains(executor="process")``: built per batch and
  started by its first task; a broken or closed pool runs the caller's
  fallback in the calling process.  Its initializer, :func:`init_worker`,
  receives one :class:`~repro.lexicon.compiled.CompiledLexicon` (pickled
  once per worker, never per task) and builds the worker's long-lived
  default comparator.  Every task dispatched to that worker reuses it.
* :class:`PayloadTask` — one parsed labeling request and the engine's
  verify mode as a picklable callable that runs
  :func:`repro.service.engine.compute`, with the comparator chosen by
  :func:`repro.service.engine.comparator_for` (the worker's default, or a
  per-worker overlay comparator); its result is the JSON-ready response
  dict, so nothing exotic rides the return pickle.
* :func:`default_jobs` — the documented CPU-derived default the ``batch``,
  ``serve`` and ``chaos`` CLI subcommands share.

Worker state is module-global by design: a ``ProcessPoolExecutor`` worker
is a fresh interpreter whose only channel for warm state is the
initializer, and globals are how that state survives across tasks.
"""

from __future__ import annotations

import logging
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

__all__ = [
    "EXECUTORS",
    "PayloadTask",
    "WorkerPool",
    "default_jobs",
    "init_worker",
    "normalize_jobs",
    "worker_comparator",
]

log = logging.getLogger(__name__)

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


def normalize_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs`` knob to a usable worker count (``>= 1``).

    ``None`` means "pick for me" and resolves to :func:`default_jobs`
    (which itself survives ``os.cpu_count()`` returning ``None``).  ``0``
    is clamped to 1 — "no parallelism", not "no workers".  A negative or
    non-integer value (a string or a boolean included) is a caller bug and
    raises ``ValueError`` with a message naming the offender.
    """
    if jobs is None:
        return default_jobs()
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ValueError(f"jobs must be an integer, got {jobs!r}")
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


class WorkerPool:
    """A pool of ``workers`` processes for one batch, started by its first
    task, each worker warmed once by :func:`init_worker` with ``compiled``.

    :meth:`call` runs a picklable task in a worker and returns its result.
    Once the pool is broken (a worker died, e.g. in its bootstrap) or
    closed, ``call`` runs the fallback in the calling process instead, and
    the first breakage logs one warning.  Thread-safe: a batch's item
    threads share one instance.
    """

    def __init__(self, workers: int, compiled) -> None:
        self._workers = workers
        self._compiled = compiled
        self._pool: ProcessPoolExecutor | None = None
        self._usable = True
        self._lock = threading.Lock()

    def call(self, task, fallback=None):
        """``task()`` in a worker; ``fallback()`` (default: ``task()``) here
        once the pool cannot run it."""
        with self._lock:
            if self._usable and self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self._workers,
                    initializer=init_worker,
                    initargs=(self._compiled,),
                )
            pool = self._pool if self._usable else None
        if pool is not None:
            try:
                return pool.submit(task).result()
            except BrokenProcessPool as exc:
                with self._lock:
                    first, self._usable = self._usable, False
                if first:
                    log.warning(
                        "process pool broke (%s); computing in the parent process",
                        exc,
                    )
        return (fallback or task)()

    def close(self, wait: bool = True) -> None:
        """Shut the pool down; ``wait=False`` abandons running tasks and
        cancels queued ones (a timed-out batch must not wait for them)."""
        with self._lock:
            pool, self._pool, self._usable = self._pool, None, False
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=not wait)


class PayloadTask:
    """One parsed labeling request as a picklable zero-argument callable.

    Runs in a worker initialised by :func:`init_worker`: calling the task
    runs :func:`~repro.service.engine.compute` on ``request`` with the
    worker's comparator for it.  ``verify`` is the engine's mode.  With
    ``trace`` set, the worker records its own span tree and ships it home
    in the response under ``"_obs_trace"``, for the parent to graft.
    """

    __slots__ = ("request", "verify", "trace")

    def __init__(self, request, verify: str = "off", trace: bool = False) -> None:
        self.request = request
        self.verify = verify
        self.trace = trace

    def __call__(self) -> dict:
        from .engine import comparator_for, compute

        comparator = comparator_for(
            self.request, _WORKER["comparator"], _OVERLAYS, _OVERLAYS_LOCK
        )
        if not self.trace:
            return compute(self.request, comparator, self.verify)
        from ..obs.tracer import Trace

        trace = Trace(name="worker")
        trace.root.tags["pid"] = os.getpid()
        with trace.scope():
            response = compute(self.request, comparator, self.verify)
        response["_obs_trace"] = trace.root.to_dict(trace.root.start_s)
        return response
