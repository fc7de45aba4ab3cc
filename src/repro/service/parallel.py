"""Batch sizing: the shared ``--jobs`` default and the ``executor`` shim.

Every batch computes in the serving process: its items fan out over at
most ``jobs`` threads (:func:`repro.service.engine.execute_batch`), and each
cache miss's ``compute`` runs in the item's own thread, the path
``POST /label`` takes.

* :func:`default_jobs` — the documented CPU-derived default the ``batch``
  and ``serve`` CLI subcommands share.
* :func:`normalize_jobs` — the one check of a ``jobs`` knob.
* :func:`validate_executor` — ``repro serve --executor`` and
  ``LabelingEngine(executor=)`` still accept ``thread`` or ``process`` and
  reject anything else; both spellings compute in this process.  (A
  process pool built per batch was ~1.4x slower than labeling the batch
  sequentially, see ``docs/performance.md``, "Batches".)
"""

from __future__ import annotations

import os

__all__ = ["EXECUTORS", "default_jobs", "normalize_jobs", "validate_executor"]

#: The executor names ``serve --executor`` and the engine still accept.
EXECUTORS = ("thread", "process")

#: Cap on the CPU-derived default: more than 8 batch threads helps nobody.
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
    """``executor`` if it is one of :data:`EXECUTORS`, else ``ValueError``."""
    if executor not in EXECUTORS:
        raise ValueError(
            f"executor must be one of {', '.join(EXECUTORS)}; got {executor!r}"
        )
    return executor
