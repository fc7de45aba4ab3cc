"""Perf instrumentation: the counters type, and the labeling profiler.

The naming algorithm is quadratic in pairwise label comparisons
(Definitions 1-3), and the service re-runs the same normalize -> morphy ->
synonymy/hypernymy chain for every tuple pair at every consistency level.
The memoization layer that amortizes that work lives next to each hot path
(:class:`repro.core.label.LabelAnalyzer`,
:class:`repro.core.semantics.SemanticComparator`; the lexicon under them is
an immutable table, :class:`repro.lexicon.compiled.CompiledLexicon`); this
module provides the *observability* for it:

* :class:`Counters` — named integers behind one lock.  Every count in
  ``GET /metrics`` comes from one: the memos above, the LRU caches and
  disk tier of :mod:`repro.service`, the engine, the admission queue and
  the HTTP server.
* :func:`with_hit_rate` — the one place ``hit_rate`` is derived from
  ``hits`` and ``misses``.
* :func:`profile_labeling` — the cold-vs-warm workload behind the
  ``repro profile`` CLI subcommand and ``benchmarks/test_bench_perf.py``;
  returns a JSON-ready report (the ``BENCH_perf.json`` artifact).

Counters are lock-guarded: a ``threading.Lock`` acquire on an uncontended
lock costs ~100ns — noise against even a memo dict hit's full call path —
and exact totals are part of the contract now that the labeling engine
sums counters across thread pools (``tests/test_perf.py`` hammers them
from 8 threads and asserts exactness).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

__all__ = [
    "Counters",
    "profile_labeling",
    "with_hit_rate",
]


class Counters:
    """Named integer counters; :meth:`snapshot` adds a derived ``hit_rate``.

    ``names`` are the counters a snapshot always shows (zero until first
    added to); :meth:`add` also accepts a name not declared up front.
    """

    __slots__ = ("_values", "_lock")

    def __init__(self, *names: str) -> None:
        self._values: defaultdict[str, int] = defaultdict(int, dict.fromkeys(names, 0))
        self._lock = threading.Lock()

    def add(self, name: str, n: int = 1) -> None:
        # ``with``, not acquire()/release(): a call returning from acquire()
        # may hand the GIL to another thread while the lock is held, and
        # under contention that convoys every adder behind it.
        with self._lock:
            self._values[name] += n

    def snapshot(self) -> dict:
        """A consistent, JSON-ready copy of every counter."""
        with self._lock:
            values = dict(self._values)
        return with_hit_rate(values)


def with_hit_rate(stats: dict) -> dict:
    """Set ``stats["hit_rate"]`` from its ``hits`` and ``misses``; return it.

    Hits over lookups, rounded to 4 places, 0.0 before the first lookup.
    A dict without both counts is returned unchanged.
    """
    if "hits" in stats and "misses" in stats:
        lookups = stats["hits"] + stats["misses"]
        stats["hit_rate"] = round(stats["hits"] / lookups, 4) if lookups else 0.0
    return stats


# ----------------------------------------------------------------------
# The cold-vs-warm labeling profile (``repro profile``, BENCH_perf.json).
# ----------------------------------------------------------------------


#: The comparator memos a warm labeling must answer from entirely.
_MEMOS = ("labels", "relations", "predicates")


def profile_labeling(
    domains=None,
    seed: int = 0,
    repeats: int = 3,
    comparator=None,
) -> dict:
    """Measure cold-vs-warm labeling over one shared comparator.

    For each domain the corpus is labeled ``repeats + 1`` times through
    :func:`repro.core.pipeline.label_corpus` with one long-lived
    :class:`~repro.core.semantics.SemanticComparator` — the first pass is
    *cold* (caches empty for that domain's vocabulary), the rest are *warm*
    (label analyses and pairwise relations answer from cache; the naming
    ladder itself reruns on every pass, since group naming keeps no memo).
    Dataset generation is excluded from the timings; only the merge +
    naming pipeline is measured.

    Returns a JSON-ready report: per-domain cold/warm latency and speedup,
    the misses the warm passes added to each comparator memo
    (``warm_misses``; zero when the memos carry the whole warm load),
    totals, and the comparator's final cache hit ratios.  This is exactly
    what ``repro profile -o BENCH_perf.json`` writes and what the perf
    benchmark asserts against.
    """
    from .core.semantics import SemanticComparator
    from .core.pipeline import label_corpus
    from .datasets.registry import DOMAINS, load_domain

    names = list(domains) if domains else list(DOMAINS)
    unknown = [n for n in names if n not in DOMAINS]
    if unknown:
        raise ValueError(f"unknown domains: {', '.join(unknown)}")
    repeats = max(1, int(repeats))
    comparator = comparator or SemanticComparator()

    def misses() -> dict[str, int]:
        return {
            cache: stats["misses"]
            for cache, stats in comparator.cache_stats().items()
            if cache in _MEMOS
        }

    per_domain: dict[str, dict] = {}
    total_cold = 0.0
    total_warm = 0.0
    total_warm_misses = dict.fromkeys(_MEMOS, 0)
    for name in names:
        durations: list[float] = []
        for run in range(repeats + 1):
            dataset = load_domain(name, seed=seed)
            start = time.perf_counter()
            label_corpus(
                dataset.interfaces,
                dataset.mapping,
                comparator=comparator,
                domain=name,
            )
            durations.append(time.perf_counter() - start)
            if run == 0:
                after_cold = misses()
        warm_misses = {
            cache: count - after_cold[cache] for cache, count in misses().items()
        }
        for cache, count in warm_misses.items():
            total_warm_misses[cache] += count
        cold_s = durations[0]
        warm_runs = durations[1:]
        warm_s = sum(warm_runs) / len(warm_runs)
        total_cold += cold_s
        total_warm += warm_s
        per_domain[name] = {
            "cold_ms": round(cold_s * 1000.0, 3),
            "warm_ms": round(warm_s * 1000.0, 3),
            "speedup": round(cold_s / warm_s, 2) if warm_s else 0.0,
            "warm_misses": warm_misses,
        }

    totals = {
        "cold_ms": round(total_cold * 1000.0, 3),
        "warm_ms": round(total_warm * 1000.0, 3),
        "speedup": round(total_cold / total_warm, 2) if total_warm else 0.0,
        "warm_labelings_per_s": (
            round(len(names) / total_warm, 1) if total_warm else 0.0
        ),
        "warm_misses": total_warm_misses,
    }
    return {
        "workload": "repeated label_corpus per domain, one shared comparator",
        "seed": seed,
        "repeats": repeats,
        "domains": per_domain,
        "totals": totals,
        "caches": comparator.cache_stats(),
    }
