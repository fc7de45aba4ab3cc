"""Service throughput — cold vs warm labeling, batch scaling across jobs.

The paper's algorithm was a one-shot batch step; the service layer exists
so the same pipeline can carry sustained traffic.  This bench quantifies
the two levers that layer adds:

* **result caching** — identical requests answered from the fingerprint-
  keyed LRU (cold pipeline run vs warm cache hit, requests/second both
  ways);
* **batch concurrency** — the seven-domain corpus labeled through the
  engine's batch executor at ``jobs = 1 / 2 / 4``, the path behind
  ``repro table6 --jobs`` and ``POST /batch``.
"""

from __future__ import annotations

import statistics
import time

from repro.bench import format_table, write_result
from repro.datasets import DOMAINS
from repro.service.engine import LabelingEngine


#: Timed batches per ``jobs`` setting; the scaling check compares medians.
BATCH_ROUNDS = 5


def _requests_for_all_domains() -> list[dict]:
    return [{"domain": name, "seed": 0} for name in DOMAINS]


def test_service_throughput_report():
    rows = []

    # Cold vs warm: one domain, repeated requests.
    engine = LabelingEngine(cache_size=32)
    cold_start = time.perf_counter()
    cold = engine.label({"domain": "hotels", "seed": 0})
    cold_s = time.perf_counter() - cold_start
    assert cold["cached"] is False

    warm_iterations = 50
    warm_start = time.perf_counter()
    for _ in range(warm_iterations):
        warm = engine.label({"domain": "hotels", "seed": 0})
        assert warm["cached"] is True
    warm_s = (time.perf_counter() - warm_start) / warm_iterations
    rows.append([
        "label hotels (cold pipeline)", f"{cold_s * 1000:.1f} ms",
        f"{1 / cold_s:.1f} req/s",
    ])
    rows.append([
        "label hotels (warm cache hit)", f"{warm_s * 1000:.2f} ms",
        f"{1 / warm_s:.0f} req/s",
    ])
    speedup = cold_s / warm_s
    rows.append(["cache speedup", f"{speedup:.0f}x", ""])

    # Batch scaling: all seven domains, cache disabled so every item runs
    # the pipeline, at increasing concurrency.  One wall-clock batch per
    # setting is at the mercy of the host's scheduler, so each setting runs
    # BATCH_ROUNDS times, in an order that rotates every round, and the
    # medians are compared.
    levels = (1, 2, 4)
    samples: dict[int, list[float]] = {jobs: [] for jobs in levels}
    for round_index in range(BATCH_ROUNDS):
        shift = round_index % len(levels)
        for jobs in levels[shift:] + levels[:shift]:
            batch_engine = LabelingEngine(cache_size=0)
            start = time.perf_counter()
            results = batch_engine.label_batch(_requests_for_all_domains(), jobs=jobs)
            samples[jobs].append(time.perf_counter() - start)
            assert all(r["ok"] for r in results)
    batch_times = {jobs: statistics.median(samples[jobs]) for jobs in levels}
    for jobs in levels:
        rows.append([
            f"batch 7 domains, jobs={jobs} (median of {BATCH_ROUNDS})",
            f"{batch_times[jobs] * 1000:.0f} ms",
            f"{7 / batch_times[jobs]:.1f} corpora/s",
        ])

    report = format_table(
        ["workload", "latency", "throughput"],
        rows,
        title=("Service — cold vs warm (cache-hit) labeling and batch "
               "scaling over the engine executor (seed 0)"),
    )
    write_result("service", report)

    # A cache hit must beat rerunning the pipeline by a wide margin, and
    # added workers must not make the batch slower than sequential by more
    # than scheduling noise.
    assert speedup > 3
    assert batch_times[4] <= batch_times[1] * 1.5


def test_bench_engine_cache_hit(benchmark):
    engine = LabelingEngine(cache_size=8)
    engine.label({"domain": "job", "seed": 0})  # prime

    def hit():
        return engine.label({"domain": "job", "seed": 0})

    result = benchmark(hit)
    assert result["cached"] is True


def test_bench_batch_jobs4(benchmark):
    def run():
        engine = LabelingEngine(cache_size=0)
        return engine.label_batch(_requests_for_all_domains(), jobs=4)

    results = benchmark(run)
    assert all(r["ok"] for r in results)
