"""Batch width + disk cache — what ``jobs`` buys, and warm start.

Three things are measured:

* **Batch width** — one batch of 6 fresh non-Job corpora (one per domain,
  new corpus seeds every round) through ``LabelingEngine.label_batch`` at
  sequential ``jobs=1`` and at ``jobs=2`` threads, over
  :data:`ROUNDS` interleaved rounds (the order alternates each round)
  after :data:`WARMUP_ROUNDS` untimed ones.  Each mode keeps one engine,
  as a server does.  The median and quartiles of each mode are recorded,
  with the median of the per-round ``jobs=2 / jobs=1`` ratios (both modes
  label the same corpora in a round).  Nothing is asserted: the pipeline
  holds the GIL, and the answer depends on the host.
* **All-domain sequential** — ``run_all_domains``, best of a few runs:
  the figure ``benchmarks/test_bench_obs.py`` re-times as its trace-off
  baseline (``batch.sequential_s``).
* **Warm start** — a cold engine labels every domain into a disk cache;
  a fresh engine against the same directory must serve the identical
  batch with **zero recomputations**.  That assertion is
  hardware-independent and always enforced.

Artifacts:

* ``benchmarks/results/parallel.txt`` — human-readable table;
* ``benchmarks/results/BENCH_parallel.json`` — machine-readable record
  (per-mode batch times, all-domain sequential time, CPU count, disk-cache
  warm restart counters) future PRs diff against.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

from repro.bench import format_table, write_result
from repro.datasets.registry import DOMAINS
from repro.experiment import run_all_domains
from repro.service.engine import LabelingEngine

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Timed and untimed rounds of the batch-width comparison.
ROUNDS = 14
WARMUP_ROUNDS = 2

#: The batch: one fresh corpus of each domain but Job, whose truncated
#: closure would set the time instead of the batch path.
BATCH_DOMAINS = [name for name in DOMAINS if name != "job"]

#: The modes compared, by ``jobs``.
MODES = (1, 2)

DOMAIN_PAYLOADS = [{"domain": name, "seed": 0} for name in DOMAINS]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _best_of(runs: int, fn) -> float:
    best = float("inf")
    for __ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _summary(samples_ms: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples_ms, n=4)
    return {"median_ms": round(median, 2), "q1_ms": round(q1, 2),
            "q3_ms": round(q3, 2)}


def _batch_width() -> dict[int, list[float]]:
    """Milliseconds per batch for each mode, interleaved round by round."""
    engines = {jobs: LabelingEngine(cache_size=0) for jobs in MODES}
    samples: dict[int, list[float]] = {jobs: [] for jobs in MODES}
    for round_no in range(WARMUP_ROUNDS + ROUNDS):
        batch = [{"domain": name, "seed": 5000 + round_no} for name in BATCH_DOMAINS]
        order = MODES if round_no % 2 == 0 else MODES[::-1]
        for jobs in order:
            start = time.perf_counter()
            results = engines[jobs].label_batch(batch, jobs=jobs)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            assert all(r["ok"] for r in results)
            if round_no >= WARMUP_ROUNDS:
                samples[jobs].append(elapsed_ms)
    return samples


def test_parallel_report(bench_quick, tmp_path):
    respondents = 3 if bench_quick else 11
    runs = 1 if bench_quick else 2
    cpus = _usable_cpus()

    samples = _batch_width()
    width = {f"jobs{jobs}": _summary(samples[jobs]) for jobs in MODES}
    ratio = statistics.median(b / a for a, b in zip(samples[1], samples[2]))

    sequential_s = _best_of(
        runs,
        lambda: run_all_domains(seed=0, respondent_count=respondents),
    )

    # Warm start: cold engine fills the disk cache, a restarted engine
    # must answer the same batch without a single pipeline run.
    cache_dir = tmp_path / "disk-cache"
    cold_engine = LabelingEngine(disk_cache=cache_dir)
    cold_start = time.perf_counter()
    cold_results = cold_engine.label_batch(DOMAIN_PAYLOADS, jobs=1)
    cold_s = time.perf_counter() - cold_start
    assert all(r["ok"] for r in cold_results)

    warm_engine = LabelingEngine(disk_cache=cache_dir)
    warm_start = time.perf_counter()
    warm_results = warm_engine.label_batch(DOMAIN_PAYLOADS, jobs=1)
    warm_s = time.perf_counter() - warm_start
    warm_stats = warm_engine.stats()

    report = {
        "workload": (
            f"label_batch of {len(BATCH_DOMAINS)} fresh non-Job corpora at "
            f"jobs=1 vs jobs=2 threads, {ROUNDS} interleaved rounds; "
            "run_all_domains seed 0 at jobs=1; plus disk-cache warm restart "
            "over the 7-domain batch"
        ),
        "cpus_usable": cpus,
        "bench_quick": bench_quick,
        "respondents": respondents,
        "batch_width": {
            "rounds": ROUNDS,
            "warmup_rounds": WARMUP_ROUNDS,
            "corpora": len(BATCH_DOMAINS),
            **width,
            "jobs2_over_jobs1": round(ratio, 3),
        },
        "batch": {"sequential_s": round(sequential_s, 3)},
        "disk_cache": {
            "domains": len(DOMAIN_PAYLOADS),
            "cold_s": round(cold_s, 3),
            "warm_s": round(warm_s, 3),
            "cold_computations": cold_engine.stats()["computations"],
            "warm_computations": warm_stats["computations"],
            "warm_disk_hits": warm_stats["disk"]["hits"],
            "load_ms": warm_stats["disk"]["load_ms"],
        },
    }

    rows = [
        [
            f"batch of {len(BATCH_DOMAINS)}, jobs={jobs}",
            f"{width[f'jobs{jobs}']['median_ms']:.1f} ms",
            f"quartiles {width[f'jobs{jobs}']['q1_ms']:.1f}-"
            f"{width[f'jobs{jobs}']['q3_ms']:.1f} ms"
            + (f", {ratio:.2f}x jobs=1" if jobs != 1 else ""),
        ]
        for jobs in MODES
    ] + [
        ["all domains sequential", f"{sequential_s * 1000:.0f} ms", ""],
        ["disk-cache cold run", f"{cold_s * 1000:.0f} ms",
         f"{report['disk_cache']['cold_computations']} computations"],
        ["disk-cache warm restart", f"{warm_s * 1000:.0f} ms",
         f"{report['disk_cache']['warm_computations']} computations, "
         f"{report['disk_cache']['warm_disk_hits']} disk hits"],
    ]
    table = format_table(
        ["path", "wall time (median)", "notes"],
        rows,
        title=(
            "Batch width + persistent warm start "
            f"({ROUNDS} rounds, {cpus} usable CPU(s)"
            + (", --bench-quick" if bench_quick else "")
            + ")"
        ),
    )
    write_result("parallel", table)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_parallel.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    # Warm restart recomputes nothing, on any hardware.
    assert warm_stats["computations"] == 0, warm_stats
    assert warm_stats["disk"]["hits"] == len(DOMAIN_PAYLOADS)
    assert all(r["cached"] is True for r in warm_results)
    for cold_response, warm_response in zip(cold_results, warm_results):
        assert cold_response["fingerprint"] == warm_response["fingerprint"]
        assert cold_response["field_labels"] == warm_response["field_labels"]
