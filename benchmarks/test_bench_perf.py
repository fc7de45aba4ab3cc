"""The memoization layer — cold vs warm labeling and cache hit ratios.

The hot-path caches (label interning, pairwise relations, the
synonym/hypernym predicates) exist so repeated labeling of the same
domain skips the quadratic Definition-1 work; the naming ladder itself
reruns on every pass.
This bench measures exactly that workload through
:func:`repro.perf.profile_labeling`: every domain labeled once cold and
``repeats`` times warm over one shared comparator, no response-cache
shortcuts (the full pipeline runs every time).

Artifacts:

* ``benchmarks/results/perf.txt`` — human-readable table;
* ``benchmarks/results/BENCH_perf.json`` — the machine-readable report
  (ops/sec, hit ratios, cold/warm wall time) future PRs diff against to
  track the perf trajectory.  Regenerate with
  ``repro profile -o benchmarks/results/BENCH_perf.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench import format_table, write_result
from repro.perf import profile_labeling

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: The warm/cold ratio the memos once had to reach.  The ratio is still
#: reported, but it is no longer asserted: it falls whenever cold naming
#: gets faster, which says nothing about the memos.  What is asserted
#: instead is that the warm passes miss no memo at all.
MIN_TOTAL_SPEEDUP = 3.0


def test_perf_report():
    report = profile_labeling(seed=0, repeats=3)

    rows = []
    for name, row in report["domains"].items():
        rows.append([
            name, f"{row['cold_ms']:.1f}", f"{row['warm_ms']:.1f}",
            f"{row['speedup']:.1f}x",
        ])
    totals = report["totals"]
    rows.append([
        "TOTAL", f"{totals['cold_ms']:.1f}", f"{totals['warm_ms']:.1f}",
        f"{totals['speedup']:.1f}x",
    ])
    caches = report["caches"]
    for cache_name in ("labels", "relations", "predicates"):
        snap = caches[cache_name]
        rows.append([
            f"cache: {cache_name}",
            f"{snap['hits']} hits",
            f"{snap['misses']} misses",
            f"{snap['hit_rate']:.1%}",
        ])

    table = format_table(
        ["domain / cache", "cold ms", "warm ms", "speedup / hit rate"],
        rows,
        title=("Memoization layer — cold vs warm labeling per domain "
               "(one shared comparator, full pipeline each run, seed 0) "
               f"and final cache hit ratios; warm throughput "
               f"{totals['warm_labelings_per_s']} labelings/s; speedup "
               f"reported, not asserted (once floored at {MIN_TOTAL_SPEEDUP}x); "
               f"warm-pass memo misses {sum(totals['warm_misses'].values())}"),
    )
    write_result("perf", table)

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_perf.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    # The acceptance criterion: once a domain has been labeled, repeating
    # it is answered entirely from the memos — the warm passes add no miss
    # to any of them, in any domain.
    for name, row in report["domains"].items():
        assert not any(row["warm_misses"].values()), (name, row)
    # The caches must actually be carrying the load, not sitting idle.
    assert caches["labels"]["hit_rate"] > 0.5
    assert caches["relations"]["hit_rate"] > 0.5
