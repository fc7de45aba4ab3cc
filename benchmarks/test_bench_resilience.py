"""Resilience overhead — labeling throughput fault-free vs under chaos.

Two sweeps over the same seven-domain batch with one shared comparator:

* **fault-free** — a plain engine, no plan, default breaker/retry: the
  price of having the resilience stack *wired but idle* (this is what
  production traffic pays);
* **chaos** — seeded fault plans at a 10% injection rate with retry
  healing, exactly the property-suite configuration: the price of
  actively absorbing faults.

Artifacts:

* ``benchmarks/results/resilience.txt`` — human-readable table;
* ``benchmarks/results/BENCH_resilience.json`` — machine-readable report
  (throughput both ways, overhead ratio, injected/recovered counts)
  future PRs diff against.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.bench import format_table, write_result
from repro.core.label import LabelAnalyzer
from repro.core.semantics import SemanticComparator
from repro.datasets.registry import DOMAINS
from repro.lexicon.data import build_default_wordnet
from repro.resilience import RetryPolicy
from repro.service.engine import LabelingEngine
from repro.testing.chaos import run_chaos_sweep

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Chaos rounds (each = all seven domains under a fresh seeded plan).
PLANS = 6
#: Injection probability per (spec, item): the property suite's setting.
RATE = 0.10
#: A 10%-fault sweep must stay within this factor of fault-free wall time
#: (includes baseline recomputation, retries and injected latency).
MAX_OVERHEAD = 12.0


def test_resilience_overhead_report():
    comparator = SemanticComparator(LabelAnalyzer(build_default_wordnet()))
    payloads = [{"domain": name, "seed": 0} for name in sorted(DOMAINS)]
    retry = RetryPolicy(base_delay_s=0.001, max_delay_s=0.005)

    # Warm the comparator once so both measurements see hot memos.
    LabelingEngine(cache_size=0, comparator=comparator).label_batch(payloads)

    start = time.perf_counter()
    for _round in range(PLANS):
        engine = LabelingEngine(cache_size=0, comparator=comparator)
        responses = engine.label_batch(payloads, jobs=2)
        assert all(r["ok"] for r in responses)
    plain_s = time.perf_counter() - start
    plain_items = PLANS * len(payloads)

    start = time.perf_counter()
    report = run_chaos_sweep(
        plans=PLANS,
        seed=0,
        rate=RATE,
        jobs=2,
        comparator=comparator,
        latency_s=0.001,
        retry=retry,
    )
    chaos_s = time.perf_counter() - start

    assert report["ok"], report["anomalies"]
    plain_rate = plain_items / plain_s if plain_s else 0.0
    chaos_rate = report["items"] / chaos_s if chaos_s else 0.0
    overhead = chaos_s / plain_s if plain_s else 0.0

    result = {
        "plans": PLANS,
        "rate": RATE,
        "items_per_sweep": len(payloads),
        "fault_free": {
            "wall_s": round(plain_s, 4),
            "items": plain_items,
            "items_per_s": round(plain_rate, 2),
        },
        "chaos": {
            "wall_s": round(chaos_s, 4),
            "items": report["items"],
            "items_per_s": round(chaos_rate, 2),
            "ok_items": report["ok_items"],
            "failed_items": report["failed_items"],
            "recovered_items": report["recovered_items"],
            "identical_items": report["identical_items"],
            "injected_faults": report["injected_faults"],
        },
        "overhead_x": round(overhead, 3),
    }

    table = format_table(
        ["sweep", "wall s", "items", "items/s", "notes"],
        [
            [
                "fault-free", f"{plain_s:.3f}", str(plain_items),
                f"{plain_rate:.1f}", "idle resilience stack",
            ],
            [
                f"chaos {RATE:.0%}", f"{chaos_s:.3f}", str(report["items"]),
                f"{chaos_rate:.1f}",
                (
                    f"{report['injected_faults']} faults injected, "
                    f"{report['recovered_items']} items healed, "
                    f"{report['failed_items']} degraded"
                ),
            ],
        ],
        title=(
            "Resilience stack — seven-domain batch throughput, fault-free vs "
            f"{RATE:.0%} seeded chaos ({PLANS} plans, retry healing, shared "
            f"comparator); overhead {overhead:.2f}x"
        ),
    )
    write_result("resilience", table)

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_resilience.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )

    # Acceptance: chaos absorbed without anomalies, with bounded overhead,
    # and the machinery demonstrably engaged.
    assert report["injected_faults"] > 0
    assert report["identical_items"] == report["ok_items"]
    assert overhead <= MAX_OVERHEAD, result
