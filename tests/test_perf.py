"""The memoization layer: counters, invalidation, and cached == uncached.

Covers the perf instrumentation primitives (:mod:`repro.perf`), the
lexicon-mutation invalidation discipline that every cache in the hierarchy
follows, the correctness contract of the relation memos (cached answers
must be exactly the uncached ones), and the comparator sharing the
labeling engine does across requests with the same lexicon overlay.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.label import LabelAnalyzer
from repro.core.semantics import LabelRelation, SemanticComparator
from repro.datasets.registry import DOMAINS, load_domain
from repro.lexicon.data import build_default_wordnet
from repro.perf import Counters
from repro.service.engine import LabelingEngine, LabelingRequest


# ----------------------------------------------------------------------
# Instrumentation primitives.
# ----------------------------------------------------------------------


def test_counters_snapshot_derives_hit_rate():
    counters = Counters("hits", "misses", "evictions")
    # Declared counters show as zero; no lookups yet means a 0.0 rate.
    assert counters.snapshot() == {
        "hits": 0, "misses": 0, "evictions": 0, "hit_rate": 0.0,
    }
    counters.add("hits")
    counters.add("hits")
    counters.add("misses")
    counters.add("evictions", 5)
    assert counters.snapshot() == {
        "hits": 2, "misses": 1, "evictions": 5, "hit_rate": round(2 / 3, 4),
    }
    # An undeclared name is counted too; a snapshot without both hits and
    # misses has no rate.
    named = Counters()
    named.add("/label", 3)
    assert named.snapshot() == {"/label": 3}


def test_cache_counter_exact_under_concurrent_hammer():
    """8 threads hammering one counter must lose no increment.

    The counters aggregate across thread-pool batch workers; exact totals
    are the contract.  A short switch interval makes a lost update likely
    if the increment were not under the lock.
    """
    import sys
    import threading

    counters = Counters("hits", "misses", "evictions")
    rounds = 2500
    workers = 8

    def hammer():
        for __ in range(rounds):
            counters.add("hits")
            counters.add("misses")
            counters.add("evictions", 2)

    threads = [threading.Thread(target=hammer) for __ in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    snap = counters.snapshot()
    assert snap["hits"] == workers * rounds
    assert snap["misses"] == workers * rounds
    assert snap["evictions"] == 2 * workers * rounds
    assert snap["hit_rate"] == 0.5


def test_engine_semantics_sum_recomputes_hit_rate():
    """``engine.stats()`` sums each memo section over every comparator and
    derives the rate from the sums, not by adding the rates."""
    engine = LabelingEngine(cache_size=0)
    engine.label({"domain": "auto", "seed": 0})
    engine.label({"domain": "auto", "seed": 0})
    engine.label({"domain": "auto", "seed": 0,
                  "lexicon": {"synsets": [["qux", "zot"]]}})
    semantics = engine.stats()["semantics"]
    assert semantics["comparators"] == 2
    parts = [engine.comparator.cache_stats(),
             *(c.cache_stats() for c in engine._overlay_comparators.values())]
    for section in ("labels", "relations", "predicates"):
        hits = sum(part[section]["hits"] for part in parts)
        misses = sum(part[section]["misses"] for part in parts)
        assert semantics[section]["hits"] == hits
        assert semantics[section]["misses"] == misses
        assert semantics[section]["size"] == sum(part[section]["size"] for part in parts)
        assert semantics[section]["hit_rate"] == round(hits / (hits + misses), 4)


# ----------------------------------------------------------------------
# A builder's own queries see its edits (they hold no memo).
# ----------------------------------------------------------------------


def test_wordnet_mutation_invalidates_relation_memos():
    wn = build_default_wordnet()
    # Ask first, with a negative answer on fresh vocabulary.
    assert not wn.are_synonyms("blarg", "fnord")
    assert not wn.is_hypernym("blarg", "fnord")
    wn.add_synset(["blarg", "fnord"])
    # A stale answer would still be False here.
    assert wn.are_synonyms("blarg", "fnord")
    wn.add_hypernym("blarg", "qux")
    assert wn.is_hypernym("blarg", "qux")


def test_wordnet_mutation_invalidates_base_form_memo():
    wn = build_default_wordnet()
    assert wn.lemma_base("blargs") == "blargs"  # unknown: morphy leaves it
    wn.add_synset(["blarg"])
    assert wn.lemma_base("blargs") == "blarg"


# ----------------------------------------------------------------------
# Label analysis cache.
# ----------------------------------------------------------------------


def test_labels_intern_on_canonical_identity():
    analyzer = LabelAnalyzer(build_default_wordnet())
    a = analyzer.label("Day/Time")
    b = analyzer.label("Day & Time")
    # Same case-folded display form: the step-2 analysis runs once.
    assert a.tokens is b.tokens


def test_interned_labels_are_repeat_cache_hits():
    analyzer = LabelAnalyzer(build_default_wordnet())
    analyzer.label("Departure City")
    hits_before = analyzer.counter.snapshot()["hits"]
    analyzer.label("Departure City")
    assert analyzer.counter.snapshot()["hits"] == hits_before + 1


# ----------------------------------------------------------------------
# Cached memo answers == uncached ones (property-style).
# ----------------------------------------------------------------------


def _corpus_labels(domain: str, seed: int) -> list[str]:
    dataset = load_domain(domain, seed=seed)
    texts: list[str] = []
    for cluster in dataset.mapping.clusters:
        texts.extend(cluster.labels())
    return sorted(set(texts))


@pytest.mark.parametrize(
    "domain,seed",
    [("airline", 0), ("hotels", 1), ("auto", 2), ("book", 3), ("job", 4),
     ("realestate", 5), ("carrental", 6)],
)
def test_cached_relation_between_matches_uncached(domain, seed):
    texts = _corpus_labels(domain, seed)
    cached = SemanticComparator()
    reference = SemanticComparator()  # its memos stay unused
    rng = random.Random(seed)
    pairs = [
        (rng.choice(texts), rng.choice(texts)) for __ in range(300)
    ]
    for a, b in pairs:
        expected = reference._relation_uncached(a, b)
        assert cached.relation_between(a, b) is expected
        # Second lookup is the cache hit — and the reverse direction often a
        # derived entry; both must still agree with the ladder.
        assert cached.relation_between(a, b) is expected
        assert cached.relation_between(b, a) is reference._relation_uncached(b, a)
        # The hypernym memo answers its uncached form, first and repeat.
        for first, second in ((a, b), (b, a)):
            expected_hypernym = reference._hypernym_uncached(first, second)
            assert cached.hypernym(first, second) is expected_hypernym
            assert cached.hypernym(first, second) is expected_hypernym
        # synonym keeps no memo: it is symmetric, and below equality the
        # ladder's verdict is exactly synonym's.
        assert cached.synonym(a, b) is cached.synonym(b, a)
        if expected <= LabelRelation.SYNONYM:
            assert cached.synonym(a, b) is (expected is LabelRelation.SYNONYM)
    assert cached.relation_counter.snapshot()["hits"] > 0
    assert cached.predicate_counter.snapshot()["hits"] > 0


def test_derived_predicates_match_relation_ladder():
    texts = _corpus_labels("job", 0)
    comparator = SemanticComparator()
    rng = random.Random(7)
    for __ in range(200):
        a, b = rng.choice(texts), rng.choice(texts)
        rel = comparator.relation_between(a, b)
        assert comparator.similar(a, b) == (rel >= LabelRelation.SYNONYM)
        assert comparator.at_least_as_general(a, b) == (
            rel >= LabelRelation.HYPERNYM
        )


def test_a_miss_leaves_no_naming_state_behind():
    """Labeling fresh corpora keeps no per-corpus naming state.

    The lexical memos (label analyses, pairwise relations, predicates) do
    grow with fresh vocabulary; they have their own bound and their tables
    resize in steps, so their allocations are filtered out.  Everything
    else a miss builds (group relations, partitions, solutions, responses)
    must be freed once the response is out.
    """
    import gc
    import tracemalloc

    domains = list(DOMAINS)
    engine = LabelingEngine(cache_size=0)
    for index, domain in enumerate(domains):
        engine.label({"domain": domain, "seed": 1000 + index})
    lexical_memos = [
        tracemalloc.Filter(False, pattern)
        for pattern in (
            "*/repro/core/semantics.py", "*/repro/core/label.py",
            "*/repro/lexicon/*",
        )
    ]
    corpora = 2 * len(domains)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(lexical_memos)
        for index in range(corpora):
            domain = domains[index % len(domains)]
            engine.label({"domain": domain, "seed": 5000 + index})
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(lexical_memos)
    finally:
        tracemalloc.stop()
    grown = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert grown < corpora * 8 * 1024


def test_warm_labeling_is_byte_identical(tmp_path):
    """End to end: a warm repeat labeling serializes identically to cold."""
    engine = LabelingEngine(cache_size=0)  # bypass the response LRU
    payload = {"domain": "hotels", "seed": 0}
    cold = engine.label(payload)
    warm = engine.label(payload)
    for response in (cold, warm):
        response["stats"].pop("elapsed_ms")
        response.pop("cached", None)
    assert json.dumps(cold, sort_keys=True) == json.dumps(warm, sort_keys=True)


# ----------------------------------------------------------------------
# Engine comparator sharing (satellite 2) and /metrics aggregation.
# ----------------------------------------------------------------------


def _request(payload) -> LabelingRequest:
    return LabelingRequest.from_payload(payload)


def test_engine_shares_comparator_per_overlay():
    engine = LabelingEngine(cache_size=0)
    overlay = {"synsets": [["blarg", "fnord"]]}
    r1 = _request({"domain": "auto", "seed": 0, "lexicon": overlay})
    r2 = _request({"domain": "auto", "seed": 1, "lexicon": overlay})
    assert engine._comparator_for(r1) is engine._comparator_for(r2)
    other = _request(
        {"domain": "auto", "seed": 0, "lexicon": {"synsets": [["qux", "zot"]]}}
    )
    assert engine._comparator_for(other) is not engine._comparator_for(r1)


def test_engine_overlay_comparators_are_bounded():
    engine = LabelingEngine(cache_size=0)
    for i in range(engine.OVERLAY_COMPARATORS + 3):
        request = _request(
            {"domain": "auto", "seed": 0,
             "lexicon": {"synsets": [[f"word{i}", f"term{i}"]]}}
        )
        engine._comparator_for(request)
    assert len(engine._overlay_comparators) == engine.OVERLAY_COMPARATORS


def test_engine_keeps_one_default_comparator_across_threads():
    import threading

    engine = LabelingEngine(cache_size=0)
    domains = ["airline", "auto", "book", "job", "realestate", "carrental",
               "hotels"]
    for i in range(20):
        thread = threading.Thread(
            target=engine.label,
            args=({"domain": domains[i % 7], "seed": i // 7},),
        )
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
    stats = engine.stats()
    assert stats["computations"] == 20
    assert stats["semantics"]["comparators"] == 1


def test_shared_default_comparator_under_concurrent_threads():
    """Threads racing on the one default comparator get the sequential
    answers: a lost or torn memo update would change a labeling."""
    import sys
    import threading

    from repro.testing import canonical_response

    payloads = [{"domain": d, "seed": s}
                for d in ("airline", "auto", "book") for s in (0, 1)]
    expected = [canonical_response(LabelingEngine(cache_size=0).label(p))
                for p in payloads]
    engine = LabelingEngine(cache_size=0)
    results: dict = {}

    def work(offset):
        for step in range(len(payloads)):
            index = (offset + step) % len(payloads)
            results[offset, index] = canonical_response(
                engine.label(payloads[index])
            )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 6 * len(payloads)
    for (_offset, index), response in results.items():
        assert response == expected[index]
    assert engine.stats()["semantics"]["comparators"] == 1


def test_engine_stats_expose_semantics_caches():
    engine = LabelingEngine(cache_size=0)
    engine.label({"domain": "auto", "seed": 0})
    engine.label({"domain": "auto", "seed": 0})
    semantics = engine.stats()["semantics"]
    assert semantics["comparators"] == 1
    assert semantics["relations"]["hits"] > 0
    assert 0.0 <= semantics["labels"]["hit_rate"] <= 1.0
    # The compiled lexicon has no memo to report: comparator caches only.
    assert set(semantics) == {
        "labels", "relations", "predicates",
        "comparators", "overlay_comparators",
    }


# ----------------------------------------------------------------------
# The profile CLI (ties the report format down).
# ----------------------------------------------------------------------


def test_profile_cli_writes_report(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "BENCH_perf.json"
    code = main([
        "profile", "--domains", "auto", "--repeats", "1", "-o", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "TOTAL" in printed and "cache hit rates" in printed
    report = json.loads(out.read_text())
    assert set(report) >= {"workload", "domains", "totals", "caches"}
    assert report["domains"]["auto"]["cold_ms"] > 0
    assert report["caches"]["relations"]["hits"] >= 0


def test_profile_rejects_unknown_domain():
    from repro.perf import profile_labeling

    with pytest.raises(ValueError, match="unknown domains"):
        profile_labeling(domains=["nope"])


def test_bench_perf_smoke(tmp_path, monkeypatch):
    """The perf benchmark runner must keep working (satellite: no rot).

    Executes ``benchmarks/test_bench_perf.py`` with its artifacts redirected
    to a temp dir, so the zero-warm-miss assertion and the BENCH_perf.json
    shape are exercised on every tier-1 run.
    """
    import importlib.util
    from pathlib import Path

    bench_path = (
        Path(__file__).resolve().parents[1] / "benchmarks" / "test_bench_perf.py"
    )
    spec = importlib.util.spec_from_file_location("bench_perf_smoke", bench_path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench, "RESULTS_DIR", tmp_path)
    monkeypatch.setattr(
        bench,
        "write_result",
        lambda name, content: (tmp_path / f"{name}.txt").write_text(content),
    )
    bench.test_perf_report()
    report = json.loads((tmp_path / "BENCH_perf.json").read_text())
    assert report["totals"]["warm_misses"] == dict.fromkeys(
        ("labels", "relations", "predicates"), 0
    )
    assert report["totals"]["speedup"] > 0
    assert (tmp_path / "perf.txt").read_text().startswith("Memoization layer")
