"""The labeling service: cache, engine, batch isolation, HTTP round trips."""

from __future__ import annotations

import json
import threading
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.datasets.registry as registry
import repro.service.engine as engine_mod
from repro.core.label import LabelAnalyzer
from repro.core.semantics import SemanticComparator
from repro.datasets.registry import DOMAINS, load_domain
from repro.lexicon.io import wordnet_from_dict
from repro.schema.serialize import corpus_to_dict
from repro.service.cache import LRUCache
from repro.service.client import ServiceClient, ServiceError
from repro.service.engine import (
    LabelingEngine,
    LabelingRequest,
    RequestError,
    execute_batch,
)
from repro.service.server import LabelingServer, MetricsRegistry

from .conftest import BOOK_FIRST_FIELD, book_document_with


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCache(capacity=2)
        assert cache.get("k") is None
        cache.put("k", 1)
        assert cache.get("k") == 1
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_eviction_is_lru(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh 'a'; 'b' is now coldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2

    def test_same_key_replaces(self):
        cache = LRUCache(capacity=4)
        cache.put("k", 1)
        cache.put("k", 2)
        assert cache.get("k") == 2
        assert len(cache) == 1 and cache.stats()["evictions"] == 0

    def test_zero_capacity_disables_storage(self):
        cache = LRUCache(capacity=0)
        cache.put("k", 1)
        assert cache.get("k") is None
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["size"] == 0

    def test_clear_keeps_counters(self):
        cache = LRUCache(capacity=4)
        cache.put("k", 1)
        cache.get("k")
        cache.clear()
        assert cache.get("k") is None
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["size"] == 0


class TestExecuteBatch:
    def test_results_in_submission_order(self):
        outcomes = execute_batch([lambda i=i: i * i for i in range(6)], jobs=3)
        assert [o.value for o in outcomes] == [0, 1, 4, 9, 16, 25]
        assert all(o.ok for o in outcomes)

    def test_partial_failure_is_isolated(self):
        def boom():
            raise RuntimeError("poisoned corpus")

        outcomes = execute_batch([lambda: "ok", boom, lambda: "also ok"], jobs=2)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "poisoned corpus" in outcomes[1].error
        assert outcomes[1].error_type == "internal"

    def test_timeout_degrades_to_error(self):
        def slow():
            time.sleep(5)
            return "never"

        outcomes = execute_batch([slow, lambda: "fast"], jobs=2, timeout=0.2)
        assert not outcomes[0].ok
        assert outcomes[0].error_type == "timeout"
        assert outcomes[1].ok and outcomes[1].value == "fast"

    def test_sequential_path_matches_parallel(self):
        tasks = [lambda i=i: i + 1 for i in range(5)]
        sequential = [o.value for o in execute_batch(tasks, jobs=1)]
        parallel = [o.value for o in execute_batch(tasks, jobs=4)]
        assert sequential == parallel

    def test_timeout_bounds_the_callers_wait(self):
        start = time.perf_counter()
        outcomes = execute_batch(
            [lambda: time.sleep(2), lambda: "fast"], jobs=2, timeout=0.2
        )
        assert time.perf_counter() - start < 1.0
        assert outcomes[0].error_type == "timeout"
        assert outcomes[1].value == "fast"


class TestEngine:
    @pytest.fixture(scope="class")
    def engine(self):
        return LabelingEngine(cache_size=8)

    def test_timeout_bounds_the_callers_wait(self, monkeypatch):
        real, release = engine_mod.label_corpus, threading.Event()

        def slow_label_corpus(*args, **kwargs):
            release.wait(timeout=2.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "label_corpus", slow_label_corpus)
        engine = LabelingEngine()
        start = time.perf_counter()
        try:
            with pytest.raises(TimeoutError):
                engine.label({"domain": "book", "timeout": 0.2})
            assert time.perf_counter() - start < 1.0
        finally:
            release.set()  # let the abandoned thread finish

    def test_domain_request(self, engine):
        response = engine.label({"domain": "job", "seed": 0})
        assert response["ok"] and response["cached"] is False
        assert response["classification"] in (
            "consistent", "weakly_consistent", "inconsistent"
        )
        assert response["stats"]["leaves"] > 0
        assert response["tree"]["children"]

    def test_repeat_request_hits_cache(self, engine):
        cold = engine.label({"domain": "auto", "seed": 0})
        warm = engine.label({"domain": "auto", "seed": 0})
        assert cold["cached"] is False and warm["cached"] is True
        assert warm["fingerprint"] == cold["fingerprint"]
        assert warm["field_labels"] == cold["field_labels"]
        assert engine.stats()["cache"]["hits"] >= 1

    def test_corpus_and_domain_requests_share_cache_key(self, engine):
        dataset = load_domain("hotels", seed=0)
        document = corpus_to_dict(dataset.interfaces, dataset.mapping)
        engine.label({"domain": "hotels", "seed": 0})
        via_corpus = engine.label({"corpus": document})
        assert via_corpus["cached"] is True

    def test_cached_response_is_isolated_copy(self, engine):
        first = engine.label({"domain": "job", "seed": 3})
        first["field_labels"].clear()
        first["tree"]["children"] = []
        second = engine.label({"domain": "job", "seed": 3})
        assert second["field_labels"] and second["tree"]["children"]

    def test_lint_flag_adds_findings(self, engine):
        response = engine.label({"domain": "airline", "seed": 0, "lint": True})
        assert isinstance(response["lint"], list)
        for finding in response["lint"]:
            assert {"check", "severity", "nodes", "message"} <= set(finding)

    def test_lint_flag_respected_across_cache_hits(self):
        engine = LabelingEngine(cache_size=8)
        plain = engine.label({"domain": "realestate", "seed": 0})
        assert "lint" not in plain
        linted = engine.label({"domain": "realestate", "seed": 0, "lint": True})
        assert linted["cached"] is True
        assert isinstance(linted["lint"], list)
        plain_again = engine.label({"domain": "realestate", "seed": 0})
        assert plain_again["cached"] is True
        assert "lint" not in plain_again

    def test_options_are_honored_and_keyed(self, engine):
        base = engine.label({"domain": "realestate", "seed": 0})
        ablated = engine.label(
            {"domain": "realestate", "seed": 0, "options": {"use_instances": False}}
        )
        assert ablated["fingerprint"] != base["fingerprint"]
        assert ablated["cached"] is False

    def test_batch_partial_failure(self, engine):
        responses = engine.label_batch(
            [
                {"domain": "job", "seed": 0},
                {"domain": "atlantis"},
                "not even an object",
                {"domain": "auto", "seed": 0},
            ],
            jobs=2,
        )
        assert [r.get("ok") for r in responses] == [True, False, False, True]
        assert responses[1]["error_type"] == "invalid_request"
        assert "atlantis" in responses[1]["error"]
        assert responses[2]["error_type"] == "invalid_request"


#: An engine clock that always reads 0, so ``elapsed_ms`` is 0.0 in every
#: slot and two runs over the same corpora can be compared byte for byte.
_STOPPED_CLOCK = types.SimpleNamespace(perf_counter=lambda: 0.0, time=time.time)


class TestFailureIsolation:
    """A failure inside the pipeline degrades its own slot and nothing else.

    The pipeline is deterministic, so a failing corpus fails the same way
    every time it is sent: each repeat recomputes and answers the same
    ``internal`` error.
    """

    @pytest.fixture(scope="class")
    def clean(self, comparator):
        """The 7-domain batch's slots from a run with no failure."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine_mod, "time", _STOPPED_CLOCK)
            engine = LabelingEngine(cache_size=0, comparator=comparator)
            return [
                json.dumps(entry).encode()
                for entry in engine.label_batch(_SEVEN_DOMAINS, jobs=2)
            ]

    @settings(max_examples=20, deadline=None)
    @given(failing=st.sets(st.sampled_from(sorted(DOMAINS))))
    def test_failing_items_degrade_in_their_slots(self, comparator, clean, failing):
        real = engine_mod.label_corpus

        def label_corpus(interfaces, mapping, **kwargs):
            if kwargs["domain"] in failing:
                raise RuntimeError(f"cannot label {kwargs['domain']}")
            return real(interfaces, mapping, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine_mod, "time", _STOPPED_CLOCK)
            patch.setattr(engine_mod, "label_corpus", label_corpus)
            engine = LabelingEngine(cache_size=0, comparator=comparator)
            entries = engine.label_batch(_SEVEN_DOMAINS, jobs=2)
        assert len(entries) == len(DOMAINS)
        for domain, entry, want in zip(DOMAINS, entries, clean):
            if domain in failing:
                assert entry == {
                    "ok": False,
                    "error": f"RuntimeError: cannot label {domain}",
                    "error_type": "internal",
                    "elapsed_ms": 0.0,
                }
            else:
                assert json.dumps(entry).encode() == want
        assert engine.stats()["errors"] == len(failing)

    def test_a_deterministic_failure_repeats_as_itself(self):
        # Car Rental seed 2 violates an oracle (an internal node takes a
        # label a leaf below it carries), so strict mode fails it every time.
        engine = LabelingEngine(verify="strict", cache_size=0)
        answers = []
        for _ in range(7):
            [entry] = engine.label_batch([{"domain": "carrental", "seed": 2}])
            entry.pop("elapsed_ms")
            answers.append(entry)
        assert answers == [answers[0]] * 7
        assert answers[0]["error_type"] == "internal"
        assert answers[0]["error"].startswith("OracleError: ")
        stats = engine.stats()
        assert (stats["computations"], stats["errors"]) == (7, 7)


_SEVEN_DOMAINS = [{"domain": domain, "seed": 0} for domain in DOMAINS]


def _mutate(response: dict) -> None:
    """Scribble over every nested part of a response a caller might touch."""
    response["tree"]["children"][0]["label"] = "MUTATED"
    response["tree"]["children"].append({"name": "extra"})
    response["field_labels"][next(iter(response["field_labels"]))] = "MUTATED"
    response["stats"]["truncated_groups"].append("MUTATED")
    response["options"]["enabled_rules"].clear()


class TestResponsesAliasNoCacheTier:
    """A response is the caller's own: mutating it never changes a later hit."""

    PAYLOAD = {"domain": "book", "seed": 1}

    @staticmethod
    def _same(hit: dict, reference: dict) -> bool:
        return _strip_timing({**hit, "cached": None}) == _strip_timing(
            {**reference, "cached": None}
        )

    def test_miss_and_memory_hits(self):
        engine = LabelingEngine(cache_size=4)
        miss = engine.label(self.PAYLOAD)
        reference = json.loads(json.dumps(miss))
        _mutate(miss)
        hit = engine.label(self.PAYLOAD)
        assert hit["cached"] is True and self._same(hit, reference)
        _mutate(hit)
        again = engine.label(self.PAYLOAD)
        assert self._same(again, reference)

    def test_disk_hit_after_restart(self, tmp_path):
        reference = LabelingEngine(cache_size=4, disk_cache=tmp_path).label(
            self.PAYLOAD
        )
        restarted = LabelingEngine(cache_size=4, disk_cache=tmp_path)
        from_disk = restarted.label(self.PAYLOAD)
        assert restarted.stats()["disk"]["hits"] == 1
        _mutate(from_disk)
        assert self._same(restarted.label(self.PAYLOAD), reference)  # memory
        # A cache-less engine reads the disk tier on every request.
        diskonly = LabelingEngine(cache_size=0, disk_cache=tmp_path)
        first = diskonly.label(self.PAYLOAD)
        _mutate(first)
        assert self._same(diskonly.label(self.PAYLOAD), reference)
        assert diskonly.stats()["disk"]["hits"] == 2

    def test_batch_repeats(self):
        engine = LabelingEngine(cache_size=4)
        results = engine.label_batch([self.PAYLOAD] * 3, jobs=2)
        reference = json.loads(json.dumps(results[0]))
        _mutate(results[0])
        _mutate(results[1])
        assert self._same(results[2], reference)
        assert self._same(engine.label(self.PAYLOAD), reference)


def _strip_timing(response: dict) -> dict:
    clean = json.loads(json.dumps(response))
    clean["stats"].pop("elapsed_ms", None)
    return clean


class TestTruncationReporting:
    def test_truncated_groups_in_response_and_metrics(self):
        engine = LabelingEngine(cache_size=8)
        job = engine.label({"domain": "job", "seed": 0})
        assert job["stats"]["truncated_groups"] == ["group:root"]
        assert engine.stats()["naming"] == {"truncated_closures": 1}

        hit = engine.label({"domain": "job", "seed": 0})
        assert hit["cached"] and hit["stats"]["truncated_groups"] == ["group:root"]
        airline = engine.label({"domain": "airline", "seed": 0})
        assert airline["stats"]["truncated_groups"] == []
        # Only computed responses count; hits and complete closures do not.
        assert engine.stats()["naming"] == {"truncated_closures": 1}


_BOOK = load_domain("book", seed=0)
_ONE_INTERFACE = corpus_to_dict(_BOOK.interfaces[:1], _BOOK.mapping)["interfaces"]

def _book_document_nested(levels: int) -> dict:
    """The Book seed-0 document with its first root wrapped in ``levels``
    more nodes."""
    document = book_document_with()
    root = document["interfaces"][0]["root"]
    for level in range(levels):
        root = {"name": f"nest-{level}", "children": [root]}
    document["interfaces"][0]["root"] = root
    return document


#: A tree 600 levels deep: a RecursionError in node_from_dict.  Too deep
#: for json.dumps, so over HTTP it is a body nested too deeply (see
#: TestContentLengthHandling) and test_malformed_body_is_400 leaves it out.
DEEP_BOOK = {"corpus": _book_document_nested(600)}

#: Bodies that used to escape validation as TypeError/KeyError or a
#: pipeline ValueError (HTTP 500), or were silently coerced into a 200.
MALFORMED_BODIES = [
    {"domain": {}},
    {"domain": []},
    {"domain": "hotels", "options": True},
    {"domain": "hotels", "lexicon": {"hypernyms": [[1, 2]]}},
    {"domain": "book", "options": {"enabled_rules": 5}},
    {"corpus": {"interfaces": _ONE_INTERFACE, "mapping": {}}},
    {"corpus": {"interfaces": _ONE_INTERFACE, "mapping": {"c": {}}}},
    # Coerced: lint findings returned, use_instances labeled as true, a 1 s
    # timeout, enabled_rules read as ["LI1"], an overlay key ignored.
    {"domain": "book", "lint": "no"},
    {"domain": "book", "options": {"use_instances": "false"}},
    {"domain": "book", "timeout": True},
    {"domain": "book", "options": {"enabled_rules": {"LI1": 1}}},
    {"domain": "book", "lexicon": {"foo": 1}},
    # OverflowError past the longest wait a thread supports.
    {"domain": "book", "timeout": 1e12},
    {"domain": "book", "timeout": 10**400},
    # Malformed corpus fields: an AttributeError or TypeError in compute,
    # or (a string of instances) three one-letter instances.
    {"corpus": book_document_with(BOOK_FIRST_FIELD + ("label",), 5)},
    {"corpus": book_document_with(BOOK_FIRST_FIELD + ("instances",), ["First", 5])},
    {"corpus": book_document_with(BOOK_FIRST_FIELD + ("instances",), "abc")},
    DEEP_BOOK,
]


class TestRequestValidation:
    def test_needs_corpus_or_domain(self):
        with pytest.raises(RequestError, match="exactly one"):
            LabelingRequest.from_payload({})
        with pytest.raises(RequestError, match="exactly one"):
            LabelingRequest.from_payload({"domain": "job", "corpus": {}})

    def test_unknown_domain(self):
        with pytest.raises(RequestError, match="unknown domain"):
            LabelingRequest.from_payload({"domain": "warehouse"})

    def test_bad_seed(self):
        with pytest.raises(RequestError, match="seed"):
            LabelingRequest.from_payload({"domain": "job", "seed": "zero"})

    def test_malformed_corpus(self):
        with pytest.raises(RequestError, match="malformed corpus"):
            LabelingRequest.from_payload(
                {"corpus": {"interfaces": [{"oops": True}], "mapping": {}}}
            )

    def test_empty_interfaces(self):
        with pytest.raises(RequestError, match="non-empty"):
            LabelingRequest.from_payload(
                {"corpus": {"interfaces": [], "mapping": {}}}
            )

    def test_bad_options(self):
        with pytest.raises(RequestError, match="max_level"):
            LabelingRequest.from_payload(
                {"domain": "job", "options": {"max_level": "psychic"}}
            )

    def test_bad_timeout(self):
        with pytest.raises(RequestError, match="timeout"):
            LabelingRequest.from_payload({"domain": "job", "timeout": -1})

    @pytest.mark.parametrize("timeout", [0, "nan", float("inf")])
    def test_non_positive_or_non_finite_timeout(self, timeout):
        with pytest.raises(RequestError, match="timeout"):
            LabelingRequest.from_payload({"domain": "job", "timeout": timeout})

    def test_bad_lexicon(self):
        with pytest.raises(RequestError, match="lexicon"):
            LabelingRequest.from_payload(
                {"domain": "job", "lexicon": {"hypernyms": [["only-one"]]}}
            )

    @pytest.mark.parametrize("payload", MALFORMED_BODIES)
    def test_malformed_body_is_a_request_error(self, payload):
        with pytest.raises(RequestError):
            LabelingEngine().label(payload)

    @pytest.mark.parametrize(
        "lexicon",
        [
            {"synsets": [[]]},
            {"synsets": [["ok"], [1]]},
            {"synsets": ["flat"]},
            {"synsets": {"a": "b"}},
            {"hypernyms": [["a", None]]},
        ],
    )
    def test_overlay_shape_is_checked(self, lexicon):
        with pytest.raises(RequestError, match="lexicon overlay"):
            LabelingRequest.from_payload({"domain": "job", "lexicon": lexicon})


def _labels(response: dict) -> dict:
    """A response without the fields that may differ between equal answers."""
    stripped = {k: v for k, v in response.items() if k != "cached"}
    stripped["stats"] = {
        k: v for k, v in response["stats"].items() if k != "elapsed_ms"
    }
    return stripped


class TestRequestKeyMemo:
    """The request key -> fingerprint memo that lets a hit skip the corpus."""

    @pytest.fixture(scope="class")
    def job_engine(self):
        engine = LabelingEngine()
        engine.label({"domain": "job"})
        return engine

    def test_memo_hit_equals_cold_and_cacheless_responses(self):
        engine = LabelingEngine()
        cacheless = LabelingEngine(cache_size=0)
        payloads = [{"domain": d, "seed": s} for d in DOMAINS for s in (0, 1)]
        cold = [engine.label(payload) for payload in payloads]
        for payload, first in zip(payloads, cold):
            before = engine.stats()["request_keys"]["hits"]
            hit = engine.label(payload)
            assert engine.stats()["request_keys"]["hits"] == before + 1
            assert hit["cached"] is True and first["cached"] is False
            assert {**hit, "cached": False} == first
            assert _labels(hit) == _labels(cacheless.label(payload))

    @pytest.mark.parametrize(
        "payload",
        [
            {"domain": "job", "seed": "zero"},
            {"domain": "job", "seed": True},
            {"domain": "job", "options": {"max_level": "psychic"}},
            {"domain": "job", "lexicon": {"hypernyms": [["only-one"]]}},
            {"domain": "job", "lexicon": ["not", "an", "object"]},
            {"domain": "job", "timeout": -1},
            {"domain": "job", "corpus": {}},
        ],
    )
    def test_invalid_payloads_are_rejected_after_a_valid_one(
        self, job_engine, payload
    ):
        with pytest.raises(RequestError):
            job_engine.label(payload)
        assert job_engine.stats()["request_keys"]["size"] == 1

    def test_corpus_payloads_are_never_memoized(self):
        engine = LabelingEngine()
        malformed = {"corpus": {"interfaces": [{"oops": True}], "mapping": {}}}
        for _ in range(2):
            with pytest.raises(RequestError, match="malformed corpus"):
                engine.label(malformed)
        dataset = load_domain("auto", seed=1)
        payload = {"corpus": corpus_to_dict(dataset.interfaces, dataset.mapping)}
        cold = engine.label(payload)
        hit = engine.label(json.loads(json.dumps(payload)))
        assert {**hit, "cached": False} == cold
        stats = engine.stats()["request_keys"]
        assert (stats["size"], stats["hits"], stats["misses"]) == (0, 0, 0)

    def test_overlay_key_is_the_fingerprinted_form(self):
        # Synsets given as sets (a library caller's overlay) key the memo
        # by the canonical form the fingerprint hashes.
        engine = LabelingEngine()
        overlay = {"synsets": [["keywords", "manufacturer"]]}
        cold = engine.label({"domain": "auto", "lexicon": overlay})
        hit = engine.label(
            {"domain": "auto", "lexicon": {"synsets": [{"manufacturer", "keywords"}]}}
        )
        assert engine.stats()["request_keys"]["hits"] == 1
        assert {**hit, "cached": False} == cold

    def test_default_seed_shares_one_entry(self):
        engine = LabelingEngine()
        engine.label({"domain": "job"})
        response = engine.label({"domain": "job", "seed": 0})
        assert response["cached"] is True
        stats = engine.stats()["request_keys"]
        assert (stats["size"], stats["hits"], stats["misses"]) == (1, 1, 1)

    def test_lint_and_timeout_share_the_entry(self):
        engine = LabelingEngine()
        engine.label({"domain": "auto"})
        engine.label({"domain": "auto", "lint": True, "timeout": 30})
        assert engine.stats()["request_keys"]["hits"] == 1

    @pytest.mark.parametrize("path", ["inline", "batch"])
    def test_memo_hit_after_eviction_recomputes(self, path, monkeypatch):
        # A memo hit whose result another request evicted before its lookup
        # (two requests racing on a full cache) builds its corpus and
        # recomputes, on a batch thread as on the calling one.
        engine = LabelingEngine(cache_size=1)
        first = engine.label({"domain": "airline"})
        # A corpus payload evicts airline's result but not its memo key.
        engine.label({"corpus": corpus_to_dict(_BOOK.interfaces, _BOOK.mapping)})
        built = []

        def recording_load_domain(*args, **kwargs):
            built.append(args)
            return load_domain(*args, **kwargs)

        monkeypatch.setattr(registry, "load_domain", recording_load_domain)
        if path == "batch":
            (again,) = engine.label_batch([{"domain": "airline"}], jobs=2)
        else:
            again = engine.label({"domain": "airline"})
        assert len(built) == 1
        assert engine.stats()["request_keys"]["hits"] == 1
        assert again["cached"] is False
        assert engine.stats()["computations"] == 3
        assert _labels(again) == _labels(first)

    def test_repeat_hits_never_build_the_corpus(self, monkeypatch):
        import repro.datasets.registry as registry

        engine = LabelingEngine()
        engine.label({"domain": "hotels", "seed": 1})
        calls = []
        real = registry.load_domain
        monkeypatch.setattr(
            registry, "load_domain",
            lambda *a, **k: calls.append(a) or real(*a, **k),
        )
        for _ in range(50):
            assert engine.label({"domain": "hotels", "seed": 1})["cached"]
        assert calls == []


class TestMetricsRegistry:
    def test_percentiles_from_ring_buffer(self):
        registry = MetricsRegistry(window=100)
        for ms in range(1, 101):
            registry.record("/label", 200, float(ms))
        snap = registry.snapshot()
        assert snap["requests_total"] == 100
        assert snap["latency"]["p50_ms"] == 50.0
        assert snap["latency"]["p99_ms"] == 99.0
        assert snap["latency"]["max_ms"] == 100.0

    def test_window_bounds_memory(self):
        registry = MetricsRegistry(window=10)
        for ms in range(1000):
            registry.record("/label", 200, float(ms))
        assert registry.snapshot()["latency"]["window"] == 10

    def test_nearest_rank_semantics(self):
        # Nearest-rank: rank = ceil(n * pct / 100), 1-indexed.
        ordered = [10.0, 20.0, 30.0, 40.0]
        assert MetricsRegistry._percentile(ordered, 50) == 20.0
        assert MetricsRegistry._percentile(ordered, 90) == 40.0
        assert MetricsRegistry._percentile(ordered, 99) == 40.0
        assert MetricsRegistry._percentile([7.5], 99) == 7.5
        assert MetricsRegistry._percentile([], 50) == 0.0
        # p99 only separates from max once the window exceeds 100 samples.
        big = [float(ms) for ms in range(1, 201)]
        assert MetricsRegistry._percentile(big, 99) == 198.0
        assert MetricsRegistry._percentile(big, 100) == 200.0

    def test_snapshot_reports_p50_p90_p99(self):
        registry = MetricsRegistry(window=200)
        for ms in range(1, 201):
            registry.record("/label", 200, float(ms))
        latency = registry.snapshot()["latency"]
        assert latency["p50_ms"] == 100.0
        assert latency["p90_ms"] == 180.0
        assert latency["p99_ms"] == 198.0
        assert latency["max_ms"] == 200.0

    def test_sorted_sample_cached_between_snapshots(self):
        registry = MetricsRegistry(window=100)
        for ms in (3.0, 1.0, 2.0):
            registry.record("/label", 200, ms)
        first = registry.snapshot()
        cached = registry._sorted
        assert cached == [1.0, 2.0, 3.0]
        # An idle re-poll reuses the sorted sample (same object)...
        assert registry.snapshot()["latency"] == first["latency"]
        assert registry._sorted is cached
        # ...and the next record invalidates it.
        registry.record("/label", 200, 0.5)
        assert registry._sorted is None
        assert registry.snapshot()["latency"]["p50_ms"] == 1.0


class TestHTTPService:
    @pytest.fixture(scope="class")
    def server(self):
        with LabelingServer(port=0, cache_size=16) as running:
            yield running

    @pytest.fixture(scope="class")
    def client(self, server):
        return ServiceClient(server.url, timeout=60)

    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["uptime_s"] >= 0

    def test_label_round_trip_and_cache_metrics(self, client):
        cold = client.label(domain="job", seed=0)
        assert cold["ok"] and cold["cached"] is False
        assert cold["tree"]["children"]

        hits_before = client.metrics()["engine"]["cache"]["hits"]
        warm = client.label(domain="job", seed=0)
        assert warm["cached"] is True
        assert warm["classification"] == cold["classification"]
        hits_after = client.metrics()["engine"]["cache"]["hits"]
        assert hits_after == hits_before + 1

    def test_label_raw_corpus_payload(self, client):
        dataset = load_domain("auto", seed=1)
        response = client.label_corpus(dataset.interfaces, dataset.mapping)
        assert response["ok"]
        assert response["stats"]["interfaces"] == len(dataset.interfaces)

    def test_invalid_request_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.label(domain="warehouse")
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error_type"] == "invalid_request"

    @pytest.mark.parametrize(
        "payload", [body for body in MALFORMED_BODIES if body is not DEEP_BOOK]
    )
    def test_malformed_body_is_400(self, client, payload):
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/label", payload)
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"]
        assert excinfo.value.payload["request_id"]

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_batch_isolates_bad_item(self, client):
        payload = client.batch(
            [{"domain": "job", "seed": 0}, {"domain": "atlantis"}], jobs=2
        )
        assert payload["count"] == 2
        assert payload["ok"] is False
        oks = [r.get("ok") for r in payload["results"]]
        assert oks == [True, False]

    @pytest.mark.parametrize(
        "fields",
        [
            {"jobs": -1},
            {"jobs": "2"},
            {"timeout": 0},
            {"timeout": -5},
            {"timeout": "nan"},
            {"jobs": True},
            {"jobs": 1.0},
            {"timeout": "5"},
            {"timeout": True},
            {"executor": "process"},
        ],
    )
    def test_batch_rejects_bad_jobs_and_timeout(self, client, fields):
        with pytest.raises(ServiceError) as excinfo:
            client.request(
                "POST", "/batch", {"requests": [{"domain": "job"}], **fields}
            )
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error_type"] == "invalid_request"

    def test_batch_jobs_beyond_the_item_count(self, client):
        payload = client.request(
            "POST", "/batch", {"requests": [{"domain": "book"}], "jobs": 10000}
        )
        assert payload["count"] == 1 and payload["results"][0]["ok"]

    def test_batch_jobs_never_exceed_the_server_jobs(self, monkeypatch, client_for):
        import repro.service.engine as engine_module

        pool_sizes = []

        class RecordingPool(engine_module.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                pool_sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(engine_module, "ThreadPoolExecutor", RecordingPool)
        requests = [{"domain": name, "seed": 0} for name in DOMAINS if name != "job"]
        with LabelingServer(port=0, jobs=2) as server:
            payload = client_for(server.url, timeout=60).request(
                "POST", "/batch", {"requests": requests, "jobs": 64}
            )
        assert payload["ok"] and payload["count"] == len(requests) == 6
        assert pool_sizes and max(pool_sizes) <= 2

    def test_metrics_shape(self, client):
        client.healthz()
        metrics = client.metrics()
        assert metrics["http"]["requests_total"] >= 1
        assert "/healthz" in metrics["http"]["by_endpoint"]
        latency = metrics["http"]["latency"]
        assert {"p50_ms", "p90_ms", "p99_ms", "max_ms", "window"} <= set(latency)
        assert metrics["engine"]["cache"]["capacity"] == 16


def _bare_comparator() -> SemanticComparator:
    """A comparator over a one-synset lexicon, unlike the default one."""
    return SemanticComparator(
        LabelAnalyzer(wordnet_from_dict({"synsets": [["zzz"]]}, extend_default=False))
    )


def _comparator_over(overlay: dict) -> SemanticComparator:
    """A comparator over the default lexicon plus ``overlay``."""
    return SemanticComparator(LabelAnalyzer(wordnet_from_dict(overlay)))


class TestEngineOwnLexicon:
    """An engine answers from its ``comparator=`` lexicon on every path."""

    def test_disk_cache_is_keyed_by_the_engine_lexicon(self, tmp_path):
        payload = {"domain": "carrental", "seed": 0}
        default = LabelingEngine(disk_cache=tmp_path)
        default.label(payload)
        bare = LabelingEngine(disk_cache=tmp_path, comparator=_bare_comparator())
        assert bare.engine_fingerprint() != default.engine_fingerprint()
        response = bare.label(payload)
        assert response["cached"] is False
        expected = LabelingEngine(comparator=_bare_comparator()).label(payload)
        assert _labels(response) == _labels(expected)

    def test_process_workers_use_the_engine_lexicon(self):
        # The "process" spelling has no workers: its batch threads label
        # with the engine's own lexicon, as a sequential batch does.
        payloads = [{"domain": "carrental", "seed": seed} for seed in range(3)]
        sequential = LabelingEngine(comparator=_bare_comparator()).label_batch(
            payloads, jobs=1
        )
        engine = LabelingEngine(
            comparator=_bare_comparator(), executor="process", jobs=2
        )
        process = engine.label_batch(payloads)
        assert [_labels(r) for r in process] == [_labels(r) for r in sequential]
        assert [_labels(r) for r in process] != [
            _labels(r) for r in LabelingEngine().label_batch(payloads, jobs=1)
        ]

    def test_broken_pool_computes_with_the_engine_lexicon(self, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no process can start")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", broken_pool)
        payloads = [{"domain": "carrental", "seed": seed} for seed in range(3)]
        thread = LabelingEngine(comparator=_bare_comparator()).label_batch(
            payloads, jobs=2
        )
        process = LabelingEngine(
            comparator=_bare_comparator(), executor="process"
        ).label_batch(payloads, jobs=2)
        assert all(r["ok"] for r in process)
        assert [_labels(r) for r in process] == [_labels(r) for r in thread]

    def test_empty_overlay_answers_from_the_engine_lexicon(self):
        # An empty overlay fingerprints like no overlay, so it must label
        # with the engine's lexicon too, or it poisons the shared entry.
        merged = {"synsets": [["keywords", "manufacturer"]]}
        payload = {"domain": "auto", "seed": 5}
        expected = LabelingEngine(comparator=_comparator_over(merged)).label(payload)
        assert _labels(expected) != _labels(LabelingEngine().label(payload))
        engine = LabelingEngine(comparator=_comparator_over(merged))
        first = engine.label({**payload, "lexicon": {}})
        second = engine.label(payload)
        assert second["cached"] is True
        assert _labels(first) == _labels(second) == _labels(expected)


class TestLintNodeDict:
    def test_lints_service_tree_payload(self, comparator):
        engine = LabelingEngine(cache_size=0)
        response = engine.label({"domain": "airline", "seed": 0, "lint": True})
        from repro.lint import lint_node_dict

        findings = lint_node_dict(response["tree"], comparator)
        assert len(findings) == len(response["lint"])

    def test_rejects_non_tree(self):
        from repro.lint import lint_node_dict

        with pytest.raises(ValueError, match="serialized schema node"):
            lint_node_dict({"not": "a tree"})


class TestClientErrorPaths:
    def test_connection_refused_raises_status_zero(self):
        # Bind-then-close gives a port nothing is listening on.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=2, retries=0)
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0
        assert excinfo.value.payload == {}
        assert "failed" in str(excinfo.value)

    def test_connection_failures_are_retried(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient(
            f"http://127.0.0.1:{port}", timeout=2, retries=2, backoff_s=0.01
        )
        with pytest.raises(ServiceError):
            client.healthz()
        assert client.last_attempts == 3  # the initial try + both retries

    def test_malformed_json_body_raises_status_zero(self):
        # A tiny HTTP server that answers 200 with a non-JSON body: the
        # client must surface an unparseable success as a ServiceError
        # rather than returning garbage.
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        class GarbageHandler(BaseHTTPRequestHandler):
            def do_GET(self):
                body = b"<html>definitely not json</html>"
                self.send_response(200)
                self.send_header("Content-Type", "text/html")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):  # noqa: A002
                pass

        httpd = HTTPServer(("127.0.0.1", 0), GarbageHandler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{httpd.server_address[1]}"
            client = ServiceClient(url, timeout=5, retries=0)
            with pytest.raises(ServiceError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 0
            assert "not valid JSON" in str(excinfo.value)
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_429_is_retried_honoring_retry_after(self):
        # A server that sheds the first two attempts with 429 + Retry-After
        # and then succeeds; the client must sleep what the server said
        # and deliver the eventual success.
        import json as json_module
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        hits = []

        class SheddingHandler(BaseHTTPRequestHandler):
            def do_GET(self):
                hits.append(time.monotonic())
                if len(hits) <= 2:
                    payload = {
                        "ok": False,
                        "error_type": "overloaded",
                        "retry_after": 0.08,
                    }
                    body = json_module.dumps(payload).encode()
                    self.send_response(429)
                    self.send_header("Retry-After", "0.080")
                else:
                    body = json_module.dumps({"status": "ok"}).encode()
                    self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):  # noqa: A002
                pass

        httpd = HTTPServer(("127.0.0.1", 0), SheddingHandler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{httpd.server_address[1]}"
            client = ServiceClient(url, timeout=5, retries=3, backoff_s=0.5)
            response = client.healthz()
            assert response == {"status": "ok"}
            assert client.last_attempts == 3
            # Both gaps honored the server's 0.08s Retry-After, not the
            # client's 0.5s default backoff.
            gaps = [b - a for a, b in zip(hits, hits[1:])]
            assert all(0.07 <= gap < 0.4 for gap in gaps), gaps
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_retry_after_capped_by_max_backoff(self):
        error = ServiceError(429, {"retry_after": 30.0}, "overloaded")
        client = ServiceClient("http://127.0.0.1:1", max_backoff_s=0.25)
        assert client._delay_for(error) == 0.25

    def test_non_retryable_status_is_not_retried(self):
        with LabelingServer(port=0) as server:
            client = ServiceClient(server.url, retries=3)
            with pytest.raises(ServiceError) as excinfo:
                client.label(domain="no-such-domain")
            assert excinfo.value.status == 400
            assert client.last_attempts == 1


class TestContentLengthHandling:
    """POST body framing: the server must never 500 (or hang) on a bad
    Content-Length — missing, zero, garbage, or absurdly large."""

    @pytest.fixture(scope="class")
    def server(self):
        with LabelingServer(port=0, cache_size=4) as running:
            yield running

    @staticmethod
    def _raw_post(server, headers: dict, body: bytes = b""):
        """POST with full control over the headers a client would normalize."""
        import http.client
        from urllib.parse import urlsplit

        parts = urlsplit(server.url)
        conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
        try:
            conn.putrequest("POST", "/label", skip_accept_encoding=True)
            for name, value in headers.items():
                conn.putheader(name, value)
            conn.endheaders()
            if body:
                conn.send(body)
            response = conn.getresponse()
            payload = json.loads(response.read())
            return response.status, payload
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "body",
        [
            b"[" * 2000,  # RecursionError in json.loads
            b'{"domain": "\xff"}',  # UnicodeDecodeError, not JSONDecodeError
        ],
        ids=["nested-too-deep", "not-utf8"],
    )
    def test_undecodable_body_is_400_not_500(self, server, body):
        status, payload = self._raw_post(
            server,
            {"Content-Type": "application/json", "Content-Length": str(len(body))},
            body,
        )
        assert status == 400
        assert payload["error_type"] == "invalid_request"
        assert "not valid JSON" in payload["error"]

    def test_missing_content_length_is_400(self, server):
        status, payload = self._raw_post(
            server, {"Content-Type": "application/json"}
        )
        assert status == 400
        assert payload["error_type"] == "invalid_request"
        assert "body required" in payload["error"]
        assert payload["request_id"]

    def test_zero_content_length_is_400(self, server):
        status, payload = self._raw_post(
            server,
            {"Content-Type": "application/json", "Content-Length": "0"},
        )
        assert status == 400
        assert "body required" in payload["error"]

    def test_garbage_content_length_is_400_not_500(self, server):
        status, payload = self._raw_post(
            server,
            {"Content-Type": "application/json", "Content-Length": "banana"},
        )
        assert status == 400
        assert payload["error_type"] == "invalid_request"
        assert "invalid Content-Length" in payload["error"]
        assert "'banana'" in payload["error"]

    def test_oversized_declared_length_is_413_without_reading(self, server):
        # Declare far more than MAX_BODY_BYTES but send nothing: the
        # server must answer 413 immediately instead of blocking on a
        # body that never arrives.
        declared = 64 * 1024 * 1024
        status, payload = self._raw_post(
            server,
            {
                "Content-Type": "application/json",
                "Content-Length": str(declared),
            },
        )
        assert status == 413
        assert payload["error_type"] == "payload_too_large"
        assert str(declared) in payload["error"]
        # The connection misbehavior did not wedge the server.
        assert ServiceClient(server.url, timeout=10).healthz()["status"] == "ok"


class TestClientErrorBodyShapes:
    """The retry loop must survive whatever JSON shape an error body has."""

    @staticmethod
    def _serve_one(status: int, body: bytes, headers: dict | None = None):
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                self.send_response(status)
                for name, value in (headers or {}).items():
                    self.send_header(name, value)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):  # noqa: A002
                pass

        httpd = HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        return httpd

    def test_json_array_error_body_does_not_crash_client(self):
        # A non-repro upstream may answer an error with a JSON array;
        # the client used to call .get on it and die with AttributeError.
        httpd = self._serve_one(500, b'["oops", "broken"]')
        try:
            url = f"http://127.0.0.1:{httpd.server_address[1]}"
            client = ServiceClient(url, timeout=5, retries=0)
            with pytest.raises(ServiceError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 500
            assert excinfo.value.payload == {}
            assert "oops" in str(excinfo.value)
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_http_date_retry_after_falls_back_to_backoff(self):
        # RFC 7231 allows Retry-After as an HTTP-date; float() on it used
        # to raise ValueError straight out of the retry loop.
        error = ServiceError(429, {}, "overloaded")
        error.retry_after_header = "Wed, 21 Oct 2026 07:28:00 GMT"
        client = ServiceClient("http://127.0.0.1:1", backoff_s=0.07)
        assert client._delay_for(error) == pytest.approx(0.07)

    def test_garbage_retry_after_payload_falls_back(self):
        error = ServiceError(429, {"retry_after": "soon-ish"}, "overloaded")
        client = ServiceClient("http://127.0.0.1:1", backoff_s=0.03)
        assert client._delay_for(error) == pytest.approx(0.03)

    def test_http_date_retry_after_is_retried_end_to_end(self):
        # 429 with only an HTTP-date Retry-After header must still be
        # retried (on the client's own backoff), not explode.
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        hits = []

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                hits.append(1)
                if len(hits) == 1:
                    body = b'{"ok": false, "error_type": "overloaded"}'
                    self.send_response(429)
                    self.send_header(
                        "Retry-After", "Wed, 21 Oct 2026 07:28:00 GMT"
                    )
                else:
                    body = b'{"status": "ok"}'
                    self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):  # noqa: A002
                pass

        httpd = HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        try:
            url = f"http://127.0.0.1:{httpd.server_address[1]}"
            client = ServiceClient(url, timeout=5, retries=2, backoff_s=0.01)
            assert client.healthz() == {"status": "ok"}
            assert client.last_attempts == 2
        finally:
            httpd.shutdown()
            httpd.server_close()
