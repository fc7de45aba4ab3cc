"""Fault injection, retry, breaker, admission, cache integrity — and chaos.

The property suite at the bottom runs 200+ seeded fault plans through the
full engine/batch stack over small synthetic corpora and asserts the
degradation contract on every one: batch responses stay well-formed, no
item is silently dropped, and fault-free (or healed) items are
byte-identical to a no-fault run.  A smaller smoke sweep exercises all
seven seed domains.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core.label import LabelAnalyzer
from repro.core.semantics import SemanticComparator
from repro.lexicon.data import build_default_wordnet
from repro.resilience import (
    INJECTION_POINTS,
    AdmissionController,
    BreakerPolicy,
    CircuitBreaker,
    CircuitOpenError,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    OverloadedError,
    RetryPolicy,
    TransientFault,
    active_scope,
    fault_scope,
    maybe_inject,
)
from repro.schema.serialize import corpus_to_dict
from repro.service.cache import LRUCache, ResultCache, json_bytes
from repro.service.engine import LabelingEngine
from repro.testing.chaos import run_chaos_sweep
from repro.testing.oracles import canonical_response

from .conftest import build_group_corpus

#: A backoff curve that keeps the suite fast without changing semantics.
FAST_RETRY = RetryPolicy(base_delay_s=0.0005, max_delay_s=0.002)


@pytest.fixture(scope="module")
def chaos_comparator():
    """A module-private comparator, so its caches start cold here."""
    return SemanticComparator(LabelAnalyzer(build_default_wordnet()))


def small_corpus_payloads() -> list[dict]:
    """Three little corpora (the paper's table shapes) as request payloads."""
    table2 = {
        "aa": {"c_adult": "Adults", "c_child": "Children"},
        "ba": {"c_adult": "Adult", "c_child": "Child", "c_infant": "Infant"},
        "ca": {"c_senior": "Seniors", "c_adult": "Adults", "c_child": "Children"},
    }
    table3 = {
        "100auto": {"c_state": "State", "c_city": "City"},
        "ads": {"c_state": "State", "c_city": "City"},
        "cars": {"c_zip": "Zip Code", "c_distance": "Distance"},
    }
    table4 = {
        "aa": {"c_stops": "NonStop", "c_airline": "Choose an Airline"},
        "msn": {"c_class": "Class", "c_airline": "Airline"},
        "alldest": {"c_class": "Class of Ticket", "c_airline": "Preferred Airline"},
    }
    payloads = []
    for rows, clusters in (
        (table2, ["c_senior", "c_adult", "c_child", "c_infant"]),
        (table3, ["c_state", "c_city", "c_zip", "c_distance"]),
        (table4, ["c_stops", "c_class", "c_airline"]),
    ):
        interfaces, mapping = build_group_corpus(rows, clusters)
        payloads.append({"corpus": corpus_to_dict(interfaces, mapping)})
    return payloads


# ----------------------------------------------------------------------
# FaultPlan: deterministic selection.
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_selection_is_deterministic(self):
        def run() -> list[tuple[str, str]]:
            plan = FaultPlan(
                [FaultSpec(point="engine.execute", kind="error", rate=0.5,
                           max_fires=None)],
                seed=7,
            )
            fired = []
            for key in (f"k{i}" for i in range(40)):
                hit = plan.fires("engine.execute", key)
                if hit is not None:
                    fired.append((hit[1].point, hit[1].key))
            return fired

        first, second = run(), run()
        assert first == second
        assert 0 < len(first) < 40  # rate 0.5 selects some, not all

    def test_selection_independent_of_call_order(self):
        def fired_keys(keys) -> set[str]:
            plan = FaultPlan(
                [FaultSpec(point="cache.get", kind="corrupt", rate=0.4,
                           max_fires=None)],
                seed=3,
            )
            return {k for k in keys if plan.fires("cache.get", k)}

        keys = [f"key-{i}" for i in range(30)]
        assert fired_keys(keys) == fired_keys(reversed(keys))

    def test_rate_bounds(self):
        always = FaultPlan(
            [FaultSpec(point="pipeline.merge", kind="latency", rate=1.0,
                       max_fires=None)]
        )
        never = FaultPlan(
            [FaultSpec(point="pipeline.merge", kind="latency", rate=0.0)]
        )
        assert all(always.fires("pipeline.merge", f"k{i}") for i in range(10))
        assert not any(never.fires("pipeline.merge", f"k{i}") for i in range(10))

    def test_max_fires_budget_heals(self):
        plan = FaultPlan(
            [FaultSpec(point="engine.execute", kind="error", rate=1.0,
                       max_fires=2)]
        )
        hits = [plan.fires("engine.execute", "same-key") for _ in range(4)]
        assert [h is not None for h in hits] == [True, True, False, False]
        # Budgets are per key: a different key gets its own two.
        assert plan.fires("engine.execute", "other-key") is not None

    def test_wrong_point_never_fires(self):
        plan = FaultPlan(
            [FaultSpec(point="engine.execute", kind="error", rate=1.0)]
        )
        assert plan.fires("lexicon.query", "k") is None

    def test_wildcard_point(self):
        plan = FaultPlan([FaultSpec(point="*", kind="latency", rate=1.0,
                                    max_fires=None)])
        for point in INJECTION_POINTS:
            assert plan.fires(point, "k") is not None

    def test_random_plan_is_reproducible(self):
        a, b = FaultPlan.random(11, rate=0.2), FaultPlan.random(11, rate=0.2)
        assert [(s.point, s.kind) for s in a.specs] == [
            (s.point, s.kind) for s in b.specs
        ]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(point="engine.execute", kind="explode")
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(point="engine.execute", kind="error", rate=1.5)

    def test_stats_accounting(self):
        plan = FaultPlan(
            [FaultSpec(point="engine.execute", kind="error", rate=1.0,
                       max_fires=None)],
            seed=5,
        )
        for i in range(3):
            plan.fires("engine.execute", f"k{i}")
        stats = plan.stats()
        assert stats["injected"] == 3
        assert stats["by_kind"] == {"error": 3}
        assert stats["by_point"] == {"engine.execute": 3}


# ----------------------------------------------------------------------
# Fault scope + maybe_inject.
# ----------------------------------------------------------------------


class TestMaybeInject:
    def test_no_scope_is_a_noop(self):
        assert active_scope() is None
        assert maybe_inject("engine.execute") is None

    def test_none_plan_scope_is_a_noop(self):
        with fault_scope(None, "key") as scope:
            assert scope is None
            assert maybe_inject("engine.execute") is None

    def test_error_kind_raises_injected_fault(self):
        plan = FaultPlan(
            [FaultSpec(point="engine.execute", kind="error", rate=1.0)]
        )
        with fault_scope(plan, "item-1") as scope:
            with pytest.raises(InjectedFault) as excinfo:
                maybe_inject("engine.execute")
            assert isinstance(excinfo.value, TransientFault)
            assert excinfo.value.event.point == "engine.execute"
        assert [e.kind for e in scope.events] == ["error"]

    def test_latency_kind_sleeps(self):
        plan = FaultPlan(
            [FaultSpec(point="pipeline.merge", kind="latency", rate=1.0,
                       latency_s=0.02)]
        )
        with fault_scope(plan, "item"):
            start = time.perf_counter()
            spec = maybe_inject("pipeline.merge")
            assert spec is not None and spec.kind == "latency"
            assert time.perf_counter() - start >= 0.015

    def test_corrupt_kind_returned_to_call_site(self):
        plan = FaultPlan([FaultSpec(point="cache.get", kind="corrupt", rate=1.0)])
        with fault_scope(plan, "item"):
            spec = maybe_inject("cache.get")
        assert spec.kind == "corrupt"  # no exception: caller applies it

    def test_scopes_are_thread_local(self):
        plan = FaultPlan(
            [FaultSpec(point="engine.execute", kind="error", rate=1.0)]
        )
        seen = {}

        def worker():
            seen["other-thread"] = active_scope()

        with fault_scope(plan, "item"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert active_scope() is not None
        assert seen["other-thread"] is None


# ----------------------------------------------------------------------
# Retry policy.
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_success_first_try(self):
        value, attempts = FAST_RETRY.call(lambda: 42)
        assert (value, attempts) == (42, 1)

    def test_transient_failure_heals(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientFault("blip")
            return "ok"

        value, attempts = FAST_RETRY.call(flaky, sleep=lambda _s: None)
        assert (value, attempts) == ("ok", 3)

    def test_non_retryable_propagates_immediately(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ValueError("systematic")

        with pytest.raises(ValueError):
            FAST_RETRY.call(broken, sleep=lambda _s: None)
        assert calls["n"] == 1

    def test_exhaustion_reraises_with_attempt_count(self):
        def always_fails():
            raise TransientFault("permanent")

        with pytest.raises(TransientFault) as excinfo:
            FAST_RETRY.call(always_fails, sleep=lambda _s: None)
        assert excinfo.value.retry_attempts == FAST_RETRY.max_attempts

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0, max_delay_s=1.0,
                             jitter=0.25)
        d1, d2 = policy.delay_for(2, "key-a"), policy.delay_for(2, "key-a")
        assert d1 == d2
        nominal = 0.2
        assert nominal * 0.75 <= d1 <= nominal * 1.25
        # distinct keys de-synchronize
        assert policy.delay_for(2, "key-b") != d1

    def test_backoff_caps_at_max_delay(self):
        policy = RetryPolicy(base_delay_s=0.1, multiplier=10.0, max_delay_s=0.3,
                             jitter=0.0)
        assert policy.delay_for(5) == 0.3


# ----------------------------------------------------------------------
# Circuit breaker.
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def make(self, threshold=3, reset=10.0):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=threshold, reset_after_s=reset,
                                 clock=clock)
        return breaker, clock

    def test_trips_after_threshold(self):
        breaker, __ = self.make(threshold=3)
        for __ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.retry_after() > 0

    def test_success_resets_the_failure_streak(self):
        breaker, __ = self.make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_success_closes(self):
        breaker, clock = self.make(threshold=1, reset=10.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now += 11
        assert breaker.allow()  # the probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        breaker, clock = self.make(threshold=1, reset=10.0)
        breaker.record_failure()
        clock.now += 11
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.stats()["trips"] == 2

    def test_policy_builds_independent_breakers(self):
        policy = BreakerPolicy(failure_threshold=2, reset_after_s=5.0)
        a, b = policy.build(), policy.build()
        a.record_failure()
        a.record_failure()
        assert a.state == CircuitBreaker.OPEN
        assert b.state == CircuitBreaker.CLOSED


# ----------------------------------------------------------------------
# Admission control.
# ----------------------------------------------------------------------


class TestAdmissionController:
    def test_sheds_when_queue_full(self):
        admission = AdmissionController(max_concurrent=1, max_queue=0,
                                        retry_after_s=0.25)
        assert admission.acquire()
        assert not admission.acquire()  # no slot, no queue -> shed
        with pytest.raises(OverloadedError) as excinfo:
            with admission.admit():
                pass
        assert excinfo.value.retry_after == 0.25
        admission.release()
        stats = admission.stats()
        assert stats["admitted"] == 1 and stats["shed"] == 2

    def test_queued_request_proceeds_after_release(self):
        admission = AdmissionController(max_concurrent=1, max_queue=4)
        assert admission.acquire()
        got_in = threading.Event()

        def queued():
            with admission.admit():
                got_in.set()

        thread = threading.Thread(target=queued)
        thread.start()
        time.sleep(0.05)
        assert not got_in.is_set()  # waiting in the queue
        admission.release()
        thread.join(timeout=2)
        assert got_in.is_set()

    def test_admit_releases_on_exception(self):
        admission = AdmissionController(max_concurrent=1, max_queue=0)
        with pytest.raises(RuntimeError, match="boom"):
            with admission.admit():
                raise RuntimeError("boom")
        assert admission.stats()["active"] == 0
        assert admission.acquire()  # the slot came back


# ----------------------------------------------------------------------
# Result cache integrity.
# ----------------------------------------------------------------------


class TestResultCacheIntegrity:
    def test_roundtrip(self):
        cache = ResultCache(capacity=4)
        value = {"ok": True, "fingerprint": "k", "field_labels": {"c": "x"}}
        cache.put("k", json_bytes(value))
        assert cache.get("k") == b'{"ok":true,"fingerprint":"k","field_labels":{"c":"x"}}'
        assert json.loads(cache.get("k")) == value
        assert cache.stats()["corruptions"] == 0

    def test_corrupted_entry_is_evicted_and_missed(self):
        cache = ResultCache(capacity=4)
        value = {"ok": True, "fingerprint": "k", "field_labels": {"c": "x"}}
        cache.put("k", json_bytes(value))
        assert cache.corrupt("k")
        assert cache.get("k") is None  # never served
        assert "k" not in cache
        stats = cache.stats()
        assert stats["corruptions"] == 1
        assert stats["misses"] >= 1

    def test_recompute_after_corruption_restores_entry(self):
        cache = ResultCache(capacity=4)
        value = {"ok": True, "fingerprint": "k"}
        cache.put("k", json_bytes(value))
        cache.corrupt("k")
        assert cache.get("k") is None
        cache.put("k", json_bytes(value))  # the engine's recompute path
        assert json.loads(cache.get("k")) == value

    def test_every_hit_is_a_fresh_copy(self):
        # A hit is the stored bytes: immutable, so what a caller decodes
        # from one and then changes never reaches the cache.
        cache = ResultCache(capacity=4)
        cache.put("k", json_bytes({"fingerprint": "k", "field_labels": {"c": "x"}}))
        first = json.loads(cache.get("k"))
        first["field_labels"]["c"] = "changed"
        assert json.loads(cache.get("k")) == {"fingerprint": "k", "field_labels": {"c": "x"}}
        assert isinstance(cache.get("k"), bytes)

    def test_corrupt_missing_key_is_false(self):
        assert ResultCache(capacity=4).corrupt("absent") is False

    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        cache.put("k", b'{"ok":true}')
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_lru_eviction_still_applies(self):
        cache = ResultCache(capacity=2)
        for key in ("a", "b", "c"):
            cache.put(key, json_bytes({"fingerprint": key}))
        assert cache.get("a") is None
        assert json.loads(cache.get("c"))["fingerprint"] == "c"
        assert cache.stats()["evictions"] == 1

    def test_plain_lru_unchanged(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        assert cache.get("a") == 1  # no checksumming on the base class


# ----------------------------------------------------------------------
# Engine + resilience, end to end.
# ----------------------------------------------------------------------


class TestEngineResilience:
    def payload(self):
        return small_corpus_payloads()[0]

    def test_transient_fault_heals_and_carries_provenance(self, chaos_comparator):
        baseline = canonical_response(
            LabelingEngine(cache_size=0, comparator=chaos_comparator).label(
                self.payload()
            )
        )
        plan = FaultPlan(
            [FaultSpec(point="engine.execute", kind="error", rate=1.0,
                       max_fires=1)]
        )
        engine = LabelingEngine(cache_size=0, fault_plan=plan, retry=FAST_RETRY,
                                comparator=chaos_comparator)
        response = engine.label(self.payload())
        assert response["ok"]
        assert response["resilience"]["attempts"] == 2
        assert response["resilience"]["faults"] == [
            {"point": "engine.execute", "kind": "error"}
        ]
        assert canonical_response(response) == baseline

    def test_no_fault_response_has_no_resilience_key(self, chaos_comparator):
        plan = FaultPlan(
            [FaultSpec(point="engine.execute", kind="error", rate=0.0)]
        )
        engine = LabelingEngine(cache_size=0, fault_plan=plan, retry=FAST_RETRY,
                                comparator=chaos_comparator)
        assert "resilience" not in engine.label(self.payload())

    def test_permanent_fault_degrades_with_provenance(self, chaos_comparator):
        plan = FaultPlan(
            [FaultSpec(point="pipeline.merge", kind="error", rate=1.0,
                       max_fires=None)]
        )
        engine = LabelingEngine(cache_size=0, fault_plan=plan, retry=FAST_RETRY,
                                comparator=chaos_comparator)
        [entry] = engine.label_batch([self.payload()])
        assert entry["ok"] is False
        assert entry["error_type"] == "transient"
        assert entry["resilience"]["attempts"] == FAST_RETRY.max_attempts
        assert all(
            f == {"point": "pipeline.merge", "kind": "error"}
            for f in entry["resilience"]["faults"]
        )

    def test_fault_free_items_in_faulted_batch_are_byte_identical(
        self, chaos_comparator
    ):
        payloads = small_corpus_payloads()
        plain = LabelingEngine(cache_size=0, comparator=chaos_comparator)
        baseline = [canonical_response(plain.label(p)) for p in payloads]
        plan = FaultPlan.random(seed=4, rate=0.3, max_fires=1)
        engine = LabelingEngine(cache_size=8, fault_plan=plan, retry=FAST_RETRY,
                                comparator=chaos_comparator)
        responses = engine.label_batch(payloads, jobs=2)
        assert len(responses) == len(payloads)
        for response, expected in zip(responses, baseline):
            assert response["ok"], response
            assert canonical_response(response) == expected

    def test_breaker_opens_per_fingerprint(self, chaos_comparator):
        plan = FaultPlan(
            [FaultSpec(point="pipeline.merge", kind="error", rate=1.0,
                       max_fires=None)]
        )
        clock = FakeClock()
        engine = LabelingEngine(
            cache_size=0,
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=1),
            breaker=BreakerPolicy(failure_threshold=2, reset_after_s=30.0),
            comparator=chaos_comparator,
            clock=clock,
        )
        failing, healthy = small_corpus_payloads()[:2]
        for __ in range(2):
            with pytest.raises(TransientFault):
                engine.label(failing)
        with pytest.raises(CircuitOpenError) as excinfo:
            engine.label(failing)
        assert excinfo.value.retry_after > 0
        # The other corpus has its own breaker: it faults (plan hits every
        # fingerprint) but is not short-circuited.
        with pytest.raises(TransientFault):
            engine.label(healthy)
        stats = engine.stats()["resilience"]["breakers"]
        assert stats["open"] >= 1 and stats["rejections"] >= 1

    def test_breaker_recovers_after_reset_window(self, chaos_comparator):
        plan = FaultPlan(
            [FaultSpec(point="engine.execute", kind="error", rate=1.0,
                       max_fires=2)]
        )
        clock = FakeClock()
        engine = LabelingEngine(
            cache_size=0,
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=1),
            breaker=BreakerPolicy(failure_threshold=2, reset_after_s=10.0),
            comparator=chaos_comparator,
            clock=clock,
        )
        payload = self.payload()
        for __ in range(2):
            with pytest.raises(TransientFault):
                engine.label(payload)
        with pytest.raises(CircuitOpenError):
            engine.label(payload)
        clock.now += 11  # window elapses; the fault budget is exhausted too
        response = engine.label(payload)  # the half-open probe succeeds
        assert response["ok"]
        assert engine.stats()["resilience"]["breakers"]["open"] == 0

    def test_breakers_stay_bounded_when_every_one_is_open(
        self, chaos_comparator
    ):
        plan = FaultPlan(
            [FaultSpec(point="engine.execute", kind="error", rate=1.0,
                       max_fires=None)]
        )
        engine = LabelingEngine(
            cache_size=0,
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=1),
            breaker=BreakerPolicy(failure_threshold=1, reset_after_s=30.0),
            comparator=chaos_comparator,
            clock=FakeClock(),
        )
        engine.MAX_BREAKERS = 3
        for seed in range(7):
            with pytest.raises(TransientFault):
                engine.label({"domain": "airline", "seed": seed})
        breakers = engine.stats()["resilience"]["breakers"]
        assert (breakers["count"], breakers["open"]) == (3, 3)
        assert breakers["shed"] == 4
        # The newest fingerprint kept its open breaker.
        with pytest.raises(CircuitOpenError):
            engine.label({"domain": "airline", "seed": 6})

    def test_breaker_shedding_prefers_the_oldest_closed_one(
        self, chaos_comparator
    ):
        engine = LabelingEngine(
            cache_size=0,
            breaker=BreakerPolicy(failure_threshold=1, reset_after_s=30.0),
            comparator=chaos_comparator,
            clock=FakeClock(),
        )
        engine.MAX_BREAKERS = 3
        engine._breaker_for("a").record_failure()
        engine._breaker_for("b")
        engine._breaker_for("c").record_failure()
        engine._breaker_for("d")
        assert list(engine._breakers) == ["a", "c", "d"]
        engine._breakers["d"].record_failure()
        engine._breaker_for("e")
        assert list(engine._breakers) == ["c", "d", "e"]
        assert engine.stats()["resilience"]["breakers"]["shed"] == 2

    def test_batch_classifies_circuit_open(self, chaos_comparator):
        plan = FaultPlan(
            [FaultSpec(point="pipeline.merge", kind="error", rate=1.0,
                       max_fires=None)]
        )
        engine = LabelingEngine(
            cache_size=0,
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=1),
            breaker=BreakerPolicy(failure_threshold=1, reset_after_s=30.0),
            comparator=chaos_comparator,
        )
        payload = self.payload()
        # Same payload twice, sequentially: the first trips, the second is
        # rejected by the open breaker.
        entries = engine.label_batch([payload, payload], jobs=1)
        assert entries[0]["error_type"] == "transient"
        assert entries[1]["error_type"] == "circuit_open"
        assert entries[1]["retry_after"] > 0

    def test_corrupt_cache_fault_recomputes_identical(self, chaos_comparator):
        payload = self.payload()
        # max_fires=2: the first fire lands before anything is cached (a
        # no-op); the second tampers with the stored entry.
        plan = FaultPlan(
            [FaultSpec(point="cache.get", kind="corrupt", rate=1.0, max_fires=2)]
        )
        engine = LabelingEngine(cache_size=8, fault_plan=plan, retry=FAST_RETRY,
                                comparator=chaos_comparator)
        first = engine.label(payload)
        assert first["cached"] is False
        # The corrupt fault fires on this lookup; the checksum catches it
        # and the entry is recomputed rather than served.
        second = engine.label(payload)
        assert second["cached"] is False
        assert engine.cache.stats()["corruptions"] == 1
        assert canonical_response(second) == canonical_response(first)
        third = engine.label(payload)  # fault budget spent: a clean hit now
        assert third["cached"] is True

    def test_verify_strict_counts_oracle_checks(self, chaos_comparator):
        engine = LabelingEngine(cache_size=0, verify="strict",
                                comparator=chaos_comparator)
        assert engine.label(self.payload())["ok"]
        oracle = engine.stats()["resilience"]["oracle"]
        assert oracle["checks"] > 0 and oracle["failures"] == 0

    def test_verify_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="verify"):
            LabelingEngine(verify="paranoid")


# ----------------------------------------------------------------------
# The chaos property suite: 200+ seeded plans over small corpora.
# ----------------------------------------------------------------------


class TestChaosProperty:
    def test_two_hundred_seeded_plans_uphold_the_contract(self, chaos_comparator):
        report = run_chaos_sweep(
            plans=200,
            seed=1000,
            rate=0.15,
            jobs=2,
            payloads=small_corpus_payloads(),
            cache_size=8,
            comparator=chaos_comparator,
            latency_s=0.0005,
            retry=FAST_RETRY,
        )
        assert report["anomalies"] == []
        assert report["items"] == 200 * 3
        # Every response is accounted for: ok + failed covers every item.
        assert report["ok_items"] + report["failed_items"] == report["items"]
        # The sweep actually exercised the machinery.
        assert report["injected_faults"] > 0
        assert report["recovered_items"] > 0
        # Every successful item reproduced the no-fault labeling exactly.
        assert report["identical_items"] == report["ok_items"]

    def test_sweep_is_reproducible(self):
        # Determinism holds for identical initial state: a fresh lexicon per
        # run and sequential execution.  (``lexicon.query`` faults fire on
        # memo *misses*, so a pre-warmed comparator or thread interleaving
        # legitimately changes how many injection opportunities arrive.)
        def sweep():
            return run_chaos_sweep(
                plans=12,
                seed=77,
                rate=0.25,
                jobs=1,
                payloads=small_corpus_payloads(),
                cache_size=8,
                comparator=SemanticComparator(
                    LabelAnalyzer(build_default_wordnet())
                ),
                latency_s=0.0005,
                retry=FAST_RETRY,
            )

        first, second = sweep(), sweep()
        assert first["per_plan"] == second["per_plan"]
        assert first["injected_faults"] == second["injected_faults"]
        assert first["anomalies"] == second["anomalies"] == []


class TestChaosSmokeAllDomains:
    def test_seed_domain_smoke_sweep(self, chaos_comparator):
        """<=10 plans over all seven seed domains (the tier-1 smoke)."""
        report = run_chaos_sweep(
            plans=5,
            seed=0,
            rate=0.1,
            jobs=2,
            cache_size=16,
            comparator=chaos_comparator,
            latency_s=0.0005,
            retry=FAST_RETRY,
        )
        assert report["anomalies"] == []
        assert report["items_per_plan"] == 7
        assert report["identical_items"] == report["ok_items"]


# ----------------------------------------------------------------------
# HTTP load shedding + client backpressure.
# ----------------------------------------------------------------------


class TestHTTPBackpressure:
    def test_shed_returns_429_with_retry_after(self):
        from repro.service.client import ServiceClient, ServiceError
        from repro.service.server import LabelingServer

        with LabelingServer(
            port=0, max_concurrent=1, max_queue=0, retry_after_s=0.2
        ) as server:
            client = ServiceClient(server.url, retries=0)
            errors: list[Exception] = []

            def hit():
                try:
                    client.label(domain="job", seed=0)
                except Exception as exc:  # noqa: BLE001 - collected for asserts
                    errors.append(exc)

            # Hold the single slot, so no request can be admitted.
            with server._httpd.admission.admit():
                threads = [threading.Thread(target=hit) for __ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            shed = [
                e for e in errors
                if isinstance(e, ServiceError) and e.status == 429
            ]
            assert shed, "no request was shed at concurrency 1 / queue 0"
            sample = shed[0]
            assert sample.payload["error_type"] == "overloaded"
            assert sample.payload["retry_after"] == 0.2
            assert sample.retry_after_header is not None
            metrics = client.metrics()
            assert metrics["admission"]["shed"] >= len(shed)
            assert metrics["http"]["by_status"].get("429", 0) >= len(shed)

    def test_client_retries_through_shedding(self):
        from repro.service.client import ServiceClient
        from repro.service.server import LabelingServer

        with LabelingServer(
            port=0, max_concurrent=1, max_queue=0, retry_after_s=0.05
        ) as server:
            # Saturate the slot from a background thread, then watch a
            # retrying client get through once the slot frees.
            blocker = ServiceClient(server.url, retries=0)
            done = threading.Event()

            def occupy():
                try:
                    blocker.batch([{"domain": "auto", "seed": 0}], jobs=1)
                except Exception:  # noqa: BLE001 - may itself be shed; fine
                    pass
                finally:
                    done.set()

            thread = threading.Thread(target=occupy)
            thread.start()
            client = ServiceClient(server.url, retries=8, backoff_s=0.05)
            response = client.label(domain="job", seed=0)
            assert response["ok"]
            assert client.last_attempts >= 1
            thread.join(timeout=10)
            assert done.is_set()
