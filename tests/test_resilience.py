"""What keeps the service answering: admission control, the memory tier,
failure isolation, the disk tier's damage check and strict oracles.

The labeling pipeline is deterministic and does no I/O, so a failure
inside it is the corpus's answer: it is reported in the item's slot, never
retried, and a repeat recomputes the same error.  Failures are made here by
patching the seams the engine calls (``repro.service.engine.label_corpus``,
a disk segment), not by injecting faults into product code.
"""

from __future__ import annotations

import json
import random
import threading
import time

import pytest

import repro.service.engine as engine_mod
from repro.core.label import LabelAnalyzer
from repro.core.semantics import SemanticComparator
from repro.datasets.registry import DOMAINS
from repro.lexicon.data import build_default_wordnet
from repro.schema.serialize import corpus_to_dict
from repro.service.admission import AdmissionController, OverloadedError
from repro.service.cache import LRUCache, json_bytes
from repro.service.engine import LabelingEngine
from repro.testing.oracles import canonical_response

from .conftest import build_group_corpus, rot_disk_entries


@pytest.fixture(scope="module")
def comparator():
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
# The memory tier.
# ----------------------------------------------------------------------


class TestResultCacheIntegrity:
    """The engine's memory tier: an :class:`LRUCache` whose entries are
    immutable JSON bytes, so a hit is exactly what was stored."""

    def test_roundtrip(self):
        cache = LRUCache(capacity=4)
        value = {"ok": True, "fingerprint": "k", "field_labels": {"c": "x"}}
        cache.put("k", json_bytes(value))
        assert cache.get("k") == b'{"ok":true,"fingerprint":"k","field_labels":{"c":"x"}}'
        assert json.loads(cache.get("k")) == value

    def test_every_hit_is_a_fresh_copy(self):
        # A hit is the stored bytes: immutable, so what a caller decodes
        # from one and then changes never reaches the cache.
        cache = LRUCache(capacity=4)
        cache.put("k", json_bytes({"fingerprint": "k", "field_labels": {"c": "x"}}))
        first = json.loads(cache.get("k"))
        first["field_labels"]["c"] = "changed"
        assert json.loads(cache.get("k")) == {"fingerprint": "k", "field_labels": {"c": "x"}}
        assert isinstance(cache.get("k"), bytes)

    def test_capacity_zero_disables(self):
        cache = LRUCache(capacity=0)
        cache.put("k", b'{"ok":true}')
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_lru_eviction_still_applies(self):
        cache = LRUCache(capacity=2)
        for key in ("a", "b", "c"):
            cache.put(key, json_bytes({"fingerprint": key}))
        assert cache.get("a") is None
        assert json.loads(cache.get("c"))["fingerprint"] == "c"
        assert cache.stats()["evictions"] == 1

    def test_plain_lru_unchanged(self):
        engine = LabelingEngine(cache_size=2)
        assert type(engine.cache) is LRUCache
        assert set(engine.cache.stats()) == {
            "hits", "misses", "evictions", "hit_rate", "size", "capacity",
        }


# ----------------------------------------------------------------------
# Engine failures, end to end.
# ----------------------------------------------------------------------


def failing_on(monkeypatch, interface_name: str) -> list[str]:
    """Make ``label_corpus`` raise for corpora holding ``interface_name``;
    returns the list the failing calls are recorded in."""
    real, failures = engine_mod.label_corpus, []

    def label_corpus(interfaces, mapping, **kwargs):
        if any(qi.name == interface_name for qi in interfaces):
            failures.append(interface_name)
            raise RuntimeError(f"cannot label {interface_name}")
        return real(interfaces, mapping, **kwargs)

    monkeypatch.setattr(engine_mod, "label_corpus", label_corpus)
    return failures


class TestEngineResilience:
    def payload(self):
        return small_corpus_payloads()[0]

    def test_no_fault_response_has_no_resilience_key(self, comparator):
        engine = LabelingEngine(cache_size=8, comparator=comparator)
        assert "resilience" not in engine.label(self.payload())
        [entry] = engine.label_batch([self.payload()])
        assert entry["cached"] is True and "resilience" not in entry

    def test_permanent_fault_degrades_with_provenance(
        self, comparator, monkeypatch
    ):
        failures = failing_on(monkeypatch, "aa")
        engine = LabelingEngine(cache_size=8, comparator=comparator)
        first, second = (engine.label_batch([self.payload()]) for _ in range(2))
        for [entry] in (first, second):
            assert entry["ok"] is False
            assert entry["error_type"] == "internal"
            assert entry["error"] == "RuntimeError: cannot label aa"
            assert set(entry) == {"ok", "error", "error_type", "elapsed_ms"}
        # A failure is never stored: the repeat computed (and failed) again.
        assert failures == ["aa", "aa"]
        stats = engine.stats()
        assert (stats["computations"], stats["errors"]) == (2, 2)
        assert stats["cache"]["size"] == 0

    def test_fault_free_items_in_faulted_batch_are_byte_identical(
        self, comparator, monkeypatch
    ):
        payloads = small_corpus_payloads()
        plain = LabelingEngine(cache_size=0, comparator=comparator)
        baseline = [canonical_response(plain.label(p)) for p in payloads]
        failing_on(monkeypatch, "100auto")  # the second corpus
        engine = LabelingEngine(cache_size=8, comparator=comparator)
        responses = engine.label_batch(payloads, jobs=2)
        assert len(responses) == len(payloads)
        assert responses[1]["ok"] is False
        assert responses[1]["error_type"] == "internal"
        for index in (0, 2):
            assert responses[index]["ok"], responses[index]
            assert canonical_response(responses[index]) == baseline[index]

    def test_corrupt_cache_fault_recomputes_identical(
        self, comparator, tmp_path
    ):
        payload = self.payload()
        engine = LabelingEngine(disk_cache=tmp_path, comparator=comparator)
        first = engine.label(payload)
        engine.close()
        assert first["cached"] is False
        # Rot the stored record (one byte of its entry changed, its CRC
        # kept), then restart: the memory tier is empty, the disk tier
        # skips the damaged record, and the entry is recomputed.
        rot_disk_entries(tmp_path)
        restarted = LabelingEngine(disk_cache=tmp_path, comparator=comparator)
        assert restarted.disk.stats()["corrupt_records"] == 1
        second = restarted.label(payload)
        assert second["cached"] is False
        assert restarted.stats()["computations"] == 1
        assert canonical_response(second) == canonical_response(first)
        third = restarted.label(payload)
        restarted.close()
        assert third["cached"] is True

    def test_verify_strict_counts_oracle_checks(self, comparator):
        engine = LabelingEngine(cache_size=0, verify="strict",
                                comparator=comparator)
        assert engine.label(self.payload())["ok"]
        oracle = engine.stats()["resilience"]["oracle"]
        assert oracle["checks"] > 0 and oracle["failures"] == 0

    def test_verify_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="verify"):
            LabelingEngine(verify="paranoid")


# ----------------------------------------------------------------------
# Seeded failure plans: many batches, each with its own failing items.
# ----------------------------------------------------------------------


def _corpus_key(payload: dict) -> str:
    """What a failure plan picks an item by: its domain, or its interfaces."""
    if "domain" in payload:
        return payload["domain"]
    return ",".join(sorted(qi["name"] for qi in payload["corpus"]["interfaces"]))


def run_failure_plans(
    payloads: list[dict],
    *,
    plans: int,
    seed: int,
    rate: float,
    jobs: int,
    cache_size: int,
    comparator,
) -> dict:
    """Run ``plans`` seeded batches over ``payloads`` and check each slot.

    Plan ``i`` fails each item with probability ``rate`` (drawn from
    ``random.Random(seed + i)``) by making ``label_corpus`` raise for it.
    Every plan sends its batch twice to a fresh engine: the second pass
    answers the healthy items from the cache and recomputes the failing
    ones.  A failing item must answer the ``internal`` error in its own
    slot, and every other item the canonical response of a clean run.
    """
    keys = [_corpus_key(payload) for payload in payloads]
    clean = LabelingEngine(cache_size=0, comparator=comparator)
    baseline = [canonical_response(clean.label(payload)) for payload in payloads]
    report = {"items": 0, "ok_items": 0, "failed_items": 0,
              "identical_items": 0, "anomalies": []}
    real = engine_mod.label_corpus
    for plan in range(plans):
        rng = random.Random(seed + plan)
        failing = {key for key in keys if rng.random() < rate}

        def label_corpus(interfaces, mapping, **kwargs):
            key = kwargs.get("domain") or ",".join(
                sorted(qi.name for qi in interfaces)
            )
            if key in failing:
                raise RuntimeError(f"cannot label {key}")
            return real(interfaces, mapping, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine_mod, "label_corpus", label_corpus)
            engine = LabelingEngine(cache_size=cache_size, comparator=comparator)
            passes = [engine.label_batch(payloads, jobs=jobs) for _ in range(2)]
        for entries in passes:
            if len(entries) != len(payloads):
                report["anomalies"].append((plan, "dropped items", len(entries)))
                continue
            for key, entry, want in zip(keys, entries, baseline):
                report["items"] += 1
                if key in failing:
                    report["failed_items"] += 1
                    if (entry.get("ok"), entry.get("error_type"), entry.get("error")) != (
                        False, "internal", f"RuntimeError: cannot label {key}"
                    ):
                        report["anomalies"].append((plan, key, entry))
                elif entry.get("ok"):
                    report["ok_items"] += 1
                    if canonical_response(entry) == want:
                        report["identical_items"] += 1
                    else:
                        report["anomalies"].append((plan, key, "differs from clean"))
                else:
                    report["anomalies"].append((plan, key, entry))
        stats = engine.stats()
        if stats["errors"] != 2 * len([k for k in keys if k in failing]):
            report["anomalies"].append((plan, "errors", stats["errors"]))
    return report


class TestChaosProperty:
    def test_two_hundred_seeded_plans_uphold_the_contract(self, comparator):
        report = run_failure_plans(
            small_corpus_payloads(),
            plans=200,
            seed=1000,
            rate=0.15,
            jobs=2,
            cache_size=8,
            comparator=comparator,
        )
        assert report["anomalies"] == []
        assert report["items"] == 200 * 3 * 2
        # Every response is accounted for: ok + failed covers every item.
        assert report["ok_items"] + report["failed_items"] == report["items"]
        # The plans exercised both outcomes.
        assert report["failed_items"] > 0 and report["ok_items"] > 0
        # Every successful item reproduced the clean labeling exactly.
        assert report["identical_items"] == report["ok_items"]


class TestChaosSmokeAllDomains:
    def test_seed_domain_smoke_sweep(self, comparator):
        """A few plans over all seven seed domains."""
        report = run_failure_plans(
            [{"domain": domain, "seed": 0} for domain in sorted(DOMAINS)],
            plans=5,
            seed=0,
            rate=0.1,
            jobs=2,
            cache_size=16,
            comparator=comparator,
        )
        assert report["anomalies"] == []
        assert report["items"] == 5 * 7 * 2
        assert report["failed_items"] > 0
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
