"""Batches in the serving process: equivalence, isolation, sizing.

The contract under test: a batch's items fan out over at most ``jobs``
threads, and each miss computes in its item's thread.  Same responses as
a sequential batch (modulo the timing field), and the same error
classification.  ``executor="process"`` is still accepted by
``LabelingEngine`` and ``repro serve``, and starts no process.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.cli import build_parser
from repro.core.pipeline import label_corpus
from repro.datasets.registry import DOMAINS
from repro.service.engine import LabelingEngine, execute_batch
from repro.service.parallel import (
    EXECUTORS,
    default_jobs,
    normalize_jobs,
    validate_executor,
)


class _Square:
    def __init__(self, n):
        self.n = n

    def __call__(self):
        return self.n * self.n


def _label_corpus_failing_on_book(interfaces, mapping, domain=None, **kwargs):
    if domain == "book":
        raise ValueError(f"boom in process {os.getpid()}")
    return label_corpus(interfaces, mapping, domain=domain, **kwargs)


class _NoPool:
    """Stands in for ``ProcessPoolExecutor``: building one is a failure."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was built")


@pytest.fixture
def no_pool(monkeypatch):
    """Any process pool built while the test runs raises."""
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _NoPool)


def _strip_timing(response: dict) -> dict:
    clean = json.loads(json.dumps(response))
    clean.get("stats", {}).pop("elapsed_ms", None)
    clean.pop("elapsed_ms", None)
    return clean


# ----------------------------------------------------------------------
# The shared --jobs default + executor validation.
# ----------------------------------------------------------------------


def test_default_jobs_is_cpu_derived_and_bounded():
    jobs = default_jobs()
    assert 1 <= jobs <= 8
    assert jobs == default_jobs()  # deterministic


def test_cli_jobs_defaults_are_unified():
    parser = build_parser()
    batch = parser.parse_args(["batch", "x.json"])
    serve = parser.parse_args(["serve"])
    assert batch.jobs == serve.jobs == default_jobs()


def test_cli_executor_flags_exist():
    # Only serve keeps --executor, and only for its existing callers.
    parser = build_parser()
    assert parser.parse_args(["serve"]).executor == "thread"
    for argv in (["table6", "--executor", "process"],
                 ["batch", "x.json", "--executor", "process"]):
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(argv)
        assert excinfo.value.code == 2


def test_serve_still_parses_the_process_executor(capsys):
    parser = build_parser()
    args = parser.parse_args(["serve", "--executor", "process", "--jobs", "2"])
    assert (args.executor, args.jobs) == ("process", 2)
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args(["serve", "--executor", "bogus"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_validate_executor():
    for name in EXECUTORS:
        assert validate_executor(name) == name
    with pytest.raises(ValueError, match="executor"):
        validate_executor("fiber")
    with pytest.raises(ValueError, match="executor"):
        LabelingEngine(executor="fiber")


# ----------------------------------------------------------------------
# label_batch on threads: order, isolation, validation.
# ----------------------------------------------------------------------


def test_process_batch_preserves_order_and_isolation(monkeypatch):
    # Each book item fails in its batch thread, in this process.
    monkeypatch.setattr(
        "repro.service.engine.label_corpus", _label_corpus_failing_on_book
    )
    domains = ["airline", "book", "auto", "hotels", "book", "carrental"]
    payloads = [{"domain": d, "seed": 7 + i} for i, d in enumerate(domains)]
    results = LabelingEngine(executor="process").label_batch(
        payloads, jobs=2
    )
    assert [r["ok"] for r in results] == [True, False, True, True, False, True]
    assert [r["domain"] for r in results if r["ok"]] == [
        "airline", "auto", "hotels", "carrental"
    ]
    for failed in (results[1], results[4]):
        assert failed["error_type"] == "internal"
        assert f"boom in process {os.getpid()}" in failed["error"]


def test_label_batch_rejects_unknown_executor():
    # A batch takes no executor at all; the engine's spelling is checked.
    with pytest.raises(TypeError, match="executor"):
        LabelingEngine().label_batch([{"domain": "job"}], jobs=2, executor="thread")
    with pytest.raises(ValueError, match="executor"):
        LabelingEngine(executor="greenlet")


# ----------------------------------------------------------------------
# Engine: threaded batches == sequential batches.
# ----------------------------------------------------------------------


PAYLOADS = [
    {"domain": "airline", "seed": 0},
    {"not-a": "request"},
    {"domain": "book", "seed": 0},
    {"domain": "airline", "seed": 0},  # duplicate: served from cache
]


def test_label_batch_process_matches_thread():
    thread_engine = LabelingEngine()
    process_engine = LabelingEngine(executor="process")
    thread_results = thread_engine.label_batch(PAYLOADS, jobs=1)
    process_results = process_engine.label_batch(PAYLOADS, jobs=2)
    assert len(thread_results) == len(process_results)
    for expected, got in zip(thread_results, process_results):
        assert _strip_timing(expected) == _strip_timing(got)
    assert process_results[1]["error_type"] == "invalid_request"
    assert process_results[3]["cached"] is True
    assert thread_engine.stats()["requests"] == process_engine.stats()["requests"]


def test_strict_verification_runs_on_the_process_path():
    payloads = [{"domain": "auto", "seed": 5}, {"domain": "book", "seed": 5}]
    checks = {}
    for jobs, executor in ((1, "thread"), (2, "thread"), (2, "process")):
        engine = LabelingEngine(verify="strict", executor=executor)
        results = engine.label_batch(payloads, jobs=jobs)
        assert all(r["ok"] for r in results)
        checks[jobs, executor] = engine.stats()["resilience"]["oracle"]["checks"]
    assert checks[2, "process"] == checks[2, "thread"] == checks[1, "thread"] > 0


def test_process_batch_uses_the_request_lexicon_overlay():
    # The overlay merges two labels of this corpus into one synset, which
    # changes its labeling: a worker on the default lexicon would differ.
    overlay = {"synsets": [["keywords", "manufacturer"]]}
    payloads = [
        {"domain": "auto", "seed": 5, "lexicon": overlay, "lint": True},
        {"domain": "book", "seed": 5},
    ]
    plain = LabelingEngine().label({"domain": "auto", "seed": 5})
    single = LabelingEngine().label(payloads[0])
    assert single["field_labels"] != plain["field_labels"]
    sequential = LabelingEngine().label_batch(payloads, jobs=1)
    process_engine = LabelingEngine(executor="process")
    process = process_engine.label_batch(payloads, jobs=2)
    for expected, got in zip(sequential, process):
        assert _strip_timing(expected) == _strip_timing(got)
    assert _strip_timing(process[0]) == _strip_timing(single)
    # What the threaded batch stored is the overlay answer too.
    assert _strip_timing(process_engine.label(payloads[0])) == _strip_timing(
        {**single, "cached": True}
    )


def test_strict_verification_survives_a_broken_pool(no_pool):
    # A pool would fail to start; none is built, and strict verification
    # checks each labeling in this process.
    payloads = [{"domain": "auto", "seed": 5}, {"domain": "book", "seed": 5}]
    thread = LabelingEngine(verify="strict")
    thread.label_batch(payloads, jobs=2)
    engine = LabelingEngine(verify="strict", executor="process")
    results = engine.label_batch(payloads, jobs=2)
    assert all(r["ok"] for r in results)
    checks = engine.stats()["resilience"]["oracle"]["checks"]
    assert checks == thread.stats()["resilience"]["oracle"]["checks"] > 0


def test_process_batch_duplicates_come_from_the_stored_entry():
    # A concurrent request may evict an entry between the put and a later
    # get; a duplicate must still be answered, from what was just stored.
    from repro.service.cache import LRUCache

    class ForgetfulCache(LRUCache):
        def get(self, key):
            return None

    engine = LabelingEngine()
    engine.cache = ForgetfulCache(capacity=4)
    payload = {"domain": "airline", "seed": 0}
    results = engine.label_batch([payload, payload], jobs=2)
    assert results[0]["cached"] is False and results[1]["cached"] is True
    assert _strip_timing({**results[0], "cached": True}) == _strip_timing(results[1])


def test_label_batch_process_default_executor_knob():
    engine = LabelingEngine(jobs=2, executor="process")
    assert engine.stats()["default_executor"] == "thread"
    results = engine.label_batch([{"domain": "job", "seed": 0}] * 2)
    assert results[0]["ok"] and results[1]["cached"] is True


def test_process_engine_batch_computes_here(no_pool):
    """The ``executor="process"`` spelling labels every batch miss in this
    process: no pool, no child, the sequential answers, and the engine's
    own memos count the work."""
    payloads = [{"domain": d, "seed": 11} for d in DOMAINS if d != "job"]
    engine = LabelingEngine(executor="process", jobs=2)
    results = engine.label_batch(payloads)
    assert multiprocessing.active_children() == []
    assert all(r["ok"] and r["cached"] is False for r in results)
    # Ordered JSON, timing aside: the same bytes at jobs=1 and jobs=2.
    expected = [json.dumps(_strip_timing(r)) for r in
                LabelingEngine(jobs=1).label_batch(payloads)]
    for got in (results, LabelingEngine(jobs=2).label_batch(payloads)):
        assert [json.dumps(_strip_timing(r)) for r in got] == expected
    assert engine.stats()["semantics"]["relations"]["misses"] > 0


def test_thread_batch_computes_a_repeat_once():
    engine = LabelingEngine()
    payload = {"domain": "auto", "seed": 9}
    results = engine.label_batch([payload, {"domain": "nope"}, payload], jobs=2)
    assert engine.stats()["computations"] == 1
    assert results[0]["cached"] is False and results[2]["cached"] is True
    assert _strip_timing({**results[0], "cached": True}) == _strip_timing(results[2])
    assert engine.stats()["requests"] == 2


# ----------------------------------------------------------------------
# compute in this process (jobs<=1).
# ----------------------------------------------------------------------


def test_process_backend_falls_back_on_single_job(no_pool):
    engine = LabelingEngine(executor="process")
    results = engine.label_batch([{"domain": "job", "seed": 0}], jobs=1)
    assert results[0]["ok"]


# ----------------------------------------------------------------------
# normalize_jobs: every --jobs entry point must survive cpu_count()=None,
# jobs=0, and reject negatives with a clear error.
# ----------------------------------------------------------------------


class TestNormalizeJobs:
    def test_none_uses_cpu_derived_default(self):
        assert normalize_jobs(None) == default_jobs()

    def test_none_cpu_count_still_yields_at_least_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert normalize_jobs(None) >= 1

    def test_zero_normalizes_to_one(self):
        assert normalize_jobs(0) == 1

    def test_positive_passes_through(self):
        assert normalize_jobs(3) == 3

    def test_numeric_string_is_rejected(self):
        # Only the CLI parses a string (see test_cli_jobs_flag_parses_its_string).
        with pytest.raises(ValueError, match="jobs must be an integer, got '4'"):
            normalize_jobs("4")

    def test_negative_is_a_clear_error(self):
        with pytest.raises(ValueError, match="jobs must be >= 0, got -2"):
            normalize_jobs(-2)

    def test_garbage_is_a_clear_error(self):
        with pytest.raises(ValueError, match="jobs must be an integer"):
            normalize_jobs("many")

    def test_engine_normalizes_constructor_jobs(self):
        assert LabelingEngine(cache_size=0, jobs=0).default_jobs == 1
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            LabelingEngine(cache_size=0, jobs=-1)

    def test_engine_batch_normalizes_explicit_jobs(self):
        engine = LabelingEngine(cache_size=0)
        responses = engine.label_batch([{"domain": "job", "seed": 0}], jobs=0)
        assert [r["ok"] for r in responses] == [True]

    def test_execute_batch_normalizes_jobs(self):
        results = execute_batch([_Square(3)], jobs=0)
        assert results[0].value == 9
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            execute_batch([_Square(3)], jobs=-4)

    def test_cli_jobs_flag_rejects_negatives(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["batch", "x.json", "--jobs", "-2"])
        assert excinfo.value.code == 2
        assert "jobs must be >= 0" in capsys.readouterr().err

    def test_cli_jobs_flag_parses_its_string(self):
        args = build_parser().parse_args(["batch", "x.json", "--jobs", "4"])
        assert args.jobs == 4

    def test_cli_jobs_flag_accepts_zero(self):
        args = build_parser().parse_args(["batch", "x.json", "--jobs", "0"])
        assert args.jobs == 1
