"""The process-parallel batch backend: equivalence, isolation, fallback.

The contract under test: ``executor="process"`` is a pure performance
knob.  Same responses as the thread backend (modulo the timing field),
same error classification, same stdout for ``repro table6`` byte for
byte — and a transparent fallback to threads whenever the process pool
cannot apply (``jobs <= 1`` or an active fault plan).
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os

import pytest

from repro.cli import build_parser, main
from repro.experiment import run_all_domains
from repro.resilience import FaultPlan
from repro.service.engine import LabelingEngine, execute_batch
from repro.service.parallel import (
    EXECUTORS,
    PayloadTask,
    default_jobs,
    normalize_jobs,
    validate_executor,
)


# Tasks for the raw executor tests must be importable to survive pickling.
class _Square:
    def __init__(self, n):
        self.n = n

    def __call__(self):
        return self.n * self.n


class _Boom:
    def __call__(self):
        raise ValueError("boom")


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
    chaos = parser.parse_args(["chaos"])
    assert batch.jobs == serve.jobs == chaos.jobs == default_jobs()
    # table6 stays sequential by default: its default output is the
    # byte-for-byte reference.
    assert parser.parse_args(["table6"]).jobs == 1


def test_cli_executor_flags_exist():
    parser = build_parser()
    for argv in (
        ["table6", "--executor", "process"],
        ["batch", "x.json", "--executor", "process"],
        ["serve", "--executor", "process"],
    ):
        assert parser.parse_args(argv).executor == "process"
        assert parser.parse_args([argv[0], *argv[1:-2]]).executor == "thread"


def test_validate_executor():
    for name in EXECUTORS:
        assert validate_executor(name) == name
    with pytest.raises(ValueError, match="executor"):
        validate_executor("fiber")
    with pytest.raises(ValueError, match="executor"):
        LabelingEngine(executor="fiber")


# ----------------------------------------------------------------------
# execute_batch with the process executor.
# ----------------------------------------------------------------------


def test_execute_batch_process_preserves_order_and_isolation():
    tasks = [_Square(0), _Boom(), _Square(2), _Square(3), _Boom(), _Square(5)]
    outcomes = execute_batch(tasks, jobs=2, executor="process")
    assert [o.ok for o in outcomes] == [True, False, True, True, False, True]
    assert [o.value for o in outcomes if o.ok] == [0, 4, 9, 25]
    for failed in (outcomes[1], outcomes[4]):
        assert failed.error_type == "internal"
        assert "boom" in failed.error
        assert failed.exception is None  # never shipped across the pipe


def test_execute_batch_process_chunksize_one():
    outcomes = execute_batch(
        [_Square(n) for n in range(7)], jobs=3, executor="process", chunksize=1
    )
    assert [o.value for o in outcomes] == [n * n for n in range(7)]


def test_execute_batch_rejects_unknown_executor():
    with pytest.raises(ValueError, match="executor"):
        execute_batch([_Square(1)], jobs=2, executor="greenlet")


# ----------------------------------------------------------------------
# Engine: process backend == thread backend.
# ----------------------------------------------------------------------


PAYLOADS = [
    {"domain": "airline", "seed": 0},
    {"not-a": "request"},
    {"domain": "book", "seed": 0},
    {"domain": "airline", "seed": 0},  # duplicate: served from cache
]


def test_label_batch_process_matches_thread():
    thread_engine = LabelingEngine(breaker=None)
    process_engine = LabelingEngine(breaker=None)
    thread_results = thread_engine.label_batch(PAYLOADS, jobs=1)
    process_results = process_engine.label_batch(
        PAYLOADS, jobs=2, executor="process"
    )
    assert len(thread_results) == len(process_results)
    for expected, got in zip(thread_results, process_results):
        assert _strip_timing(expected) == _strip_timing(got)
    assert process_results[1]["error_type"] == "invalid_request"
    assert process_results[3]["cached"] is True
    assert thread_engine.stats()["requests"] == process_engine.stats()["requests"]


def test_strict_verification_runs_on_the_process_path():
    payloads = [{"domain": "auto", "seed": 5}, {"domain": "book", "seed": 5}]
    checks = {}
    for executor in ("thread", "process"):
        engine = LabelingEngine(verify="strict", breaker=None)
        results = engine.label_batch(payloads, jobs=2, executor=executor)
        assert all(r["ok"] for r in results)
        checks[executor] = engine.stats()["resilience"]["oracle"]["checks"]
    assert checks["process"] == checks["thread"] > 0


def test_process_batch_uses_the_request_lexicon_overlay():
    # The overlay merges two labels of this corpus into one synset, which
    # changes its labeling: a worker on the default lexicon would differ.
    overlay = {"synsets": [["keywords", "manufacturer"]]}
    payloads = [
        {"domain": "auto", "seed": 5, "lexicon": overlay, "lint": True},
        {"domain": "book", "seed": 5},
    ]
    plain = LabelingEngine(breaker=None).label({"domain": "auto", "seed": 5})
    single = LabelingEngine(breaker=None).label(payloads[0])
    assert single["field_labels"] != plain["field_labels"]
    thread = LabelingEngine(breaker=None).label_batch(payloads, jobs=2)
    process_engine = LabelingEngine(breaker=None)
    process = process_engine.label_batch(payloads, jobs=2, executor="process")
    for expected, got in zip(thread, process):
        assert _strip_timing(expected) == _strip_timing(got)
    assert _strip_timing(process[0]) == _strip_timing(single)
    # What the process path stored is the overlay answer too.
    assert _strip_timing(process_engine.label(payloads[0])) == _strip_timing(
        {**single, "cached": True}
    )


def test_strict_verification_survives_a_broken_pool(monkeypatch):
    # The pool dies on start-up, so the tasks rerun on parent threads with
    # no worker initializer: the verify mode must come with each task.
    from concurrent.futures import ProcessPoolExecutor

    from repro.service import parallel

    class BrokenPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **{**kwargs, "initializer": os._exit,
                                       "initargs": (13,)})

    monkeypatch.setattr("repro.service.engine.ProcessPoolExecutor", BrokenPool)
    monkeypatch.setattr(parallel, "_WORKER", {})
    payloads = [{"domain": "auto", "seed": 5}, {"domain": "book", "seed": 5}]
    thread = LabelingEngine(verify="strict", breaker=None)
    thread.label_batch(payloads, jobs=2)
    engine = LabelingEngine(verify="strict", breaker=None)
    results = engine.label_batch(payloads, jobs=2, executor="process")
    assert all(r["ok"] for r in results)
    checks = engine.stats()["resilience"]["oracle"]["checks"]
    assert checks == thread.stats()["resilience"]["oracle"]["checks"] > 0


def test_process_batch_duplicates_come_from_the_stored_entry():
    # A concurrent request may evict an entry between the put and a later
    # get; a duplicate must still be answered, from what was just stored.
    from repro.service.cache import ResultCache

    class ForgetfulCache(ResultCache):
        def get(self, key):
            return None

    engine = LabelingEngine(breaker=None)
    engine.cache = ForgetfulCache(capacity=4)
    payload = {"domain": "airline", "seed": 0}
    results = engine.label_batch([payload, payload], jobs=2, executor="process")
    assert results[0]["cached"] is False and results[1]["cached"] is True
    assert _strip_timing({**results[0], "cached": True}) == _strip_timing(results[1])


def test_pool_size_is_bounded_by_the_batch(monkeypatch):
    from concurrent.futures import ProcessPoolExecutor

    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr("repro.service.engine.ProcessPoolExecutor", RecordingPool)
    engine = LabelingEngine(breaker=None)
    results = engine.label_batch(
        [{"domain": "airline", "seed": 3}, {"domain": "book", "seed": 3}],
        jobs=64,
        executor="process",
    )
    assert all(r["ok"] for r in results)
    assert sizes == [2]


def test_label_batch_process_default_executor_knob():
    engine = LabelingEngine(breaker=None, jobs=2, executor="process")
    assert engine.stats()["default_executor"] == "process"
    results = engine.label_batch([{"domain": "job", "seed": 0}] * 2)
    assert results[0]["ok"] and results[1]["cached"] is True


def test_payload_task_is_picklable():
    import pickle

    task = pickle.loads(pickle.dumps(PayloadTask({"domain": "job", "seed": 0})))
    assert task.payload == {"domain": "job", "seed": 0}


# ----------------------------------------------------------------------
# Fallback to threads (jobs<=1, fault plan) + shared-comparator safety.
# ----------------------------------------------------------------------


def test_process_backend_falls_back_on_single_job(monkeypatch):
    engine = LabelingEngine(breaker=None)
    monkeypatch.setattr(
        engine,
        "_label_batch_process",
        lambda *a, **k: pytest.fail("process backend used with jobs=1"),
    )
    results = engine.label_batch(
        [{"domain": "job", "seed": 0}], jobs=1, executor="process"
    )
    assert results[0]["ok"]


def test_process_backend_falls_back_under_fault_plan(monkeypatch):
    """With a fault plan the batch must run on threads — and a comparator
    shared across those threads must keep its consistency-pair cache exact.

    This is the scenario the pair cache sees in production: the chaos
    harness drives ``executor="process"`` batches that silently degrade to
    the thread backend, where every worker thread shares one comparator.
    """
    from repro.core.semantics import SemanticComparator

    comparator = SemanticComparator()
    plan = FaultPlan((), seed=0)  # active but empty: never fires
    engine = LabelingEngine(
        breaker=None, fault_plan=plan, comparator=comparator
    )
    monkeypatch.setattr(
        engine,
        "_label_batch_process",
        lambda *a, **k: pytest.fail("process backend used under a fault plan"),
    )
    payloads = [
        {"domain": name, "seed": 0} for name in ("airline", "auto", "book", "job")
    ]
    results = engine.label_batch(payloads, jobs=4, executor="process")
    assert all(r["ok"] for r in results)

    # Same responses as a fresh sequential engine (the plan never fired).
    reference = LabelingEngine(breaker=None).label_batch(payloads, jobs=1)
    for expected, got in zip(reference, results):
        assert _strip_timing(expected) == _strip_timing(got)

    # The shared comparator's relation memo stayed coherent under the
    # thread fan-out: its counters add up.
    relations = comparator.cache_stats()["relations"]
    assert relations["hits"] + relations["misses"] > 0
    assert relations["hit_rate"] == round(
        relations["hits"] / (relations["hits"] + relations["misses"]), 4
    )


# ----------------------------------------------------------------------
# run_all_domains + table6: byte identity across executors.
# ----------------------------------------------------------------------


def test_run_all_domains_rejects_bad_executor():
    with pytest.raises(ValueError, match="executor"):
        run_all_domains(jobs=2, executor="fiber")


def test_table6_output_byte_identical_across_executors(capsys):
    argv = ["table6", "--seed", "0", "--respondents", "3"]
    assert main(argv + ["--jobs", "1"]) == 0
    sequential = capsys.readouterr().out
    assert main(argv + ["--jobs", "2", "--executor", "process"]) == 0
    process = capsys.readouterr().out
    assert process == sequential
    assert main(argv + ["--jobs", "2", "--executor", "thread"]) == 0
    threaded = capsys.readouterr().out
    assert threaded == sequential


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

    def test_numeric_string_is_coerced(self):
        assert normalize_jobs("4") == 4

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
            build_parser().parse_args(["table6", "--jobs", "-2"])
        assert excinfo.value.code == 2
        assert "jobs must be >= 0" in capsys.readouterr().err

    def test_cli_jobs_flag_accepts_zero(self):
        args = build_parser().parse_args(["table6", "--jobs", "0"])
        assert args.jobs == 1


# ----------------------------------------------------------------------
# The process backend under the spawn start method.
# ----------------------------------------------------------------------


class TestSpawnStartMethod:
    def test_execute_batch_under_spawn_context(self):
        # spawn re-imports the worker module from scratch: the
        # initializer and tasks must not capture unpicklable state.
        ctx = multiprocessing.get_context("spawn")
        results = execute_batch(
            [_Square(n) for n in range(4)],
            jobs=2,
            executor="process",
            mp_context=ctx,
        )
        assert [r.value for r in results] == [0, 1, 4, 9]
        assert all(r.error is None for r in results)

    def test_payload_task_under_spawn_matches_inline(self):
        ctx = multiprocessing.get_context("spawn")
        payload = {"domain": "job", "seed": 0}
        spawned = execute_batch(
            [PayloadTask(payload)], jobs=2, executor="process", mp_context=ctx
        )[0]
        assert spawned.error is None
        inline = LabelingEngine(cache_size=0).label(payload)
        assert _strip_timing(spawned.value) == _strip_timing(inline)

    def test_broken_pool_falls_back_to_threads_with_warning(self, caplog):
        # A worker bootstrap that dies on import must not take the batch
        # down with it: execute_batch logs and reruns on threads.
        def exploding_initializer():
            os._exit(13)

        with caplog.at_level(logging.WARNING, logger="repro.service.engine"):
            results = execute_batch(
                [_Square(n) for n in range(3)],
                jobs=2,
                executor="process",
                initializer=exploding_initializer,
            )
        assert [r.value for r in results] == [0, 1, 4]
        assert any(
            "falling back to thread backend" in record.message
            for record in caplog.records
        )
