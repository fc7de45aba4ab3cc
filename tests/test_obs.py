"""repro.obs — span tracing, exporters, and the tracing-changes-nothing law.

The deterministic-clock golden (``tests/golden/trace_airline.json``) pins
the full span tree of one airline-domain request: every instrumented call
site, in order, with clock-tick durations.  Any change to the
instrumentation shows up as a reviewable diff.  Regenerate after an
intentional change with:

    python tests/test_obs.py --regenerate
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

from repro.obs import (
    Span,
    Trace,
    TraceLog,
    chrome_trace,
    current_span,
    current_trace,
    event,
    format_trace,
    is_active,
    new_request_id,
    span,
)
from repro.obs.tracer import _NOOP
from repro.records import encode
from repro.service.cache import LRUCache
from repro.service.client import ServiceClient, ServiceError
from repro.service.engine import LabelingEngine
from repro.service.server import LabelingServer
from repro.testing.oracles import canonical_response

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_TRACE = GOLDEN_DIR / "trace_airline.json"


class FakeClock:
    """A monotonic clock advancing exactly one millisecond per reading."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        current = self.now
        self.now += 0.001
        return current


# ----------------------------------------------------------------------
# Tracer core.
# ----------------------------------------------------------------------


class TestSpanTracer:
    def test_disabled_call_sites_are_noops(self):
        assert not is_active()
        assert current_trace() is None
        assert current_span() is None
        assert span("anything", tag=1) is _NOOP       # the shared singleton
        with span("anything") as sp:
            assert sp is None
        event("ignored", detail="dropped")            # must not raise

    def test_nested_spans_build_a_timed_tree(self):
        trace = Trace(request_id="t1", clock=FakeClock())
        with trace.scope():
            assert is_active()
            assert current_trace() is trace
            with span("outer", kind="demo") as outer:
                with span("inner") as inner:
                    assert current_span() is inner
                    event("tick", n=1)
                assert current_span() is outer
        assert not is_active()
        assert [c.name for c in trace.root.children] == ["outer"]
        outer = trace.root.children[0]
        assert outer.tags == {"kind": "demo"}
        assert [c.name for c in outer.children] == ["inner"]
        inner = outer.children[0]
        assert inner.events[0]["name"] == "tick"
        assert inner.events[0]["attrs"] == {"n": 1}
        # FakeClock ticks 1 ms per reading: every span has a real duration
        # and children nest within their parents' windows.
        assert outer.start_s < inner.start_s <= inner.end_s < outer.end_s
        assert trace.root.duration_ms > outer.duration_ms > 0

    def test_find_and_iter_spans(self):
        trace = Trace(clock=FakeClock())
        with trace.scope():
            with span("a"):
                with span("b"):
                    pass
                with span("b"):
                    pass
        assert len(trace.find("b")) == 2
        assert [s.name for s in trace.root.iter_spans()] == [
            "request", "a", "b", "b",
        ]

    def test_attach_isolates_concurrent_workers(self):
        trace = Trace(clock=FakeClock())
        items = [Span(f"item[{i}]") for i in range(2)]
        trace.root.children.extend(items)
        barrier = threading.Barrier(2)

        def work(item: Span) -> None:
            with trace.attach(item):
                barrier.wait(timeout=5)
                with span("inner"):
                    barrier.wait(timeout=5)

        threads = [
            threading.Thread(target=work, args=(item,)) for item in items
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        # Each worker's span landed under its own item, never a sibling's.
        for item in items:
            assert [c.name for c in item.children] == ["inner"]

    def test_exception_still_closes_span(self):
        trace = Trace(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with trace.scope():
                with span("doomed"):
                    raise RuntimeError("boom")
        doomed = trace.find("doomed")[0]
        assert doomed.end_s > doomed.start_s
        assert not is_active()

    def test_new_request_id_is_opaque_hex(self):
        rid = new_request_id()
        assert len(rid) == 32
        int(rid, 16)  # hex or raise
        assert rid != new_request_id()


class TestFormatTrace:
    def test_renders_durations_tags_and_events(self):
        trace = Trace(request_id="fmt", clock=FakeClock())
        with trace.scope():
            with span("phase:demo", groups=3):
                event("checkpoint", n=2)
        text = format_trace(trace)
        assert "request_id=fmt" in text
        assert "phase:demo" in text
        assert "[groups=3]" in text
        assert "checkpoint n=2" in text
        assert "ms" in text
        # The dict form renders identically.
        assert format_trace(trace.to_dict()) == text


# ----------------------------------------------------------------------
# Exporters.
# ----------------------------------------------------------------------


def _sample_record(request_id: str = "req-1") -> dict:
    trace = Trace(request_id=request_id, clock=FakeClock())
    with trace.scope():
        with span("outer", kind="demo"):
            with span("inner"):
                event("mark", ok=True)
    return trace.to_dict()


class TestTraceLog:
    def test_append_and_load_roundtrip(self, tmp_path):
        log = TraceLog(tmp_path / "traces")
        written = log.append(_sample_record())
        assert written == 3  # request + outer + inner
        records, corrupt = TraceLog.load(log.path)
        assert corrupt == 0
        assert [r["name"] for r in records] == ["request", "outer", "inner"]
        assert [r["id"] for r in records] == [0, 1, 2]
        assert [r["parent"] for r in records] == [None, 0, 1]
        assert all(r["request_id"] == "req-1" for r in records)
        assert records[2]["events"][0]["name"] == "mark"
        assert log.stats() == {
            "path": str(log.path), "traces": 1, "spans": 3,
        }

    def test_corrupt_lines_are_skipped_not_fatal(self, tmp_path):
        log = TraceLog(tmp_path)
        log.append(_sample_record("a"))
        forged = b'{"request_id":"a","name":"forged"}'
        assert encode(forged) == b"15adcbac " + forged
        with log.path.open("ab") as handle:
            handle.write(b"not json at all\n")
            handle.write(b'{"crc": 1, "v": {"name": "forged"}}\n')  # older layout
            handle.write(b"00000000 " + forged + b"\n")  # stale CRC
            handle.write(b"15ADCBAC " + forged + b"\n")  # upper-case CRC
            handle.write(encode(forged)[:-1] + b"\n")  # truncated
            handle.write(encode(b"not json") + b"\n")  # valid CRC, no JSON
            handle.write(encode(b"\xff{}") + b"\n")  # valid CRC, not UTF-8
        log.append(_sample_record("b"))
        records, corrupt = TraceLog.load(log.path)
        assert corrupt == 7
        assert sum(1 for r in records if r["request_id"] == "a") == 3
        assert sum(1 for r in records if r["request_id"] == "b") == 3

    def test_truncated_final_line_is_one_corrupt_record(self, tmp_path):
        log = TraceLog(tmp_path)
        log.append(_sample_record())
        text = log.path.read_text("utf-8")
        log.path.write_text(text[:-20], "utf-8")  # tear the last line
        records, corrupt = TraceLog.load(log.path)
        assert corrupt == 1
        assert len(records) == 2


class TestTraceStore:
    """The server keeps recent traces in an LRUCache keyed by request id."""

    @staticmethod
    def _keep(store: LRUCache, record: dict) -> None:
        store.put(record["request_id"], record)

    def test_bounded_lru_semantics(self):
        store = LRUCache(capacity=2)
        self._keep(store, _sample_record("a"))
        self._keep(store, _sample_record("b"))
        assert store.get("a") is not None  # refresh: 'b' is now coldest
        self._keep(store, _sample_record("c"))
        assert store.get("b") is None
        assert store.get("a")["request_id"] == "a"
        assert store.get("c")["request_id"] == "c"
        assert len(store) == 2
        stats = store.stats()
        assert (stats["capacity"], stats["size"], stats["evictions"]) == (2, 2, 1)

    def test_zero_capacity_stores_nothing(self):
        store = LRUCache(capacity=0)
        self._keep(store, _sample_record())
        assert store.get("req-1") is None
        assert len(store) == 0


class TestChromeTrace:
    def test_event_array_shape(self):
        events = chrome_trace([_sample_record()])
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(metadata) == 1 and metadata[0]["args"]["name"] == "request req-1"
        assert [e["name"] for e in complete] == ["request", "outer", "inner"]
        assert all(e["ts"] >= 0 and e["dur"] > 0 for e in complete)
        assert instants[0]["name"] == "mark"
        # Timestamps are microseconds: the 1 ms fake tick becomes 1000 µs.
        outer = next(e for e in complete if e["name"] == "outer")
        assert outer["ts"] == 1000.0
        json.dumps(events)  # must serialize as-is

    def test_multiple_traces_get_distinct_pids(self):
        events = chrome_trace([_sample_record("a"), _sample_record("b")])
        assert {e["pid"] for e in events} == {1, 2}


# ----------------------------------------------------------------------
# The deterministic golden span tree.
# ----------------------------------------------------------------------

PAPER_PHASES = (
    "phase:group_relations",
    "phase:partitions",
    "phase:combine_closure",
    "phase:conflict_repair",
    "phase:internal_inference",
)


def _airline_trace() -> dict:
    """One airline-domain request under a fresh engine and a fake clock."""
    trace = Trace(request_id="golden", name="label", clock=FakeClock())
    engine = LabelingEngine(cache_size=0)
    with trace.scope():
        engine.label({"domain": "airline", "seed": 0})
    return trace.to_dict()


class TestGoldenTrace:
    def test_trace_is_deterministic(self):
        assert _airline_trace() == _airline_trace()

    def test_truncated_closure_tags_its_group_span(self):
        """Job's root group reaches CLOSURE_LIMIT; its span says so, and
        the spans of groups that finish their closure carry no tag."""
        trace = Trace(request_id="job", name="label", clock=FakeClock())
        with trace.scope():
            LabelingEngine(cache_size=0).label({"domain": "job", "seed": 0})
        (closure,) = trace.find("phase:combine_closure")
        tags = {child.name: child.tags for child in closure.children}
        assert tags["group:root"]["truncated"] is True
        assert all(
            "truncated" not in t for name, t in tags.items() if name != "group:root"
        )

    def test_all_paper_phases_traced_with_durations(self):
        record = _airline_trace()
        names = {}

        def walk(span_record):
            names[span_record["name"]] = span_record
            for child in span_record.get("children") or []:
                walk(child)

        walk(record["root"])
        for phase in PAPER_PHASES:
            assert phase in names, f"missing span for {phase}"
            assert names[phase]["duration_ms"] > 0
        assert names["cache.lookup"]["tags"]["outcome"] == "miss"
        assert names["pipeline"]["tags"]["interfaces"] == 20

    def test_airline_span_tree_matches_golden(self):
        if not GOLDEN_TRACE.exists():
            pytest.skip(
                f"golden file missing — run `python {__file__} --regenerate`"
            )
        expected = json.loads(GOLDEN_TRACE.read_text())
        assert _airline_trace() == expected, (
            "the airline span tree drifted from the golden snapshot; if the "
            "instrumentation change is intentional, regenerate with "
            f"`python {__file__} --regenerate`"
        )


# ----------------------------------------------------------------------
# The law: tracing never changes labeling output.
# ----------------------------------------------------------------------


def _canon(response: dict) -> dict:
    """canonical_response, minus the wall-clock field of error entries."""
    canon = canonical_response(response)
    canon.pop("elapsed_ms", None)
    return canon


class TestTracingChangesNothing:
    @pytest.mark.parametrize("domain", ["airline", "book"])
    def test_single_request_byte_identical(self, domain):
        plain = LabelingEngine(cache_size=0).label({"domain": domain})
        trace = Trace()
        with trace.scope():
            traced = LabelingEngine(cache_size=0).label({"domain": domain})
        assert canonical_response(traced) == canonical_response(plain)
        assert len(trace.find("pipeline")) == 1

    def test_thread_batch_byte_identical(self):
        payloads = [{"domain": "airline"}, {"domain": "job"}, {"bad": True}]
        plain = LabelingEngine(cache_size=0).label_batch(payloads, jobs=2)
        trace = Trace()
        with trace.scope():
            traced = LabelingEngine(cache_size=0).label_batch(payloads, jobs=2)
        assert [_canon(r) for r in traced] == [
            _canon(r) for r in plain
        ]
        # One pre-created item span per payload, in submission order.
        batch_span = trace.find("engine.batch")[0]
        assert [c.name for c in batch_span.children] == [
            "item[0]", "item[1]", "item[2]",
        ]
        # Each valid item's pipeline phases sit under its own item span.
        for item in batch_span.children[:2]:
            assert item.find("phase:combine_closure")

    def test_cached_and_traced_hits_stay_identical(self):
        engine = LabelingEngine(cache_size=8)
        cold = engine.label({"domain": "airline"})
        trace = Trace()
        with trace.scope():
            warm = engine.label({"domain": "airline"})
        assert warm["cached"] is True
        assert canonical_response(warm) == canonical_response(cold)
        lookup = trace.find("cache.lookup")[0]
        assert lookup.tags["outcome"] == "memory"


# ----------------------------------------------------------------------
# HTTP: request ids, GET /trace, the trace log.
# ----------------------------------------------------------------------


class TestTracingHTTP:
    @pytest.fixture(scope="class")
    def log_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("trace-log")

    @pytest.fixture(scope="class")
    def server(self, log_dir):
        with LabelingServer(
            port=0, cache_size=16, tracing=True, trace_log=log_dir
        ) as running:
            yield running

    @pytest.fixture(scope="class")
    def client(self, server):
        return ServiceClient(server.url, timeout=60)

    def test_incoming_request_id_is_honored(self, client):
        response = client.label(domain="airline", request_id="my-id-1")
        assert response["ok"]
        assert response["request_id"] == "my-id-1"

    def test_request_id_generated_when_absent(self, client):
        response = client.label(domain="airline")
        assert len(response["request_id"]) == 32

    def test_error_payloads_carry_request_id(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.label(domain="atlantis", request_id="err-7")
        assert excinfo.value.status == 400
        assert excinfo.value.payload["request_id"] == "err-7"

    def test_batch_response_carries_request_id(self, client):
        response = client.batch([{"domain": "book"}], request_id="batch-1")
        assert response["request_id"] == "batch-1"
        assert response["results"][0]["ok"]

    def test_trace_endpoint_returns_the_served_trace(self, client):
        client.label(domain="job", request_id="traced-1")
        payload = client.trace("traced-1")
        assert payload["ok"]
        record = payload["trace"]
        assert record["request_id"] == "traced-1"
        assert record["meta"] == {"endpoint": "/label", "status": 200}
        names = []
        pending = [record["root"]]
        while pending:
            node = pending.pop()
            names.append(node["name"])
            pending.extend(node.get("children") or [])
        for phase in PAPER_PHASES:
            assert phase in names

    def test_unknown_trace_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.trace("nope")
        assert excinfo.value.status == 404
        assert excinfo.value.payload["error_type"] == "not_found"

    def test_trace_log_is_written_and_crc_clean(self, client, server, log_dir):
        client.label(domain="auto", request_id="logged-1")
        records, corrupt = TraceLog.load(log_dir / "spans.jsonl")
        assert corrupt == 0
        mine = [r for r in records if r["request_id"] == "logged-1"]
        assert any(r["name"] == "phase:combine_closure" for r in mine)
        assert server.trace_log.stats()["traces"] >= 1

    def test_untraced_server_keeps_trace_endpoint_dark(self):
        with LabelingServer(port=0, cache_size=4) as server:
            client = ServiceClient(server.url, timeout=60)
            response = client.label(domain="book", request_id="dark-1")
            assert response["request_id"] == "dark-1"  # ids always flow
            with pytest.raises(ServiceError) as excinfo:
                client.trace("dark-1")
            assert excinfo.value.status == 404
            assert "disabled" in str(excinfo.value)


def _regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    GOLDEN_TRACE.write_text(json.dumps(_airline_trace(), indent=2) + "\n")
    print(f"wrote {GOLDEN_TRACE}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
