"""The ``GET /metrics`` contract: its full key tree after a fixed mix of
traffic, and the bound on the per-endpoint counts.

``httpbench/run.py`` and operators' dashboards read these keys by name, so
a refactor of the counters behind them must leave the tree unchanged.
"""

from __future__ import annotations

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.server import LabelingServer

_COUNTS = {"hits": None, "misses": None, "evictions": None}
_LRU = {**_COUNTS, "size": None, "capacity": None, "hit_rate": None}

EXPECTED_TREE = {
    "http": {
        "uptime_s": None,
        "requests_total": None,
        "by_endpoint": {"/batch": None, "/label": None, "other": None},
        "by_status": {"200": None, "404": None},
        "latency": {
            "window": None, "p50_ms": None, "p90_ms": None, "p99_ms": None,
            "max_ms": None, "mean_ms": None,
        },
    },
    "engine": {
        "requests": None,
        "errors": None,
        "computations": None,
        "uptime_s": None,
        "default_jobs": None,
        "default_executor": None,
        "cache": _LRU,
        "request_keys": _LRU,
        "naming": {"truncated_closures": None},
        "semantics": {
            "labels": {**_COUNTS, "hit_rate": None, "size": None,
                       "distinct_displays": None},
            "relations": {**_COUNTS, "hit_rate": None, "size": None},
            "predicates": {**_COUNTS, "hit_rate": None, "size": None},
            "comparators": None,
            "overlay_comparators": None,
        },
        "resilience": {
            "verify": None,
            "oracle": {"checks": None, "failures": None},
        },
        "disk": {
            "directory": None, "entries": None, "foreign_entries": None,
            "hits": None, "misses": None, "corrupt_records": None,
            "compactions": None, "hit_rate": None, "segments": None,
            "size_bytes": None, "live_bytes": None, "dead_bytes": None,
            "load_ms": None,
        },
    },
    "admission": {
        "max_concurrent": None, "max_queue": None, "active": None,
        "queued": None, "admitted": None, "shed": None,
    },
}


def _key_tree(value):
    """``value`` with every leaf replaced by ``None``."""
    if isinstance(value, dict):
        return {key: _key_tree(item) for key, item in value.items()}
    return None


@pytest.fixture(scope="module")
def metrics(tmp_path_factory):
    """``GET /metrics`` after one miss, one memory hit, a 404 and a batch."""
    disk = tmp_path_factory.mktemp("metrics") / "disk"
    with LabelingServer(port=0, disk_cache=disk) as server:
        client = ServiceClient(server.url, retries=0)
        assert client.label(domain="hotels", seed=0)["cached"] is False
        assert client.label(domain="hotels", seed=0)["cached"] is True
        with pytest.raises(ServiceError) as info:
            client.request("GET", "/nope")
        assert info.value.status == 404
        batch = client.batch([
            {"domain": "hotels", "seed": 0}, {"domain": "book", "seed": 0},
        ])
        assert batch["ok"] is True
        return client.metrics()


def test_metrics_key_tree(metrics):
    assert _key_tree(metrics) == EXPECTED_TREE


def test_metrics_counts(metrics):
    http, engine = metrics["http"], metrics["engine"]
    assert http["requests_total"] == 4
    assert http["by_endpoint"] == {"/batch": 1, "/label": 2, "other": 1}
    assert http["by_status"] == {"200": 3, "404": 1}
    assert http["latency"]["window"] == 4
    assert metrics["admission"]["shed"] == 0
    assert (engine["requests"], engine["errors"], engine["computations"]) == (4, 0, 2)
    cache = engine["cache"]
    assert (cache["hits"], cache["misses"], cache["evictions"]) == (2, 2, 0)
    assert cache["hit_rate"] == 0.5
    disk = engine["disk"]
    assert (disk["hits"], disk["misses"], disk["entries"]) == (0, 2, 2)
    assert disk["hit_rate"] == 0.0
    semantics = engine["semantics"]
    assert semantics["comparators"] == 1
    for section in ("labels", "relations", "predicates"):
        stats = semantics[section]
        lookups = stats["hits"] + stats["misses"]
        assert lookups > 0
        assert stats["hit_rate"] == round(stats["hits"] / lookups, 4)


def test_unknown_paths_share_one_endpoint_count():
    """Untrusted paths must not grow ``by_endpoint`` one key per path."""
    with LabelingServer(port=0) as server:
        client = ServiceClient(server.url, retries=0)
        for index in range(40):
            method = "GET" if index % 2 else "POST"
            with pytest.raises(ServiceError) as info:
                client.request(method, f"/nope/{index}", {} if method == "POST" else None)
            assert info.value.status == 404
        http = client.metrics()["http"]
    assert http["by_endpoint"] == {"other": 40}
    assert http["by_status"] == {"404": 40}
