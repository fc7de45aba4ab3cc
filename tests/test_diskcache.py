"""The persistent warm-start layer: DiskCache + engine/server integration.

Contract under test: a restart against the same cache directory serves
every previously computed corpus with **zero recomputation**; a corrupt
record is skipped (and counted), never served; compaction keeps one
latest record per key without losing entries of other engine configs.
"""

from __future__ import annotations

import json

import pytest

from repro.records import decode
from repro.service.diskcache import DiskCache
from repro.service.engine import LabelingEngine
from repro.service.server import LabelingServer


def _segment_lines(directory):
    lines = []
    for segment in sorted(directory.glob("segment-*.jsonl")):
        lines.extend(segment.read_text().splitlines())
    return lines


# ----------------------------------------------------------------------
# DiskCache in isolation.
# ----------------------------------------------------------------------


def test_put_get_roundtrip_and_counters(tmp_path):
    cache = DiskCache(tmp_path, "engine-a")
    assert cache.get("k1") is None
    cache.put("k1", {"answer": 42})
    assert cache.get("k1") == {"answer": 42}
    assert "k1" in cache and len(cache) == 1
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["entries"] == 1 and stats["segments"] == 1


def test_reload_survives_restart(tmp_path):
    first = DiskCache(tmp_path, "engine-a")
    for index in range(5):
        first.put(f"k{index}", {"value": index})
    second = DiskCache(tmp_path, "engine-a")
    assert len(second) == 5
    assert second.get("k3") == {"value": 3}
    assert second.stats()["load_ms"] >= 0


def test_last_write_wins_on_reload(tmp_path):
    cache = DiskCache(tmp_path, "engine-a")
    cache.put("k", {"value": "old"})
    cache.put("k", {"value": "new"})
    assert DiskCache(tmp_path, "engine-a").get("k") == {"value": "new"}


def test_engine_fingerprint_partitions_entries(tmp_path):
    DiskCache(tmp_path, "engine-a").put("k", {"from": "a"})
    cache_b = DiskCache(tmp_path, "engine-b")
    assert cache_b.get("k") is None  # other config's entry is invisible...
    assert cache_b.stats()["foreign_entries"] == 1  # ...but not lost
    cache_b.put("k", {"from": "b"})
    # Each config reads back its own value from the shared directory.
    assert DiskCache(tmp_path, "engine-a").get("k") == {"from": "a"}
    assert DiskCache(tmp_path, "engine-b").get("k") == {"from": "b"}


def test_corrupt_records_skipped_and_counted(tmp_path, caplog):
    cache = DiskCache(tmp_path, "engine-a")
    cache.put("good", {"value": 1})
    cache.put("bad", {"value": 2})
    segment = sorted(tmp_path.glob("segment-*.jsonl"))[0]
    lines = segment.read_text().splitlines()
    tampered = json.loads(lines[1])
    tampered["v"]["r"]["value"] = 999  # flip the payload, keep the stale CRC
    lines[1] = json.dumps(tampered, sort_keys=True, separators=(",", ":"))
    lines.append("{truncated mid-wri")  # crash-torn final line
    segment.write_text("\n".join(lines) + "\n")

    with caplog.at_level("WARNING", logger="repro.service.diskcache"):
        reloaded = DiskCache(tmp_path, "engine-a")
    assert reloaded.get("good") == {"value": 1}
    assert reloaded.get("bad") is None  # never served corrupt
    assert reloaded.stats()["corrupt_records"] == 2
    assert sum("corrupt record" in r.message for r in caplog.records) == 2


def test_compaction_rewrites_one_record_per_key(tmp_path):
    DiskCache(tmp_path, "engine-b").put("foreign", {"keep": "me"})
    cache_a = DiskCache(tmp_path, "engine-a", max_bytes=512)
    latest, compactions = {}, 0
    for round_index in range(30):
        for key in ("hot-key", f"key-{round_index % 3}"):
            cache_a.put(key, {"round": round_index})
            latest[key] = {"round": round_index}
            stats = cache_a.stats()
            if stats["compactions"] == compactions:
                continue
            # Right after a compaction: one segment holding one latest
            # record per (engine, key) pair, the foreign one included.
            compactions = stats["compactions"]
            assert stats["segments"] == 1
            records = [decode(line) for line in _segment_lines(tmp_path)]
            keys = [(r["e"], r["k"]) for r in records]
            assert len(keys) == len(set(keys))
            assert {r["k"]: r["r"] for r in records if r["e"] == "engine-a"} == latest
            assert ("engine-b", "foreign") in keys
    assert compactions >= 1
    reloaded = DiskCache(tmp_path, "engine-a")
    assert reloaded.get("hot-key") == {"round": 29}
    assert DiskCache(tmp_path, "engine-b").get("foreign") == {"keep": "me"}


def test_records_of_the_old_layout_are_counted_then_compacted_away(tmp_path):
    # Before the key moved under the CRC a record was {"crc","e","k","v"}.
    old = {"crc": 0, "e": "engine-a", "k": "old", "v": {"value": 1}}
    (tmp_path / "segment-00000.jsonl").write_text(json.dumps(old) + "\n")
    cache = DiskCache(tmp_path, "engine-a", max_bytes=0)
    assert cache.get("old") is None
    assert cache.stats()["corrupt_records"] == 1
    cache.put("new", {"value": 2})  # past max_bytes: compacts
    assert [decode(line)["k"] for line in _segment_lines(tmp_path)] == ["new"]
    assert DiskCache(tmp_path, "engine-a").stats()["corrupt_records"] == 0


def _flip(path, offset, mask):
    data = bytearray(path.read_bytes())
    data[offset] ^= mask
    path.write_bytes(bytes(data))


def test_flipped_key_bit_is_not_served_under_another_key(tmp_path):
    DiskCache(tmp_path, "engine-a").put("f1", {"owner": "f1"})
    segment = sorted(tmp_path.glob("segment-*.jsonl"))[0]
    _flip(segment, segment.read_bytes().index(b'"k":"f1"') + 6, 0x01)  # f1 -> f0
    reloaded = DiskCache(tmp_path, "engine-a")
    assert reloaded.get("f0") is None
    assert reloaded.get("f1") is None
    assert reloaded.stats()["corrupt_records"] == 1


# ----------------------------------------------------------------------
# Engine integration: warm restarts recompute nothing.
# ----------------------------------------------------------------------


PAYLOADS = [{"domain": name, "seed": 0} for name in ("airline", "book")]


def test_warm_restart_serves_from_disk_with_zero_recomputation(tmp_path):
    cold = LabelingEngine(disk_cache=tmp_path)
    cold_results = cold.label_batch(PAYLOADS, jobs=1)
    assert all(r["ok"] and r["cached"] is False for r in cold_results)
    assert cold.stats()["computations"] == len(PAYLOADS)

    warm = LabelingEngine(disk_cache=tmp_path)
    warm_results = warm.label_batch(PAYLOADS, jobs=1)
    assert all(r["cached"] is True for r in warm_results)
    stats = warm.stats()
    assert stats["computations"] == 0
    assert stats["disk"]["hits"] == len(PAYLOADS)
    for cold_response, warm_response in zip(cold_results, warm_results):
        a = {k: v for k, v in cold_response.items() if k != "cached"}
        b = {k: v for k, v in warm_response.items() if k != "cached"}
        assert a == b


def test_warm_restart_with_process_backend(tmp_path):
    cold = LabelingEngine(disk_cache=tmp_path)
    cold.label_batch(PAYLOADS, jobs=2, executor="process")
    assert cold.stats()["computations"] == len(PAYLOADS)

    warm = LabelingEngine(disk_cache=tmp_path)
    results = warm.label_batch(PAYLOADS, jobs=2, executor="process")
    assert all(r["cached"] is True for r in results)
    assert warm.stats()["computations"] == 0


def test_engine_fingerprint_depends_on_verify_mode(tmp_path):
    relaxed = LabelingEngine(disk_cache=tmp_path)
    strict = LabelingEngine(disk_cache=tmp_path, verify="strict")
    assert relaxed.engine_fingerprint() != strict.engine_fingerprint()
    relaxed.label({"domain": "job", "seed": 0})
    # A strict engine must not trust results computed without verification.
    assert strict.disk.get(
        relaxed.label({"domain": "job", "seed": 0})["fingerprint"]
    ) is None


def test_engine_accepts_prebuilt_disk_cache(tmp_path):
    disk = DiskCache(tmp_path, "custom-fp")
    engine = LabelingEngine(disk_cache=disk)
    assert engine.disk is disk


def test_disk_corruption_triggers_recomputation_not_errors(tmp_path):
    cold = LabelingEngine(disk_cache=tmp_path)
    response = cold.label({"domain": "job", "seed": 0})
    segment = sorted(tmp_path.glob("segment-*.jsonl"))[0]
    segment.write_text(segment.read_text()[:100])  # truncate mid-record

    warm = LabelingEngine(disk_cache=tmp_path)
    assert warm.disk.stats()["corrupt_records"] == 1
    recomputed = warm.label({"domain": "job", "seed": 0})
    assert recomputed["cached"] is False
    assert recomputed["classification"] == response["classification"]
    assert warm.stats()["computations"] == 1


def test_flipped_high_bit_costs_one_record_not_the_startup(tmp_path):
    cold = LabelingEngine(disk_cache=tmp_path)
    cold.label_batch(PAYLOADS, jobs=1)
    segment = sorted(tmp_path.glob("segment-*.jsonl"))[0]
    _flip(segment, 100, 0x80)  # not UTF-8 any more

    warm = LabelingEngine(disk_cache=tmp_path)
    assert warm.disk.stats()["corrupt_records"] == 1
    results = warm.label_batch(PAYLOADS, jobs=1)
    assert [r["cached"] for r in results] == [False, True]
    assert warm.stats()["computations"] == 1


# ----------------------------------------------------------------------
# Server surface.
# ----------------------------------------------------------------------


def test_metrics_reports_disk_section(tmp_path):
    from repro.service.client import ServiceClient

    with LabelingServer(port=0, disk_cache=tmp_path) as server:
        client = ServiceClient(server.url, timeout=60)
        client.label(domain="job", seed=0)
        disk = client.metrics()["engine"]["disk"]
    assert disk["entries"] == 1
    assert disk["misses"] >= 1
    assert {"hits", "corrupt_records", "load_ms", "segments"} <= set(disk)

    # Warm restart of the whole server: served from disk, no recompute.
    with LabelingServer(port=0, disk_cache=tmp_path) as server:
        client = ServiceClient(server.url, timeout=60)
        assert client.label(domain="job", seed=0)["cached"] is True
        metrics = client.metrics()["engine"]
    assert metrics["computations"] == 0
    assert metrics["disk"]["hits"] == 1


def test_engine_without_disk_cache_has_no_disk_section():
    assert "disk" not in LabelingEngine().stats()
