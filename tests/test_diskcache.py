"""The persistent warm-start layer: DiskCache + engine/server integration.

Contract under test: a restart against the same cache directory serves
every previously computed corpus with **zero recomputation**; a corrupt
record is skipped (and counted), never served; compaction keeps one
latest record per key without losing entries of other engine configs.
"""

from __future__ import annotations

import pytest

from repro.records import decode
from repro.service.cache import json_bytes
from repro.service.diskcache import DiskCache
from repro.service.engine import LabelingEngine
from repro.service.server import LabelingServer


def _segment_records(directory):
    """Each segment line's ``(engine, key, entry)``; every line must check."""
    payloads = [
        decode(line)
        for segment in sorted(directory.glob("segment-*.jsonl"))
        for line in segment.read_bytes().split(b"\n")
        if line
    ]
    assert None not in payloads
    fields = [payload.split(b" ", 2) for payload in payloads]
    return [(e.decode(), k.decode(), entry) for e, k, entry in fields]


# ----------------------------------------------------------------------
# DiskCache in isolation.
# ----------------------------------------------------------------------


def test_put_get_roundtrip_and_counters(tmp_path):
    cache = DiskCache(tmp_path, "engine-a")
    assert cache.get("k1") is None
    cache.put("k1", b'{"answer":42}')
    assert cache.get("k1") == b'{"answer":42}'
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["entries"] == 1 and stats["segments"] == 1


def test_a_store_returns_the_exact_bytes_it_was_given(tmp_path):
    entries = {
        "json": json_bytes({"a": "café", "b": [1, None]}),
        "latin-1": b'{"a":"caf\xe9"}',  # not UTF-8
        "binary": bytes(range(256)).replace(b"\n", b""),
        "empty": b"",
    }
    cache = DiskCache(tmp_path, "engine-a")
    for key, entry in entries.items():
        cache.put(key, entry)
    assert {key: cache.get(key) for key in entries} == entries
    reloaded = DiskCache(tmp_path, "engine-a")
    assert {key: reloaded.get(key) for key in entries} == entries
    assert reloaded.stats()["corrupt_records"] == 0


def test_a_fingerprint_that_would_split_a_record_is_refused(tmp_path):
    with pytest.raises(ValueError):
        DiskCache(tmp_path, "engine a")
    cache = DiskCache(tmp_path, "engine-a")
    for key in ("k 1", "k\n1"):
        with pytest.raises(ValueError):
            cache.put(key, b"{}")
    assert cache.stats()["size_bytes"] == 0


def test_reload_survives_restart(tmp_path):
    first = DiskCache(tmp_path, "engine-a")
    for index in range(5):
        first.put(f"k{index}", json_bytes({"value": index}))
    second = DiskCache(tmp_path, "engine-a")
    assert second.stats()["entries"] == 5
    assert second.get("k3") == b'{"value":3}'
    assert second.stats()["load_ms"] >= 0


def test_last_write_wins_on_reload(tmp_path):
    cache = DiskCache(tmp_path, "engine-a")
    cache.put("k", b'{"value":"old"}')
    cache.put("k", b'{"value":"new"}')
    assert DiskCache(tmp_path, "engine-a").get("k") == b'{"value":"new"}'


def test_engine_fingerprint_partitions_entries(tmp_path):
    DiskCache(tmp_path, "engine-a").put("k", b'{"from":"a"}')
    cache_b = DiskCache(tmp_path, "engine-b")
    assert cache_b.get("k") is None  # other config's entry is invisible...
    assert cache_b.stats()["foreign_entries"] == 1  # ...but not lost
    cache_b.put("k", b'{"from":"b"}')
    # Each config reads back its own value from the shared directory.
    assert DiskCache(tmp_path, "engine-a").get("k") == b'{"from":"a"}'
    assert DiskCache(tmp_path, "engine-b").get("k") == b'{"from":"b"}'


def test_corrupt_records_skipped_and_counted(tmp_path, caplog):
    cache = DiskCache(tmp_path, "engine-a")
    cache.put("good", b'{"value":1}')
    cache.put("bad", b'{"value":2}')
    segment = sorted(tmp_path.glob("segment-*.jsonl"))[0]
    lines = segment.read_bytes().splitlines()
    # Change the payload, keep the stale CRC.
    lines[1] = lines[1].replace(b'{"value":2}', b'{"value":999}')
    lines.append(lines[0][:20])  # crash-torn final line
    segment.write_bytes(b"\n".join(lines) + b"\n")

    with caplog.at_level("WARNING", logger="repro.service.diskcache"):
        reloaded = DiskCache(tmp_path, "engine-a")
    assert reloaded.get("good") == b'{"value":1}'
    assert reloaded.get("bad") is None  # never served corrupt
    assert reloaded.stats()["corrupt_records"] == 2
    assert sum("corrupt record" in r.message for r in caplog.records) == 2


def test_compaction_rewrites_one_record_per_key(tmp_path):
    DiskCache(tmp_path, "engine-b").put("foreign", b'{"keep":"me"}')
    cache_a = DiskCache(tmp_path, "engine-a", max_bytes=512)
    latest, compactions = {}, 0
    for round_index in range(30):
        for key in ("hot-key", f"key-{round_index % 3}"):
            cache_a.put(key, json_bytes({"round": round_index}))
            latest[key] = json_bytes({"round": round_index})
            stats = cache_a.stats()
            if stats["compactions"] == compactions:
                continue
            # Right after a compaction: one segment holding one latest
            # record per (engine, key) pair, the foreign one included.
            compactions = stats["compactions"]
            assert stats["segments"] == 1
            records = _segment_records(tmp_path)
            keys = [(e, k) for e, k, _ in records]
            assert len(keys) == len(set(keys))
            assert {k: r for e, k, r in records if e == "engine-a"} == latest
            assert ("engine-b", "foreign") in keys
    assert compactions >= 1
    reloaded = DiskCache(tmp_path, "engine-a")
    assert reloaded.get("hot-key") == b'{"round":29}'
    assert DiskCache(tmp_path, "engine-b").get("foreign") == b'{"keep":"me"}'


def test_records_of_the_old_layout_are_counted_then_compacted_away(tmp_path):
    old_layouts = {
        # Before the key moved under the CRC a record was {"crc","e","k","v"}.
        "key-outside-crc": '{"crc": 0, "e": "engine-a", "k": "old", "v": {"value": 1}}',
        # Before entries were kept as their JSON text, "r" was an object.
        "object-entry": '{"crc":664067116,"v":{"e":"engine-a","k":"old","r":{"value":1}}}',
        # Before records were a CRC header and raw bytes, "r" was the
        # entry's JSON text inside canonical JSON.
        "entry-as-json-text": (
            '{"crc":4080794505,"v":{"e":"engine-a","k":"old","r":"{\\"value\\":1}"}}'
        ),
    }
    # Longer than every old line, so one put leaves the dead bytes below
    # the live bytes.
    entry = json_bytes({"value": 2, "padding": "x" * 64})
    for name, line in old_layouts.items():
        directory = tmp_path / name
        directory.mkdir()
        (directory / "segment-00000.jsonl").write_text(line + "\n")
        cache = DiskCache(directory, "engine-a", max_bytes=0)
        assert cache.get("old") is None
        assert cache.stats()["corrupt_records"] == 1
        cache.put("new", entry)
        assert cache.stats()["compactions"] == 0  # dead bytes < live bytes
        cache.put("new", entry)  # the superseded line tips the balance
        assert cache.stats()["compactions"] == 1
        assert _segment_records(directory) == [("engine-a", "new", entry)]
        assert DiskCache(directory, "engine-a").stats()["corrupt_records"] == 0


def test_distinct_keys_fill_segments_without_compacting(tmp_path, monkeypatch):
    import repro.service.diskcache as diskcache

    encodes = []
    real_encode = diskcache.encode

    def counting_encode(payload):
        encodes.append(payload.split(b" ")[1].decode())
        return real_encode(payload)

    def forbidden(*args, **kwargs):
        raise AssertionError("a put must not glob or stat the store")

    cache = DiskCache(tmp_path, "engine-a", max_bytes=1024)
    monkeypatch.setattr(diskcache, "encode", counting_encode)
    monkeypatch.setattr(type(tmp_path), "glob", forbidden)
    monkeypatch.setattr(type(tmp_path), "stat", forbidden)
    keys = [f"key-{index:04d}" for index in range(400)]
    for key in keys:
        cache.put(key, json_bytes({"payload": key * 4}))
    monkeypatch.undo()
    stats = cache.stats()
    assert stats["size_bytes"] >= 10 * 1024
    assert stats["compactions"] == 0
    assert stats["dead_bytes"] == 0
    assert stats["segments"] > 1
    assert encodes == keys  # one encode per put, no other record re-encoded
    on_disk = sorted(tmp_path.glob("segment-*.jsonl"))
    assert len(on_disk) == stats["segments"]
    assert sum(p.stat().st_size for p in on_disk) == stats["size_bytes"]
    assert all(p.stat().st_size <= 1024 + 200 for p in on_disk)


def test_the_store_keeps_no_entry_values(tmp_path):
    # Only the index stays in memory: each put's ~5 KiB entry is freed.
    import tracemalloc

    cache = DiskCache(tmp_path, "engine-a")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(400):
            cache.put(f"key-{n:04d}", json_bytes({"n": n, "text": f"{n:05d}" * 1000}))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 400 * 1024
    assert cache.get("key-0123") == json_bytes({"n": 123, "text": "00123" * 1000})
    assert cache.stats()["entries"] == 400


def test_reload_reads_every_segment_and_the_later_record_wins(tmp_path):
    cache = DiskCache(tmp_path, "engine-a", max_bytes=256)
    for index in range(40):
        cache.put(f"k{index}", json_bytes({"first": index}))
    cache.put("k3", json_bytes({"value": "later"}))  # lands in a later segment
    assert cache.stats()["segments"] > 1
    assert cache.stats()["compactions"] == 0
    reloaded = DiskCache(tmp_path, "engine-a", max_bytes=256)
    assert reloaded.stats()["entries"] == 40
    assert reloaded.get("k3") == json_bytes({"value": "later"})
    assert reloaded.get("k39") == json_bytes({"first": 39})
    assert reloaded.stats()["segments"] == cache.stats()["segments"]
    assert reloaded.stats()["dead_bytes"] == cache.stats()["dead_bytes"] > 0


def test_superseded_and_corrupt_lines_compact_to_one_segment(tmp_path):
    DiskCache(tmp_path, "engine-b").put("foreign", json_bytes({"keep": "me"}))
    cache = DiskCache(tmp_path, "engine-a", max_bytes=256)
    latest = {}
    for index in range(20):
        latest[f"k{index}"] = json_bytes({"value": index})
        cache.put(f"k{index}", latest[f"k{index}"])
    segments = sorted(tmp_path.glob("segment-*.jsonl"))
    with segments[0].open("ab") as handle:
        handle.write(b"{not a record}" * 10 + b"\n\n")  # and a blank line
    cache = DiskCache(tmp_path, "engine-a", max_bytes=256)
    assert cache.stats()["corrupt_records"] == 1
    assert cache.stats()["size_bytes"] == sum(p.stat().st_size for p in segments)
    assert cache.stats()["segments"] > 1
    for index in range(20):  # supersede keys until half the bytes are dead
        latest[f"k{index}"] = json_bytes({"value": 100 + index})
        cache.put(f"k{index}", latest[f"k{index}"])
        stats = cache.stats()
        if stats["compactions"]:
            break
        assert stats["dead_bytes"] < stats["live_bytes"]
    assert stats["compactions"] == 1
    assert stats["segments"] == 1 and stats["dead_bytes"] == 0
    assert stats["size_bytes"] == stats["live_bytes"]
    assert len(list(tmp_path.glob("segment-*.jsonl"))) == 1
    records = _segment_records(tmp_path)
    assert len({(e, k) for e, k, _ in records}) == len(records) == 21
    reloaded = DiskCache(tmp_path, "engine-a")
    assert {key: reloaded.get(key) for key in latest} == latest
    assert reloaded.stats()["corrupt_records"] == 0
    assert DiskCache(tmp_path, "engine-b").get("foreign") == json_bytes({"keep": "me"})


def test_a_hot_key_compacts_once_its_dead_bytes_reach_the_live_bytes(tmp_path):
    cache = DiskCache(tmp_path, "engine-a", max_bytes=1024)
    compactions = 0
    for n in range(60):  # ~33-byte records: a re-put kills about half the bytes
        before = cache.stats()
        cache.put("hot", json_bytes({"n": f"{n:02d}"}))
        stats = cache.stats()
        if stats["compactions"] > compactions:
            compactions = stats["compactions"]
            assert stats["dead_bytes"] == 0 and stats["segments"] == 1
        else:  # the superseded record is smaller than the new one
            assert stats["dead_bytes"] == before["live_bytes"] < stats["live_bytes"]
    assert compactions >= 30
    assert DiskCache(tmp_path, "engine-a").get("hot") == json_bytes({"n": "59"})


def test_stores_sharing_a_directory_keep_each_others_records(tmp_path):
    # Two server processes on one --disk-cache directory, same engine config.
    a = DiskCache(tmp_path, "engine-a", max_bytes=10_000)
    b = DiskCache(tmp_path, "engine-a", max_bytes=10_000)
    for index in range(20):
        a.put(f"a{index}", json_bytes({"v": "x" * 100}))
    for _ in range(10):  # b re-puts one key: its compactions delete a's segment
        b.put("same", json_bytes({"v": "y" * 100}))
    assert b.stats()["compactions"] >= 1
    # a's index still names its deleted segment: a miss, not an error.
    assert a.get("a0") is None
    for index in range(5):
        a.put(f"late{index}", json_bytes({"v": "z" * 100}))
    reloaded = DiskCache(tmp_path, "engine-a")
    assert all(reloaded.get(f"a{index}") for index in range(20))
    assert all(reloaded.get(f"late{index}") for index in range(5))
    assert reloaded.get("same") == json_bytes({"v": "y" * 100})
    assert a.get("same") == json_bytes({"v": "y" * 100})  # a took up b's rewrite
    on_disk = sorted(tmp_path.glob("segment-*.jsonl"))
    assert sum(p.stat().st_size for p in on_disk) == a.stats()["size_bytes"]


def test_append_after_a_torn_final_line_starts_a_fresh_line(tmp_path):
    DiskCache(tmp_path, "engine-a").put("old", json_bytes({"value": 1}))
    segment = sorted(tmp_path.glob("segment-*.jsonl"))[0]
    segment.write_bytes(segment.read_bytes()[:-10])  # crash mid-write
    cache = DiskCache(tmp_path, "engine-a")
    assert cache.stats()["corrupt_records"] == 1
    assert cache.stats()["size_bytes"] == segment.stat().st_size
    cache.put("new", json_bytes({"value": 2}))
    assert cache.stats()["size_bytes"] == segment.stat().st_size
    reloaded = DiskCache(tmp_path, "engine-a")
    assert reloaded.get("new") == json_bytes({"value": 2})
    assert reloaded.stats()["corrupt_records"] == 1


def _flip(path, offset, mask):
    data = bytearray(path.read_bytes())
    data[offset] ^= mask
    path.write_bytes(bytes(data))


def test_flipped_key_bit_is_not_served_under_another_key(tmp_path):
    DiskCache(tmp_path, "engine-a").put("f1", json_bytes({"owner": "f1"}))
    segment = sorted(tmp_path.glob("segment-*.jsonl"))[0]
    _flip(segment, segment.read_bytes().index(b" f1 ") + 2, 0x01)  # f1 -> f0
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


def test_warm_restart_with_batch_threads(tmp_path):
    cold = LabelingEngine(disk_cache=tmp_path)
    cold.label_batch(PAYLOADS, jobs=2)
    assert cold.stats()["computations"] == len(PAYLOADS)

    warm = LabelingEngine(disk_cache=tmp_path)
    results = warm.label_batch(PAYLOADS, jobs=2)
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


def test_metrics_reports_disk_section(tmp_path, client_for):
    with LabelingServer(port=0, disk_cache=tmp_path) as server:
        client = client_for(server.url, timeout=60)
        client.label(domain="job", seed=0)
        disk = client.metrics()["engine"]["disk"]
    assert disk["entries"] == 1
    assert disk["misses"] >= 1
    assert {"hits", "corrupt_records", "load_ms", "segments"} <= set(disk)

    # Warm restart of the whole server: served from disk, no recompute.
    with LabelingServer(port=0, disk_cache=tmp_path) as server:
        client = client_for(server.url, timeout=60)
        assert client.label(domain="job", seed=0)["cached"] is True
        metrics = client.metrics()["engine"]
    assert metrics["computations"] == 0
    assert metrics["disk"]["hits"] == 1


def test_engine_without_disk_cache_has_no_disk_section():
    assert "disk" not in LabelingEngine().stats()
