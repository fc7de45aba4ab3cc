"""repro.records, and what damaged disk-cache segments and trace logs do.

The damage suite writes records through the real stores, damages the file
(bit flips, truncation, dropped, duplicated or swapped lines), loads it
back, and compares against a model built from the damaged bytes: a line
byte-identical to a written record is intact, every other non-blank line
is damaged.  Properties:

* loading never raises;
* no key ever serves a value written under another key;
* every intact record is served, and the last one per key wins;
* each damaged line adds one to the corrupt count.
"""

from __future__ import annotations

import json
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import TraceLog
from repro.records import decode, encode
from repro.service.cache import json_bytes
from repro.service.diskcache import DiskCache

# ----------------------------------------------------------------------
# The codec.
# ----------------------------------------------------------------------

VALUE = {"b": [1, 2.5, None, True], "a": "café", "c": {"z": 1e-07}}


def test_encode_is_the_canonical_envelope():
    line = encode(VALUE)
    canonical = json.dumps(VALUE, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(canonical.encode("utf-8"))
    assert line == json.dumps(
        {"crc": crc, "v": VALUE}, sort_keys=True, separators=(",", ":")
    )
    assert decode(line) == VALUE
    assert decode(line.encode("utf-8")) == VALUE


@pytest.mark.parametrize(
    "line",
    [
        b"\xff" + encode(VALUE).encode("utf-8"),  # not UTF-8
        b"not json",
        b"[" * 5000,  # too deep for the parser
        b"[1, 2]",  # not an object
        b'{"crc": 0}',  # no value
        encode(VALUE).replace('"v":', '"v": '),  # not canonical
        encode(VALUE).replace("\\u00e9", "\\u00E9"),  # same value, other bytes
        encode(VALUE).replace("1e-07", "1E-07"),
        encode(VALUE).replace('"a":"caf', '"a":"cap'),  # stale CRC
    ],
)
def test_decode_rejects_what_it_cannot_trust(line):
    assert decode(line) is None


# ----------------------------------------------------------------------
# Damage.
# ----------------------------------------------------------------------

_OFFSET = st.integers(min_value=0, max_value=1 << 20)

#: One damage: (kind, a, b); offsets and line indexes wrap to the file.
DAMAGE = st.one_of(
    st.tuples(st.just("flip"), _OFFSET, st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("truncate"), _OFFSET, st.just(0)),
    st.tuples(st.sampled_from(["drop", "duplicate", "swap"]), _OFFSET, _OFFSET),
)


def _damage(data: bytes, damages) -> bytes:
    for kind, a, b in damages:
        if not data:
            break
        if kind == "flip":
            at = a % len(data)
            data = data[:at] + bytes([data[at] ^ (1 << b)]) + data[at + 1 :]
        elif kind == "truncate":
            data = data[: a % len(data)]
        else:
            lines = data.split(b"\n")[:-1] if data.endswith(b"\n") else data.split(b"\n")
            i, j = a % len(lines), b % len(lines)
            if kind == "drop":
                del lines[i]
            elif kind == "duplicate":
                lines.insert(i, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            data = b"".join(line + b"\n" for line in lines)
    return data


def _model(data: bytes, written: set[bytes]) -> tuple[list[dict], int]:
    """(values of the intact lines in file order, damaged line count)."""
    intact, damaged = [], 0
    for line in data.split(b"\n"):
        if not line.strip():
            continue
        if line in written:
            intact.append(json.loads(line)["v"])
        else:
            damaged += 1
    return intact, damaged


KEYS = ["f0", "f1", "f2", "g"]

WRITES = st.lists(
    st.tuples(st.sampled_from(["engine-a", "engine-b"]), st.sampled_from(KEYS), st.text(max_size=6)),
    min_size=1,
    max_size=10,
)


@settings(max_examples=300)
@given(WRITES, st.lists(DAMAGE, min_size=1, max_size=3))
def test_damaged_segment_loses_only_damaged_records(tmp_path_factory, writes, damages):
    directory = tmp_path_factory.mktemp("segments")
    for n, (engine, key, text) in enumerate(writes):
        entry = json_bytes({"engine": engine, "key": key, "n": n, "text": text})
        DiskCache(directory, engine).put(key, entry)
    (segment,) = directory.glob("segment-*.jsonl")
    written = set(segment.read_bytes().split(b"\n"))
    segment.write_bytes(_damage(segment.read_bytes(), damages))

    cache = DiskCache(directory, "engine-a")
    intact, damaged = _model(segment.read_bytes(), written)
    latest = {(r["e"], r["k"]): r["r"].encode() for r in intact}
    served = {key: cache.get(key) for key in KEYS}
    for key, entry in served.items():
        value = json.loads(entry) if entry is not None else None
        assert value is None or (value["key"], value["engine"]) == (key, "engine-a")
    assert served == {key: latest.get(("engine-a", key)) for key in KEYS}
    stats = cache.stats()
    assert stats["corrupt_records"] == damaged
    assert stats["foreign_entries"] == sum(e == "engine-b" for e, _ in latest)


SPAN = st.fixed_dictionaries(
    {
        "name": st.text(max_size=6),
        "start_ms": st.floats(min_value=0, max_value=1e4),
        "duration_ms": st.floats(min_value=0, max_value=1e4),
    }
)
TRACES = st.lists(
    st.tuples(st.sampled_from(KEYS), SPAN, st.lists(SPAN, max_size=2)),
    min_size=1,
    max_size=4,
)


@settings(max_examples=200)
@given(TRACES, st.lists(DAMAGE, min_size=1, max_size=3))
def test_damaged_trace_log_loses_only_damaged_spans(tmp_path_factory, traces, damages):
    log = TraceLog(tmp_path_factory.mktemp("traces"))
    for request_id, root, children in traces:
        log.append({"request_id": request_id, "root": {**root, "children": children}})
    written = set(log.path.read_bytes().split(b"\n"))
    log.path.write_bytes(_damage(log.path.read_bytes(), damages))

    records, corrupt = TraceLog.load(log.path)
    assert (records, corrupt) == _model(log.path.read_bytes(), written)
