"""``LabelingEngine.label_json`` is ``label``'s answer as the server writes it.

``label_json`` splices the per-request keys (``cached``, ``lint``,
``request_id``) onto a stored entry's bytes; ``label`` is its decoded
dict.  For every way an answer is made — a miss, a memory hit, a disk hit
after a restart, lint, a timeout, a restart over a damaged disk record —
the bytes must decode to exactly ``label``'s
dict plus ``request_id``, key order included.  A hit is compared on one
engine, answered both ways from the same entry.  A computed answer comes
from two engines in the same state, one each way; its
``stats.elapsed_ms`` is its own wall time, so it is compared without it.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.core.label import LabelAnalyzer
from repro.core.semantics import SemanticComparator
from repro.datasets import DOMAINS
from repro.lexicon.data import build_default_wordnet
from repro.service.engine import LabelingEngine
from repro.service.server import LabelingServer

from .conftest import rot_disk_entries

#: A request id with both characters JSON must escape.
RID = 'a"b\\c'


@pytest.fixture(scope="module")
def comparator():
    return SemanticComparator(LabelAnalyzer(build_default_wordnet()))


def ordered(value):
    """A JSON value with every object as a list of items, so ``==`` sees
    key order."""
    if isinstance(value, dict):
        return [(key, ordered(item)) for key, item in value.items()]
    if isinstance(value, list):
        return [ordered(item) for item in value]
    return value


def untimed(response: dict) -> dict:
    """``response`` without the wall time its computation took."""
    return {**response, "stats": {
        k: v for k, v in response["stats"].items() if k != "elapsed_ms"
    }}


# name -> (whether the engine has a disk tier, payload changes, requests
# before the compared one, whether the compared answer is computed, not a
# hit).
SCENARIOS = {
    "miss": (False, {}, 0, True),
    "memory-hit": (False, {}, 1, False),
    "lint-miss": (False, {"lint": True}, 0, True),
    "lint-hit": (False, {"lint": True}, 1, False),
    "timeout": (False, {"timeout": 60}, 1, False),
    # The stored record rots, then the engine restarts: nothing in memory,
    # the damaged record is skipped, and the entry is recomputed.
    "corrupt-entry": (True, {}, 1, True),
}


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("domain", DOMAINS)
def test_label_json_is_label_plus_request_id(comparator, tmp_path, domain, scenario):
    disk, changes, before, computed = SCENARIOS[scenario]
    payload = {"domain": domain, "seed": 0, **changes}

    def engine(name: str) -> LabelingEngine:
        return LabelingEngine(
            cache_size=8, comparator=comparator,
            disk_cache=tmp_path / name if disk else None,
        )

    as_bytes = engine("bytes")
    as_dict = engine("dict") if computed else as_bytes
    for each in {as_bytes, as_dict}:
        for _ in range(before):
            each.label_json(payload)
    if disk:
        for name in ("bytes", "dict"):
            rot_disk_entries(tmp_path / name)
        as_bytes, as_dict = engine("bytes"), engine("dict")
        assert as_bytes.disk.stats()["corrupt_records"] == 1
    body = as_bytes.label_json(payload, RID)
    response = as_dict.label(payload)
    assert body == json.dumps(json.loads(body), separators=(",", ":")).encode()
    got, want = json.loads(body), {**response, "request_id": RID}
    if computed:
        got, want = untimed(got), untimed(want)
    assert ordered(got) == ordered(want)
    assert got["cached"] is not computed
    if "lint" in changes:
        keys = [key for key in got if key in ("cached", "lint")]
        assert keys == (["lint", "cached"] if computed else ["cached", "lint"])


@pytest.mark.parametrize("domain", DOMAINS)
def test_disk_hit_after_restart(comparator, tmp_path, domain):
    payload = {"domain": domain, "seed": 0}
    miss = LabelingEngine(disk_cache=tmp_path, comparator=comparator).label_json(
        payload, RID
    )
    restarted = [
        LabelingEngine(disk_cache=tmp_path, comparator=comparator) for _ in range(2)
    ]
    body = restarted[0].label_json(payload, RID)
    response = restarted[1].label(payload)
    assert response["cached"] is True
    # The very bytes the miss answered, key order included; only the
    # spliced cached flag differs.
    assert miss.count(b',"cached":false,') == 1
    assert body == miss.replace(b',"cached":false,', b',"cached":true,')
    assert json.loads(body) == {**response, "request_id": RID}
    assert restarted[0].disk.stats()["hits"] == 1


@pytest.mark.parametrize("tracing", [False, True], ids=["untraced", "traced"])
def test_escaped_request_id_comes_back_unchanged(tracing):
    with LabelingServer(port=0, tracing=tracing) as server:
        for expect_cached in (False, True):
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=30
            )
            connection.request(
                "POST", "/label", body=b'{"domain": "hotels", "seed": 0}',
                headers={"Content-Type": "application/json", "X-Request-Id": RID},
            )
            answer = connection.getresponse()
            body = json.loads(answer.read())
            connection.close()
            assert answer.status == 200
            assert answer.getheader("X-Request-Id") == RID
            assert body["request_id"] == RID
            assert body["cached"] is expect_cached
