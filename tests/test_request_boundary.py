"""The request validation boundary: every untrusted field is checked once.

``LabelingRequest.from_payload`` (a ``/label`` body or a batch item) and
``parse_batch`` (the ``/batch`` envelope) raise ``RequestError`` — HTTP 400
— for any shape they do not accept; corpus documents are checked by the
deserializers as they are built.  Single bodies that used to be coerced or
to escape as a 500 are pinned in ``test_service.MALFORMED_BODIES``; the
Hypothesis suites here throw arbitrary JSON at the boundary and require a
400, never a 5xx.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consistency import ConsistencyLevel
from repro.core.inference import InferenceRule
from repro.datasets.registry import DOMAINS
from repro.service.cache import LRUCache
from repro.service.client import ServiceClient, ServiceError
from repro.service.engine import (
    LabelingEngine,
    LabelingRequest,
    RequestError,
    parse_batch,
)
from repro.service.fingerprint import options_from_dict, options_to_dict
from repro.service.server import LabelingServer

from .conftest import BOOK_FIRST_FIELD, book_document_with

#: The Book document whose first field's label is the integer 5.
LABEL_5 = book_document_with(BOOK_FIRST_FIELD + ("label",), 5)


@pytest.fixture(scope="module")
def client():
    with LabelingServer(port=0, cache_size=64) as running:
        yield ServiceClient(running.url, timeout=60, retries=0)


def _status(client: ServiceClient, body) -> tuple[int, dict]:
    try:
        return 200, client.request("POST", "/label", body)
    except ServiceError as exc:
        return exc.status, exc.payload


class TestRejectedInput:
    def test_malformed_corpus_never_feeds_a_breaker(self):
        # Before the boundary these raised in compute (HTTP 500) and fed
        # the corpus's failure count; now none reaches the engine.
        engine = LabelingEngine()
        for _ in range(7):
            with pytest.raises(RequestError, match="malformed corpus"):
                engine.label({"corpus": LABEL_5})
        stats = engine.stats()
        assert stats["requests"] == 0
        assert stats["errors"] == 0 and stats["computations"] == 0

    def test_malformed_corpus_over_http(self):
        with LabelingServer(port=0) as running:
            client = ServiceClient(running.url, retries=0)
            statuses = [_status(client, {"corpus": LABEL_5})[0] for _ in range(7)]
            engine = client.metrics()["engine"]
        assert statuses == [400] * 7
        assert engine["requests"] == 0
        assert engine["errors"] == 0

    @pytest.mark.parametrize(
        "body",
        [
            {"domain": "book", "colour": "red"},
            {"domain": "book", "options": {"repair_homonyms": None}},
            {"domain": "book", "lexicon": {"synsets": [["a"]], "extra": []}},
            {"corpus": book_document_with(BOOK_FIRST_FIELD + ("kind",), "")},
            {"corpus": book_document_with(("interfaces", 0, "metadata"), [])},
        ],
    )
    def test_unknown_keys_and_coerced_values_are_rejected(self, body):
        with pytest.raises(RequestError):
            LabelingRequest.from_payload(body)

    def test_parse_batch_returns_the_checked_fields(self):
        body = {"requests": [{"domain": "book"}], "jobs": 0, "timeout": 2}
        assert parse_batch(body) == ([{"domain": "book"}], 0, 2.0)
        assert parse_batch({"requests": []}) == ([], None, None)


class TestEmptyOverlay:
    def test_empty_overlay_is_no_overlay(self):
        engine = LabelingEngine()
        plain = engine.label({"domain": "book"})
        empty = engine.label({"domain": "book", "lexicon": {"synsets": []}})
        assert empty["cached"] is True
        assert empty["fingerprint"] == plain["fingerprint"]
        stats = engine.stats()
        assert stats["computations"] == 1
        assert stats["semantics"]["overlay_comparators"] == 0

    def test_unknown_overlay_key_is_rejected(self):
        with pytest.raises(RequestError, match="unknown lexicon field"):
            LabelingRequest.from_payload({"domain": "book", "lexicon": {"foo": 1}})


# ----------------------------------------------------------------------
# Hypothesis suites over untrusted input.
# ----------------------------------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_LEMMA = st.sampled_from(["keywords", "manufacturer", "course", "class", "title"])
_VALID_OPTIONS = st.fixed_dictionaries({}, optional={
    "use_instances": st.booleans(),
    "max_level": st.sampled_from([level.name.lower() for level in ConsistencyLevel]),
    "enabled_rules": st.lists(st.sampled_from([rule.value for rule in InferenceRule])),
    "repair_homonyms": st.booleans(),
})
_VALID_LEXICON = st.fixed_dictionaries({}, optional={
    "synsets": st.lists(st.lists(_LEMMA, min_size=1, max_size=3), max_size=2),
    "hypernyms": st.lists(st.lists(_LEMMA, min_size=2, max_size=2), max_size=2),
})
_VALID_SOURCES = st.sampled_from(sorted(DOMAINS)).flatmap(
    lambda domain: st.fixed_dictionaries(
        {"domain": st.just(domain)}, optional={"seed": st.integers(0, 1)}
    )
)
#: Payloads under the known keys, each value valid or arbitrary JSON.
PAYLOADS = st.fixed_dictionaries({}, optional={
    "domain": st.sampled_from(sorted(DOMAINS)) | _JSON,
    "seed": st.integers(0, 1) | _JSON,
    "corpus": st.builds(book_document_with) | _JSON,
    "options": _VALID_OPTIONS | _JSON,
    "lexicon": _VALID_LEXICON | _JSON,
    "lint": st.booleans() | _JSON,
    "timeout": st.floats(0.5, 60) | _JSON,
})


def _paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


#: One field of the Book document replaced by a value of another JSON type.
MUTATED_BOOK = st.builds(
    book_document_with,
    st.sampled_from(list(_paths(book_document_with()))),
    st.sampled_from([5, -1, 1.5, True, None, "", "x", [], ["a"], [1], {}, {"a": 1}]),
)

_KEYS = LRUCache(capacity=256)


@settings(max_examples=200)
@given(PAYLOADS)
def test_from_payload_gives_a_request_or_request_error(payload):
    try:
        request = LabelingRequest.from_payload(payload, _KEYS)
    except RequestError:
        return
    assert request.fingerprint


@settings(max_examples=40)
@given(PAYLOADS)
def test_server_never_answers_5xx(client, payload):
    status, body = _status(client, json.loads(json.dumps(payload)))
    assert status in (200, 400)
    if status == 400:
        assert body["error"] and body["request_id"]


@settings(max_examples=40)
@given(MUTATED_BOOK)
def test_mutated_corpus_is_200_or_400(client, document):
    status, body = _status(client, {"corpus": document})
    assert status in (200, 400)
    if status == 400:
        assert body["error"] and body["request_id"]


@settings(max_examples=25)
@given(_VALID_SOURCES, _VALID_OPTIONS, _VALID_LEXICON)
def test_canonical_form_has_the_same_fingerprint(source, options, lexicon):
    payload = {**source, "options": options, "lexicon": lexicon}
    synsets = sorted(sorted(synset) for synset in lexicon.get("synsets", []))
    hypernyms = sorted(lexicon.get("hypernyms", []))
    canonical = {
        "domain": source["domain"],
        "seed": source.get("seed", 0),
        "options": options_to_dict(options_from_dict(options)),
    }
    if synsets or hypernyms:  # an overlay that adds nothing is no overlay
        canonical["lexicon"] = {"synsets": synsets, "hypernyms": hypernyms}
    assert (
        LabelingRequest.from_payload(payload).fingerprint
        == LabelingRequest.from_payload(canonical).fingerprint
    )
