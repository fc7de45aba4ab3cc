"""The long-lived labeling engine: one request path for requests and batches.

One :class:`LabelingEngine` wraps the naming pipeline
(:func:`repro.core.pipeline.label_corpus`) as a service: a request names a
registered domain (``{"domain": "airline", "seed": 0}``) or carries a full
corpus document (the ``save_corpus`` shape), plus optional naming options,
a lexicon overlay and a lint flag; the response is a JSON-ready dict with
the labeled tree, per-cluster labels and the Definition-8 classification.

Single requests and batch items take the same steps, each written once:
**parse** (:meth:`LabelingRequest.from_payload`, in the calling thread;
every check runs on every request) → **key** (the corpus
fingerprint, :mod:`repro.service.fingerprint`; the pipeline is
deterministic, so entries never go stale — a request-key memo maps a valid
``{domain, seed}`` payload seen before to its fingerprint, and only a memo
miss builds and hashes the corpus) → **dedupe** (a batch groups its items by
fingerprint and answers each repeat from the entry its first occurrence
returned) → **lookup** (:meth:`LabelingEngine._lookup`: the memory LRU's
JSON bytes, then disk, whose hit is served as the bytes it stored and
promoted into memory) → **compute** (:func:`compute`: pipeline plus
strict-mode oracles; builds the corpus if the memo skipped it) →
**store** (:meth:`LabelingEngine._store`: memory and disk, encoded once).
Lookup → compute → store runs once per item, on the calling thread or one
of a batch's ``jobs`` threads.  The pipeline is deterministic and does no
I/O, so a failure is the corpus's answer: it is reported, never retried.
Overlay-free requests share the engine's one comparator across all threads
(its memos are append-only and thread-safe).

Every answer is an entry's JSON bytes with the request's own keys
(``cached``, ``lint``, and the server's ``request_id``)
spliced onto their end: :meth:`LabelingEngine.label_json` is what the
server writes, and :meth:`LabelingEngine.label` is its decoded dict.  A
hit therefore decodes nothing unless it asks for lint.

:func:`execute_batch` fans thunks over threads with a per-item timeout and
structured :class:`BatchOutcome` results: one bad corpus degrades to an
error entry and never kills the batch.  All shared engine state is
lock-guarded, so one engine safely serves every connection thread of
:mod:`repro.service.server`.
"""

from __future__ import annotations

import contextvars
import copy
import json
import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from functools import partial

from ..core.pipeline import NamingOptions, label_corpus
from ..datasets.registry import DOMAINS
from ..obs.tracer import Span, current_span, current_trace
from ..obs.tracer import span as obs_span
from ..core.semantics import SemanticComparator
from ..perf import Counters, with_hit_rate
from ..schema.clusters import Mapping
from ..schema.interface import QueryInterface
from ..schema.serialize import (
    interface_from_dict,
    mapping_from_dict,
    node_to_dict,
)
from .admission import OverloadedError
from .cache import LRUCache, json_bytes
from .fingerprint import (
    RequestError,
    _canonical_lexicon,
    canonical_json,
    corpus_fingerprint,
    options_from_dict,
    options_to_dict,
    read_bool,
    require,
    require_object,
)

__all__ = [
    "BatchOutcome",
    "LabelingEngine",
    "LabelingRequest",
    "RequestError",
    "compute",
    "execute_batch",
    "parse_batch",
]

# The validation boundary: from_payload and parse_batch read every untrusted
# field once, with the readers below, and raise RequestError for any shape
# they do not accept.  Code past them trusts its input.

_PAYLOAD_KEYS = frozenset("domain seed corpus options lexicon lint timeout".split())
_LEXICON_KEYS = frozenset({"synsets", "hypernyms"})
_BATCH_KEYS = frozenset({"requests", "jobs", "timeout"})
_TIMEOUT_ERROR = (
    "'timeout' must be a positive number of seconds, at most "
    f"{threading.TIMEOUT_MAX:.0f} (the longest a thread can wait)"
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_lemmas(items, kinds: tuple = (list, tuple)) -> bool:
    return isinstance(items, kinds) and all(isinstance(i, str) for i in items)


def _read_timeout(value) -> float | None:
    """``None``, or a number of seconds in ``(0, threading.TIMEOUT_MAX]``."""
    require(
        value is None
        or (_is_int(value) or isinstance(value, float))
        and 0 < value <= threading.TIMEOUT_MAX,
        _TIMEOUT_ERROR,
    )
    return None if value is None else float(value)


def _read_lexicon(value) -> dict | None:
    """An overlay in the canonical form the fingerprint hashes (``None`` if it
    adds nothing).  Lemmas only: an integer synset id would name a different
    synset once the overlay lands on the default lexicon."""
    if value is None:
        return None
    require_object(value, "lexicon", _LEXICON_KEYS)
    synsets, pairs = value.get("synsets", []), value.get("hypernyms", [])
    require(
        isinstance(synsets, (list, tuple)) and all(
            s and _is_lemmas(s, (list, tuple, set, frozenset)) for s in synsets
        ),
        "invalid lexicon overlay: 'synsets' must be a list of non-empty lists "
        "of strings",
    )
    require(
        isinstance(pairs, (list, tuple))
        and all(_is_lemmas(pair) and len(pair) == 2 for pair in pairs),
        "invalid lexicon overlay: 'hypernyms' must be a list of "
        "[general, specific] string pairs",
    )
    return _canonical_lexicon(value)


def _read_source(payload: dict) -> dict:
    """``{"domain": d, "seed": s}``, or ``{"corpus": <document>}`` whose
    fields :func:`_build_corpus` checks as it builds them."""
    require(
        ("corpus" in payload) != ("domain" in payload),
        "request must carry exactly one of 'corpus' or 'domain'",
    )
    seed = payload.get("seed", 0)
    require(_is_int(seed), "'seed' must be an integer")
    if "corpus" in payload:
        corpus = payload["corpus"]
        require(
            isinstance(corpus, dict)
            and isinstance(corpus.get("interfaces"), list) and corpus["interfaces"],
            "'corpus' must be an object with a non-empty 'interfaces' array",
        )
        return {"corpus": corpus}
    domain = payload["domain"]
    require(
        isinstance(domain, str) and domain in DOMAINS,
        f"unknown domain {domain!r}; known: {', '.join(sorted(DOMAINS))}",
    )
    return {"domain": domain, "seed": seed}


def parse_batch(body) -> tuple[list, int | None, float | None]:
    """Check a ``POST /batch`` envelope: ``(payloads, jobs, timeout)``; each
    of the ``requests`` is checked by ``from_payload``, in its own slot."""
    require_object(body, "batch", _BATCH_KEYS)
    payloads, jobs = body.get("requests"), body.get("jobs")
    require(isinstance(payloads, list), "batch payload must carry a 'requests' array")
    require(
        jobs is None or _is_int(jobs) and jobs >= 0,
        "'jobs' must be a non-negative integer",
    )
    return payloads, jobs, _read_timeout(body.get("timeout"))


def _build_corpus(source: dict) -> tuple[list[QueryInterface], Mapping]:
    """Materialize a source: a registered domain, or a corpus document,
    whose fields the deserializers check as they build it."""
    if "domain" in source:
        from ..datasets.registry import load_domain

        dataset = load_domain(source["domain"], seed=source["seed"])
        return dataset.interfaces, dataset.mapping
    corpus = source["corpus"]
    try:
        interfaces = [interface_from_dict(d) for d in corpus["interfaces"]]
        mapping = mapping_from_dict(corpus.get("mapping"), interfaces)
    except ValueError as exc:
        raise RequestError(f"malformed corpus: {exc}") from None
    require(
        any(cluster.members for cluster in mapping.clusters),
        "malformed corpus: 'mapping' assigns no field to a cluster",
    )
    return interfaces, mapping


@dataclass
class LabelingRequest:
    """One validated unit of work for the engine.

    ``interfaces`` and ``mapping`` are built from ``source`` on first access,
    at most once per request object (which has one owner at a time: the
    thread labeling it).  A request whose fingerprint came from the
    request-key memo therefore never builds its corpus unless it is
    computed.
    """

    options: NamingOptions
    #: ``{"domain": d, "seed": s}`` or ``{"corpus": <document>}``.
    source: dict = field(repr=False)
    #: The overlay in its canonical form, or ``None`` for none.
    lexicon: dict | None = None
    domain: str | None = None
    include_lint: bool = False
    timeout: float | None = None
    fingerprint: str = field(default="", repr=False)
    _corpus: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def interfaces(self) -> list[QueryInterface]:
        return self._materialized()[0]

    @property
    def mapping(self) -> Mapping:
        return self._materialized()[1]

    def _materialized(self) -> tuple[list[QueryInterface], Mapping]:
        if self._corpus is None:
            self._corpus = _build_corpus(self.source)
        return self._corpus

    @classmethod
    def from_payload(
        cls, payload, keys: LRUCache | None = None
    ) -> "LabelingRequest":
        """Parse + validate an untrusted JSON payload (raises :class:`RequestError`).

        The one check of a ``/label`` body or a batch item, on every call.
        ``keys`` is the engine's request-key memo: a valid ``{domain, seed}``
        payload maps the canonical JSON of its source, options and overlay
        (not ``lint`` or ``timeout``) to its fingerprint, so a repeat builds
        and hashes no corpus; a ``corpus`` payload is built every call.
        """
        require_object(payload, "request", _PAYLOAD_KEYS)
        source = _read_source(payload)
        options = options_from_dict(payload.get("options"))
        lexicon = _read_lexicon(payload.get("lexicon"))
        request = cls(
            options=options,
            source=source,
            lexicon=lexicon,
            domain=source.get("domain"),
            include_lint=read_bool(payload, "lint", False),
            timeout=_read_timeout(payload.get("timeout")),
        )
        key = fingerprint = None
        if keys is not None and request.domain is not None:
            key = canonical_json(
                {"source": source, "options": options_to_dict(options),
                 "lexicon": lexicon}
            )
            fingerprint = keys.get(key)
        if fingerprint is None:
            # Fingerprint before the 1:m reduction mutates the trees: the
            # key must describe the *input*, which is what a repeat carries.
            fingerprint = corpus_fingerprint(
                request.interfaces, request.mapping, options=options,
                lexicon=lexicon,
            )
            if key is not None:
                keys.put(key, fingerprint)
        request.fingerprint = fingerprint
        return request


@dataclass
class BatchOutcome:
    """Structured result of one batch item: a value or a classified error.

    ``detail`` carries error-type-specific structure (``retry_after`` for a
    shed) that error bodies surface verbatim; ``exception`` keeps the
    original object so a timeout-wrapped single request can re-raise it
    with its type intact.
    """

    ok: bool
    value: object = None
    error: str | None = None
    error_type: str | None = None
    elapsed_ms: float = 0.0
    detail: dict | None = None
    exception: BaseException | None = None

    @classmethod
    def failure(cls, exc: BaseException, elapsed_ms: float = 0.0) -> "BatchOutcome":
        """Classify ``exc`` into an error outcome (the one classifier)."""
        error, error_type, detail = str(exc), "internal", None
        if isinstance(exc, RequestError):
            error_type = exc.error_type
        elif isinstance(exc, TimeoutError):
            error_type = "timeout"
        elif isinstance(exc, OverloadedError):
            error_type = "overloaded"
            detail = {"retry_after": round(exc.retry_after, 3)}
        else:
            error = f"{type(exc).__name__}: {exc}"
        return cls(ok=False, error=error, error_type=error_type,
                   elapsed_ms=elapsed_ms, detail=detail, exception=exc)


def _run_timed(task: Callable[[], object]) -> BatchOutcome:
    start = time.perf_counter()
    try:
        value = task()
    except Exception as exc:  # noqa: BLE001 — isolation is the contract
        return BatchOutcome.failure(exc, (time.perf_counter() - start) * 1000.0)
    return BatchOutcome(
        ok=True, value=value, elapsed_ms=(time.perf_counter() - start) * 1000.0
    )


def execute_batch(
    tasks: Sequence[Callable[[], object]],
    jobs: int = 1,
    timeout: float | None = None,
) -> list[BatchOutcome]:
    """Run ``tasks`` on up to ``jobs`` threads with full error isolation.

    Results come back in submission order, one :class:`BatchOutcome` per
    task; an exception inside a task becomes an error outcome, never a
    raised exception.  With ``jobs <= 1`` and no ``timeout`` the tasks run
    inline on the calling thread (deterministic, no thread overhead) —
    this is the byte-identical path the defaults keep.  ``timeout`` bounds
    how long the caller waits for each item's result (queueing included);
    a thread past its deadline is abandoned, not interrupted, and the call
    returns without joining it.  The pool starts at most ``len(tasks)``
    threads, whatever ``jobs`` asks for.
    """
    from .parallel import normalize_jobs

    jobs = normalize_jobs(jobs)
    if jobs == 1 and timeout is None:
        return [_run_timed(task) for task in tasks]
    pool = ThreadPoolExecutor(
        max_workers=max(1, min(jobs, len(tasks))), thread_name_prefix="repro-batch"
    )
    futures = [pool.submit(_run_timed, task) for task in tasks]
    outcomes: list[BatchOutcome] = []
    for future in futures:
        try:
            outcomes.append(future.result(timeout=timeout))
        except FutureTimeoutError:
            future.cancel()
            expired = TimeoutError(f"timed out after {timeout:g}s")
            outcomes.append(BatchOutcome.failure(expired, timeout * 1000.0))
    pool.shutdown(wait=timeout is None, cancel_futures=True)
    return outcomes


def _lint_findings_to_dicts(findings) -> list[dict]:
    return [
        {
            "check": finding.check,
            "severity": finding.severity,
            "nodes": list(finding.node_names),
            "message": finding.message,
        }
        for finding in findings
    ]


def compute(
    request: LabelingRequest, comparator: SemanticComparator, verify: str = "off"
) -> dict:
    """Label one parsed request: the fresh, JSON-ready response.

    The compute step of every miss, run in the thread serving the request
    or batch item.  With ``verify="strict"`` the paper-invariant oracles
    (:mod:`repro.testing.oracles`) re-check the labeling and their report
    rides along under ``"_oracle"`` for :meth:`LabelingEngine._store` to
    tally.
    """
    start = time.perf_counter()
    with obs_span(
        "pipeline",
        interfaces=len(request.interfaces),
        clusters=len(request.mapping),
    ):
        root, result = label_corpus(
            request.interfaces,
            request.mapping,
            comparator=comparator,
            options=request.options,
            domain=request.domain,
        )
    report = None
    if verify == "strict":
        from ..testing.oracles import verify_labeling

        with obs_span("verify.oracles") as sp:
            report = verify_labeling(root, result, comparator)
            if sp is not None:
                sp.tags["checks"] = report.checks
                sp.tags["violations"] = len(report.violations)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    leaves = list(root.leaves())
    internal = [n for n in root.internal_nodes() if n is not root]
    response = {
        "ok": True,
        "fingerprint": request.fingerprint,
        "domain": request.domain,
        "classification": result.classification.value,
        "tree": node_to_dict(root),
        "field_labels": dict(sorted(result.field_labels.items())),
        "node_labels": dict(sorted(result.node_labels.items())),
        "options": options_to_dict(request.options),
        "stats": {
            "interfaces": len(request.interfaces),
            "clusters": len(request.mapping),
            "leaves": len(leaves),
            "internal_nodes": len(internal),
            "groups": len(result.group_results),
            "labeled_fields": sum(
                1 for label in result.field_labels.values() if label
            ),
            "truncated_groups": sorted(
                name for name, res in result.group_results.items() if res.truncated
            ),
            "elapsed_ms": round(elapsed_ms, 3),
        },
    }
    if request.include_lint:
        from ..lint import lint_interface

        response["lint"] = _lint_findings_to_dicts(
            lint_interface(root, comparator)
        )
    response["cached"] = False
    if report is not None:
        response["_oracle"] = report
    return response


def _parse(payload, keys: LRUCache) -> LabelingRequest | Exception:
    try:
        return LabelingRequest.from_payload(payload, keys)
    except Exception as exc:  # noqa: BLE001 — the item's slot reports it
        return exc


def _raise(exc: BaseException):
    raise exc


def _attached(trace, span: Span, task: Callable[[], object]):
    with trace.attach(span):
        return task()


def _fan_out(
    tasks: Sequence[tuple[int, Callable[[], object]]],
    jobs: int,
    timeout: float | None,
) -> list[BatchOutcome]:
    """:func:`execute_batch` over ``(index, task)`` pairs, traced per item.

    With a trace active, one ``item[index]`` span per task is pre-created in
    submission order (a deterministic tree shape), and each task runs
    attached to its span.
    """
    runnable = [task for _, task in tasks]
    trace, parent = current_trace(), current_span()
    if trace is not None and parent is not None:
        for position, (index, task) in enumerate(tasks):
            item = Span(f"item[{index}]")
            item.start_s = item.end_s = trace.clock()
            parent.children.append(item)
            runnable[position] = partial(_attached, trace, item, task)
    return execute_batch(runnable, jobs=jobs, timeout=timeout)


#: Response keys that belong to one request, not to the stored entry.
_REQUEST_KEYS = frozenset({"cached", "lint"})


def _entry_of(response: dict) -> dict:
    """``response`` without its per-request keys: the entry it was stored as."""
    return {k: v for k, v in response.items() if k not in _REQUEST_KEYS}


def _splice(entry: bytes, keys: dict) -> bytes:
    """``entry``, a JSON object's bytes, with ``keys`` appended in order."""
    if not keys:
        return entry
    return entry[:-1] + b"," + json_bytes(keys)[1:]


def _entry(outcome: BatchOutcome) -> dict:
    """One batch slot: the response, or the classified error as JSON."""
    if outcome.ok:
        return json.loads(_splice(*outcome.value))
    entry = {
        "ok": False,
        "error": outcome.error,
        "error_type": outcome.error_type,
        "elapsed_ms": round(outcome.elapsed_ms, 3),
    }
    if outcome.detail:
        entry.update(outcome.detail)
    return entry


class LabelingEngine:
    """Validate, cache and execute labeling requests, singly or in batches.

    Knobs (all optional):

    ``cache_size``
        entries the memory tier (an :class:`LRUCache` of entry bytes) and
        the request-key memo each hold; ``0`` disables both;
    ``jobs``
        the default thread count of :meth:`label_batch`;
    ``verify``
        ``"strict"`` re-checks every freshly computed labeling against the
        paper-invariant oracles (:mod:`repro.testing.oracles`) before it is
        served or cached; a violation raises ``OracleError``;
    ``comparator``
        the comparator every overlay-free request uses, shared across all
        threads; built at construction when not given.  Passing one lets
        tests reuse warm caches across engines.
    ``executor``
        ``"thread"`` or ``"process"``, and nothing else; both compute every
        miss in this process.  Kept only so existing callers still start;
    ``disk_cache``
        a :class:`~repro.service.diskcache.DiskCache`, or a directory to
        open one in, under this engine's :meth:`engine_fingerprint`.
    """

    #: How many lexicon-overlay comparators to keep warm; overlays beyond
    #: this evict the least recently used one (its caches go with it).
    OVERLAY_COMPARATORS = 8

    #: Response schema version, part of :meth:`engine_fingerprint` — bump on
    #: any change to the response dict's shape or semantics.
    RESPONSE_FORMAT = 2

    def __init__(
        self,
        cache_size: int = 128,
        jobs: int = 1,
        verify: str = "off",
        comparator: SemanticComparator | None = None,
        executor: str = "thread",
        disk_cache=None,
    ) -> None:
        from .parallel import normalize_jobs, validate_executor

        if verify not in ("off", "strict"):
            raise ValueError("verify must be 'off' or 'strict'")
        self.cache = LRUCache(capacity=cache_size)
        # Request key -> corpus fingerprint (see LabelingRequest.from_payload).
        self._request_keys = LRUCache(capacity=cache_size)
        self.default_jobs = normalize_jobs(jobs)
        validate_executor(executor)
        self.verify = verify
        self._lock = threading.Lock()
        self.counters = Counters(
            "requests", "errors", "computations",
            "oracle_checks", "oracle_failures", "truncated_closures",
        )
        self._started = time.time()
        self.comparator = (
            comparator if comparator is not None else SemanticComparator()
        )
        # Overlay comparators are shared across requests (and batch items)
        # with the same overlay, keyed by its canonical JSON.
        self._overlay_comparators: dict[str, SemanticComparator] = {}
        # The persistent warm-start layer: a DiskCache instance, or a
        # directory path to open one under this engine's config fingerprint.
        if disk_cache is None or hasattr(disk_cache, "get"):
            self.disk = disk_cache
        else:
            from .diskcache import DiskCache

            self.disk = DiskCache(disk_cache, self.engine_fingerprint())

    def engine_fingerprint(self) -> str:
        """Digest of everything that determines a response besides the corpus.

        Keys the engine's slice of a shared :class:`DiskCache` directory:
        response format version, verify mode, and the content fingerprint
        of the engine's own compiled lexicon.  Bump ``RESPONSE_FORMAT``
        whenever the response shape changes so stale disk entries
        self-invalidate.
        """
        import hashlib

        material = canonical_json({
            "format": self.RESPONSE_FORMAT,
            "verify": self.verify,
            "lexicon": self.comparator.wordnet.fingerprint,
        })
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Single requests.
    # ------------------------------------------------------------------

    def label(self, payload) -> dict:
        """Execute one request payload (or prebuilt request); JSON-ready response.

        The decoded :meth:`label_json`.  Raises :class:`RequestError` on
        invalid payloads — batch execution and the HTTP layer turn that
        into error entries / HTTP 400.
        """
        return json.loads(self.label_json(payload))

    def label_json(self, payload, request_id: str | None = None) -> bytes:
        """Execute one request; its response as compact JSON bytes.

        The stored entry's bytes with the per-request keys appended, then
        ``request_id`` when one is given.  A payload ``timeout`` is
        enforced by running the pipeline on a helper thread and abandoning
        it past the deadline.
        """
        request = (
            payload
            if isinstance(payload, LabelingRequest)
            else LabelingRequest.from_payload(payload, self._request_keys)
        )
        if request.timeout is None:
            entry, keys = self._label_request(request)
        else:
            # The deadline helper thread must inherit the caller's context
            # (the active trace scope) — ThreadPoolExecutor does not
            # propagate contextvars on its own.
            ctx = contextvars.copy_context()
            outcome = execute_batch(
                [lambda: ctx.run(self._label_request, request)],
                jobs=1,
                timeout=request.timeout,
            )[0]
            if not outcome.ok:
                # Preserve the original type (TimeoutError, OracleError,
                # ...) so the HTTP layer maps it faithfully.
                raise outcome.exception
            entry, keys = outcome.value
        if request_id is not None:
            keys["request_id"] = request_id
        return _splice(entry, keys)

    def _label_request(self, request: LabelingRequest) -> tuple[bytes, dict]:
        """Lookup, else compute and store: one item, counted.

        The entry's bytes and the per-request keys, in the order each
        response has: a miss's ``lint`` then ``cached``, a hit's ``cached``
        then ``lint``.
        """
        self.counters.add("requests")
        try:
            entry = self._lookup(request)
            if entry is not None:
                return entry, self._hit(request, entry)
            self.counters.add("computations")
            response = compute(request, self._comparator_for(request), self.verify)
            entry = self._store(request, response)
        except Exception:
            self.counters.add("errors")
            raise
        return entry, {k: v for k, v in response.items() if k in _REQUEST_KEYS}

    def _lookup(self, request: LabelingRequest) -> bytes | None:
        """The entry's bytes for ``request`` from the cache tiers, or
        ``None`` on a miss.

        Memory first, then disk — a disk hit's bytes are served and put
        into the memory LRU as they are.
        """
        with obs_span("cache.lookup") as sp:
            entry, outcome = self.cache.get(request.fingerprint), "memory"
            if entry is None and self.disk is not None:
                entry, outcome = self.disk.get(request.fingerprint), "disk"
                if entry is not None:
                    self.cache.put(request.fingerprint, entry)
            if entry is None:
                outcome = "miss"
            if sp is not None:
                sp.tags["outcome"] = outcome
        return entry

    def _hit(self, request: LabelingRequest, entry: bytes) -> dict:
        """The keys ``request``'s hit adds to the cached ``entry``: the
        ``cached`` flag, and lint computed per request (the one case that
        decodes the entry)."""
        keys: dict = {"cached": True}
        if request.include_lint:
            from ..lint import lint_node_dict

            tree = json.loads(entry)["tree"]
            keys["lint"] = _lint_findings_to_dicts(
                lint_node_dict(tree, self._comparator_for(request))
            )
        return keys

    def _store(self, request: LabelingRequest, response: dict) -> bytes:
        """Put a fresh :func:`compute` response into memory and disk.

        A strict-mode oracle report is popped and tallied first; a labeling
        that violates an oracle raises ``OracleError`` and is never stored.
        A stored response's truncated groups add to
        ``naming.truncated_closures``.
        The stored entry leaves out the request-specific keys (lint, the
        ``cached`` flag).
        Returns the entry's bytes, encoded once and stored in both tiers.
        """
        report = response.pop("_oracle", None)
        if report is not None:
            self.counters.add("oracle_checks", report.checks)
            self.counters.add("oracle_failures", len(report.violations))
            report.raise_if_failed()
        truncated = len(response["stats"]["truncated_groups"])
        self.counters.add("truncated_closures", truncated)
        # Only httpbench/layers.py needs the copy: it times cache.copy_ms.
        entry = json_bytes(copy.deepcopy(_entry_of(response)))
        self.cache.put(request.fingerprint, entry)
        if self.disk is not None:
            self.disk.put(request.fingerprint, entry)
        return entry

    def _comparator_for(self, request: LabelingRequest) -> SemanticComparator:
        """The comparator for ``request``: the engine's, or one per overlay.

        Requests (and batch items) carrying the same lexicon overlay share
        one comparator from an LRU of at most :attr:`OVERLAY_COMPARATORS`,
        keyed by the canonical overlay, and so share its label and relation
        memos.  The overlay lexicon is built and compiled once per key.  A
        comparator's memos are safe under concurrent use (append-only maps
        of deterministic values), so one instance serves every thread.
        """
        lexicon = request.lexicon
        if lexicon is None:
            return self.comparator
        key = canonical_json(lexicon)
        overlays = self._overlay_comparators
        with self._lock:
            comparator = overlays.pop(key, None)
            if comparator is not None:
                overlays[key] = comparator  # refresh its LRU position
                return comparator
        from ..core.label import LabelAnalyzer
        from ..lexicon.io import wordnet_from_dict

        comparator = SemanticComparator(LabelAnalyzer(wordnet_from_dict(lexicon)))
        with self._lock:
            while key not in overlays and len(overlays) >= self.OVERLAY_COMPARATORS:
                del overlays[next(iter(overlays))]
            # A lost build race shares the winner.
            return overlays.setdefault(key, comparator)

    # ------------------------------------------------------------------
    # Batches.
    # ------------------------------------------------------------------

    def label_batch(
        self,
        payloads: Sequence,
        jobs: int | None = None,
        timeout: float | None = None,
    ) -> list[dict]:
        """Label many payloads concurrently; one response dict per payload.

        Invalid or failing items degrade to ``{"ok": false, ...}`` entries
        in their slot — a poisoned corpus never takes the batch down.

        Items are grouped by fingerprint here: the first of each group runs
        through :meth:`_label_request` on one of ``jobs`` threads, and its
        repeats are answered ``cached: true`` spliced onto the entry bytes
        it returned (or share its error).  With caching disabled every item
        runs on its own.  A miss computes in its item's thread, as a
        single request does, so the engine's memos and counters see it.
        """
        from .parallel import normalize_jobs

        jobs = self.default_jobs if jobs is None else normalize_jobs(jobs)
        with obs_span("engine.batch", items=len(payloads), jobs=jobs):
            requests = [_parse(payload, self._request_keys) for payload in payloads]
            # An invalid item, or any item when caching is off (a cache-less
            # engine recomputes repeats), is a group of its own.
            groups: dict[str | int, list[int]] = {}
            for index, request in enumerate(requests):
                shared = isinstance(request, LabelingRequest) and self.cache.capacity > 0
                key = request.fingerprint if shared else index
                groups.setdefault(key, []).append(index)
            # An invalid payload still gets its slot (and item span); its
            # task re-raises the parse error for the shared classifier.
            tasks = [
                (
                    first,
                    partial(self._label_request, requests[first])
                    if isinstance(requests[first], LabelingRequest)
                    else partial(_raise, requests[first]),
                )
                for first, *_ in groups.values()
            ]
            outcomes = _fan_out(tasks, jobs, timeout)
            entries: list[dict | None] = [None] * len(requests)
            failed = 0
            for (first, *rest), outcome in zip(groups.values(), outcomes):
                entries[first] = _entry(outcome)
                failed += 0 if outcome.ok else len(rest)
                for index in rest:
                    if outcome.ok:
                        entry = outcome.value[0]
                        hit = self._hit(requests[index], entry)
                        entries[index] = json.loads(_splice(entry, hit))
                    else:
                        entries[index] = _entry(outcome)
            self.counters.add("requests", len(requests) - len(groups))
            self.counters.add("errors", failed)
            return entries

    # ------------------------------------------------------------------
    # Introspection / lifecycle.
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Engine counters + cache stats (embedded in ``GET /metrics``)."""
        with self._lock:
            overlays = list(self._overlay_comparators.values())
        counts = self.counters.snapshot()
        comparators = [self.comparator, *overlays]
        # Each memo section summed over the comparators, rate re-derived.
        semantics: dict = {}
        for comparator in comparators:
            for section, stats in comparator.cache_stats().items():
                total = semantics.setdefault(section, {})
                for key, value in stats.items():
                    total[key] = total.get(key, 0) + value
        for total in semantics.values():
            with_hit_rate(total)
        semantics["comparators"] = len(comparators)
        semantics["overlay_comparators"] = len(overlays)
        snapshot = {
            "requests": counts["requests"],
            "errors": counts["errors"],
            "computations": counts["computations"],
            "uptime_s": round(time.time() - self._started, 3),
            "default_jobs": self.default_jobs,
            "default_executor": "thread",
            "cache": self.cache.stats(),
            "request_keys": self._request_keys.stats(),
            "naming": {"truncated_closures": counts["truncated_closures"]},
            "semantics": semantics,
            "resilience": {
                "verify": self.verify,
                "oracle": {
                    "checks": counts["oracle_checks"],
                    "failures": counts["oracle_failures"],
                },
            },
        }
        if self.disk is not None:
            snapshot["disk"] = self.disk.stats()
        return snapshot

    def close(self) -> None:
        """Release cached results and the disk tier's segment handle
        (symmetry with the server lifecycle)."""
        self.cache.clear()
        if self.disk is not None:
            self.disk.close()
