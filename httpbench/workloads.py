"""The three traffic mixes and the seeded request streams they send.

A workload seed fixes the order of the domains in every round; the server
only ever receives the generated payloads (``{"domain", "seed"}`` label
requests, or ``{"requests": [...]}`` batches of them).

Round ``r`` of a fresh-corpus stream asks for corpus seed
``FRESH_BASE + r`` of each domain, whatever the workload seed.  Each
server is fresh, so every one of them is still a miss, and every run
computes the same corpora: with corpora that change with the seed, the
work per run would move with it, and a spread over seeds would measure
the corpus generator as much as the service.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections.abc import Iterator
from dataclasses import dataclass

#: The seven registered domains, in Table 6 order (``repro.datasets.registry``).
DOMAINS = ("airline", "auto", "book", "job", "realestate", "carrental", "hotels")

#: Job's ``Combine*`` closure dominates cold labeling; ``batch_process``
#: leaves it out so the executor, not the closure, sets the batch time.
NON_JOB = tuple(d for d in DOMAINS if d != "job")

#: Corpus seeds the ``hit_heavy`` server is primed with.
HIT_SEEDS = (0, 1)

#: Corpus seed of round 0 of a fresh-corpus stream (warm-up uses one less).
FRESH_BASE = 1001

#: Rounds a fresh-corpus stream has; a run uses far fewer.
ROUNDS = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    endpoint: str  # "/label" or "/batch"
    clients: int
    expect_cached: bool
    #: Completed requests after which the server's RSS is read: memory for
    #: a fixed amount of work, so a faster build is not read as a bigger one.
    rss_after: int
    serve_args: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hit_heavy",
            "14 primed (domain, seed) pairs, so every POST /label is a "
            "memory-cache hit: parse, fingerprint, lookup, copy, serialize",
            "/label",
            clients=2,
            expect_cached=True,
            rss_after=2000,
        ),
        Workload(
            "miss_mix",
            "every POST /label names a fresh corpus of one of 7 domains, so "
            "each is computed and written to both cache tiers",
            "/label",
            clients=2,
            expect_cached=False,
            rss_after=140,
        ),
        Workload(
            "batch_process",
            "POST /batch of 6 fresh non-Job corpora to a process-executor "
            "server, so service.parallel sets the time",
            "/batch",
            clients=1,
            expect_cached=False,
            rss_after=50,
            serve_args=("--executor", "process", "--jobs", "2"),
        ),
    )
}


def _label(domain: str, corpus_seed: int) -> dict:
    return {"domain": domain, "seed": corpus_seed}


def priming(workload: Workload, seed: int) -> list[dict]:
    """Requests sent during set-up, before the timed window.

    ``hit_heavy`` computes its 14 pairs here so the window only hits; the
    fresh-corpus workloads send one warm-up corpus per domain (a batch of
    them for ``batch_process``) under a seed the stream never uses, so the
    server's lazy start-up work is done before timing begins.
    """
    if workload.name == "hit_heavy":
        return [_label(d, s) for d in DOMAINS for s in HIT_SEEDS]
    warm = FRESH_BASE - 1
    if workload.name == "batch_process":
        return [{"requests": [_label(d, warm) for d in NON_JOB]}]
    return [_label(d, warm) for d in DOMAINS]


def stream(workload: Workload, seed: int) -> Iterator[dict]:
    """The endless, deterministic request stream of one workload run."""
    rng = random.Random(f"{workload.name}:{seed}")
    if workload.name == "hit_heavy":
        pairs = priming(workload, seed)
        while True:
            yield from rng.sample(pairs, len(pairs))
    domains = NON_JOB if workload.name == "batch_process" else DOMAINS
    for round_no in itertools.count():
        if round_no >= ROUNDS:
            raise RuntimeError("stream exhausted its corpus-seed range")
        order = rng.sample(domains, len(domains))
        items = [_label(d, FRESH_BASE + round_no) for d in order]
        if workload.endpoint == "/batch":
            yield {"requests": items}
        else:
            yield from items


def stream_digest(items: list[dict]) -> str:
    """sha256 over the canonical JSON of ``items`` (one line each)."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(json.dumps(item, sort_keys=True, separators=(",", ":")).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def corpora(item: dict) -> list[dict]:
    """The label requests one stream item carries (a batch holds several)."""
    return item["requests"] if "requests" in item else [item]


def labels_digest(response: dict) -> str:
    """Digest of the labeling itself: field labels, node labels, classification."""
    material = json.dumps(
        [response.get("field_labels"), response.get("node_labels"),
         response.get("classification")],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode()).hexdigest()
