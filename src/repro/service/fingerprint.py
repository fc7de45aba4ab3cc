"""Stable content fingerprints of labeling inputs — the service cache key.

A labeling run is a pure function of three inputs: the corpus (source
interface trees + cluster mapping), the lexicon overlay merged over the
built-in MiniWordNet, and the :class:`~repro.core.pipeline.NamingOptions`.
This module hashes exactly those three things into one hex digest, so the
service can answer a repeated request from its cache (:mod:`repro.service.cache`)
without re-running the pipeline.

The digest is computed over a *canonical* JSON form — sorted keys, sorted
mapping clusters/members, no whitespace variance — so it is invariant
under everything that does not change meaning: dict insertion order,
``save_corpus``/``load_corpus`` round trips, pretty-printing, and the
order synsets were declared in a lexicon overlay.
"""

from __future__ import annotations

import hashlib
import json

from ..core.consistency import ConsistencyLevel
from ..core.inference import InferenceRule
from ..core.pipeline import NamingOptions
from ..schema.clusters import Mapping
from ..schema.interface import QueryInterface
from ..schema.serialize import corpus_to_dict

__all__ = [
    "canonical_json",
    "corpus_fingerprint",
    "fingerprint_document",
    "options_to_dict",
    "options_from_dict",
]


def canonical_json(value) -> str:
    """``value`` as minimal, key-sorted JSON — the hashable canonical form."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


def options_to_dict(options: NamingOptions | None) -> dict:
    """A :class:`NamingOptions` as a plain, canonically ordered dict."""
    options = options or NamingOptions()
    return {
        "use_instances": options.use_instances,
        "max_level": options.max_level.name.lower(),
        "enabled_rules": sorted(rule.value for rule in options.enabled_rules),
        "repair_homonyms": options.repair_homonyms,
    }


def options_from_dict(data: dict | None) -> NamingOptions:
    """Inverse of :func:`options_to_dict`; unknown keys/values raise ``ValueError``."""
    if data is not None and not isinstance(data, dict):
        raise ValueError("naming options must be an object")
    data = dict(data or {})
    defaults = NamingOptions()
    known = {"use_instances", "max_level", "enabled_rules", "repair_homonyms"}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown naming option(s): {', '.join(sorted(unknown))}")
    try:
        max_level = ConsistencyLevel[
            str(data.get("max_level", defaults.max_level.name)).upper()
        ]
    except KeyError:
        names = ", ".join(level.name.lower() for level in ConsistencyLevel)
        raise ValueError(
            f"max_level must be one of: {names}"
        ) from None
    rules = data.get("enabled_rules")
    if rules is None:
        enabled = defaults.enabled_rules
    else:
        try:
            enabled = frozenset(InferenceRule(str(r).upper()) for r in rules)
        except (TypeError, ValueError):
            names = ", ".join(rule.value for rule in InferenceRule)
            raise ValueError(
                f"enabled_rules must be a list of rules among: {names}"
            ) from None
    return NamingOptions(
        use_instances=bool(data.get("use_instances", defaults.use_instances)),
        max_level=max_level,
        enabled_rules=enabled,
        repair_homonyms=bool(data.get("repair_homonyms", defaults.repair_homonyms)),
    )


def _canonical_corpus_document(corpus: dict) -> dict:
    """Normalize a raw ``{"interfaces": ..., "mapping": ...}`` document.

    Mapping clusters and members sort by name; interface list order is
    preserved (it is semantically meaningful).  Works on untrusted request
    payloads without building schema objects first.
    """
    mapping = {
        cluster: {
            interface: members[interface] for interface in sorted(members)
        }
        for cluster, members in sorted(corpus.get("mapping", {}).items())
    }
    return {"interfaces": corpus.get("interfaces", []), "mapping": mapping}


def _canonical_lexicon(lexicon: dict | None) -> dict | None:
    if not lexicon:
        return None
    synsets = sorted(
        sorted(str(lemma) for lemma in synset)
        for synset in lexicon.get("synsets", [])
    )
    hypernyms = sorted(
        [str(pair[0]), str(pair[1])] for pair in lexicon.get("hypernyms", [])
    )
    return {"synsets": synsets, "hypernyms": hypernyms}


def fingerprint_document(
    corpus: dict,
    options: dict | NamingOptions | None = None,
    lexicon: dict | None = None,
) -> str:
    """SHA-256 fingerprint of a raw corpus document + knobs.

    ``corpus`` is the ``save_corpus`` JSON shape; ``options`` either a
    :class:`NamingOptions` or its dict form; ``lexicon`` the overlay dict
    accepted by :func:`repro.lexicon.io.wordnet_from_dict` (or ``None``).
    """
    if isinstance(options, NamingOptions) or options is None:
        options_doc = options_to_dict(options)
    else:
        options_doc = options_to_dict(options_from_dict(options))
    envelope = {
        "corpus": _canonical_corpus_document(corpus),
        "options": options_doc,
        "lexicon": _canonical_lexicon(lexicon),
    }
    digest = hashlib.sha256(canonical_json(envelope).encode("utf-8"))
    return digest.hexdigest()


def corpus_fingerprint(
    interfaces: list[QueryInterface],
    mapping: Mapping,
    options: NamingOptions | dict | None = None,
    lexicon: dict | None = None,
) -> str:
    """Fingerprint of in-memory corpus objects (same digest as the document form)."""
    return fingerprint_document(
        corpus_to_dict(interfaces, mapping), options=options, lexicon=lexicon
    )
