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

It also holds :class:`RequestError` and the readers :func:`options_from_dict`
shares with :meth:`repro.service.engine.LabelingRequest.from_payload`.
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
    "RequestError",
    "canonical_json",
    "corpus_fingerprint",
    "fingerprint_document",
    "options_to_dict",
    "options_from_dict",
]


class RequestError(ValueError):
    """A request that cannot be executed (maps to HTTP 400)."""

    error_type = "invalid_request"


def require(ok: bool, message: str) -> None:
    """Raise :class:`RequestError` with ``message`` unless ``ok``."""
    if not ok:
        raise RequestError(message)


def require_object(value, name: str, known: frozenset) -> None:
    """Require ``value`` to be a JSON object whose keys are all in ``known``."""
    require(isinstance(value, dict), f"{name} must be an object")
    unknown = value.keys() - known
    require(not unknown, f"unknown {name} field(s): {sorted(map(str, unknown))}")


def read_bool(data: dict, key: str, default: bool) -> bool:
    """``data[key]`` (``default`` if absent), which must be a JSON boolean."""
    value = data.get(key, default)
    require(isinstance(value, bool), f"'{key}' must be true or false")
    return value


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


_OPTION_KEYS = frozenset(options_to_dict(None))
_LEVELS = {level.name.lower(): level for level in ConsistencyLevel}
_RULES = {rule.value.lower(): rule for rule in InferenceRule}


def options_from_dict(data: dict | None) -> NamingOptions:
    """Inverse of :func:`options_to_dict`, reading an untrusted ``options``.

    ``None`` means the defaults.  Flags are JSON booleans, ``max_level`` a
    level name and ``enabled_rules`` a list of rule names (either case);
    anything else, an unknown key included, raises :class:`RequestError`.
    """
    if data is None:
        return NamingOptions()
    require_object(data, "naming options", _OPTION_KEYS)
    defaults = NamingOptions()
    level = data.get("max_level", defaults.max_level.name)
    require(
        isinstance(level, str) and level.lower() in _LEVELS,
        f"max_level must be one of: {', '.join(_LEVELS)}",
    )
    rules = data.get("enabled_rules")
    require(
        rules is None or isinstance(rules, list) and all(
            isinstance(rule, str) and rule.lower() in _RULES for rule in rules
        ),
        "enabled_rules must be a list of rules among: "
        + ", ".join(rule.value for rule in InferenceRule),
    )
    return NamingOptions(
        use_instances=read_bool(data, "use_instances", defaults.use_instances),
        max_level=_LEVELS[level.lower()],
        enabled_rules=defaults.enabled_rules if rules is None else frozenset(
            _RULES[rule.lower()] for rule in rules
        ),
        repair_homonyms=read_bool(data, "repair_homonyms", defaults.repair_homonyms),
    )


def _canonical_lexicon(lexicon: dict | None) -> dict | None:
    """An overlay with its synsets and hypernyms sorted; ``None`` when it
    adds nothing (absent, or no synsets and no hypernyms)."""
    lexicon = lexicon or {}
    synsets = sorted(sorted(synset) for synset in lexicon.get("synsets", ()))
    hypernyms = sorted(list(pair) for pair in lexicon.get("hypernyms", ()))
    if not synsets and not hypernyms:
        return None
    return {"synsets": synsets, "hypernyms": hypernyms}


def fingerprint_document(
    corpus: dict,
    options: NamingOptions | None = None,
    lexicon: dict | None = None,
) -> str:
    """SHA-256 fingerprint of a raw corpus document + knobs.

    ``corpus`` is the ``save_corpus`` JSON shape (``canonical_json`` sorts
    its mapping); ``lexicon`` the overlay dict accepted by
    :func:`repro.lexicon.io.wordnet_from_dict` (or ``None``).
    """
    envelope = {
        "corpus": {"interfaces": corpus["interfaces"], "mapping": corpus["mapping"]},
        "options": options_to_dict(options),
        "lexicon": _canonical_lexicon(lexicon),
    }
    digest = hashlib.sha256(canonical_json(envelope).encode("utf-8"))
    return digest.hexdigest()


def corpus_fingerprint(
    interfaces: list[QueryInterface],
    mapping: Mapping,
    options: NamingOptions | None = None,
    lexicon: dict | None = None,
) -> str:
    """Fingerprint of in-memory corpus objects (same digest as the document form)."""
    return fingerprint_document(
        corpus_to_dict(interfaces, mapping), options=options, lexicon=lexicon
    )
