"""CompiledLexicon: a :class:`MiniWordNet` frozen into O(1) query tables.

Every lexicon query the labeling stack makes goes to a compiled snapshot:
:class:`~repro.core.label.LabelAnalyzer` compiles whatever lexicon it is
given (a no-op for a snapshot), and the default is :func:`default_compiled`.
The builder's graph walks are the hot inner loop of the Definition-1
predicates; compilation trades them for immutable tables computed once:

* ``lemma -> synset-id bitmask`` — synonymy is one dict lookup per lemma
  plus a bitwise AND (shared bit = shared synset);
* ``lemma -> ancestor bitmask`` — the transitive hypernym closure of every
  synset, precomputed as a Python int whose bit *i* marks synset *i*;
  ``is_hypernym`` and ``share_hypernym`` are likewise one AND each;
* a precomputed base-form map covering the whole compiled vocabulary (and
  the irregular-form table), so ``lemma_base`` on corpus tokens is a dict
  hit; unknown tokens still run morphy against the compiled vocabulary and
  land in a bounded runtime memo.

A compiled lexicon is **immutable** — mutation raises
:class:`ImmutableLexiconError` — so the caches built over it (label
analyzer, semantic comparator) never need invalidating; editing the
builder afterwards does not reach a snapshot already compiled from it.
:attr:`fingerprint` is a SHA-256 over the canonical synset/edge content,
used by the disk cache's engine key.

Equivalence with the builder is part of the contract:
``tests/test_compiled_lexicon.py`` tests every query against
:class:`MiniWordNet` over the full curated vocabulary and over random
small lexicons.
"""

from __future__ import annotations

import hashlib
import json
import threading

from ..resilience.faults import maybe_inject
from .morphology import IRREGULAR_FORMS, base_form
from .wordnet import MiniWordNet, Synset

__all__ = [
    "CompiledLexicon",
    "ImmutableLexiconError",
    "compile_lexicon",
    "default_compiled",
    "lexicon_fingerprint",
]

#: Bound on the out-of-vocabulary base-form memo; past it the memo is cleared.
MEMO_LIMIT = 1 << 17


class ImmutableLexiconError(TypeError):
    """Raised when code tries to mutate a :class:`CompiledLexicon`."""


def _canonical_data(wordnet: MiniWordNet) -> dict:
    """The lexicon's content in a canonical, order-independent form.

    Synsets are sorted lemma lists, themselves sorted; hypernym edges are
    ``[general-synset, specific-synset]`` pairs in that same canonical
    form.  Two lexicons built from the same facts in any order map to the
    same document, hence the same fingerprint.
    """
    synsets, edges = wordnet.export_data()
    return {
        "synsets": sorted(sorted(lemmas) for lemmas in synsets),
        "hypernyms": sorted(
            [sorted(general), sorted(specific)] for general, specific in edges
        ),
    }


def lexicon_fingerprint(wordnet) -> str:
    """SHA-256 content fingerprint of any lexicon (builder or compiled)."""
    if isinstance(wordnet, CompiledLexicon):
        return wordnet.fingerprint
    canonical = json.dumps(
        _canonical_data(wordnet), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CompiledLexicon:
    """An immutable, O(1)-query snapshot of a lexical database.

    Implements the exact query surface the labeling stack uses
    (``lemma_base`` / ``are_synonyms`` / ``is_hypernym`` /
    ``share_hypernym`` / ``is_known`` / ``synsets_of``) with answers
    identical to the :class:`MiniWordNet` it was compiled from.  Build via
    :func:`compile_lexicon`, never directly.
    """

    def __init__(
        self,
        synsets: tuple[frozenset[str], ...],
        lemma_sids: dict[str, tuple[int, ...]],
        lemma_sid_mask: dict[str, int],
        lemma_ancestor_mask: dict[str, int],
        base_map: dict[str, str],
        fingerprint: str,
    ) -> None:
        self._synsets = synsets
        self._lemma_sids = lemma_sids
        self._lemma_sid_mask = lemma_sid_mask
        self._lemma_ancestor_mask = lemma_ancestor_mask
        self._base_map = base_map
        self.fingerprint = fingerprint
        #: Runtime-only memo for out-of-vocabulary tokens.
        self._base_cache: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Immutability.
    # ------------------------------------------------------------------

    def _immutable(self, operation: str):
        raise ImmutableLexiconError(
            f"CompiledLexicon is immutable ({operation}); edit a MiniWordNet "
            "and compile it again"
        )

    def add_synset(self, lemmas):
        self._immutable("add_synset")

    def add_hypernym(self, general, specific):
        self._immutable("add_hypernym")

    def load(self, synsets, hypernym_pairs=()):
        self._immutable("load")

    # ------------------------------------------------------------------
    # Vocabulary.
    # ------------------------------------------------------------------

    def is_known(self, word: str) -> bool:
        """True when ``word`` (as given, lowercased) is some synset's lemma."""
        return word.lower().strip() in self._lemma_sids

    def lemma_base(self, token: str) -> str:
        """Morphy against the compiled vocabulary — precomputed for every
        known lemma and irregular form, memoised (bounded) for the rest."""
        cached = self._base_map.get(token)
        if cached is None:
            cached = self._base_cache.get(token)
        if cached is not None:
            return cached
        maybe_inject("lexicon.query")
        result = base_form(token, self.is_known)
        if len(self._base_cache) >= MEMO_LIMIT:
            self._base_cache.clear()
        self._base_cache[token] = result
        return result

    def synsets_of(self, word: str) -> tuple[Synset, ...]:
        """All synsets whose lemma set contains the base form of ``word``."""
        lemma = self.lemma_base(word)
        return tuple(
            Synset(sid, self._synsets[sid])
            for sid in self._lemma_sids.get(lemma, ())
        )

    def vocabulary(self) -> tuple[str, ...]:
        """Every known lemma, sorted (the compile-time snapshot)."""
        return tuple(sorted(self._lemma_sids))

    def __len__(self) -> int:
        return len(self._synsets)

    def __contains__(self, word: str) -> bool:
        return self.lemma_base(word) in self._lemma_sids

    # ------------------------------------------------------------------
    # Queries used by Definition 1 — each one dict hit + bitwise AND.
    # ------------------------------------------------------------------

    def are_synonyms(self, a: str, b: str) -> bool:
        """True when ``a`` and ``b`` are distinct words sharing a synset."""
        la, lb = self.lemma_base(a), self.lemma_base(b)
        if la == lb:
            return False
        mask_a = self._lemma_sid_mask.get(la)
        if not mask_a:
            return False
        mask_b = self._lemma_sid_mask.get(lb)
        return bool(mask_b) and bool(mask_a & mask_b)

    def is_hypernym(self, general: str, specific: str) -> bool:
        """True when ``general`` is a (transitive) hypernym of ``specific``."""
        lg, ls = self.lemma_base(general), self.lemma_base(specific)
        if lg == ls:
            return False
        mask_g = self._lemma_sid_mask.get(lg)
        if not mask_g:
            return False
        ancestors_s = self._lemma_ancestor_mask.get(ls)
        if ancestors_s is None:
            return False
        return bool(mask_g & ancestors_s)

    def share_hypernym(self, a: str, b: str) -> bool:
        """True when ``a`` and ``b`` have a common (transitive) hypernym."""
        ancestors_a = self._lemma_ancestor_mask.get(self.lemma_base(a))
        if not ancestors_a:
            return False
        ancestors_b = self._lemma_ancestor_mask.get(self.lemma_base(b))
        return bool(ancestors_b) and bool(ancestors_a & ancestors_b)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CompiledLexicon({len(self._synsets)} synsets, "
            f"{len(self._lemma_sids)} lemmas, {self.fingerprint[:12]}...)"
        )


def compile_lexicon(wordnet: MiniWordNet | CompiledLexicon) -> CompiledLexicon:
    """Freeze ``wordnet`` into a :class:`CompiledLexicon`.

    Precomputes, in one pass over the database:

    * the per-lemma synset-id bitmask (synonymy table);
    * the per-lemma ancestor bitmask — the union of the transitive
      hypernym closures of the lemma's synsets (hypernymy/co-hyponymy
      table);
    * the base-form map over the full vocabulary plus the irregular-form
      table, each entry produced by the same morphy loop the builder
      runs.

    Compiling a :class:`CompiledLexicon` returns it unchanged.
    """
    if isinstance(wordnet, CompiledLexicon):
        return wordnet
    synsets, sid_ancestors, lemma_sids = wordnet.export_tables()

    lemma_sid_mask: dict[str, int] = {}
    lemma_ancestor_mask: dict[str, int] = {}
    ancestor_masks = [
        _mask_of(ancestors) for ancestors in sid_ancestors
    ]
    for lemma, sids in lemma_sids.items():
        sid_mask = _mask_of(sids)
        anc_mask = 0
        for sid in sids:
            anc_mask |= ancestor_masks[sid]
        lemma_sid_mask[lemma] = sid_mask
        lemma_ancestor_mask[lemma] = anc_mask

    base_map: dict[str, str] = {}
    is_known = lemma_sids.__contains__
    for lemma in lemma_sids:
        base_map[lemma] = base_form(lemma, is_known)
    for inflected in IRREGULAR_FORMS:
        base_map.setdefault(inflected, base_form(inflected, is_known))

    return CompiledLexicon(
        synsets=tuple(synsets),
        lemma_sids={
            lemma: tuple(sorted(sids)) for lemma, sids in lemma_sids.items()
        },
        lemma_sid_mask=lemma_sid_mask,
        lemma_ancestor_mask=lemma_ancestor_mask,
        base_map=base_map,
        fingerprint=lexicon_fingerprint(wordnet),
    )


def _mask_of(ids) -> int:
    mask = 0
    for sid in ids:
        mask |= 1 << sid
    return mask


_DEFAULT: CompiledLexicon | None = None
_DEFAULT_LOCK = threading.Lock()


def default_compiled() -> CompiledLexicon:
    """The compiled form of the built-in curated lexicon (cached singleton).

    Safe to share across threads (immutable).
    """
    global _DEFAULT
    if _DEFAULT is None:
        with _DEFAULT_LOCK:
            if _DEFAULT is None:
                from .data import build_default_wordnet

                _DEFAULT = compile_lexicon(build_default_wordnet())
    return _DEFAULT
