"""Definition 1 — the semantic relationships between two labels.

Given labels A, B with content-word sets ``Acw = {a1..an}``, ``Bcw = {b1..bm}``:

* **A string_equal B** — identical display forms (plain string comparison).
* **A equal B** — ``Acw = Bcw`` (e.g. *Type of Job* equals *Job Type*).
* **A synonym B** — n = m, every element of Acw and Bcw participates in at
  least one equality-or-synonymy relationship with the other side, and at
  least one of those relationships is WordNet synonymy (e.g. *Area of Study*
  synonym *Field of Work*).
* **A hypernym B** — n <= m and every ai is related (equality, synonymy or
  WordNet hypernymy) to some bj, with n < m or at least one hypernymy
  (e.g. *Class* hypernym *Class of Tickets*).
* **A hyponym B** — B hypernym A.

The synonym and hypernym relations are only defined for labels without
conjunctions (and/&, or//), per the paper's closing note on Definition 1.

All functions are methods of :class:`SemanticComparator` so the lexicon is
fixed once; :func:`relation_between` reports the strongest relation, which
Definition 2's consistency ladder and the LI rules build on.

Memoization
-----------
The naming algorithm asks the same label pairs over and over — once per
consistency level in Definition 2's ladder, again for the LI rules, again
for homonym repair.  The comparator therefore memoises, per lifetime:

* ``relation_between`` — one entry per (a, b) pair, keyed on the labels'
  intern keys (:attr:`repro.core.label.Label.key`) or, for plain-string
  arguments, the strings themselves.  The stored strongest relation answers
  the whole Definition-2 ladder (string / equality / synonymy) as well as
  :meth:`similar` and :meth:`at_least_as_general` — all three are exact
  functions of the strongest relation (see the proofs inline).
* ``synonym`` / ``hypernym`` — the two predicates with quadratic token
  loops, memoised separately so the LI rules (which call them directly,
  not through the ladder) hit too.

The lexicon underneath is an immutable
:class:`~repro.lexicon.compiled.CompiledLexicon`, so no memo here is ever
invalidated.  Caches are bounded by :data:`RELATION_CACHE_LIMIT` against
unbounded service vocabularies.

Whole group-naming results are not memoised: a group relation seldom
recurs outside its own corpus, and the service answers a repeated corpus
from its result cache before the pipeline runs.
"""

from __future__ import annotations

from enum import IntEnum

from ..lexicon.compiled import CompiledLexicon
from ..lexicon.normalize import Token
from ..perf import Counters
from .label import Label, LabelAnalyzer

__all__ = ["LabelRelation", "SemanticComparator"]

#: Per-memo entry bound; past it the memo is cleared (counted as evictions).
RELATION_CACHE_LIMIT = 1 << 18


class LabelRelation(IntEnum):
    """Strength-ordered label relations (higher = stronger)."""

    NONE = 0
    HYPONYM = 1
    HYPERNYM = 2
    SYNONYM = 3
    EQUAL = 4
    STRING_EQUAL = 5


class SemanticComparator:
    """Definition-1 relations over labels, bound to one lexicon.

    Safe to share across threads serving the same lexicon: the memos are
    append-only maps from deterministic keys to deterministic values, so
    the worst concurrent outcome is two threads computing the same entry.
    """

    def __init__(self, analyzer: LabelAnalyzer | None = None) -> None:
        self.analyzer = analyzer or LabelAnalyzer()
        self.wordnet: CompiledLexicon = self.analyzer.wordnet
        self._relation_cache: dict = {}
        self._synonym_cache: dict = {}
        self._hypernym_cache: dict = {}
        self.relation_counter = Counters("hits", "misses", "evictions")
        self.predicate_counter = Counters("hits", "misses", "evictions")

    # ------------------------------------------------------------------
    # Coercion and cache plumbing.
    # ------------------------------------------------------------------

    def _as_label(self, label: str | Label) -> Label:
        if isinstance(label, Label):
            return label
        return self.analyzer.label(label)

    @staticmethod
    def _cache_key(label: str | Label):
        """A hashable identity under which a comparison may be memoised.

        Strings key as themselves (skipping analysis entirely on a hit);
        analyzer-built labels key by their intern id.  A label built by
        hand (``key == -1``) keys as the object — content-hashed, still
        correct, just never shared.
        """
        if type(label) is str:
            return label
        return label.key if label.key >= 0 else label

    def _bound(self, memo: dict, counter: Counters) -> None:
        if len(memo) >= RELATION_CACHE_LIMIT:
            counter.add("evictions", len(memo))
            memo.clear()

    # ------------------------------------------------------------------
    # Token-level relations.
    # ------------------------------------------------------------------

    def tokens_equal(self, a: Token, b: Token) -> bool:
        """Content-word equality: identical stems (Preference ~ Preferred)."""
        return a.stem == b.stem

    def tokens_synonym(self, a: Token, b: Token) -> bool:
        """WordNet synonymy between the tokens' base forms."""
        return self.wordnet.are_synonyms(a.lemma, b.lemma)

    def tokens_hypernym(self, a: Token, b: Token) -> bool:
        """True when ``a`` is a WordNet hypernym of ``b``."""
        return self.wordnet.is_hypernym(a.lemma, b.lemma)

    def _tokens_related_for_hypernymy(self, a: Token, b: Token) -> tuple[bool, bool]:
        """(related?, via-hypernymy?) for the hypernym definition."""
        if self.tokens_equal(a, b) or self.tokens_synonym(a, b):
            return True, False
        if self.tokens_hypernym(a, b):
            return True, True
        return False, False

    # ------------------------------------------------------------------
    # Definition 1 relations.
    # ------------------------------------------------------------------

    def string_equal(self, a: str | Label, b: str | Label) -> bool:
        la, lb = self._as_label(a), self._as_label(b)
        return la.display.casefold() == lb.display.casefold()

    def equal(self, a: str | Label, b: str | Label) -> bool:
        la, lb = self._as_label(a), self._as_label(b)
        return bool(la.stems) and la.stems == lb.stems

    def synonym(self, a: str | Label, b: str | Label) -> bool:
        key = (self._cache_key(a), self._cache_key(b))
        cached = self._synonym_cache.get(key)
        if cached is not None:
            self.predicate_counter.add("hits")
            return cached
        self.predicate_counter.add("misses")
        result = self._synonym_uncached(self._as_label(a), self._as_label(b))
        self._bound(self._synonym_cache, self.predicate_counter)
        self._synonym_cache[key] = result
        # The synonym definition is symmetric (both directions are checked).
        self._synonym_cache[(key[1], key[0])] = result
        return result

    def _synonym_uncached(self, la: Label, lb: Label) -> bool:
        if la.has_conjunction or lb.has_conjunction:
            return False
        n, m = len(la.tokens), len(lb.tokens)
        if n == 0 or n != m:
            return False
        saw_synonymy = False
        # Every element of Acw must relate to some element of Bcw ...
        for a_tok in la.tokens:
            related = False
            for b_tok in lb.tokens:
                if self.tokens_equal(a_tok, b_tok):
                    related = True
                elif self.tokens_synonym(a_tok, b_tok):
                    related = True
                    saw_synonymy = True
            if not related:
                return False
        # ... and vice versa.
        for b_tok in lb.tokens:
            if not any(
                self.tokens_equal(b_tok, a_tok) or self.tokens_synonym(b_tok, a_tok)
                for a_tok in la.tokens
            ):
                return False
        return saw_synonymy

    def hypernym(self, a: str | Label, b: str | Label) -> bool:
        """True when ``a`` is (strictly) more general than ``b`` by Def. 1."""
        key = (self._cache_key(a), self._cache_key(b))
        cached = self._hypernym_cache.get(key)
        if cached is not None:
            self.predicate_counter.add("hits")
            return cached
        self.predicate_counter.add("misses")
        result = self._hypernym_uncached(self._as_label(a), self._as_label(b))
        self._bound(self._hypernym_cache, self.predicate_counter)
        self._hypernym_cache[key] = result
        return result

    def _hypernym_uncached(self, la: Label, lb: Label) -> bool:
        if la.has_conjunction or lb.has_conjunction:
            return False
        n, m = len(la.tokens), len(lb.tokens)
        if n == 0 or n > m:
            return False
        saw_hypernymy = False
        for a_tok in la.tokens:
            related = False
            for b_tok in lb.tokens:
                rel, via_hyp = self._tokens_related_for_hypernymy(a_tok, b_tok)
                if rel:
                    related = True
                    saw_hypernymy = saw_hypernymy or via_hyp
            if not related:
                return False
        return n < m or saw_hypernymy

    def hyponym(self, a: str | Label, b: str | Label) -> bool:
        return self.hypernym(b, a)

    # ------------------------------------------------------------------
    # Aggregates.
    # ------------------------------------------------------------------

    def relation_between(self, a: str | Label, b: str | Label) -> LabelRelation:
        """The strongest Definition-1 relation holding from ``a`` to ``b``."""
        ka, kb = self._cache_key(a), self._cache_key(b)
        cached = self._relation_cache.get((ka, kb))
        if cached is not None:
            self.relation_counter.add("hits")
            return cached
        self.relation_counter.add("misses")
        relation = self._relation_uncached(a, b)
        self._bound(self._relation_cache, self.relation_counter)
        self._relation_cache[(ka, kb)] = relation
        # The reverse entry follows for free in every case but HYPERNYM:
        # string/equality/synonymy are symmetric, NONE rules out all five
        # predicates in both directions, and HYPONYM(a,b) means
        # hypernym(b,a) holds, which the ladder for (b,a) reaches first.
        # A HYPERNYM result leaves hypernym(b,a) undetermined (the ladder
        # checks it before hyponym), so that direction is computed when
        # asked.
        if relation is not LabelRelation.HYPERNYM:
            reverse = (
                LabelRelation.HYPERNYM
                if relation is LabelRelation.HYPONYM
                else relation
            )
            self._relation_cache[(kb, ka)] = reverse
        return relation

    def _relation_uncached(self, a: str | Label, b: str | Label) -> LabelRelation:
        """Definition 1's ladder, strongest first (no relation-cache use)."""
        if self.string_equal(a, b):
            return LabelRelation.STRING_EQUAL
        if self.equal(a, b):
            return LabelRelation.EQUAL
        if self.synonym(a, b):
            return LabelRelation.SYNONYM
        if self.hypernym(a, b):
            return LabelRelation.HYPERNYM
        if self.hyponym(a, b):
            return LabelRelation.HYPONYM
        return LabelRelation.NONE

    def similar(self, a: str | Label, b: str | Label) -> bool:
        """Equality-or-synonymy — the "essentially the same label" test the
        homonym check of Section 4.2.3 relies on.

        Exactly ``relation_between(a, b) >= SYNONYM``: the ladder returns a
        value at least SYNONYM iff one of string-equality, equality or
        synonymy holds, which is this predicate's disjunction.
        """
        return self.relation_between(a, b) >= LabelRelation.SYNONYM

    def at_least_as_general(self, a: str | Label, b: str | Label) -> bool:
        """Lexical part of Definition 5(i): a hypernym-or-equivalent of b.

        Exactly ``relation_between(a, b) >= HYPERNYM``: the ladder returns
        HYPERNYM or stronger iff ``similar`` or ``hypernym`` holds (a
        HYPONYM result implies the ladder found ``hypernym(a, b)`` false).
        """
        return self.relation_between(a, b) >= LabelRelation.HYPERNYM

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def cache_stats(self) -> dict:
        """JSON-ready stats for every cache this comparator reaches.

        The hierarchy mirrors the computation: label analyses feed pairwise
        relations, which feed the compiled consistency masks.  Surfaced
        through ``GET /metrics`` and ``repro profile``.
        """
        return {
            "labels": self.analyzer.cache_stats(),
            "relations": {
                **self.relation_counter.snapshot(),
                "size": len(self._relation_cache),
            },
            "predicates": {
                **self.predicate_counter.snapshot(),
                "size": len(self._synonym_cache) + len(self._hypernym_cache),
            },
        }
