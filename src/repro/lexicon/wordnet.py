"""MiniWordNet: the lexical-database builder standing in for WordNet [9].

The naming algorithm consults WordNet for exactly three things (paper,
Definition 1 and Section 3.1):

* whether two content words are **synonyms** (share a synset);
* whether word *a* is a **hypernym** of word *b* (a synset of *a* is an
  ancestor of a synset of *b* in the hypernymy DAG, transitively);
* the **base form** of a token (morphy).

:class:`MiniWordNet` is the mutable *builder* of such a database: synsets
and hypernym edges go in through :meth:`~MiniWordNet.add_synset`,
:meth:`~MiniWordNet.add_hypernym` and :meth:`~MiniWordNet.load`, and
:func:`repro.lexicon.compiled.compile_lexicon` freezes it into the
immutable :class:`~repro.lexicon.compiled.CompiledLexicon` that answers
every query the labeling stack makes.  The curated data that seeds the
default instance lives in :mod:`repro.lexicon.data`; tests and experiments
may build their own instances with extra vocabulary.

Design notes
------------
* A *synset* is a set of lemmas; a lemma may be a single word (``class``) or
  a collocation with spaces (``zip code``).  Lemmas are stored lowercase.
* Hypernymy is recorded between synsets and queried transitively.
* The builder's own queries are plain graph walks with no memo: they are
  the reference implementation the compiled tables are tested against
  (``tests/test_compiled_lexicon.py``), and they always see the builder's
  current contents.
* Queries accept inflected forms: each lookup first maps the word to its
  base form with :func:`repro.lexicon.morphology.base_form`, using the
  database itself as the vocabulary check — the same loop WordNet's morphy
  performs.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

from .morphology import base_form

__all__ = ["Synset", "MiniWordNet"]


@dataclass(frozen=True)
class Synset:
    """A set of mutually synonymous lemmas, identified by ``sid``."""

    sid: int
    lemmas: frozenset[str]

    def __contains__(self, lemma: str) -> bool:
        return lemma in self.lemmas

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Synset({self.sid}, {{{', '.join(sorted(self.lemmas))}}})"


@dataclass
class MiniWordNet:
    """A mutable lexical database: the builder a :class:`CompiledLexicon`
    is compiled from, and the reference its queries are tested against."""

    _synsets: list[Synset] = field(default_factory=list)
    _lemma_index: dict[str, set[int]] = field(default_factory=lambda: defaultdict(set))
    _hypernyms: dict[int, set[int]] = field(default_factory=lambda: defaultdict(set))

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    def add_synset(self, lemmas) -> int:
        """Register a synset for ``lemmas`` and return its id.

        Lemmas are lowercased.  Registering the same frozenset twice returns
        the existing id rather than duplicating the synset.
        """
        normalized = frozenset(str(lemma).lower().strip() for lemma in lemmas)
        if not normalized:
            raise ValueError("a synset needs at least one lemma")
        for sid in self._lemma_index.get(next(iter(normalized)), ()):
            if self._synsets[sid].lemmas == normalized:
                return sid
        sid = len(self._synsets)
        self._synsets.append(Synset(sid, normalized))
        for lemma in normalized:
            self._lemma_index[lemma].add(sid)
        return sid

    def add_hypernym(self, general, specific) -> None:
        """Record that ``general`` is a hypernym of ``specific``.

        Both arguments may be synset ids or lemmas.  A lemma that is not yet
        in the database gets a singleton synset; a lemma in several synsets
        links **all** of them (coarse, but safe for our curated data, which
        keeps domain senses in separate instances when it matters).
        """
        general_ids = self._resolve(general)
        specific_ids = self._resolve(specific)
        for gid in general_ids:
            for sid_ in specific_ids:
                if gid == sid_:
                    continue
                self._hypernyms[sid_].add(gid)

    def _resolve(self, ref) -> set[int]:
        if isinstance(ref, int):
            if not 0 <= ref < len(self._synsets):
                raise KeyError(f"no synset with id {ref}")
            return {ref}
        lemma = str(ref).lower().strip()
        ids = self._lemma_index.get(lemma)
        if not ids:
            return {self.add_synset([lemma])}
        return set(ids)

    # ------------------------------------------------------------------
    # Vocabulary.
    # ------------------------------------------------------------------

    def is_known(self, word: str) -> bool:
        """True when ``word`` (as given, lowercased) is some synset's lemma."""
        return word.lower().strip() in self._lemma_index

    def lemma_base(self, token: str) -> str:
        """Morphy: base form of ``token`` validated against this vocabulary."""
        return base_form(token, self.is_known)

    def synsets_of(self, word: str) -> tuple[Synset, ...]:
        """All synsets whose lemma set contains the base form of ``word``."""
        lemma = self.lemma_base(word)
        return tuple(self._synsets[sid] for sid in sorted(self._lemma_index.get(lemma, ())))

    def __len__(self) -> int:
        return len(self._synsets)

    def __contains__(self, word: str) -> bool:
        return bool(self._lemma_index.get(self.lemma_base(word)))

    # ------------------------------------------------------------------
    # Queries used by Definition 1.
    # ------------------------------------------------------------------

    def are_synonyms(self, a: str, b: str) -> bool:
        """True when ``a`` and ``b`` are distinct words sharing a synset."""
        la, lb = self.lemma_base(a), self.lemma_base(b)
        if la == lb:
            return False
        ids_a = self._lemma_index.get(la)
        ids_b = self._lemma_index.get(lb)
        if not ids_a or not ids_b:
            return False
        return not ids_a.isdisjoint(ids_b)

    def is_hypernym(self, general: str, specific: str) -> bool:
        """True when ``general`` is a (transitive) hypernym of ``specific``."""
        lg, ls = self.lemma_base(general), self.lemma_base(specific)
        if lg == ls:
            return False
        ids_g = self._lemma_index.get(lg)
        ids_s = self._lemma_index.get(ls)
        if not ids_g or not ids_s:
            return False
        for sid_ in ids_s:
            if not ids_g.isdisjoint(self._ancestors(sid_)):
                return True
        return False

    def share_hypernym(self, a: str, b: str) -> bool:
        """True when ``a`` and ``b`` are co-hyponyms — they have a common
        (transitive) hypernym, like *adult* and *senior* under *person*.
        The weakest of the relatedness signals; used by the interface
        linter's horizontal-coherence check."""
        ids_a = self._lemma_index.get(self.lemma_base(a))
        ids_b = self._lemma_index.get(self.lemma_base(b))
        if not ids_a or not ids_b:
            return False
        ancestors_a: set[int] = set()
        for sid_ in ids_a:
            ancestors_a |= self._ancestors(sid_)
        for sid_ in ids_b:
            if ancestors_a & self._ancestors(sid_):
                return True
        return False

    def _ancestors(self, sid: int) -> frozenset[int]:
        """Transitive hypernym closure of synset ``sid`` (BFS)."""
        seen: set[int] = set()
        queue = deque(self._hypernyms.get(sid, ()))
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            queue.extend(self._hypernyms.get(current, ()))
        return frozenset(seen)

    # ------------------------------------------------------------------
    # Bulk-load helper used by repro.lexicon.data.
    # ------------------------------------------------------------------

    def load(self, synsets, hypernym_pairs=()) -> None:
        """Load iterables of synsets (lemma collections) and hypernym pairs."""
        for lemmas in synsets:
            self.add_synset(lemmas)
        for general, specific in hypernym_pairs:
            self.add_hypernym(general, specific)

    # ------------------------------------------------------------------
    # Snapshot exports consumed by repro.lexicon.compiled.
    # ------------------------------------------------------------------

    def vocabulary(self) -> tuple[str, ...]:
        """Every known lemma, sorted."""
        return tuple(sorted(self._lemma_index))

    def export_data(self):
        """``(synsets, edges)``: lemma frozensets and direct-edge pairs.

        Edges are ``(general-lemmas, specific-lemmas)`` frozenset pairs —
        a content-only view with no synset-id dependence, which is what
        :func:`repro.lexicon.compiled.lexicon_fingerprint` hashes.
        """
        synsets = [synset.lemmas for synset in self._synsets]
        edges = [
            (self._synsets[gid].lemmas, self._synsets[sid].lemmas)
            for sid, generals in sorted(self._hypernyms.items())
            for gid in sorted(generals)
        ]
        return synsets, edges

    def export_tables(self):
        """``(synsets, sid_ancestors, lemma_sids)`` for the compiler.

        ``sid_ancestors[i]`` is the transitive hypernym closure of synset
        ``i`` (computed by the same BFS the queries use), and
        ``lemma_sids`` maps each lemma to the ids of its synsets.
        """
        synsets = [synset.lemmas for synset in self._synsets]
        sid_ancestors = [self._ancestors(sid) for sid in range(len(self._synsets))]
        lemma_sids = {
            lemma: set(sids) for lemma, sids in self._lemma_index.items()
        }
        return synsets, sid_ancestors, lemma_sids
