"""Labels as text + content-word sets — the unit the naming algorithm works on.

Section 3.2: "it is preferable to treat labels in a more systematic manner,
e.g. as n-dimensional vectors or set of tokens.  In the second normalization
step each field will be represented by a set of content words of its label."

A :class:`Label` bundles the raw text, the step-1 display form, and the
step-2 content-word tokens.  Labels are produced (and cached) by a
:class:`LabelAnalyzer`, which carries the lexicon used for base forms.

Interning
---------
Every Definition-1 predicate is fully determined by a label's case-folded
display form plus its conjunction flag: string equality compares the display
form, and the token sequence (hence stems and lemmas) is computed from the
display form alone (`content_tokens` tokenizes the step-1 form, which is
pure ASCII alphanumerics and spaces).  The analyzer therefore *interns*
labels on that canonical identity: distinct raw texts that normalize alike
(``"Day/Time"`` and ``"Day & Time"`` both display as ``"Day Time"`` with the
conjunction flag set) share one token tuple and one intern :attr:`Label.key`.
The :class:`~repro.core.semantics.SemanticComparator` keys its pairwise
relation cache on those intern keys, so each distinct display string is
analyzed — and each distinct pair compared — once per comparator lifetime.

Intern keys are drawn from a process-wide counter, so keys from different
analyzers never collide; a key is only ever reused for a label that is
interchangeable in every comparison.  The analyzer's lexicon is an
immutable :class:`~repro.lexicon.compiled.CompiledLexicon`, so an analysis
never goes stale and no cache here is ever invalidated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from ..lexicon.compiled import CompiledLexicon, compile_lexicon, default_compiled
from ..lexicon.normalize import Token, content_tokens, display_form
from ..lexicon.wordnet import MiniWordNet
from ..perf import Counters

__all__ = ["Label", "LabelAnalyzer"]

_CONJUNCTION_MARKERS = ("&", "/")
_CONJUNCTION_WORDS = frozenset({"and", "or"})


def _detect_conjunction(raw: str) -> bool:
    """True when ``raw`` contains and/&, or// (Definition 1's restriction)."""
    lowered = raw.lower()
    if any(marker in lowered for marker in _CONJUNCTION_MARKERS):
        return True
    return any(word in _CONJUNCTION_WORDS for word in lowered.split())


@dataclass(frozen=True)
class Label:
    """An analyzed field/internal-node label.

    ``raw``
        the text as it appears on the interface;
    ``display``
        step-1 normalization (comments stripped, punctuation spaced);
    ``tokens``
        step-2 content words, in label order, deduplicated by stem;
    ``stems``
        the frozen set of token stems — the "set of content words"
        representation of Definition 1;
    ``key``
        the analyzer's intern id: labels with equal keys are
        interchangeable in every Definition-1 comparison.  ``-1`` marks a
        label built outside an analyzer (never interned, never cached by
        key).
    """

    raw: str
    display: str
    tokens: tuple[Token, ...]
    key: int = field(default=-1, compare=False)

    @cached_property
    def stems(self) -> frozenset[str]:
        return frozenset(token.stem for token in self.tokens)

    @property
    def content_word_count(self) -> int:
        """The *expressiveness* contribution of this label (Section 4.2.1)."""
        return len(self.tokens)

    @cached_property
    def has_conjunction(self) -> bool:
        """True when the label contains and/&, or//.

        Definition 1 restricts the synonym/hypernym relations to labels
        without conjunctions ("We assume A and B do not contain and (&),
        or (/)").
        """
        return _detect_conjunction(self.raw)

    def __str__(self) -> str:
        return self.raw

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Label({self.raw!r}, stems={sorted(self.stems)})"


class LabelAnalyzer:
    """Builds, caches and interns :class:`Label` objects against one lexicon.

    The lexicon is compiled on construction (:func:`compile_lexicon`, a
    no-op for a :class:`CompiledLexicon`); the default is
    :func:`default_compiled`.  Later edits to a :class:`MiniWordNet`
    passed in do not reach the analyzer.

    All Definition-1 comparisons in :mod:`repro.core.semantics` require both
    labels to come from the same analyzer so token lemmas agree.

    Three caches stack here, cheapest first:

    * ``raw text -> Label`` — repeat analyses of the same string are one
      dict hit;
    * ``case-folded display -> tokens`` — distinct raw texts with the same
      step-1 form ("Price $", "Price!") share the expensive step-2
      morphy/stem work;
    * the intern table — canonical identity ``(display casefold,
      conjunction flag)`` to a process-unique :attr:`Label.key`, the cache
      key downstream relation caches use.
    """

    #: Process-wide id source: keys never collide across analyzers.
    _intern_ids = itertools.count()

    def __init__(
        self, wordnet: MiniWordNet | CompiledLexicon | None = None
    ) -> None:
        self.wordnet: CompiledLexicon = (
            default_compiled() if wordnet is None else compile_lexicon(wordnet)
        )
        self._cache: dict[str, Label] = {}
        self._tokens_by_display: dict[str, tuple[Token, ...]] = {}
        self._intern: dict[tuple[str, bool], int] = {}
        self.counter = Counters("hits", "misses", "evictions")

    def label(self, text: str) -> Label:
        """Analyze ``text`` (cached and interned)."""
        cached = self._cache.get(text)
        if cached is not None:
            self.counter.add("hits")
            return cached
        self.counter.add("misses")
        display = display_form(text)
        display_key = display.casefold()
        tokens = self._tokens_by_display.get(display_key)
        if tokens is None:
            tokens = content_tokens(text, self.wordnet)
            self._tokens_by_display[display_key] = tokens
        canonical = (display_key, _detect_conjunction(text))
        key = self._intern.get(canonical)
        if key is None:
            key = next(LabelAnalyzer._intern_ids)
            self._intern[canonical] = key
        analyzed = Label(raw=text, display=display, tokens=tokens, key=key)
        self._cache[text] = analyzed
        return analyzed

    def cache_stats(self) -> dict:
        """JSON-ready cache counters (part of the perf cache hierarchy)."""
        return {
            **self.counter.snapshot(),
            "size": len(self._cache),
            "distinct_displays": len(self._tokens_by_display),
            "interned": len(self._intern),
        }

    def __call__(self, text: str) -> Label:
        return self.label(text)
