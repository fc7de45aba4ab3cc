"""Labels as text + content-word sets — the unit the naming algorithm works on.

Section 3.2: "it is preferable to treat labels in a more systematic manner,
e.g. as n-dimensional vectors or set of tokens.  In the second normalization
step each field will be represented by a set of content words of its label."

A :class:`Label` bundles the raw text, the step-1 display form, and the
step-2 content-word tokens.  Labels are produced (and cached) by a
:class:`LabelAnalyzer`, which carries the lexicon used for base forms.

Caching
-------
Every Definition-1 predicate is a function of a label's text alone, so the
text is the one key of every lexical memo: the analyzer caches a
:class:`Label` per raw text, and the
:class:`~repro.core.semantics.SemanticComparator` keys its memos on pairs
of texts.  Distinct raw texts that normalize alike (``"Price $"`` and
``"Price!"`` both display as ``"Price"``) share one step-2 token tuple, so
the morphy/stem work runs once per case-folded display form.  The
analyzer's lexicon is an immutable
:class:`~repro.lexicon.compiled.CompiledLexicon`, so an analysis never
goes stale and no cache here is ever invalidated.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        representation of Definition 1.
    """

    raw: str
    display: str
    tokens: tuple[Token, ...]

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
    """Builds and caches :class:`Label` objects against one lexicon.

    The lexicon is compiled on construction (:func:`compile_lexicon`, a
    no-op for a :class:`CompiledLexicon`); the default is
    :func:`default_compiled`.  Later edits to a :class:`MiniWordNet`
    passed in do not reach the analyzer.

    Two caches stack here, cheapest first:

    * ``raw text -> Label`` — repeat analyses of the same string are one
      dict hit;
    * ``case-folded display -> tokens`` — distinct raw texts with the same
      step-1 form ("Price $", "Price!") share the expensive step-2
      morphy/stem work.
    """

    def __init__(
        self, wordnet: MiniWordNet | CompiledLexicon | None = None
    ) -> None:
        self.wordnet: CompiledLexicon = (
            default_compiled() if wordnet is None else compile_lexicon(wordnet)
        )
        self._cache: dict[str, Label] = {}
        self._tokens_by_display: dict[str, tuple[Token, ...]] = {}
        self.counter = Counters("hits", "misses", "evictions")

    def label(self, text: str) -> Label:
        """Analyze ``text`` (cached)."""
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
        analyzed = Label(raw=text, display=display, tokens=tokens)
        self._cache[text] = analyzed
        return analyzed

    def cache_stats(self) -> dict:
        """JSON-ready cache counters (part of the perf cache hierarchy)."""
        return {
            **self.counter.snapshot(),
            "size": len(self._cache),
            "distinct_displays": len(self._tokens_by_display),
        }

    def __call__(self, text: str) -> Label:
        return self.label(text)
