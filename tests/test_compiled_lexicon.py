"""CompiledLexicon: equivalence with MiniWordNet, immutability, pickling.

The compiled lexicon answers every lexicon query the labeling stack makes.
Its contract is *exact* behavioral equivalence with the
:class:`MiniWordNet` builder it was compiled from — same base forms, same
synonymy / hypernymy / co-hyponymy verdicts — with O(1) table lookups
instead of the builder's graph walks.  The tests here drive both over the
curated vocabulary (full single-word sweep + a seeded pair sample +
morphological variants) and over random small lexicons (Hypothesis), and
demand identical answers.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.label import LabelAnalyzer
from repro.core.semantics import LabelRelation, SemanticComparator
from repro.lexicon import (
    CompiledLexicon,
    ImmutableLexiconError,
    MiniWordNet,
    compile_lexicon,
    default_compiled,
    lexicon_fingerprint,
)
from repro.lexicon.data import build_default_wordnet


@pytest.fixture(scope="module")
def dynamic() -> MiniWordNet:
    return build_default_wordnet()


@pytest.fixture(scope="module")
def compiled(dynamic) -> CompiledLexicon:
    return compile_lexicon(dynamic)


def _pair_sample(vocabulary, count=4000, seed=7):
    rng = random.Random(seed)
    return [
        (rng.choice(vocabulary), rng.choice(vocabulary)) for __ in range(count)
    ]


# ----------------------------------------------------------------------
# Equivalence properties.
# ----------------------------------------------------------------------


def test_vocabulary_matches(dynamic, compiled):
    assert compiled.vocabulary() == dynamic.vocabulary()
    assert len(compiled) == len(dynamic._synsets)


def test_base_form_equivalent_over_vocabulary(dynamic, compiled):
    for token in compiled.vocabulary():
        assert compiled.lemma_base(token) == dynamic.lemma_base(token), token


def test_base_form_equivalent_on_variants(dynamic, compiled):
    variants = []
    for lemma in compiled.vocabulary():
        variants.extend((lemma + "s", lemma + "es", lemma + "ing", lemma.upper()))
    variants.extend(["children", "people", "Flights", "zzzz-unknown", ""])
    for token in variants:
        assert compiled.lemma_base(token) == dynamic.lemma_base(token), token


def test_is_known_and_synsets_of_equivalent(dynamic, compiled):
    for token in (*compiled.vocabulary(), "zzzz-unknown", "Children"):
        assert compiled.is_known(token) == dynamic.is_known(token), token
        got = [(s.sid, s.lemmas) for s in compiled.synsets_of(token)]
        want = [(s.sid, s.lemmas) for s in dynamic.synsets_of(token)]
        assert sorted(got) == sorted(want), token
        assert (token in compiled) == (token in dynamic)


def test_relations_equivalent_on_pair_sample(dynamic, compiled):
    vocabulary = compiled.vocabulary()
    for a, b in _pair_sample(vocabulary):
        assert compiled.are_synonyms(a, b) == dynamic.are_synonyms(a, b), (a, b)
        assert compiled.is_hypernym(a, b) == dynamic.is_hypernym(a, b), (a, b)
        assert compiled.share_hypernym(a, b) == dynamic.share_hypernym(a, b), (
            a,
            b,
        )


def test_relations_equivalent_on_inflected_pairs(dynamic, compiled):
    vocabulary = compiled.vocabulary()
    rng = random.Random(11)
    for __ in range(500):
        a = rng.choice(vocabulary) + rng.choice(("", "s", "es"))
        b = rng.choice(vocabulary) + rng.choice(("", "s", "ing"))
        assert compiled.are_synonyms(a, b) == dynamic.are_synonyms(a, b), (a, b)
        assert compiled.is_hypernym(a, b) == dynamic.is_hypernym(a, b), (a, b)
        assert compiled.share_hypernym(a, b) == dynamic.share_hypernym(a, b), (
            a,
            b,
        )


# A small alphabet with inflections, irregular forms and a collocation, so
# random lexicons exercise morphy's vocabulary check as well as the graph.
_WORDS = (
    "car", "cars", "bus", "buses", "box", "boxes", "child", "children",
    "person", "people", "fly", "flies", "run", "running", "zip code",
)
_QUERIES = (*_WORDS, "Cars", "carses", "zzz", "")

_lexicons = st.tuples(
    st.lists(
        st.frozensets(st.sampled_from(_WORDS), min_size=1, max_size=3),
        min_size=1,
        max_size=5,
    ),
    st.lists(
        st.tuples(st.sampled_from(_WORDS), st.sampled_from(_WORDS)),
        max_size=6,
    ),
)


@settings(max_examples=300)
@given(_lexicons)
def test_random_lexicons_compile_to_equivalent_tables(data):
    """Random synsets and hypernym edges (cycles and self-edges included):
    the compiled tables answer exactly as the builder's graph walks."""
    synsets, hypernyms = data
    builder = MiniWordNet()
    builder.load(synsets, hypernyms)
    compiled = compile_lexicon(builder)
    for token in _QUERIES:
        assert compiled.lemma_base(token) == builder.lemma_base(token), token
        assert compiled.is_known(token) == builder.is_known(token), token
        got = [(s.sid, s.lemmas) for s in compiled.synsets_of(token)]
        want = [(s.sid, s.lemmas) for s in builder.synsets_of(token)]
        assert got == want, token
    for a in _QUERIES:
        for b in _QUERIES:
            assert compiled.are_synonyms(a, b) == builder.are_synonyms(a, b)
            assert compiled.is_hypernym(a, b) == builder.is_hypernym(a, b)
            assert compiled.share_hypernym(a, b) == builder.share_hypernym(a, b)


def test_comparator_is_a_snapshot_of_its_builder():
    """Editing a builder after a comparator was built over it does not
    change that comparator's answers; a fresh compile sees the edit."""
    builder = build_default_wordnet()
    comparator = SemanticComparator(LabelAnalyzer(builder))
    builder.add_synset(["blarg", "fnord"])
    builder.add_hypernym("blarg", "qux")
    # First queries after the edit: nothing was cached before it.
    assert comparator.relation_between("Blarg", "Fnord") is LabelRelation.NONE
    assert not comparator.wordnet.is_hypernym("blarg", "qux")
    assert comparator.wordnet.lemma_base("blargs") == "blargs"
    fresh = SemanticComparator(LabelAnalyzer(builder))
    assert fresh.relation_between("Blarg", "Fnord") is LabelRelation.SYNONYM
    assert fresh.wordnet.is_hypernym("blarg", "qux")
    assert compile_lexicon(builder).lemma_base("blargs") == "blarg"


# ----------------------------------------------------------------------
# Fingerprint.
# ----------------------------------------------------------------------


def test_fingerprint_stable_and_content_addressed(dynamic, compiled):
    assert compiled.fingerprint == lexicon_fingerprint(dynamic)
    assert compiled.fingerprint == lexicon_fingerprint(compiled)
    # Rebuilding from scratch lands on the same digest...
    assert compile_lexicon(build_default_wordnet()).fingerprint == (
        compiled.fingerprint
    )
    # ...and any content change moves it.
    extended = build_default_wordnet()
    extended.add_synset(["zzz-novel-concept"])
    assert lexicon_fingerprint(extended) != compiled.fingerprint


# ----------------------------------------------------------------------
# Immutability.
# ----------------------------------------------------------------------


def test_mutation_raises(compiled):
    with pytest.raises(ImmutableLexiconError, match="immutable"):
        compiled.add_synset(["x", "y"])
    with pytest.raises(ImmutableLexiconError):
        compiled.add_hypernym("a", "b")
    with pytest.raises(ImmutableLexiconError):
        compiled.load([["a"]])
    # The error is a TypeError so generic mutation guards also catch it.
    assert issubclass(ImmutableLexiconError, TypeError)


# ----------------------------------------------------------------------
# Singleton + idempotence.
# ----------------------------------------------------------------------


def test_default_compiled_is_cached_singleton():
    assert default_compiled() is default_compiled()
    assert default_compiled().fingerprint == lexicon_fingerprint(
        build_default_wordnet()
    )


def test_compile_is_idempotent(compiled):
    assert compile_lexicon(compiled) is compiled


def test_pipeline_results_identical_with_compiled_lexicon(compiled):
    """The default comparator and one over an explicit snapshot agree."""
    from repro.core.pipeline import label_corpus
    from repro.datasets.registry import load_domain
    from repro.schema.serialize import node_to_dict

    dataset = load_domain("airline", seed=0)
    root_d, result_d = label_corpus(
        dataset.interfaces, dataset.mapping, comparator=SemanticComparator()
    )
    dataset = load_domain("airline", seed=0)
    root_c, result_c = label_corpus(
        dataset.interfaces,
        dataset.mapping,
        comparator=SemanticComparator(LabelAnalyzer(compiled)),
    )
    assert node_to_dict(root_d) == node_to_dict(root_c)
    assert result_d.field_labels == result_c.field_labels
    assert result_d.classification == result_c.classification
