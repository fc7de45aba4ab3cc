"""Cross-cutting property tests: random catalogs through the whole stack.

These are the invariants a downstream user relies on regardless of domain
content: the generator emits well-formed corpora, the merge places every
cluster exactly once, the naming pipeline never invents labels and never
leaves an available label on the table, and serialization is lossless.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import label_integrated_interface
from repro.core.semantics import SemanticComparator
from repro.datasets.catalog import Concept, DomainSpec, GroupSpec, variants
from repro.datasets.generator import generate_domain
from repro.merge import merge_interfaces
from repro.schema.serialize import interface_from_dict, interface_to_dict

_COMPARATOR = SemanticComparator()

# A pool of label words that the lexicon may or may not know — properties
# must hold either way.
_WORDS = [
    "Alpha", "Beta", "Gamma", "Delta", "Price", "City", "Adults", "Keyword",
    "Rate", "Zone", "Extra", "Widget", "Lorem", "Ipsum",
]


@st.composite
def domain_specs(draw):
    """Small random domain catalogs (2-4 groups, 1-3 concepts each)."""
    rng_seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(rng_seed)
    words = list(_WORDS)
    rng.shuffle(words)
    word_iter = iter(words * 4)

    groups = []
    group_count = draw(st.integers(min_value=2, max_value=4))
    concept_id = 0
    for g in range(group_count):
        concepts = []
        for __ in range(draw(st.integers(min_value=1, max_value=3))):
            concept_id += 1
            base = next(word_iter)
            concepts.append(
                Concept(
                    f"c_{concept_id}",
                    variants(base, f"{base} Value"),
                    prevalence=draw(
                        st.floats(min_value=0.5, max_value=1.0)
                    ),
                    unlabeled_prob=draw(
                        st.floats(min_value=0.0, max_value=0.3)
                    ),
                )
            )
        groups.append(
            GroupSpec(
                key=f"g_{g}",
                concepts=tuple(concepts),
                group_labels=variants(f"Section {g}"),
                labeled_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
                prevalence=draw(st.floats(min_value=0.5, max_value=1.0)),
                flatten_prob=draw(st.floats(min_value=0.0, max_value=0.5)),
            )
        )
    return DomainSpec(
        name=f"prop{rng_seed}",
        interface_count=draw(st.integers(min_value=3, max_value=8)),
        groups=tuple(groups),
    )


@settings(max_examples=25)
@given(domain_specs(), st.integers(min_value=0, max_value=99))
def test_generator_emits_wellformed_corpora(spec, seed):
    dataset = generate_domain(spec, seed=seed)
    assert len(dataset.interfaces) == spec.interface_count
    for interface in dataset.interfaces:
        interface.root.validate()
        assert interface.leaf_count() >= 1
    # Mapping members are real tree nodes of their interface.
    by_name = {qi.name: qi for qi in dataset.interfaces}
    for cluster in dataset.mapping.clusters:
        for interface_name, node in cluster.members.items():
            assert by_name[interface_name].root.find_by_name(node.name) is node


@settings(max_examples=20)
@given(domain_specs(), st.integers(min_value=0, max_value=99))
def test_merge_places_every_cluster_exactly_once(spec, seed):
    dataset = generate_domain(spec, seed=seed)
    dataset.prepare()
    root = merge_interfaces(dataset.interfaces, dataset.mapping)
    root.validate()
    clusters = [leaf.cluster for leaf in root.leaves()]
    populated = sorted(c.name for c in dataset.mapping.clusters if c.members)
    assert sorted(clusters) == populated


@settings(max_examples=15)
@given(domain_specs(), st.integers(min_value=0, max_value=99))
def test_pipeline_labels_come_from_sources(spec, seed):
    """The naming algorithm never invents text: every assigned label
    (fields and internal nodes) appears verbatim on some source node."""
    dataset = generate_domain(spec, seed=seed)
    root = dataset.integrated()
    result = label_integrated_interface(
        root, dataset.interfaces, dataset.mapping, _COMPARATOR
    )
    source_labels = {
        node.label
        for qi in dataset.interfaces
        for node in qi.root.walk()
        if node.is_labeled
    }
    for label in result.field_labels.values():
        if label is not None:
            assert label in source_labels
    for label in result.node_labels.values():
        if label is not None:
            assert label in source_labels


@settings(max_examples=15)
@given(domain_specs(), st.integers(min_value=0, max_value=99))
def test_pipeline_never_drops_available_labels(spec, seed):
    """A field left unlabeled implies no source ever labels its cluster."""
    dataset = generate_domain(spec, seed=seed)
    root = dataset.integrated()
    result = label_integrated_interface(
        root, dataset.interfaces, dataset.mapping, _COMPARATOR
    )
    for cluster in result.unlabeled_fields():
        if cluster in dataset.mapping:
            assert dataset.mapping[cluster].labels() == []


@settings(max_examples=15)
@given(domain_specs(), st.integers(min_value=0, max_value=99))
def test_pipeline_is_deterministic(spec, seed):
    first = generate_domain(spec, seed=seed)
    second = generate_domain(spec, seed=seed)
    r1 = label_integrated_interface(
        first.integrated(), first.interfaces, first.mapping, _COMPARATOR
    )
    r2 = label_integrated_interface(
        second.integrated(), second.interfaces, second.mapping, _COMPARATOR
    )
    assert r1.field_labels == r2.field_labels
    assert r1.node_labels == r2.node_labels
    assert r1.classification == r2.classification


@settings(max_examples=20)
@given(domain_specs(), st.integers(min_value=0, max_value=99))
def test_interface_serialization_is_lossless(spec, seed):
    dataset = generate_domain(spec, seed=seed)
    for interface in dataset.interfaces:
        data = interface_to_dict(interface)
        restored = interface_from_dict(data)
        assert interface_to_dict(restored) == data
