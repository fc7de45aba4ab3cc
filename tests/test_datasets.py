"""Synthetic corpus: determinism, catalog validation, structural sanity."""

from __future__ import annotations


import pytest

from repro.datasets import DOMAINS, domain_spec, load_all_domains, load_domain
from repro.datasets.catalog import (
    Concept,
    DomainSpec,
    GroupSpec,
    SuperGroupSpec,
    variants,
)
from repro.datasets.generator import generate_domain
from repro.schema.serialize import interface_to_dict, mapping_to_dict


class TestRegistry:
    def test_seven_domains_in_paper_order(self):
        assert list(DOMAINS) == [
            "airline", "auto", "book", "job", "realestate", "carrental", "hotels"
        ]

    def test_unknown_domain_raises_with_hint(self):
        with pytest.raises(KeyError, match="known domains"):
            domain_spec("warehouse")

    def test_interface_counts_match_table6(self):
        counts = {name: domain_spec(name).interface_count for name in DOMAINS}
        assert counts["hotels"] == 30
        assert all(v == 20 for k, v in counts.items() if k != "hotels")

    def test_all_specs_validate(self):
        for name in DOMAINS:
            domain_spec(name).validate()


#: ``corpus_fingerprint`` of every domain at seeds 0 and 1001, recorded
#: before the sampling tables were built once per spec.  They are also the
#: disk-cache keys of these corpora, so a change here orphans stored results.
PINNED_FINGERPRINTS = {
    ("airline", 0): "39cf8fb8e8564e07d246c3f3a9725d70a998b9821c292595ac0d8144b76164bd",
    ("airline", 1001): "6b8653dc506aca6e03bf6eee260e2194d53e9d6a52be807e33f582b580d52cc1",
    ("auto", 0): "da98e9208937263f59626cb541a6c8161da65ca8d454de82fc9709e1edce4a4b",
    ("auto", 1001): "7448118637268c9043d738d355917bd45b5aab3b8494979efeb7e0cfa60a1f96",
    ("book", 0): "7b086590c28171bd5472ce41fd0800df8d278527fa92d027e3a00e17ec288ded",
    ("book", 1001): "a0ce8e5468d0e219de92814b978a22b5757abbe986f16d7e79da5572b7d72753",
    ("job", 0): "7d3fd97417f5c80b7d8c1a156f1afc539197d7d2d56e80bcc860c9f52ee04a2c",
    ("job", 1001): "186604db2e12ef41dc83d2c6220df65e6142f2d12aded01be4c71e2611f1c483",
    ("realestate", 0): "fa93cb728d91b7d50c5ff7b2e9c01d3236cf751e7dec12693621fb87c53a195f",
    ("realestate", 1001): "191f35fca1e02adb3415427221f40b14d021504169f8aafe38e99764c4eef0c7",
    ("carrental", 0): "fbe30efcb142a3f66bd7ef346520b96d027f5e9fafee014ce6641c6f864075c7",
    ("carrental", 1001): "abb4ed460dbf129886e7e0aca4d2cdae27fc0c5466308e585b2212f6e0cf7a63",
    ("hotels", 0): "0764b8c2664db576aefb1be925adcf669aae73b7dee9260573f78f6cdd2e33c2",
    ("hotels", 1001): "5aaf8def5964d87dc1f84ac45b0b5699099b6c068b22d9580e8978cc3af985ca",
}


@pytest.mark.parametrize("domain, seed", sorted(PINNED_FINGERPRINTS))
def test_corpus_fingerprints_are_pinned(domain, seed):
    from repro.service.fingerprint import corpus_fingerprint

    dataset = load_domain(domain, seed=seed)
    assert corpus_fingerprint(dataset.interfaces, dataset.mapping) \
        == PINNED_FINGERPRINTS[domain, seed]


class TestSharedSpecs:
    def test_one_spec_per_domain(self):
        for name in DOMAINS:
            assert domain_spec(name) is domain_spec(name)
            assert load_domain(name).spec is domain_spec(name)

    def test_metadata_is_read_only(self):
        spec = domain_spec("airline")
        with pytest.raises(TypeError):
            spec.metadata["note"] = "shared"
        spec = DomainSpec("x", 1, (), metadata={"a": 1})
        assert dict(spec.metadata) == {"a": 1}
        with pytest.raises(TypeError):
            spec.metadata["a"] = 2

    def test_variant_picks_match_weighted_choices(self):
        import random

        options = variants(("A", "s", 2.0), ("B", None, 0.5), ("C", "s", 1.0), ("D", "t"))
        picker = GroupSpec("g", (Concept("c", options),)).concepts[0].picker
        for style in (None, "s", "t", "missing"):
            styled = options
            if style is not None:
                styled = tuple(v for v in options if v.style == style) or options
            ours, theirs = random.Random(7), random.Random(7)
            for __ in range(200):
                expected = theirs.choices(
                    list(styled), weights=[v.weight for v in styled], k=1
                )[0]
                assert picker.pick(ours, style) == expected


class TestDeterminism:
    def test_same_seed_identical_corpus(self):
        a = load_domain("airline", seed=3)
        b = load_domain("airline", seed=3)
        assert [interface_to_dict(q) for q in a.interfaces] == [
            interface_to_dict(q) for q in b.interfaces
        ]
        assert mapping_to_dict(a.mapping) == mapping_to_dict(b.mapping)

    def test_seed_changes_corpus(self):
        a = load_domain("airline", seed=3)
        b = load_domain("airline", seed=4)
        assert [interface_to_dict(q) for q in a.interfaces] != [
            interface_to_dict(q) for q in b.interfaces
        ]


class TestGeneratedShape:
    @pytest.fixture(scope="class")
    def corpus(self):
        return load_all_domains(seed=0)

    def test_interface_counts(self, corpus):
        for name, dataset in corpus.items():
            expected = 30 if name == "hotels" else 20
            assert len(dataset.interfaces) == expected

    def test_every_interface_has_fields_and_validates(self, corpus):
        for dataset in corpus.values():
            for interface in dataset.interfaces:
                assert interface.leaf_count() >= 1
                interface.root.validate()

    def test_mapping_members_are_tree_nodes(self, corpus):
        for dataset in corpus.values():
            by_name = {qi.name: qi for qi in dataset.interfaces}
            for cluster in dataset.mapping.clusters:
                for interface_name, node in cluster.members.items():
                    found = by_name[interface_name].root.find_by_name(node.name)
                    assert found is node

    def test_airline_contains_collapsed_passengers(self, corpus):
        """The 1:m granularity mismatch of Figure 2 is exercised."""
        dataset = corpus["airline"]
        dataset.prepare()
        assert any(
            record.field_label == "Passengers" for record in dataset.mapping.expansions
        )

    def test_prepare_is_idempotent(self, corpus):
        dataset = corpus["auto"]
        dataset.prepare()
        before = len(dataset.mapping.expansions)
        dataset.prepare()
        assert len(dataset.mapping.expansions) == before

    def test_integrated_cached(self, corpus):
        dataset = corpus["job"]
        assert dataset.integrated() is dataset.integrated()

    def test_source_stats_near_table6(self, corpus):
        """Loose bands around Table 6 columns 2 and 5."""
        expectations = {
            "airline": (8, 14, 0.45, 0.75),
            "auto": (4, 8, 0.70, 0.95),
            "book": (4, 8, 0.70, 0.95),
            "job": (3, 7, 0.70, 0.97),
            "realestate": (4, 9, 0.70, 0.95),
            "carrental": (7, 14, 0.40, 0.70),
            "hotels": (5, 11, 0.55, 0.85),
        }
        for name, (lo, hi, lq_lo, lq_hi) in expectations.items():
            dataset = corpus[name]
            avg = sum(q.leaf_count() for q in dataset.interfaces) / len(
                dataset.interfaces
            )
            lq = sum(q.labeling_quality() for q in dataset.interfaces) / len(
                dataset.interfaces
            )
            assert lo <= avg <= hi, (name, avg)
            assert lq_lo <= lq <= lq_hi, (name, lq)


class TestCatalogValidation:
    def test_duplicate_concepts_rejected(self):
        concept = Concept("c_x", variants("X"))
        spec = DomainSpec(
            name="dup",
            interface_count=1,
            groups=(GroupSpec("g1", (concept,)), GroupSpec("g2", (concept,))),
        )
        with pytest.raises(ValueError, match="duplicate"):
            spec.validate()

    def test_supergroup_unknown_member_rejected(self):
        spec = DomainSpec(
            name="bad",
            interface_count=1,
            groups=(GroupSpec("g1", (Concept("c_x", variants("X")),)),),
            supergroups=(SuperGroupSpec("sg", ("ghost",)),),
        )
        with pytest.raises(ValueError, match="unknown groups"):
            spec.validate()

    def test_concept_requires_variants(self):
        with pytest.raises(ValueError):
            Concept("c_x", ())

    def test_generation_validates_spec(self):
        concept = Concept("c_x", variants("X"))
        spec = DomainSpec(
            name="dup2",
            interface_count=1,
            groups=(GroupSpec("g1", (concept,)), GroupSpec("g2", (concept,))),
        )
        with pytest.raises(ValueError):
            generate_domain(spec)

    def test_group_helpers(self):
        group = GroupSpec(
            "g", (Concept("c_a", variants("A")), Concept("c_b", variants("B")))
        )
        assert group.cluster_names() == ("c_a", "c_b")
        spec = DomainSpec(name="s", interface_count=1, groups=(group,))
        assert spec.group_by_key("g") is group
        with pytest.raises(KeyError):
            spec.group_by_key("missing")
        assert len(spec.all_concepts()) == 2
