"""Group naming: consistent, ranked, and partially consistent solutions."""

from __future__ import annotations

import pytest

from repro.core.consistency import ConsistencyLevel
from repro.core.group_relation import GroupRelation, GroupTuple
from repro.core.semantics import SemanticComparator
from repro.core.solutions import name_group, rank_tuple_solutions
from repro.datasets.registry import load_domain
from repro.schema.groups import partition_clusters

from .conftest import build_group_corpus, regular_group


class TestTable2:
    """String-level solution for the passenger group."""

    def test_solution(self, comparator, table2_corpus):
        __, mapping, group = table2_corpus
        relation = GroupRelation.from_mapping(group, mapping)
        result = name_group(relation, comparator)
        assert result.consistent
        assert result.level is ConsistencyLevel.STRING
        assert result.best.labels == {
            "c_senior": "Seniors",
            "c_adult": "Adults",
            "c_child": "Children",
            "c_infant": "Infants",
        }

    def test_solution_partition_records_interfaces(self, comparator, table2_corpus):
        __, mapping, group = table2_corpus
        relation = GroupRelation.from_mapping(group, mapping)
        result = name_group(relation, comparator)
        assert result.best.supplying_interfaces() == {
            "aa", "british", "economytravel", "vacations"
        }


class TestTable4:
    """Equality-level solution with the expressiveness criterion."""

    def test_resolves_above_string_level(self, comparator, table4_corpus):
        __, mapping, group = table4_corpus
        relation = GroupRelation.from_mapping(group, mapping)
        result = name_group(relation, comparator)
        assert result.consistent
        assert result.level is not None and result.level > ConsistencyLevel.STRING

    def test_expressiveness_prefers_descriptive(self, comparator, table4_corpus):
        """Paper: (Max. Number of Stops, Class of Ticket, Preferred Airline)
        beats (Number of Connections, Class of Ticket, Airline Preference) —
        7 distinct content words versus 6."""
        __, mapping, group = table4_corpus
        relation = GroupRelation.from_mapping(group, mapping)
        candidates = [
            GroupTuple(
                "x",
                ("Max. Number of Stops", "Class of Ticket", "Preferred Airline"),
                group.clusters,
            ),
            GroupTuple(
                "y",
                ("Number of Connections", "Class of Ticket", "Airline Preference"),
                group.clusters,
            ),
        ]
        ranked = rank_tuple_solutions(candidates, relation, comparator.analyzer)
        assert ranked[0][0].labels[0] == "Max. Number of Stops"
        assert ranked[0][1] == 7 and ranked[1][1] == 6

    def test_frequency_breaks_expressiveness_ties(self, comparator):
        rows = {
            "a": {"c1": "Min Price", "c2": "Max Price"},
            "b": {"c1": "Min Price", "c2": "Max Price"},
            "c": {"c1": "Low Price", "c2": "Top Price"},
        }
        __, mapping = build_group_corpus(rows, ["c1", "c2"])
        group = regular_group(["c1", "c2"])
        relation = GroupRelation.from_mapping(group, mapping)
        result = name_group(relation, comparator)
        # Both candidate rows have 3 distinct content words; the one two
        # interfaces supply wins.
        assert result.best.labels == {"c1": "Min Price", "c2": "Max Price"}
        assert result.best.frequency == 2


class TestTable3:
    """Partially consistent solution when no partition covers the group."""

    def test_partial_solution(self, comparator, table3_corpus):
        __, mapping, group = table3_corpus
        relation = GroupRelation.from_mapping(group, mapping)
        result = name_group(relation, comparator)
        assert not result.consistent
        assert len(result.solutions) == 1
        solution = result.solutions[0]
        assert solution.partition is None
        assert solution.labels == {
            "c_state": "State",
            "c_city": "City",
            "c_zip": "Zip Code",
            "c_distance": "Distance",
        }

    def test_partial_prefers_larger_fragments(self, comparator):
        rows = {
            "a": {"c1": "Alpha", "c2": "Beta", "c3": "Gamma"},
            "b": {"c4": "Delta"},
        }
        __, mapping = build_group_corpus(rows, ["c1", "c2", "c3", "c4"])
        group = regular_group(["c1", "c2", "c3", "c4"])
        relation = GroupRelation.from_mapping(group, mapping)
        result = name_group(relation, comparator)
        assert not result.consistent
        assert result.solutions[0].labels == {
            "c1": "Alpha", "c2": "Beta", "c3": "Gamma", "c4": "Delta"
        }


class TestEdgeCases:
    def test_empty_relation(self, comparator):
        group = regular_group(["c1", "c2"])
        relation = GroupRelation(group, [])
        result = name_group(relation, comparator)
        assert not result.consistent
        assert result.best.labels == {"c1": None, "c2": None}

    def test_unlabelable_cluster_stays_null(self, comparator):
        """The Real-Estate Lease-Rate case: one cluster labeled nowhere."""
        rows = {
            "a": {"c_to": "To"},
            "b": {"c_to": "To"},
        }
        __, mapping = build_group_corpus(rows, ["c_from", "c_to"])
        # Register the never-labeled field so the cluster exists.
        from repro.schema.interface import make_field

        mapping.assign("c_from", "a", make_field(None, name="a:cf"))
        group = regular_group(["c_from", "c_to"])
        relation = GroupRelation.from_mapping(group, mapping)
        result = name_group(relation, comparator)
        assert result.consistent  # consistent over the labelable clusters
        assert result.best.labels == {"c_from": None, "c_to": "To"}

    def test_max_level_truncation(self, comparator):
        """The ablation knob: stopping at STRING forces partial solutions."""
        rows = {
            "a": {"c1": "Preferred Airline", "c2": "Class"},
            "b": {"c1": "Airline Preference", "c3": "Stops"},
        }
        __, mapping = build_group_corpus(rows, ["c1", "c2", "c3"])
        group = regular_group(["c1", "c2", "c3"])
        relation = GroupRelation.from_mapping(group, mapping)
        truncated = name_group(
            relation, comparator, max_level=ConsistencyLevel.STRING
        )
        assert not truncated.consistent
        full = name_group(relation, comparator)
        assert full.consistent
        assert full.level is ConsistencyLevel.EQUALITY

    def test_relation_table_rendering(self, comparator, table2_corpus):
        __, mapping, group = table2_corpus
        relation = GroupRelation.from_mapping(group, mapping)
        table = relation.as_table()
        assert "c_senior" in table and "british" in table and "Seniors" in table

    def test_frequency_of(self, comparator, table2_corpus):
        __, mapping, group = table2_corpus
        relation = GroupRelation.from_mapping(group, mapping)
        assert relation.frequency_of((None, "Adults", "Children", None)) == 1
        assert relation.frequency_of(("Seniors", "Adults", "Children", None)) == 2

    def test_tuple_of(self, comparator, table2_corpus):
        __, mapping, group = table2_corpus
        relation = GroupRelation.from_mapping(group, mapping)
        assert relation.tuple_of("british").label_for("c_senior") == "Seniors"
        assert relation.tuple_of("ghost") is None


class TestGroupNamingResultApi:
    def test_solution_for_partition(self, comparator, table2_corpus):
        __, mapping, group = table2_corpus
        relation = GroupRelation.from_mapping(group, mapping)
        result = name_group(relation, comparator)
        found = result.solution_for_partition(frozenset({"british"}))
        assert found is not None
        assert "british" in found.supplying_interfaces()
        assert result.solution_for_partition(frozenset({"ghost"})) is None

    def test_partial_solution_supports_nobody(self, comparator, table3_corpus):
        __, mapping, group = table3_corpus
        relation = GroupRelation.from_mapping(group, mapping)
        result = name_group(relation, comparator)
        solution = result.solutions[0]
        assert solution.supplying_interfaces() == frozenset()
        assert not solution.is_consistent
        assert result.solution_for_partition(frozenset({"100auto"})) is None

    def test_label_for_accessor(self, comparator, table2_corpus):
        __, mapping, group = table2_corpus
        relation = GroupRelation.from_mapping(group, mapping)
        best = name_group(relation, comparator).best
        assert best.label_for("c_adult") == "Adults"
        assert best.label_for("c_missing") is None


class TestTruncation:
    """A Combine* closure stopped by CLOSURE_LIMIT is reported, not silent."""

    def test_job_root_group_is_truncated_and_memo_hits_keep_it(self):
        dataset = load_domain("job", seed=0)
        dataset.prepare()
        partition = partition_clusters(dataset.integrated())
        comparator = SemanticComparator()
        root = GroupRelation.from_mapping(partition.root_group, dataset.mapping)
        assert name_group(root, comparator).truncated
        assert name_group(root, comparator).truncated  # group-memo hit
        for group in partition.regular:
            relation = GroupRelation.from_mapping(group, dataset.mapping)
            assert not name_group(relation, comparator).truncated

    def test_small_groups_are_not_truncated(self, comparator, table2_corpus):
        __, mapping, group = table2_corpus
        result = name_group(GroupRelation.from_mapping(group, mapping), comparator)
        assert not result.truncated
