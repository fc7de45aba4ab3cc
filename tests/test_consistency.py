"""Definitions 2-4: consistency levels, Combine/Combine*, partitions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consistency import (
    CLOSURE_LIMIT,
    CompiledRows,
    ConsistencyLevel,
    Partition,
    combine,
    combine_closure,
    covering_partitions,
    find_partitions,
    partition_solutions,
    solutions_of_partition,
    tuples_consistent,
)
from repro.core.group_relation import GroupRelation, GroupTuple
from repro.core.solutions import _expressiveness, name_group, rank_tuple_solutions
from repro.datasets.registry import DOMAINS, load_domain
from repro.schema.groups import partition_clusters

from .conftest import regular_group

CLUSTERS = ("c1", "c2", "c3")


def row(interface, *labels, clusters=CLUSTERS):
    return GroupTuple(interface=interface, labels=tuple(labels), clusters=clusters)


class TestTuplesConsistent:
    def test_string_level_needs_identical_labels(self, comparator):
        s = row("a", "Adults", "Children", None)
        t = row("b", "Adults", None, "Infants")
        assert tuples_consistent(s, t, ConsistencyLevel.STRING, comparator)

    def test_no_shared_non_null_cluster(self, comparator):
        s = row("a", "Adults", None, None)
        t = row("b", None, "Children", None)
        assert not tuples_consistent(s, t, ConsistencyLevel.SYNONYMY, comparator)

    def test_equality_level(self, comparator):
        # Table 4: Preferred Airline / Airline Preference.
        s = row("a", "Preferred Airline", None, None)
        t = row("b", "Airline Preference", None, None)
        assert not tuples_consistent(s, t, ConsistencyLevel.STRING, comparator)
        assert tuples_consistent(s, t, ConsistencyLevel.EQUALITY, comparator)

    def test_synonymy_level(self, comparator):
        s = row("a", "Area of Study", None, None)
        t = row("b", "Field of Work", None, None)
        assert not tuples_consistent(s, t, ConsistencyLevel.EQUALITY, comparator)
        assert tuples_consistent(s, t, ConsistencyLevel.SYNONYMY, comparator)

    def test_levels_are_cumulative(self, comparator):
        s = row("a", "Adults", None, None)
        t = row("b", "Adults", None, None)
        for level in ConsistencyLevel:
            assert tuples_consistent(s, t, level, comparator)

    def test_cluster_restriction(self, comparator):
        s = row("a", "Adults", "X", None)
        t = row("b", "Adults", "Y", None)
        assert not tuples_consistent(
            s, t, ConsistencyLevel.STRING, comparator, clusters=("c2",)
        )
        assert tuples_consistent(
            s, t, ConsistencyLevel.STRING, comparator, clusters=("c1",)
        )


class TestCombine:
    def test_definition_3(self):
        r = row("r", "A", None, "C")
        s = row("s", "A2", "B", None)
        merged = combine(r, s)
        # Non-null components of r win; s fills r's nulls.
        assert merged.labels == ("A", "B", "C")

    def test_requires_same_clusters(self, comparator):
        r = row("r", "A", None, "C")
        s = GroupTuple("s", ("A",), ("cX",))
        with pytest.raises(ValueError):
            combine(r, s)
        with pytest.raises(ValueError):
            combine_closure([r, s], ConsistencyLevel.STRING, comparator)

    def test_arity_guard(self):
        with pytest.raises(ValueError):
            GroupTuple("x", ("A",), CLUSTERS)


class TestGroupTuple:
    def test_projection(self):
        t = row("x", "A", "B", None)
        projected = t.project(("c3", "c1"))
        assert projected.labels == (None, "A")
        assert projected.clusters == ("c3", "c1")

    def test_non_null_accounting(self):
        t = row("x", "A", None, "C")
        assert t.non_null_clusters() == {"c1", "c3"}
        assert t.non_null_count() == 2
        assert not t.is_complete()
        assert row("y", "A", "B", "C").is_complete()


class TestPartitions:
    def test_figure4_partition(self, comparator, table2_corpus):
        """Figure 4: {aa, british, economytravel, vacations} vs
        {airfareplanet, airtravel} at the string level."""
        interfaces, mapping, group = table2_corpus
        relation = GroupRelation.from_mapping(group, mapping)
        partitions = find_partitions(relation, ConsistencyLevel.STRING, comparator)
        members = sorted(
            tuple(sorted(t.interface for t in p.tuples)) for p in partitions
        )
        assert members == [
            ("aa", "british", "economytravel", "vacations"),
            ("airfareplanet", "airtravel"),
        ]

    def test_proposition_1_positive(self, comparator, table2_corpus):
        interfaces, mapping, group = table2_corpus
        relation = GroupRelation.from_mapping(group, mapping)
        partitions, covering = covering_partitions(
            relation, ConsistencyLevel.STRING, comparator
        )
        assert len(covering) == 1
        solutions = solutions_of_partition(
            covering[0], relation.clusters, comparator
        )
        expected = ("Seniors", "Adults", "Children", "Infants")
        assert any(t.labels == expected for t in solutions)

    def test_proposition_1_negative(self, comparator, table3_corpus):
        """Table 3: no partition links {State, City} with {Zip, Distance}."""
        interfaces, mapping, group = table3_corpus
        relation = GroupRelation.from_mapping(group, mapping)
        __, covering = covering_partitions(
            relation, ConsistencyLevel.SYNONYMY, comparator
        )
        assert covering == []

    def test_partitions_form_a_partition(self, comparator, table4_corpus):
        interfaces, mapping, group = table4_corpus
        relation = GroupRelation.from_mapping(group, mapping)
        for level in ConsistencyLevel:
            partitions = find_partitions(relation, level, comparator)
            seen = [t.interface for p in partitions for t in p.tuples]
            assert sorted(seen) == sorted(t.interface for t in relation.tuples)


class TestCombineClosure:
    def test_generates_complete_tuples(self, comparator):
        rows = [
            row("a", "X", "Y", None),
            row("b", "X", None, "Z"),
        ]
        closure = combine_closure(rows, ConsistencyLevel.STRING, comparator)
        complete = [t for t in closure if t.is_complete()]
        assert complete and complete[0].labels == ("X", "Y", "Z")

    def test_deduplicates_by_value(self, comparator):
        rows = [row("a", "X", None, None), row("b", "X", None, None)]
        closure = combine_closure(rows, ConsistencyLevel.STRING, comparator)
        assert len(closure) == 1

    def test_limit_respected(self, comparator):
        # 6 rows sharing "X" combine into 9 more tuples, so 10 binds.
        rows = [row(f"i{k}", "X", f"b{k}", None) for k in range(3)]
        rows += [row(f"j{k}", "X", None, f"c{k}") for k in range(3)]
        closure = combine_closure(
            rows, ConsistencyLevel.STRING, comparator, limit=10
        )
        full = reference_combine_closure(rows, ConsistencyLevel.STRING, comparator)
        assert len(full) == 15
        assert len(closure) == 10
        assert _view(closure) == _view(full[:10])
        compiled = CompiledRows(rows, comparator)
        assert compiled.closure(ConsistencyLevel.STRING, limit=10).truncated
        assert not compiled.closure(ConsistencyLevel.STRING, limit=16).truncated

    def test_duplicate_rows_derive_nothing_new(self, comparator):
        # Only the first of equal rows is paired; the others keep their
        # place among the originals and their names never appear merged.
        rows = [
            row("a", "X", "Y", None),
            row("b", "X", None, "Z"),
            row("a2", "X", "Y", None),
            row("c", "X", None, "W"),
            row("b2", "X", None, "Z"),
        ]
        closure = combine_closure(rows, ConsistencyLevel.STRING, comparator)
        assert _view(closure) == _view(
            reference_combine_closure(rows, ConsistencyLevel.STRING, comparator)
        )
        assert not any("a2" in t.interface or "b2" in t.interface for t in closure)

    def test_inconsistent_rows_never_combined(self, comparator):
        rows = [row("a", "X", None, None), row("b", None, "Y", None)]
        closure = combine_closure(rows, ConsistencyLevel.SYNONYMY, comparator)
        assert all(t.non_null_count() == 1 for t in closure)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["A", "B", None]),
            st.sampled_from(["P", "Q", None]),
            st.sampled_from(["X", None]),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_closure_tuples_only_grow(comparator, label_rows):
    rows = [
        GroupTuple(f"i{k}", labels, CLUSTERS)
        for k, labels in enumerate(label_rows)
        if any(v is not None for v in labels)
    ]
    if not rows:
        return
    closure = combine_closure(rows, ConsistencyLevel.STRING, comparator)
    base = min(t.non_null_count() for t in rows)
    assert all(t.non_null_count() >= base for t in closure)
    # Every closure tuple's labels come from the original rows, column-wise.
    for t in closure:
        for i, value in enumerate(t.labels):
            if value is not None:
                assert value in {r.labels[i] for r in rows}


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["Adults", "Adult", "Number of Adults", None]),
            st.sampled_from(["Class", "Class of Ticket", "Flight Class", None]),
            st.sampled_from(
                ["Preferred Airline", "Airline Preference", "Airline", None]
            ),
        ),
        min_size=1,
        max_size=7,
    )
)
def test_stronger_levels_refine_weaker_partitions(comparator, label_rows):
    """Definition 2's ladder is cumulative, so the partition at a weaker
    (lower) level refines the partition at a stronger (higher) one: rows
    connected at STRING stay connected at SYNONYMY."""
    rows = [
        GroupTuple(f"i{k}", labels, CLUSTERS)
        for k, labels in enumerate(label_rows)
        if any(v is not None for v in labels)
    ]
    if len(rows) < 2:
        return
    relation = GroupRelation(regular_group(list(CLUSTERS)), rows)

    def components(level):
        partitions = find_partitions(relation, level, comparator)
        return [
            frozenset(t.interface for t in p.tuples) for p in partitions
        ]

    weaker = components(ConsistencyLevel.STRING)
    for stronger_level in (ConsistencyLevel.EQUALITY, ConsistencyLevel.SYNONYMY):
        stronger = components(stronger_level)
        # Every STRING-level component is contained in one component of the
        # more permissive level.
        for component in weaker:
            assert any(component <= bigger for bigger in stronger)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["A", "B", None]),
            st.sampled_from(["P", None]),
            st.sampled_from(["X", "Y", None]),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_covering_partition_iff_complete_solution(comparator, label_rows):
    """Proposition 1, both directions, on random relations."""
    rows = [
        GroupTuple(f"i{k}", labels, CLUSTERS)
        for k, labels in enumerate(label_rows)
        if any(v is not None for v in labels)
    ]
    if not rows:
        return
    relation = GroupRelation(regular_group(list(CLUSTERS)), rows)
    partitions, covering = covering_partitions(
        relation, ConsistencyLevel.STRING, comparator
    )
    complete = []
    for partition in partitions:
        complete.extend(
            solutions_of_partition(partition, relation.clusters, comparator)
        )
    assert bool(covering) == bool(complete)


# ----------------------------------------------------------------------
# The compiled kernel against the object-level reference.
#
# ``reference_*`` are the object-level implementations the kernel
# replaced, kept verbatim: every kernel answer (keys, interface names,
# order, partitions, the truncation flag) must equal theirs.
# ----------------------------------------------------------------------


def reference_find_partitions(relation, level, comparator, clusters=None):
    rows = list(relation.tuples)
    n = len(rows)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for i in range(n):
        for j in range(i + 1, n):
            if tuples_consistent(rows[i], rows[j], level, comparator, clusters):
                union(i, j)

    components: dict[int, list[GroupTuple]] = {}
    for i, row in enumerate(rows):
        components.setdefault(find(i), []).append(row)
    return [Partition(tuples=members, level=level) for members in components.values()]


def _memoized(closure):
    """Memoize a reference closure per (rows, level, limit): the checks
    below ask for the same slow object-level closures repeatedly."""
    memo: dict = {}

    def cached(tuples, level, comparator, limit=CLOSURE_LIMIT):
        key = (tuple(tuples), level, limit)
        if key not in memo:
            memo[key] = closure(tuples, level, comparator, limit)
        return memo[key]

    cached.cache_clear = memo.clear
    return cached


@_memoized
def reference_combine_closure(tuples, level, comparator, limit=CLOSURE_LIMIT):
    seen: dict[tuple[str | None, ...], GroupTuple] = {}
    order: list[GroupTuple] = []
    for t in tuples:
        if t.key() not in seen:
            seen[t.key()] = t
            order.append(t)

    frontier = list(order)
    while frontier and len(order) < limit:
        next_frontier: list[GroupTuple] = []
        for current in frontier:
            for original in tuples:
                if not tuples_consistent(current, original, level, comparator):
                    continue
                for merged in (combine(current, original), combine(original, current)):
                    if merged.key() not in seen:
                        seen[merged.key()] = merged
                        order.append(merged)
                        next_frontier.append(merged)
                        if len(order) >= limit:
                            return order
        frontier = next_frontier
    return order


def reference_spanning_tree_merge(partition, comparator):
    remaining = list(partition.tuples)
    merged = remaining.pop(0)
    while remaining:
        for candidate in remaining:
            if tuples_consistent(merged, candidate, partition.level, comparator):
                merged = combine(merged, candidate)
                remaining.remove(candidate)
                break
        else:
            candidate = remaining.pop(0)
            merged = combine(merged, candidate)
    return merged


def reference_solutions_of_partition(partition, clusters, comparator, limit=CLOSURE_LIMIT):
    projected = [t.project(clusters) for t in partition.tuples]
    projected = [t for t in projected if t.non_null_count() > 0]
    if not projected:
        return []
    closure = reference_combine_closure(projected, partition.level, comparator, limit)
    complete = [t for t in closure if t.is_complete()]
    if complete:
        return complete
    covered: set[str] = set()
    for t in projected:
        covered.update(t.non_null_clusters())
    if frozenset(clusters) <= covered:
        merged = reference_spanning_tree_merge(
            Partition(tuples=projected, level=partition.level), comparator
        )
        if merged.is_complete():
            return [merged]
    return []


def reference_truncated(closure, limit):
    """The reference stops exactly when it holds ``limit`` tuples."""
    return len(closure) >= limit


def _view(tuples):
    return [(t.interface, t.key(), t.clusters) for t in tuples]


def _partition_view(partitions):
    return [([t.interface for t in p.tuples], p.level) for p in partitions]


LIMITS = (1, 2, 5, 10, CLOSURE_LIMIT)


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def assert_kernel_matches_reference(relation, comparator):
    """One :class:`CompiledRows` per relation answers every question of the
    ladder as the object-level reference does: the closure of all rows, the
    partitions (all clusters and ``clusters[1:]``), and each partition's
    closure and solutions over both projections, at every level and limit."""
    reference_combine_closure.cache_clear()
    rows = relation.tuples
    compiled = CompiledRows(rows, comparator)
    for level in ConsistencyLevel:
        for limit in LIMITS:
            expected = reference_combine_closure(rows, level, comparator, limit)
            closure = compiled.closure(level, limit=limit)
            assert _view(closure.tuples()) == _view(expected)
            assert _view(combine_closure(rows, level, comparator, limit)) \
                == _view(expected)
            assert closure.truncated == reference_truncated(expected, limit)

        partitions = reference_find_partitions(relation, level, comparator)
        assert _partition_view(compiled.partitions(level)) \
            == _partition_view(partitions)
        assert _partition_view(find_partitions(relation, level, comparator)) \
            == _partition_view(partitions)
        restricted = relation.clusters[1:]
        expected_restricted = _partition_view(
            reference_find_partitions(relation, level, comparator, restricted)
        )
        assert _partition_view(compiled.partitions(level, restricted)) \
            == expected_restricted
        assert _partition_view(
            find_partitions(relation, level, comparator, restricted)
        ) == expected_restricted

        masks = compiled.components(level)
        assert len(masks) == len(partitions)
        for partition, mask in zip(partitions, masks):
            assert [rows[i] for i in _bits(mask)] == partition.tuples
            for clusters in (relation.clusters, relation.clusters[1:]):
                projected = [
                    t for t in (r.project(clusters) for r in partition.tuples)
                    if t.non_null_count() > 0
                ]
                for limit in LIMITS:
                    closure = compiled.closure(level, mask, clusters, limit)
                    expected = (
                        reference_combine_closure(projected, level, comparator, limit)
                        if projected else []
                    )
                    assert _view(closure.tuples()) == _view(expected)
                    truncated = bool(projected) and reference_truncated(expected, limit)
                    assert closure.truncated == truncated

                    solutions = _view(
                        reference_solutions_of_partition(
                            partition, clusters, comparator, limit
                        )
                    )
                    got = compiled.solutions(level, mask, clusters, limit)
                    assert _view(got.tuples) == solutions
                    assert got.truncated == truncated
                    got = partition_solutions(partition, clusters, comparator, limit)
                    assert _view(got.tuples) == solutions
                    assert got.truncated == truncated


#: Per column, labels whose pairs differ by level: string-equal up to case
#: ("Adults"/"adults"), equal ("Preferred Airline"/"Airline Preference"),
#: synonyms ("Area of Study"/"Field of Work"), and unrelated ones.
VOCABULARY = (
    ("Adults", "adults", "Adult", "Number of Adults"),
    ("Preferred Airline", "Airline Preference", "preferred airline", "Airline"),
    ("Area of Study", "Field of Work", "Study Area", "Class"),
    ("Job Type", "Type of Job", "Kind of Job", "Position"),
)


@st.composite
def small_relations(draw):
    width = draw(st.integers(min_value=3, max_value=4))
    clusters = tuple(f"c{k}" for k in range(width))
    cells = [st.sampled_from((*VOCABULARY[c], None)) for c in range(width)]
    label_rows = draw(st.lists(st.tuples(*cells), min_size=1, max_size=7))
    # Sources often supply the very same row: repeat some.
    repeats = draw(st.lists(st.sampled_from(label_rows), max_size=3))
    label_rows += repeats
    rows = [
        GroupTuple(f"i{k}", labels, clusters)
        for k, labels in enumerate(label_rows)
        if any(v is not None for v in labels)
    ]
    return GroupRelation(regular_group(list(clusters)), rows)


@settings(max_examples=150)
@given(small_relations())
def test_kernel_matches_reference_on_random_relations(comparator, relation):
    assert_kernel_matches_reference(relation, comparator)


def _group_relations(domain: str, seed: int) -> list[GroupRelation]:
    dataset = load_domain(domain, seed=seed)
    dataset.prepare()
    partition = partition_clusters(dataset.integrated())
    groups = list(partition.regular)
    if partition.root_group is not None:
        groups.append(partition.root_group)
    return [GroupRelation.from_mapping(g, dataset.mapping) for g in groups]


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_kernel_matches_reference_on_domain_relations(comparator, domain):
    for seed in (0, 1, 2):
        for relation in _group_relations(domain, seed):
            assert_kernel_matches_reference(relation, comparator)


# ----------------------------------------------------------------------
# name_group on the shared kernel against a ladder of reference_* calls.
# ----------------------------------------------------------------------


def _reference_solutions(partition, clusters, comparator):
    projected = [
        t for t in (r.project(clusters) for r in partition.tuples)
        if t.non_null_count() > 0
    ]
    truncated = bool(projected) and reference_truncated(
        reference_combine_closure(projected, partition.level, comparator),
        CLOSURE_LIMIT,
    )
    return reference_solutions_of_partition(partition, clusters, comparator), truncated


def reference_name_group(relation, comparator):
    """Sections 4.2.1-4.2.2 as the pipeline ran them before the shared
    kernel: one object-level partition graph per level, one closure per
    covering partition, the synonymy partitions again for the fallback."""
    analyzer = comparator.analyzer
    truncated = False
    labelable = tuple(
        c for c in relation.clusters
        if any(t.label_for(c) is not None for t in relation.tuples)
    )
    for level in ConsistencyLevel if labelable else ():
        solutions = []
        for partition in reference_find_partitions(relation, level, comparator):
            if not partition.covers(labelable):
                continue
            tuples, cut = _reference_solutions(partition, labelable, comparator)
            truncated |= cut
            for t, expr, freq, is_cand in rank_tuple_solutions(tuples, relation, analyzer):
                labels = dict.fromkeys(relation.clusters)
                labels.update(zip(labelable, t.labels))
                interfaces = [r.interface for r in partition.tuples]
                solutions.append((labels, level, expr, freq, is_cand, interfaces))
        solutions.sort(key=lambda s: (-s[2], -s[3]))
        if solutions:
            return True, level, truncated, solutions

    per_partition = []
    for partition in reference_find_partitions(
        relation, ConsistencyLevel.SYNONYMY, comparator
    ):
        covered = tuple(c for c in relation.clusters if c in partition.covered_clusters)
        if not covered:
            continue
        tuples, cut = _reference_solutions(partition, covered, comparator)
        truncated |= cut
        if tuples:
            best = rank_tuple_solutions(tuples, relation, analyzer)[0][0]
            labels = tuple(
                best.label_for(c) if c in covered else None for c in relation.clusters
            )
            per_partition.append(GroupTuple(best.interface, labels, relation.clusters))
    per_partition.sort(
        key=lambda t: (
            -t.non_null_count(),
            -_expressiveness(t.labels, analyzer),
            tuple(v or "" for v in t.key()),
        )
    )
    labels = dict.fromkeys(relation.clusters)
    for t in per_partition:
        for cluster in relation.clusters:
            if labels[cluster] is None:
                labels[cluster] = t.label_for(cluster)
    expressiveness = _expressiveness(tuple(labels.values()), analyzer)
    return False, None, truncated, [(labels, None, expressiveness, 0, False, None)]


def _naming_view(result):
    return result.consistent, result.level, result.truncated, [
        (
            s.labels, s.level, s.expressiveness, s.frequency, s.is_candidate,
            None if s.partition is None else [t.interface for t in s.partition.tuples],
        )
        for s in result.solutions
    ]


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_name_group_matches_reference_ladder(comparator, domain):
    reference_combine_closure.cache_clear()
    for seed in (0, 1, 2):
        for relation in _group_relations(domain, seed):
            assert _naming_view(name_group(relation, comparator)) \
                == reference_name_group(relation, comparator)
