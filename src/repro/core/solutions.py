"""Extracting naming solutions for groups (Sections 4.2 and 4.3).

The group-naming algorithm proceeds down the consistency ladder: string,
then equality, then synonymy level.  At the first level where a partition
covers every cluster of the group, each such partition yields its
tuple-solutions (via ``Combine*``); the preferred one maximizes
*expressiveness* (number of distinct content words across the labels),
breaking ties by *frequency of occurrence* (how many interfaces supply the
row — candidate solutions only) and finally deterministically.

When no level admits a covering partition, the greedy *partially consistent*
construction of Section 4.2.2 concatenates per-partition solutions, largest
first.

The result object mirrors Section 4.3: "the naming algorithm returns a set
of pairs (p, CLabels)" — partition plus labels — so the tree-level phase can
later pick the pair that correlates best with internal-node labels.

:func:`name_group` is a pure function of its relation and runs the ladder
on every call; what it repeats across calls is label comparison, which the
comparator's pairwise memos answer.  Each result is the caller's to keep:
homonym repair rewrites the chosen solution's labels in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..schema.groups import Group
from .consistency import CompiledRows, ConsistencyLevel, Partition
from .group_relation import GroupRelation, GroupTuple
from .label import LabelAnalyzer
from .semantics import SemanticComparator

__all__ = ["GroupSolution", "GroupNamingResult", "rank_tuple_solutions", "name_group"]


@dataclass
class GroupSolution:
    """One (partition, labels) pair for a group.

    ``partition`` is ``None`` exactly when the labels form a *partially
    consistent* solution stitched from several partitions (Section 4.2.2);
    Definition 6 consistency checks against internal-node labels only apply
    when a partition is present.
    """

    group: Group
    labels: dict[str, str | None]
    level: ConsistencyLevel | None
    partition: Partition | None
    expressiveness: int = 0
    frequency: int = 0
    is_candidate: bool = False

    @property
    def is_consistent(self) -> bool:
        return self.partition is not None

    def label_for(self, cluster: str) -> str | None:
        return self.labels.get(cluster)

    def supplying_interfaces(self) -> frozenset[str]:
        if self.partition is None:
            return frozenset()
        return self.partition.interface_names()


@dataclass
class GroupNamingResult:
    """Outcome of naming one group: its relation, all solution pairs, flags.

    ``truncated`` is set when some Combine* closure of the run stopped at
    :data:`~repro.core.consistency.CLOSURE_LIMIT`, so the solutions may
    miss tuples the full closure holds.
    """

    group: Group
    relation: GroupRelation
    solutions: list[GroupSolution] = field(default_factory=list)
    consistent: bool = False
    level: ConsistencyLevel | None = None
    truncated: bool = False

    @property
    def best(self) -> GroupSolution | None:
        return self.solutions[0] if self.solutions else None

    def solution_for_partition(self, interfaces: frozenset[str]) -> GroupSolution | None:
        """A solution whose partition contains all of ``interfaces``."""
        for solution in self.solutions:
            if solution.partition is None:
                continue
            if interfaces <= solution.supplying_interfaces():
                return solution
        return None


def _expressiveness(labels: tuple[str | None, ...], analyzer: LabelAnalyzer) -> int:
    """Distinct content words across a tuple-solution's labels (Sec. 4.2.1)."""
    stems: set[str] = set()
    for text in labels:
        if text is None:
            continue
        stems.update(analyzer.label(text).stems)
    return len(stems)


def rank_tuple_solutions(
    tuple_solutions: list[GroupTuple],
    relation: GroupRelation,
    analyzer: LabelAnalyzer,
) -> list[tuple[GroupTuple, int, int, bool]]:
    """Rank tuple-solutions by (expressiveness desc, frequency desc, key).

    Returns ``(tuple, expressiveness, frequency, is_candidate)`` quadruples.
    Frequency only differentiates candidate solutions (rows present in the
    relation); derived rows get frequency 0.
    """
    ranked = []
    for t in tuple_solutions:
        freq = relation.frequency_of(t.key())
        ranked.append(
            (t, _expressiveness(t.labels, analyzer), freq, freq > 0)
        )
    ranked.sort(
        key=lambda item: (
            -item[1],
            -item[2],
            tuple(v or "" for v in item[0].key()),
        )
    )
    return ranked


def _solutions_at_level(
    result: GroupNamingResult,
    compiled: CompiledRows,
    labelable: tuple[str, ...],
    level: ConsistencyLevel,
    analyzer: LabelAnalyzer,
) -> list[GroupSolution]:
    """All ranked solutions from covering partitions at ``level`` (or [])."""
    relation = result.relation
    solutions: list[GroupSolution] = []
    for rows in compiled.components(level):
        # A partition covers the labelable clusters when it labels them all.
        if compiled.covered(rows) != labelable:
            continue
        partition = compiled.partition(level, rows)
        tuple_solutions = compiled.solutions(level, rows, labelable)
        result.truncated |= tuple_solutions.truncated
        for t, expr, freq, is_cand in rank_tuple_solutions(
            tuple_solutions.tuples, relation, analyzer
        ):
            labels: dict[str, str | None] = {c: None for c in relation.clusters}
            labels.update(zip(labelable, t.labels))
            solutions.append(
                GroupSolution(
                    group=relation.group,
                    labels=labels,
                    level=level,
                    partition=partition,
                    expressiveness=expr,
                    frequency=freq,
                    is_candidate=is_cand,
                )
            )
    solutions.sort(key=lambda s: (-s.expressiveness, -s.frequency))
    return solutions


def _best_partition_solution(
    compiled: CompiledRows,
    rows: int,
    result: GroupNamingResult,
    analyzer: LabelAnalyzer,
) -> GroupTuple | None:
    """Best tuple-solution of partition ``rows`` over the clusters it covers."""
    relation = result.relation
    covered = compiled.covered(rows)
    if not covered:
        return None
    tuple_solutions = compiled.solutions(ConsistencyLevel.SYNONYMY, rows, covered)
    result.truncated |= tuple_solutions.truncated
    if not tuple_solutions.tuples:
        return None
    ranked = rank_tuple_solutions(tuple_solutions.tuples, relation, analyzer)
    best = ranked[0][0]
    # Re-expand to the full cluster tuple with nulls outside the coverage.
    labels = tuple(
        best.label_for(c) if c in covered else None for c in relation.clusters
    )
    return GroupTuple(interface=best.interface, labels=labels, clusters=relation.clusters)


def _partially_consistent(
    result: GroupNamingResult,
    compiled: CompiledRows,
    analyzer: LabelAnalyzer,
) -> GroupSolution:
    """Greedy concatenation of per-partition solutions (Section 4.2.2)."""
    relation = result.relation
    per_partition: list[GroupTuple] = []
    for rows in compiled.components(ConsistencyLevel.SYNONYMY):
        best = _best_partition_solution(compiled, rows, result, analyzer)
        if best is not None:
            per_partition.append(best)
    per_partition.sort(
        key=lambda t: (
            -t.non_null_count(),
            -_expressiveness(t.labels, analyzer),
            tuple(v or "" for v in t.key()),
        )
    )

    labels: dict[str, str | None] = {c: None for c in relation.clusters}
    for t in per_partition:
        if all(v is not None for v in labels.values()):
            break
        for cluster in relation.clusters:
            if labels[cluster] is None:
                labels[cluster] = t.label_for(cluster)

    return GroupSolution(
        group=relation.group,
        labels=labels,
        level=None,
        partition=None,
        expressiveness=_expressiveness(tuple(labels.values()), analyzer),
    )


def name_group(
    relation: GroupRelation,
    comparator: SemanticComparator,
    analyzer: LabelAnalyzer | None = None,
    max_level: ConsistencyLevel = ConsistencyLevel.SYNONYMY,
) -> GroupNamingResult:
    """Name one group: walk the consistency ladder, else go partial.

    ``max_level`` exists for the ablation experiments (truncating the ladder
    at STRING or EQUALITY); the paper's algorithm uses the full ladder.
    """
    analyzer = analyzer or comparator.analyzer
    result = GroupNamingResult(group=relation.group, relation=relation)

    if not relation.tuples:
        # Nobody labels anything in this group: all-null partial solution.
        result.solutions = [
            GroupSolution(
                group=relation.group,
                labels={c: None for c in relation.clusters},
                level=None,
                partition=None,
            )
        ]
        return result

    # One compile serves every level, every covering partition and the
    # partially consistent fallback.  The clusters some source labels are
    # the ones a solution can name: a cluster unlabeled on *every* source
    # (the Real-Estate Lease-Rate case) cannot receive a label by any
    # algorithm, so consistency is judged — as the paper's Section 7 does —
    # over the labelable clusters, and the impossible one stays null (and is
    # charged to FldAcc, not to Def. 8).
    compiled = CompiledRows(relation.tuples, comparator)
    labelable = compiled.covered(compiled.all_rows)
    if labelable:
        for level in ConsistencyLevel:
            if level > max_level:
                break
            solutions = _solutions_at_level(
                result, compiled, labelable, level, analyzer
            )
            if solutions:
                result.solutions = solutions
                result.consistent = True
                result.level = level
                return result

    result.solutions = [_partially_consistent(result, compiled, analyzer)]
    result.consistent = False
    return result
