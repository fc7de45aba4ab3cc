"""Consistency levels, Combine/Combine*, and tuple partitioning (Sec. 4.1).

Implements:

* **Definition 2** — the three levels of naming consistency between rows of
  a group relation: *string*, *equality*, *synonymy*.  Levels are cumulative
  (string-equal labels are also equal; equal labels also count at the
  synonymy level), matching the algorithm's level-relaxation ladder.
* **Definition 3** — the ``Combine`` operator and its closure ``Combine*``.
* **Section 4.1.1** — the graph-oriented closure computation: vertices are
  rows, edges join consistent rows, and each connected component is a
  *partition* that both identifies a set of clusters a consistent solution
  can cover and confines the rows the solution may draw from.
* **Proposition 1** — a consistent naming solution for a group exists iff
  some partition covers all its clusters; :func:`solutions_of_partition`
  realizes the constructive direction (closure first, spanning-tree merge as
  the linear-time fallback the paper describes in Section 4.2.1).

The closure, the partition graph and the spanning-tree merge all run on
:class:`CompiledRows`: the rows of one projection at one level, each
encoded as per-column label ids, with every Definition-2 label decision
made once up front into per-column bitmasks of consistent rows.
:func:`tuples_consistent` and :func:`combine` are the same definitions
over :class:`GroupTuple` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

from .group_relation import GroupRelation, GroupTuple
from .semantics import LabelRelation, SemanticComparator

__all__ = [
    "ConsistencyLevel",
    "Closure",
    "CompiledRows",
    "Partition",
    "TupleSolutions",
    "tuples_consistent",
    "combine",
    "combine_closure",
    "find_partitions",
    "covering_partitions",
    "partition_solutions",
    "solutions_of_partition",
]

#: Bound on the Combine* closure, so adversarial inputs cannot blow up
#: memory.  Reaching it is reported, never silent: the closure flags it and
#: :class:`~repro.core.solutions.GroupNamingResult` carries ``truncated``.
CLOSURE_LIMIT = 4096


class ConsistencyLevel(IntEnum):
    """Definition 2's ladder, in the order the algorithm relaxes it."""

    STRING = 1
    EQUALITY = 2
    SYNONYMY = 3


def _labels_consistent(
    a: str, b: str, level: ConsistencyLevel, comparator: SemanticComparator
) -> bool:
    """Two non-null labels witness consistency at ``level`` (cumulative).

    Definition 2's ladder, answered from the comparator's memoised
    strongest relation: string-equality witnesses every level, equality
    witnesses EQUALITY and up, synonymy witnesses SYNONYMY.  Equivalent to
    checking ``string_equal`` / ``equal`` / ``synonym`` in turn, because
    ``relation_between`` tries those exact predicates strongest-first.
    """
    relation = comparator.relation_between(a, b)
    if relation is LabelRelation.STRING_EQUAL:
        return True
    if relation is LabelRelation.EQUAL:
        return level >= ConsistencyLevel.EQUALITY
    if relation is LabelRelation.SYNONYM:
        return level >= ConsistencyLevel.SYNONYMY
    return False


def tuples_consistent(
    s: GroupTuple,
    t: GroupTuple,
    level: ConsistencyLevel,
    comparator: SemanticComparator,
    clusters: tuple[str, ...] | None = None,
) -> bool:
    """Definition 2: rows ``s`` and ``t`` are consistent at ``level`` when
    some cluster (of ``clusters``, default all) carries witnessing labels."""
    columns = clusters if clusters is not None else s.clusters
    for cluster in columns:
        a = s.label_for(cluster)
        b = t.label_for(cluster)
        if a is None or b is None:
            continue
        if _labels_consistent(a, b, level, comparator):
            return True
    return False


def combine(r: GroupTuple, s: GroupTuple) -> GroupTuple:
    """Definition 3: the non-null components of ``r`` plus those of ``s``
    where ``r`` is null."""
    if r.clusters != s.clusters:
        raise ValueError("Combine requires tuples over the same clusters")
    merged = tuple(
        rv if rv is not None else sv for rv, sv in zip(r.labels, s.labels)
    )
    return GroupTuple(
        interface=f"{r.interface}+{s.interface}", labels=merged, clusters=r.clusters
    )


class CompiledRows:
    """The rows of one projection at one level, compiled for Definitions 2-3.

    Each column numbers its distinct labels 1, 2, ... in order of first
    appearance (0 is null), and a tuple is one int holding each column's
    label id in that column's own bit field.  Then ``Combine(r, s)`` is
    ``r | (s & ~nn(r))``, where ``nn(r)`` sets all bits of ``r``'s non-null
    fields, and two tuples are equal exactly when their ints are.

    ``masks[c][a]`` is the bitmask of rows (bit ``i`` for ``tuples[i]``,
    duplicates included) whose column-``c`` label is consistent at
    ``level`` with label id ``a``, decided once per label pair by
    :func:`_labels_consistent` with the tuple's label first and the row's
    second.  The rows consistent with a tuple are the OR of its non-null
    columns' masks — :func:`tuples_consistent` with every label comparison
    already made.
    """

    __slots__ = ("tuples", "clusters", "keys", "nns", "full", "_columns")

    def __init__(
        self,
        tuples: list[GroupTuple],
        level: ConsistencyLevel,
        comparator: SemanticComparator,
    ) -> None:
        self.tuples = tuples
        self.clusters = tuples[0].clusters if tuples else ()
        if any(t.clusters != self.clusters for t in tuples):
            raise ValueError("Combine requires tuples over the same clusters")
        self.keys = [0] * len(tuples)
        self.nns = [0] * len(tuples)
        self.full = 0
        #: Per column: (shift, field mask, masks by label id, labels by id).
        self._columns: list[tuple[int, int, list[int], list[str | None]]] = []
        shift = 0
        for c in range(len(self.clusters)):
            ids: dict[str, int] = {}
            rows_with: list[int] = [0]
            row_ids = []
            for i, t in enumerate(tuples):
                label = t.labels[c]
                if label is None:
                    row_ids.append(0)
                    continue
                a = ids.setdefault(label, len(ids) + 1)
                if a == len(rows_with):
                    rows_with.append(0)
                rows_with[a] |= 1 << i
                row_ids.append(a)
            labels: list[str | None] = [None, *ids]
            masks = [0] * len(labels)
            for a in range(1, len(labels)):
                for b in range(1, len(labels)):
                    if _labels_consistent(labels[a], labels[b], level, comparator):
                        masks[a] |= rows_with[b]
            field = (1 << max(len(ids), 1).bit_length()) - 1
            for i, a in enumerate(row_ids):
                if a:
                    self.keys[i] |= a << shift
                    self.nns[i] |= field << shift
            self.full |= field << shift
            self._columns.append((shift, field, masks, labels))
            shift += field.bit_length()

    def consistent_rows(self, key: int) -> int:
        """Bitmask of the rows consistent with the tuple ``key``."""
        rows = 0
        for shift, field, masks, __ in self._columns:
            rows |= masks[(key >> shift) & field]
        return rows

    def labels_of(self, key: int) -> tuple[str | None, ...]:
        return tuple(
            labels[(key >> shift) & field]
            for shift, field, __, labels in self._columns
        )

    # ------------------------------------------------------------------
    # Combine* (Definition 3) and the spanning-tree merge (Sec. 4.2.1).
    # ------------------------------------------------------------------

    def closure(self, limit: int = CLOSURE_LIMIT) -> "Closure":
        """Combine*: every tuple derivable by combining consistent pairs.

        Tuples are deduplicated by value, first one kept.  Each frontier
        tuple is paired with the original rows in input order (duplicates
        included), trying ``Combine(tuple, row)`` then ``Combine(row,
        tuple)``; this reaches every spanning-tree combination of a
        connected component while keeping the frontier small.  The walk
        stops once ``limit`` tuples exist.
        """
        keys, nns = self.keys, self.nns
        closure = Closure(self)
        found, found_nns, links = closure.keys, closure.nns, closure.links
        seen: dict[int, int] = {}
        for i, key in enumerate(keys):
            if key not in seen:
                seen[key] = len(found)
                found.append(key)
                found_nns.append(nns[i])
                links.append((-1, i, True))

        frontier = list(range(len(found)))
        while frontier and len(found) < limit:
            next_frontier: list[int] = []
            for node in frontier:
                current, current_nn = found[node], found_nns[node]
                rows = self.consistent_rows(current)
                while rows:
                    low = rows & -rows
                    rows ^= low
                    i = low.bit_length() - 1
                    row, row_nn = keys[i], nns[i]
                    merged_nn = current_nn | row_nn
                    for merged, current_first in (
                        (current | (row & ~current_nn), True),
                        (row | (current & ~row_nn), False),
                    ):
                        if merged in seen:
                            continue
                        seen[merged] = len(found)
                        next_frontier.append(len(found))
                        found.append(merged)
                        found_nns.append(merged_nn)
                        links.append((node, i, current_first))
                        if len(found) >= limit:
                            closure.truncated = True
                            return closure
            frontier = next_frontier
        # Only reachable at the limit when the deduplicated rows alone
        # already fill it, and the walk never starts.
        closure.truncated = len(found) >= limit
        return closure

    def spanning_tree_merge(self) -> GroupTuple:
        """Linear-time solution: Combine along a spanning tree of the rows.

        "If the time to retrieve a consistent solution is an issue then one
        can always be found in linear time by applying the Combine operator
        along a spanning tree of the connected component." (Section 4.2.1)
        Each step combines in the first remaining row consistent with the
        merge so far; when merged labels mask the witnessing ones, the
        first remaining row is forced in (the component is connected).
        """
        remaining = list(range(1, len(self.tuples)))
        key, nn = self.keys[0], self.nns[0]
        names = [self.tuples[0].interface]
        while remaining:
            rows = self.consistent_rows(key)
            pick = next(
                (pos for pos, i in enumerate(remaining) if rows >> i & 1), 0
            )
            i = remaining.pop(pick)
            key |= self.keys[i] & ~nn
            nn |= self.nns[i]
            names.append(self.tuples[i].interface)
        return GroupTuple("+".join(names), self.labels_of(key), self.clusters)


class Closure:
    """The tuples :meth:`CompiledRows.closure` derived, in discovery order.

    Tuple ``n`` is ``keys[n]``; ``links[n]`` is ``(parent, row, first)``:
    ``parent`` is -1 for an original row (``row`` indexes it), else the
    tuple was ``Combine(parent, row)`` when ``first`` holds and
    ``Combine(row, parent)`` otherwise.  Interface names are built from the
    links only for the tuples a caller asks for.
    """

    __slots__ = ("rows", "keys", "nns", "links", "truncated", "_names")

    def __init__(self, rows: CompiledRows) -> None:
        self.rows = rows
        self.keys: list[int] = []
        self.nns: list[int] = []
        self.links: list[tuple[int, int, bool]] = []
        self.truncated = False
        self._names: dict[int, str] = {}

    def name(self, node: int) -> str:
        """The interface name ``combine`` would have given tuple ``node``."""
        chain = []
        while node not in self._names:
            parent, row, __ = self.links[node]
            if parent < 0:
                self._names[node] = self.rows.tuples[row].interface
                break
            chain.append(node)
            node = parent
        name = self._names[node]
        for node in reversed(chain):
            __, row, current_first = self.links[node]
            other = self.rows.tuples[row].interface
            name = f"{name}+{other}" if current_first else f"{other}+{name}"
            self._names[node] = name
        return name

    def tuple_at(self, node: int) -> GroupTuple:
        parent, row, __ = self.links[node]
        if parent < 0:
            return self.rows.tuples[row]
        return GroupTuple(
            self.name(node), self.rows.labels_of(self.keys[node]), self.rows.clusters
        )

    def tuples(self) -> list[GroupTuple]:
        return [self.tuple_at(n) for n in range(len(self.keys))]

    def complete_tuples(self) -> list[GroupTuple]:
        full = self.rows.full
        return [self.tuple_at(n) for n, nn in enumerate(self.nns) if nn == full]


@dataclass
class Partition:
    """A connected component of the consistency graph (Section 4.1.1)."""

    tuples: list[GroupTuple]
    level: ConsistencyLevel

    @property
    def covered_clusters(self) -> frozenset[str]:
        """Union of the non-null cluster sets of the component's rows."""
        covered: set[str] = set()
        for t in self.tuples:
            covered.update(t.non_null_clusters())
        return frozenset(covered)

    def covers(self, clusters) -> bool:
        return frozenset(clusters) <= self.covered_clusters

    def interface_names(self) -> frozenset[str]:
        return frozenset(t.interface for t in self.tuples)

    def __len__(self) -> int:
        return len(self.tuples)


def find_partitions(
    relation: GroupRelation,
    level: ConsistencyLevel,
    comparator: SemanticComparator,
    clusters: tuple[str, ...] | None = None,
) -> list[Partition]:
    """All maximal partitions of the relation's rows at ``level``.

    Connected components of the undirected graph whose vertices are rows and
    whose edges join consistent rows (restricted to ``clusters`` when given).
    Components come in order of their first row, rows in relation order.
    """
    rows = list(relation.tuples)
    projected = rows if clusters is None else [t.project(clusters) for t in rows]
    compiled = CompiledRows(projected, level, comparator)
    parent = list(range(len(rows)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, key in enumerate(compiled.keys):
        later = compiled.consistent_rows(key) >> (i + 1)
        while later:
            low = later & -later
            later ^= low
            ri, rj = find(i), find(i + low.bit_length())
            if ri != rj:
                parent[rj] = ri

    components: dict[int, list[GroupTuple]] = {}
    for i, row in enumerate(rows):
        components.setdefault(find(i), []).append(row)
    return [Partition(tuples=members, level=level) for members in components.values()]


def covering_partitions(
    relation: GroupRelation,
    level: ConsistencyLevel,
    comparator: SemanticComparator,
) -> tuple[list[Partition], list[Partition]]:
    """(all partitions, those covering every cluster of the group).

    The second component being non-empty is exactly Proposition 1's
    condition for a consistent naming solution to exist at ``level``.
    """
    partitions = find_partitions(relation, level, comparator)
    covering = [p for p in partitions if p.covers(relation.clusters)]
    return partitions, covering


def combine_closure(
    tuples: list[GroupTuple],
    level: ConsistencyLevel,
    comparator: SemanticComparator,
    limit: int = CLOSURE_LIMIT,
) -> list[GroupTuple]:
    """Combine* (Definition 3 generalized): all tuples derivable by
    repeatedly combining consistent pairs, duplicates (by label values)
    ignored, at most ``limit`` of them (see :meth:`CompiledRows.closure`)."""
    return CompiledRows(tuples, level, comparator).closure(limit).tuples()


class TupleSolutions(NamedTuple):
    """A partition's tuple-solutions, and whether Combine* hit its limit."""

    tuples: list[GroupTuple]
    truncated: bool


def partition_solutions(
    partition: Partition,
    clusters: tuple[str, ...],
    comparator: SemanticComparator,
    limit: int = CLOSURE_LIMIT,
) -> TupleSolutions:
    """Tuple-solutions (Definition 4) for ``clusters`` from ``partition``.

    Every complete tuple (no nulls over ``clusters``) in the Combine*
    closure; when the closure yields none but the partition covers the
    clusters, the spanning-tree merge, so Proposition 1's constructive
    direction always holds.
    """
    projected = [t.project(clusters) for t in partition.tuples]
    projected = [t for t in projected if t.non_null_count() > 0]
    if not projected:
        return TupleSolutions([], False)
    compiled = CompiledRows(projected, partition.level, comparator)
    closure = compiled.closure(limit)
    complete = closure.complete_tuples()
    if complete:
        return TupleSolutions(complete, closure.truncated)
    covered = 0
    for nn in compiled.nns:
        covered |= nn
    if covered == compiled.full:
        # Covering all clusters, the forced merge is always complete.
        return TupleSolutions([compiled.spanning_tree_merge()], closure.truncated)
    return TupleSolutions([], closure.truncated)


def solutions_of_partition(
    partition: Partition,
    clusters: tuple[str, ...],
    comparator: SemanticComparator,
    limit: int = CLOSURE_LIMIT,
) -> list[GroupTuple]:
    """The tuples of :func:`partition_solutions`."""
    return partition_solutions(partition, clusters, comparator, limit).tuples
