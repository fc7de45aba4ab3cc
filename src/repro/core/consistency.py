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
:class:`CompiledRows`, built once per group relation: each row encoded
as per-column label ids, with every Definition-2 label decision made once
up front into per-column, per-level bitmasks of consistent rows.  A
partition is a bitmask of those rows and a projection selects columns, so
the whole ladder of one group shares the decisions.
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


#: The lowest level of Definition 2's ladder each relation witnesses:
#: string-equality witnesses every level, equality EQUALITY and up, and
#: synonymy SYNONYMY.  ``relation_between`` tries those exact predicates
#: strongest-first, so reading its memoised answer is equivalent to
#: checking ``string_equal`` / ``equal`` / ``synonym`` in turn.
_LOWEST_LEVEL = {
    LabelRelation.STRING_EQUAL: ConsistencyLevel.STRING,
    LabelRelation.EQUAL: ConsistencyLevel.EQUALITY,
    LabelRelation.SYNONYM: ConsistencyLevel.SYNONYMY,
}


def _labels_consistent(
    a: str, b: str, level: ConsistencyLevel, comparator: SemanticComparator
) -> bool:
    """Two non-null labels witness consistency at ``level`` (cumulative)."""
    lowest = _LOWEST_LEVEL.get(comparator.relation_between(a, b))
    return lowest is not None and level >= lowest


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


class CompiledRows:
    """The rows of one group relation, compiled once for Definitions 2-3.

    Each column numbers its distinct labels 1, 2, ... in order of first
    appearance (0 is null), and a tuple is one int holding each column's
    label id in that column's own bit field.  Then ``Combine(r, s)`` is
    ``r | (s & ~nn(r))``, where ``nn(r)`` sets all bits of ``r``'s non-null
    fields, and two tuples are equal exactly when their ints are.

    ``relation_between`` is asked once per pair of distinct labels of a
    column, and its answer sets that column's masks at all three levels:
    ``masks[level][c][a]`` is the bitmask of rows (bit ``i`` for
    ``tuples[i]``, duplicates included) whose column-``c`` label is
    consistent at ``level`` with label id ``a``.  The rows consistent with a
    tuple are the OR of its non-null columns' masks — :func:`tuples_consistent`
    with every label comparison already made.

    Every question of the ladder runs on this one object: a set of rows
    (a partition) is a bitmask over ``tuples`` and a projection is a tuple
    of cluster names, so every level's partitions and every covering
    partition's closure share one set of label decisions.
    """

    __slots__ = (
        "tuples", "clusters", "keys", "nns", "all_rows",
        "_fields", "_labels", "_masks", "_components",
    )

    def __init__(
        self, tuples: list[GroupTuple], comparator: SemanticComparator
    ) -> None:
        self.tuples = list(tuples)
        self.clusters = self.tuples[0].clusters if self.tuples else ()
        if any(t.clusters != self.clusters for t in self.tuples):
            raise ValueError("Combine requires tuples over the same clusters")
        self.keys = [0] * len(self.tuples)
        self.nns = [0] * len(self.tuples)
        self.all_rows = (1 << len(self.tuples)) - 1
        #: Per column: the (shift, field mask) of its bit field, and its
        #: labels by id.
        self._fields: list[tuple[int, int]] = []
        self._labels: list[list[str | None]] = []
        #: ``_masks[level][c]``: column ``c``'s masks by label id.
        self._masks: dict[ConsistencyLevel, list[list[int]]] = {
            level: [] for level in ConsistencyLevel
        }
        self._components: dict[tuple, list[int]] = {}
        shift = 0
        for c in range(len(self.clusters)):
            ids: dict[str, int] = {}
            rows_with: list[int] = [0]
            for i, t in enumerate(self.tuples):
                label = t.labels[c]
                if label is None:
                    continue
                a = ids.setdefault(label, len(ids) + 1)
                if a == len(rows_with):
                    rows_with.append(0)
                rows_with[a] |= 1 << i
                self.keys[i] |= a << shift
            labels: list[str | None] = [None, *ids]
            # A label is string-equal to itself, so it witnesses every level.
            masks = {level: list(rows_with) for level in ConsistencyLevel}
            for a in range(1, len(labels)):
                for b in range(a + 1, len(labels)):
                    lowest = _LOWEST_LEVEL.get(
                        comparator.relation_between(labels[a], labels[b])
                    )
                    if lowest is None:
                        continue
                    for level in ConsistencyLevel:
                        if level >= lowest:
                            masks[level][a] |= rows_with[b]
                            masks[level][b] |= rows_with[a]
            field = (1 << max(len(ids), 1).bit_length()) - 1
            for i, t in enumerate(self.tuples):
                if t.labels[c] is not None:
                    self.nns[i] |= field << shift
            for level in ConsistencyLevel:
                self._masks[level].append(masks[level])
            self._fields.append((shift, field))
            self._labels.append(labels)
            shift += field.bit_length()

    def consistent_rows(self, key: int, level: ConsistencyLevel) -> int:
        """Bitmask of the rows consistent with the tuple ``key`` at ``level``."""
        rows = 0
        for (shift, field), masks in zip(self._fields, self._masks[level]):
            rows |= masks[(key >> shift) & field]
        return rows

    def covered(self, rows: int) -> tuple[str, ...]:
        """The clusters some row of ``rows`` labels, in relation order."""
        nn = 0
        for i in _bits(rows):
            nn |= self.nns[i]
        return tuple(
            cluster
            for cluster, (shift, field) in zip(self.clusters, self._fields)
            if nn >> shift & field
        )

    # ------------------------------------------------------------------
    # The partition graph (Section 4.1.1).
    # ------------------------------------------------------------------

    def components(
        self, level: ConsistencyLevel, clusters: tuple[str, ...] | None = None
    ) -> list[int]:
        """Connected components of the consistency graph, as row bitmasks.

        Vertices are rows, edges join rows consistent at ``level`` over
        ``clusters`` (default all).  Components come in order of their
        first row.  Memoised per ``(level, clusters)``: the partially
        consistent construction reuses the ladder's synonymy components.
        """
        memo_key = (level, None if clusters is None else tuple(clusters))
        cached = self._components.get(memo_key)
        if cached is not None:
            return cached
        view = _Projection(self, self.all_rows, clusters)
        parent = list(range(len(self.tuples)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, key in enumerate(view.keys):
            later = self.consistent_rows(key, level) >> (i + 1)
            while later:
                low = later & -later
                later ^= low
                ri, rj = find(i), find(i + low.bit_length())
                if ri != rj:
                    parent[rj] = ri

        components: dict[int, int] = {}
        for i in range(len(self.tuples)):
            root = find(i)
            components[root] = components.get(root, 0) | 1 << i
        self._components[memo_key] = result = list(components.values())
        return result

    def partition(self, level: ConsistencyLevel, rows: int) -> Partition:
        return Partition(tuples=[self.tuples[i] for i in _bits(rows)], level=level)

    def partitions(
        self, level: ConsistencyLevel, clusters: tuple[str, ...] | None = None
    ) -> list[Partition]:
        return [self.partition(level, rows) for rows in self.components(level, clusters)]

    # ------------------------------------------------------------------
    # Combine* (Definition 3) and the spanning-tree merge (Sec. 4.2.1).
    # ------------------------------------------------------------------

    def closure(
        self,
        level: ConsistencyLevel,
        rows: int | None = None,
        clusters: tuple[str, ...] | None = None,
        limit: int = CLOSURE_LIMIT,
    ) -> "Closure":
        """Combine* over ``rows`` (default all) projected onto ``clusters``.

        Rows whose projection is all null take no part.  Tuples are
        deduplicated by value, first one kept.  Each frontier tuple is
        paired with the rows consistent with it in input order, trying
        ``Combine(tuple, row)`` then ``Combine(row, tuple)``; this reaches
        every spanning-tree combination of a connected component while
        keeping the frontier small.  Only the first row of each distinct
        value is paired, as a later duplicate derives nothing new.  The
        walk stops once ``limit`` tuples exist.
        """
        view = _Projection(self, self.all_rows if rows is None else rows, clusters)
        return self._closure(view, level, limit)

    def _closure(
        self, view: "_Projection", level: ConsistencyLevel, limit: int
    ) -> "Closure":
        keys, nns = view.keys, view.nns
        closure = Closure(view)
        found, found_nns, links = closure.keys, closure.nns, closure.links
        seen: set[int] = set()
        firsts = 0
        for i in view.members:
            key = keys[i]
            if key not in seen:
                seen.add(key)
                found.append(key)
                found_nns.append(nns[i])
                links.append((-1, i, True))
                firsts |= 1 << i
        columns = [
            (shift, field, self._masks[level][c])
            for c, (shift, field) in zip(view.columns, view.fields)
        ]
        add, append, append_nn, link = seen.add, found.append, found_nns.append, links.append

        # Each round's frontier is the tuples the previous round found.
        start = 0
        while start < len(found) < limit:
            end = len(found)
            for node in range(start, end):
                current, current_nn = found[node], found_nns[node]
                candidates = 0
                for shift, field, masks in columns:
                    candidates |= masks[(current >> shift) & field]
                candidates &= firsts
                while candidates:
                    low = candidates & -candidates
                    candidates ^= low
                    i = low.bit_length() - 1
                    row, row_nn = keys[i], nns[i]
                    merged = current | (row & ~current_nn)
                    if merged not in seen:
                        add(merged)
                        append(merged)
                        append_nn(current_nn | row_nn)
                        link((node, i, True))
                        if len(found) >= limit:
                            closure.truncated = True
                            return closure
                    merged = row | (current & ~row_nn)
                    if merged not in seen:
                        add(merged)
                        append(merged)
                        append_nn(current_nn | row_nn)
                        link((node, i, False))
                        if len(found) >= limit:
                            closure.truncated = True
                            return closure
            start = end
        # Only reachable at the limit when the deduplicated rows alone
        # already fill it, and the walk never starts.
        closure.truncated = len(found) >= limit
        return closure

    def _spanning_tree_merge(
        self, view: "_Projection", level: ConsistencyLevel
    ) -> GroupTuple:
        """Linear-time solution: Combine along a spanning tree of the rows.

        "If the time to retrieve a consistent solution is an issue then one
        can always be found in linear time by applying the Combine operator
        along a spanning tree of the connected component." (Section 4.2.1)
        Each step combines in the first remaining row consistent with the
        merge so far; when merged labels mask the witnessing ones, the
        first remaining row is forced in (the component is connected).
        """
        first, *remaining = view.members
        key, nn = view.keys[first], view.nns[first]
        names = [self.tuples[first].interface]
        while remaining:
            rows = self.consistent_rows(key, level)
            pick = next(
                (pos for pos, i in enumerate(remaining) if rows >> i & 1), 0
            )
            i = remaining.pop(pick)
            key |= view.keys[i] & ~nn
            nn |= view.nns[i]
            names.append(self.tuples[i].interface)
        return GroupTuple("+".join(names), view.labels_of(key), view.clusters)

    def solutions(
        self,
        level: ConsistencyLevel,
        rows: int,
        clusters: tuple[str, ...],
        limit: int = CLOSURE_LIMIT,
    ) -> "TupleSolutions":
        """Tuple-solutions (Definition 4) for ``clusters`` from ``rows``.

        Every complete tuple (no nulls over ``clusters``) in the Combine*
        closure; when the closure yields none but the rows cover the
        clusters, the spanning-tree merge, so Proposition 1's constructive
        direction always holds.
        """
        view = _Projection(self, rows, clusters)
        if not view.members:
            return TupleSolutions([], False)
        closure = self._closure(view, level, limit)
        complete = closure.complete_tuples()
        if complete:
            return TupleSolutions(complete, closure.truncated)
        covered = 0
        for i in view.members:
            covered |= view.nns[i]
        if covered == view.full:
            # Covering all clusters, the forced merge is always complete.
            return TupleSolutions(
                [self._spanning_tree_merge(view, level)], closure.truncated
            )
        return TupleSolutions([], closure.truncated)


def _bits(rows: int):
    """The indices of the set bits of ``rows``, ascending."""
    while rows:
        low = rows & -rows
        rows ^= low
        yield low.bit_length() - 1


class _Projection:
    """Some rows of a :class:`CompiledRows` projected onto some clusters.

    ``keys[i]``/``nns[i]`` are row ``i``'s key and null mask with the other
    columns' fields cleared (0 for rows outside the set); ``members`` are
    the rows of the set whose projection has a non-null label; ``full`` is
    the null mask of a complete projected tuple.
    """

    __slots__ = (
        "compiled", "clusters", "columns", "fields", "full", "identity",
        "keys", "nns", "members",
    )

    def __init__(
        self, compiled: CompiledRows, rows: int, clusters: tuple[str, ...] | None
    ) -> None:
        self.compiled = compiled
        if clusters is None or not compiled.tuples:
            # No rows, no tuples: any projection derives nothing.
            clusters = compiled.clusters
        index = {cluster: c for c, cluster in enumerate(compiled.clusters)}
        self.clusters = tuple(clusters)
        self.columns = [index[cluster] for cluster in self.clusters]
        self.identity = self.clusters == compiled.clusters
        self.fields = [compiled._fields[c] for c in self.columns]
        self.full = 0
        for shift, field in self.fields:
            self.full |= field << shift
        full = self.full
        self.keys = [key & full for key in compiled.keys]
        self.nns = [nn & full for nn in compiled.nns]
        self.members = [i for i in _bits(rows) if self.keys[i]]

    def labels_of(self, key: int) -> tuple[str | None, ...]:
        labels = self.compiled._labels
        return tuple(
            labels[c][(key >> shift) & field]
            for c, (shift, field) in zip(self.columns, self.fields)
        )


class Closure:
    """The tuples :meth:`CompiledRows.closure` derived, in discovery order.

    Tuple ``n`` is ``keys[n]``; ``links[n]`` is ``(parent, row, first)``:
    ``parent`` is -1 for an original row (``row`` indexes it), else the
    tuple was ``Combine(parent, row)`` when ``first`` holds and
    ``Combine(row, parent)`` otherwise.  Interface names are built from the
    links only for the tuples a caller asks for.
    """

    __slots__ = ("view", "keys", "nns", "links", "truncated", "_names")

    def __init__(self, view: _Projection) -> None:
        self.view = view
        self.keys: list[int] = []
        self.nns: list[int] = []
        self.links: list[tuple[int, int, bool]] = []
        self.truncated = False
        self._names: dict[int, str] = {}

    def name(self, node: int) -> str:
        """The interface name ``combine`` would have given tuple ``node``."""
        tuples = self.view.compiled.tuples
        chain = []
        while node not in self._names:
            parent, row, __ = self.links[node]
            if parent < 0:
                self._names[node] = tuples[row].interface
                break
            chain.append(node)
            node = parent
        name = self._names[node]
        for node in reversed(chain):
            __, row, current_first = self.links[node]
            other = tuples[row].interface
            name = f"{name}+{other}" if current_first else f"{other}+{name}"
            self._names[node] = name
        return name

    def tuple_at(self, node: int) -> GroupTuple:
        view = self.view
        parent, row, __ = self.links[node]
        if parent < 0 and view.identity:
            return view.compiled.tuples[row]
        return GroupTuple(self.name(node), view.labels_of(self.keys[node]), view.clusters)

    def tuples(self) -> list[GroupTuple]:
        return [self.tuple_at(n) for n in range(len(self.keys))]

    def complete_tuples(self) -> list[GroupTuple]:
        full = self.view.full
        return [self.tuple_at(n) for n, nn in enumerate(self.nns) if nn == full]


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
    return CompiledRows(relation.tuples, comparator).partitions(level, clusters)


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
    return CompiledRows(tuples, comparator).closure(level, limit=limit).tuples()


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
    """Tuple-solutions (Definition 4) for ``clusters`` from ``partition``
    (see :meth:`CompiledRows.solutions`)."""
    compiled = CompiledRows(partition.tuples, comparator)
    return compiled.solutions(partition.level, compiled.all_rows, clusters, limit)


def solutions_of_partition(
    partition: Partition,
    clusters: tuple[str, ...],
    comparator: SemanticComparator,
    limit: int = CLOSURE_LIMIT,
) -> list[GroupTuple]:
    """The tuples of :func:`partition_solutions`."""
    return partition_solutions(partition, clusters, comparator, limit).tuples
