"""The three-phase naming algorithm (Section 6) end to end.

"The naming algorithm is a three-phase traversal algorithm.  In the first
phase, in a bottom-up traversal, it determines the set of candidate labels
for leaves and internal nodes.  Second traversal determines the level of
consistency which may be possible for the schema tree.  In the third phase,
each node is assigned a label from its set of candidate labels so that the
label complies with consistency level established in the previous phase."

Entry point: :func:`label_integrated_interface`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.tracer import event as obs_event
from ..obs.tracer import span as obs_span
from ..schema.clusters import Mapping
from ..schema.groups import Group, GroupKind, partition_clusters
from ..schema.interface import QueryInterface
from ..schema.tree import SchemaNode
from .conflicts import resolve_homonyms
from .consistency import ConsistencyLevel
from .group_relation import GroupRelation
from .inference import InferenceLog, InferenceRule
from .internal_nodes import CandidateFinder, CandidateLabel
from .isolated import name_isolated_cluster
from .label import LabelAnalyzer
from .result import LabelingResult, NodeStatus, TreeConsistency
from .semantics import SemanticComparator
from .solutions import GroupNamingResult, GroupSolution, name_group

__all__ = ["NamingOptions", "label_corpus", "label_integrated_interface"]


@dataclass(frozen=True)
class NamingOptions:
    """Configuration knobs, mostly for the ablation experiments."""

    use_instances: bool = True
    max_level: ConsistencyLevel = ConsistencyLevel.SYNONYMY
    enabled_rules: frozenset[InferenceRule] = frozenset(InferenceRule)
    repair_homonyms: bool = True
    keep_inference_events: bool = True


def label_integrated_interface(
    integrated_root: SchemaNode,
    interfaces: list[QueryInterface],
    mapping: Mapping,
    comparator: SemanticComparator | None = None,
    options: NamingOptions | None = None,
    domain: str | None = None,
) -> LabelingResult:
    """Assign meaningful labels to every node of the integrated interface.

    ``integrated_root`` — the merged schema tree, leaves tagged with cluster
    names; ``interfaces``/``mapping`` — the source interfaces and the global
    cluster mapping (after 1:m reduction).  Labels are written in place on
    the tree and collected in the returned :class:`LabelingResult`.
    """
    options = options or NamingOptions()
    comparator = comparator or SemanticComparator()
    analyzer = comparator.analyzer
    log = InferenceLog(keep_events=options.keep_inference_events)

    with obs_span("phase:partitions") as sp:
        partition = partition_clusters(integrated_root)
        if sp is not None:
            sp.tags.update(
                regular=len(partition.regular),
                isolated=len(partition.isolated),
                root_group=partition.root_group is not None,
            )
    result = LabelingResult(
        root=integrated_root, partition=partition, inference_log=log
    )

    # ------------------------------------------------------------------
    # Phase 1a: name groups (regular + root pseudo-group).
    # ------------------------------------------------------------------
    named_groups: list[Group] = list(partition.regular)
    if partition.root_group is not None:
        named_groups.append(partition.root_group)
    with obs_span("phase:group_relations", groups=len(named_groups)):
        relations = {
            group.name: GroupRelation.from_mapping(group, mapping)
            for group in named_groups
        }
    # The per-group ladder walk: find_partitions + combine closure +
    # solution ranking (Sections 4-5); the closure dominates its cost.
    with obs_span("phase:combine_closure", groups=len(named_groups)):
        for group in named_groups:
            relation = relations[group.name]
            with obs_span(
                group.name,
                clusters=len(relation.clusters),
                tuples=len(relation.tuples),
            ) as sp:
                group_result = name_group(
                    relation, comparator, analyzer, max_level=options.max_level
                )
                result.group_results[group.name] = group_result
                if sp is not None:
                    sp.tags["consistent"] = group_result.consistent
                    if group_result.level is not None:
                        sp.tags["level"] = group_result.level.name
                    if group_result.truncated:
                        sp.tags["truncated"] = True

    # Phase 1b: isolated clusters via the RAN variant.
    with obs_span("isolated_clusters", count=len(partition.isolated)):
        for group in partition.isolated:
            cluster_name = group.clusters[0]
            outcome = name_isolated_cluster(
                mapping[cluster_name],
                comparator,
                analyzer,
                use_instances=options.use_instances,
            )
            result.isolated_outcomes[cluster_name] = outcome
            if options.use_instances:
                for __ in outcome.discarded_value_labels:
                    log.record(
                        InferenceRule.LI7, domain=domain, node=cluster_name,
                        label=outcome.label, detail="discarded value label",
                    )
                for __ in outcome.li6_replacements:
                    log.record(
                        InferenceRule.LI6, domain=domain, node=cluster_name,
                        label=outcome.label, detail="domain-bounded generic root",
                    )

    with obs_span("phase:internal_inference") as sp:
        # Phase 1c: candidate labels for internal nodes.
        finder = CandidateFinder(
            interfaces,
            mapping,
            comparator,
            analyzer,
            log=log,
            domain=domain,
            enabled_rules=options.enabled_rules,
        )
        internal = [
            node
            for node in integrated_root.internal_nodes()
            if node is not integrated_root
        ]
        candidates: dict[str, list[CandidateLabel]] = {
            node.name: finder.candidates_for(node) for node in internal
        }
        potentials: dict[str, list[str]] = {
            node.name: finder.potential_labels_for(node) for node in internal
        }

        # --------------------------------------------------------------
        # Phases 2+3: assign labels top-down, narrowing group solutions.
        # --------------------------------------------------------------
        allowed: dict[str, list[GroupSolution]] = {
            name: list(res.solutions) for name, res in result.group_results.items()
        }
        groups_by_parent = _groups_by_name(named_groups)

        for node in internal:  # pre-order == top-down
            _assign_internal_label(
                node,
                candidates[node.name],
                potentials[node.name],
                result,
                finder,
                allowed,
                groups_by_parent,
                comparator,
            )
        if sp is not None:
            sp.tags.update(
                internal_nodes=len(internal),
                labeled=sum(
                    1
                    for node in internal
                    if result.node_labels.get(node.name)
                ),
            )

    # Finalize group solutions and write leaf labels.
    with obs_span("phase:conflict_repair") as sp:
        for group in named_groups:
            group_result = result.group_results[group.name]
            pool = allowed.get(group.name) or group_result.solutions
            solution = pool[0] if pool else None
            if solution is None:
                continue
            if options.repair_homonyms:
                result.repairs.extend(
                    resolve_homonyms(solution, group_result.relation, comparator)
                )
            result.chosen_solutions[group.name] = solution
            for cluster_name in group.clusters:
                result.field_labels[cluster_name] = solution.label_for(cluster_name)
        if sp is not None:
            sp.tags["repairs"] = len(result.repairs)
            if result.repairs:
                obs_event("homonyms.repaired", count=len(result.repairs))

    for group in partition.isolated:
        cluster_name = group.clusters[0]
        outcome = result.isolated_outcomes[cluster_name]
        result.field_labels[cluster_name] = outcome.label

    _write_leaf_labels(integrated_root, result)
    result.classification = _classify(result)
    return result


def label_corpus(
    interfaces: list[QueryInterface],
    mapping: Mapping,
    comparator: SemanticComparator | None = None,
    options: NamingOptions | None = None,
    domain: str | None = None,
) -> tuple[SchemaNode, LabelingResult]:
    """Merge and label a raw corpus end to end: the reusable entry point.

    Takes a corpus exactly as :func:`repro.schema.serialize.load_corpus`
    returns it (1:m correspondences not yet reduced), performs the
    reduction, builds the integrated tree, and runs the naming algorithm.
    Everything it touches is owned by the caller's ``interfaces``/``mapping``
    objects — no module or process state is read or written — so concurrent
    calls on independent corpora are safe.  This is what the labeling
    service (:mod:`repro.service`) executes per request; the ``label`` CLI
    command goes through it too.
    """
    # Local import: repro.merge is structurally upstream of the naming
    # algorithm and must not become an import-time dependency of repro.core.
    from ..merge.merger import merge_interfaces

    with obs_span("merge", interfaces=len(interfaces), clusters=len(mapping)):
        mapping.expand_one_to_many(interfaces)
        root = merge_interfaces(interfaces, mapping)
    result = label_integrated_interface(
        root,
        interfaces,
        mapping,
        comparator=comparator,
        options=options,
        domain=domain,
    )
    return root, result


# ----------------------------------------------------------------------
# Helpers.
# ----------------------------------------------------------------------


def _groups_by_name(groups: list[Group]) -> dict[str, Group]:
    return {group.name: group for group in groups}


def _descendant_groups(node: SchemaNode, result: LabelingResult) -> list[str]:
    """Names of named groups whose clusters all lie under ``node``."""
    under = node.descendant_leaf_clusters()
    names = []
    for name, group_result in result.group_results.items():
        clusters = frozenset(group_result.group.clusters)
        if group_result.group.kind is GroupKind.ROOT:
            continue  # root-group fields have no internal ancestors but the root
        if clusters <= under:
            names.append(name)
    return names


def _path_labels(node: SchemaNode, result: LabelingResult) -> list[str]:
    """Labels already assigned on the path from ``node`` to the root."""
    labels = []
    for ancestor in node.ancestors():
        assigned = result.node_labels.get(ancestor.name)
        if assigned:
            labels.append(assigned)
    return labels


def _assign_internal_label(
    node: SchemaNode,
    node_candidates: list[CandidateLabel],
    node_potentials: list[str],
    result: LabelingResult,
    finder: CandidateFinder,
    allowed: dict[str, list[GroupSolution]],
    groups_by_name: dict[str, Group],
    comparator: SemanticComparator,
) -> None:
    """Pick a label for one internal node (Definitions 6-8 logic).

    Preference order: a candidate consistent (Definition 6) with some
    still-allowed solution of *every* descendant group — assigning it
    narrows those groups' allowed solutions (the cross-stage correlation of
    Section 4.3); otherwise the best candidate at all (weak consistency);
    otherwise the node stays unlabeled.  Candidates string-equal to a label
    already used on the path to the root are skipped (Proposition 2's
    ``Le - Lpath(e)``).
    """
    path_labels = _path_labels(node, result)
    usable = [
        c
        for c in node_candidates
        if not any(comparator.string_equal(c.text, p) for p in path_labels)
    ]
    group_names = _descendant_groups(node, result)

    for candidate in usable:
        narrowed: dict[str, list[GroupSolution]] = {}
        feasible = True
        for group_name in group_names:
            group_result = result.group_results[group_name]
            pool = allowed.get(group_name, [])
            compatible = [
                s
                for s in pool
                if finder.candidate_consistent_with_solution(
                    candidate, group_result, s
                )
            ]
            if not compatible:
                feasible = False
                break
            narrowed[group_name] = compatible
        if feasible:
            for group_name, pool in narrowed.items():
                allowed[group_name] = pool
            result.node_labels[node.name] = candidate.text
            node.label = candidate.text
            all_groups_consistent = all(
                result.group_results[g].consistent for g in group_names
            )
            result.node_status[node.name] = (
                NodeStatus.CONSISTENT
                if all_groups_consistent
                else NodeStatus.WEAKLY_CONSISTENT
            )
            return

    if usable:
        # No candidate satisfies Definition 6 against every group —
        # fall back to the best candidate: weakly consistent (Def. 7 cond. 1).
        best = usable[0]
        result.node_labels[node.name] = best.text
        node.label = best.text
        result.node_status[node.name] = NodeStatus.WEAKLY_CONSISTENT
        return

    result.node_labels[node.name] = None
    node.label = None
    result.node_status[node.name] = (
        NodeStatus.UNLABELED_BLOCKED
        if node_potentials
        else NodeStatus.UNLABELED_NO_POTENTIALS
    )


def _write_leaf_labels(root: SchemaNode, result: LabelingResult) -> None:
    for leaf in root.leaves():
        if leaf.cluster is None:
            continue
        if leaf.cluster in result.field_labels:
            leaf.label = result.field_labels[leaf.cluster]


def _classify(result: LabelingResult) -> TreeConsistency:
    """Definition 8's three-way classification.

    Two readings are reconciled here.  Definition 8 literally says a group
    without a consistent naming solution makes the tree inconsistent, yet
    the paper's own auto domain contains Table 3's partially consistent
    group and is still reported (weakly) consistent; its inconsistency
    narrative is about *propagation* — internal nodes left unlabeled while
    their potential-label sets are nonempty (airline), or candidate sets
    promoted to ancestors (car rental).  We therefore call a tree
    inconsistent when (a) some internal node is blocked that way, or
    (b) a regular group's final solution leaves a *labelable* cluster
    (one some source labels) without a label.  Partially consistent
    solutions that still name every labelable field downgrade the tree to
    weakly consistent only.  The root pseudo-group is exempt throughout —
    Section 4 accepts partially consistent solutions there by design.
    """
    blocked = any(
        status is NodeStatus.UNLABELED_BLOCKED
        for status in result.node_status.values()
    )
    if blocked or _regular_group_label_gap(result):
        return TreeConsistency.INCONSISTENT
    statuses = list(result.node_status.values())
    all_groups_consistent = all(
        res.consistent
        for res in result.group_results.values()
        if res.group.kind is GroupKind.REGULAR
    )
    if all_groups_consistent and all(
        s is NodeStatus.CONSISTENT for s in statuses
    ):
        return TreeConsistency.CONSISTENT
    # Unlabeled nodes with empty potential sets do not make the tree
    # inconsistent by Definition 8, but they do preclude full consistency.
    return TreeConsistency.WEAKLY_CONSISTENT


def _regular_group_label_gap(result: LabelingResult) -> bool:
    """True when a regular group leaves a labelable cluster unlabeled."""
    for group_result in result.group_results.values():
        if group_result.group.kind is not GroupKind.REGULAR:
            continue
        labelable = {
            c
            for c in group_result.group.clusters
            if any(
                t.label_for(c) is not None for t in group_result.relation.tuples
            )
        }
        for cluster in labelable:
            if not result.field_labels.get(cluster):
                return True
    return False
