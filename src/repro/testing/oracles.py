"""Paper-invariant oracles — the correctness contracts as runtime checkers.

The paper's Definitions 1–3 (label relations, consistent rows, consistent
naming solutions) and its Section-4/6 construction imply properties any
*correct* labeling must have, independent of which labels were chosen.
This module states them as reusable oracles that run over a finished
:class:`~repro.core.result.LabelingResult` — from pytest (regression
suites) or inside the engine (``verify="strict"`` re-checks every fresh
result before it is served or cached).

Oracles
-------
**Horizontal consistency** (:func:`check_horizontal_consistency`), within
every solved group:

* *coverage* — a group reported consistent labels every labelable cluster
  (one some source labels); Definition 3 solutions cover the group;
* *provenance* — every assigned label is one some source interface
  actually uses for that cluster (solutions and homonym repairs both draw
  rows from the group relation, so a label from nowhere is a bug);
* *agreement* — the flat ``field_labels`` map agrees with the chosen
  solution of the cluster's group (the response the service serializes is
  the solution the algorithm picked).

**Vertical generality** (:func:`check_vertical_generality`), down every
root-to-leaf path:

* no labeled leaf is *strictly more general* than a labeled internal
  ancestor by genuine WordNet hypernymy (Definition 5 inverted with an
  actual hypernym edge — the token-subset reading of Definition 1 is
  excluded because ``Availability`` vs ``Availability Options`` is a
  legitimate, paper-sanctioned outcome);
* no node repeats an ancestor's label (Proposition 2's
  ``Le - Lpath(e)`` discipline).

**Idempotence** (:func:`check_label_idempotence`): ``label_corpus`` is a
pure function — labeling the same payload with caching on, caching off,
and on a repeat engine call must produce canonically identical responses.

:func:`check_tree_dict` runs the vertical oracle over *serialized* trees
(service responses, golden files) so invariants can be asserted without
the in-memory result objects.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from ..core.semantics import SemanticComparator

__all__ = [
    "OracleError",
    "OracleReport",
    "OracleViolation",
    "canonical_response",
    "check_horizontal_consistency",
    "check_label_idempotence",
    "check_tree_dict",
    "check_vertical_generality",
    "verify_labeling",
    "wordnet_strict_hypernym",
]


@dataclass(frozen=True)
class OracleViolation:
    """One broken invariant: which oracle, on what, and why it matters."""

    oracle: str
    subject: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"[{self.oracle}] {self.subject}: {self.message}"


class OracleError(AssertionError):
    """Raised by strict verification when any oracle is violated."""

    def __init__(self, report: "OracleReport") -> None:
        super().__init__(report.summary())
        self.report = report


@dataclass
class OracleReport:
    """Outcome of a verification pass: what ran, what failed."""

    checks: int = 0
    violations: list[OracleViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return f"oracles ok ({self.checks} checks)"
        lines = [f"{len(self.violations)} oracle violation(s) in {self.checks} checks:"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise OracleError(self)


# ----------------------------------------------------------------------
# Relation helper: strict WordNet generality.
# ----------------------------------------------------------------------


def wordnet_strict_hypernym(
    comparator: SemanticComparator, a: str, b: str
) -> bool:
    """Definition-1 hypernymy of ``a`` over ``b`` via a real WordNet edge.

    Like :meth:`SemanticComparator.hypernym` but the token-count subset
    rule alone does not qualify: at least one token pair must be related
    by actual lexicon hypernymy.  This is the generality notion the
    vertical oracle enforces — ``Vehicle`` over ``Sedan`` is an inversion,
    ``Time`` over ``Drop-off Time`` is not.
    """
    la, lb = comparator.analyzer.label(a), comparator.analyzer.label(b)
    if la.has_conjunction or lb.has_conjunction:
        return False
    n, m = len(la.tokens), len(lb.tokens)
    if n == 0 or n > m:
        return False
    saw_hypernymy = False
    for a_tok in la.tokens:
        related = False
        for b_tok in lb.tokens:
            rel, via_hyp = comparator._tokens_related_for_hypernymy(a_tok, b_tok)
            if rel:
                related = True
                saw_hypernymy = saw_hypernymy or via_hyp
        if not related:
            return False
    return saw_hypernymy


# ----------------------------------------------------------------------
# Horizontal consistency.
# ----------------------------------------------------------------------


def check_horizontal_consistency(result, comparator=None) -> list[OracleViolation]:
    """Coverage, provenance and agreement over every solved group."""
    violations: list[OracleViolation] = []
    for name, group_result in result.group_results.items():
        solution = result.chosen_solutions.get(name)
        if solution is None:
            continue
        relation = group_result.relation
        labelable = {
            c
            for c in relation.clusters
            if any(t.label_for(c) is not None for t in relation.tuples)
        }
        source_labels = {
            c: {t.label_for(c) for t in relation.tuples} - {None}
            for c in relation.clusters
        }
        for cluster in group_result.group.clusters:
            label = solution.labels.get(cluster)
            if group_result.consistent and cluster in labelable and label is None:
                violations.append(
                    OracleViolation(
                        "horizontal.coverage",
                        f"{name}/{cluster}",
                        "group reported consistent but a labelable cluster "
                        "received no label",
                    )
                )
            if label is not None and label not in source_labels.get(cluster, set()):
                violations.append(
                    OracleViolation(
                        "horizontal.provenance",
                        f"{name}/{cluster}",
                        f"assigned label {label!r} is used by no source "
                        "interface for this cluster",
                    )
                )
            assigned = result.field_labels.get(cluster)
            if assigned != label:
                violations.append(
                    OracleViolation(
                        "horizontal.agreement",
                        f"{name}/{cluster}",
                        f"field_labels says {assigned!r} but the chosen "
                        f"solution says {label!r}",
                    )
                )
    return violations


# ----------------------------------------------------------------------
# Vertical generality.
# ----------------------------------------------------------------------


def check_vertical_generality(
    root, comparator: SemanticComparator
) -> list[OracleViolation]:
    """Generality inversions and path label repeats down the tree."""
    violations: list[OracleViolation] = []
    for node in root.internal_nodes():
        if node is root or not node.is_labeled:
            continue
        for leaf in node.walk():
            if not leaf.is_leaf or not leaf.is_labeled:
                continue
            if wordnet_strict_hypernym(comparator, leaf.label, node.label):
                violations.append(
                    OracleViolation(
                        "vertical.generality",
                        node.name,
                        f"leaf {leaf.label!r} is strictly more general than "
                        f"its ancestor {node.label!r}",
                    )
                )
    for node in root.walk():
        if node is root or not node.is_labeled:
            continue
        for ancestor in node.ancestors():
            if ancestor.is_labeled and comparator.string_equal(
                node.label, ancestor.label
            ):
                violations.append(
                    OracleViolation(
                        "vertical.path",
                        node.name,
                        f"label {node.label!r} repeats its ancestor "
                        f"{ancestor.name!r} (Proposition 2)",
                    )
                )
    return violations


def check_tree_dict(tree: dict, comparator: SemanticComparator) -> list[OracleViolation]:
    """The vertical oracle over a serialized tree (response/golden shape).

    Accepts any nested ``{"label": ..., "children": [...]}`` dict — the
    service's ``node_to_dict`` output and the golden snapshots both fit.
    """
    if not isinstance(tree, dict) or (
        "children" not in tree and "label" not in tree
    ):
        raise ValueError("not a serialized schema node (needs label/children)")
    violations: list[OracleViolation] = []

    def descend(node: dict, path: list[tuple[str, str]], position: str) -> None:
        label = node.get("label")
        name = node.get("name") or position
        children = node.get("children") or []
        if label is not None:
            for anc_name, anc_label in path:
                if comparator.string_equal(label, anc_label):
                    violations.append(
                        OracleViolation(
                            "vertical.path",
                            name,
                            f"label {label!r} repeats ancestor {anc_name!r}",
                        )
                    )
        if label is not None and children and position:  # internal, labeled
            for leaf_name, leaf_label in _labeled_leaves(node, position):
                if wordnet_strict_hypernym(comparator, leaf_label, label):
                    violations.append(
                        OracleViolation(
                            "vertical.generality",
                            name,
                            f"leaf {leaf_label!r} ({leaf_name}) is strictly "
                            f"more general than ancestor {label!r}",
                        )
                    )
        next_path = path + [(name, label)] if label is not None else path
        for index, child in enumerate(children):
            descend(child, next_path, f"{position}.{index}")

    def _labeled_leaves(node: dict, position: str):
        for index, child in enumerate(node.get("children") or []):
            child_pos = f"{position}.{index}"
            if child.get("children"):
                yield from _labeled_leaves(child, child_pos)
            elif child.get("label") is not None:
                yield child.get("name") or child_pos, child["label"]

    for index, child in enumerate(tree.get("children") or []):
        descend(child, [], f"root.{index}")
    return violations


# ----------------------------------------------------------------------
# Idempotence.
# ----------------------------------------------------------------------

#: Response keys that legitimately vary between otherwise identical runs.
_VOLATILE_KEYS = ("cached",)


def canonical_response(response: dict) -> dict:
    """A response stripped of run-volatile fields (timing, cache flags).

    Two correct runs over the same payload must produce *identical*
    canonical responses — this is the byte-identity the regression suites
    and the idempotence oracle compare.
    """
    clean = copy.deepcopy(response)
    for volatile in _VOLATILE_KEYS:
        clean.pop(volatile, None)
    stats = clean.get("stats")
    if isinstance(stats, dict):
        stats.pop("elapsed_ms", None)
    return clean


def check_label_idempotence(
    payload: dict, engine_factory=None
) -> list[OracleViolation]:
    """Label ``payload`` cached, uncached and repeated; all must agree.

    ``engine_factory(cache_size=...)`` defaults to building fresh
    :class:`~repro.service.engine.LabelingEngine` instances; injectable so
    the regression suites can share warm comparators.
    """
    if engine_factory is None:
        from ..service.engine import LabelingEngine

        engine_factory = LabelingEngine
    violations: list[OracleViolation] = []
    cached_engine = engine_factory(cache_size=8)
    first = canonical_response(cached_engine.label(payload))
    repeat = canonical_response(cached_engine.label(payload))
    uncached = canonical_response(engine_factory(cache_size=0).label(payload))
    subject = first.get("fingerprint", "payload")
    if repeat != first:
        violations.append(
            OracleViolation(
                "idempotence.cache-hit",
                subject,
                "a cache-served repeat differs from the original response",
            )
        )
    if uncached != first:
        violations.append(
            OracleViolation(
                "idempotence.cache-off",
                subject,
                "labeling with the cache disabled differs from cached labeling",
            )
        )
    return violations


# ----------------------------------------------------------------------
# Composite entry point (what the engine's strict mode runs).
# ----------------------------------------------------------------------


def verify_labeling(root, result, comparator: SemanticComparator) -> OracleReport:
    """Horizontal + vertical oracles over one finished labeling."""
    report = OracleReport()
    horizontal = check_horizontal_consistency(result, comparator)
    vertical = check_vertical_generality(root, comparator)
    report.checks = (
        sum(len(gr.group.clusters) for gr in result.group_results.values())
        + len(result.node_labels)
    )
    report.violations = horizontal + vertical
    return report
