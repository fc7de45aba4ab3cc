"""Interface linting — the paper's well-designedness properties as checks.

The paper's premise (Section 1): "in order to distinguish 'well' from 'bad'
constructed unified interfaces a formalism (i.e. a set of desirable
properties) is needed."  The naming algorithm *constructs* interfaces with
those properties; this module *checks* them on any labeled schema tree —
one produced by the pipeline, written by hand, or extracted from a live
form — and reports violations a designer can act on.

Checks
------
``horizontal``   sibling fields in a group whose labels share no
                 Definition-1 relationship with any sibling (the group
                 reads as an incoherent grab bag);
``vertical``     an internal node whose label is *less* general than a
                 descendant's (Definition 5 inverted);
``homonyms``     two fields with similar labels but different clusters /
                 positions (Section 4.2.3's confusion);
``unlabeled``    fields with neither a label nor instances (nothing for a
                 user to go on);
``generic``      one-word labels from the too-vague inventory the survey
                 flags (Category, Type, Options, ...).

Use from code (:func:`lint_interface`), on serialized trees such as the
labeling service's JSON responses (:func:`lint_node_dict` — the engine's
``"lint": true`` request flag goes through it conceptually: every labeled
tree the service emits can be re-checked against the same properties), or
from the CLI (``python -m repro lint page.html``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core.semantics import LabelRelation, SemanticComparator
from .schema.tree import SchemaNode

__all__ = ["LintFinding", "lint_interface", "lint_node_dict"]

_GENERIC_LONERS = frozenset(
    {"category", "function", "type", "option", "name", "other", "misc"}
)


@dataclass(frozen=True)
class LintFinding:
    """One violation: the check, the nodes involved, a human explanation."""

    check: str
    severity: str            # "warn" | "info"
    node_names: tuple[str, ...]
    message: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"[{self.check}/{self.severity}] {self.message}"


def _group_nodes(root: SchemaNode) -> list[SchemaNode]:
    """Internal nodes whose children include >= 2 leaf fields."""
    groups = []
    for node in root.internal_nodes():
        leaf_children = [c for c in node.children if c.is_leaf]
        if len(leaf_children) >= 2 and node is not root:
            groups.append(node)
    return groups


def _check_horizontal(
    root: SchemaNode, comparator: SemanticComparator
) -> list[LintFinding]:
    findings = []
    for group in _group_nodes(root):
        labeled = [c for c in group.children if c.is_leaf and c.is_labeled]
        if len(labeled) < 3:
            continue
        def coheres(a: SchemaNode, b: SchemaNode) -> bool:
            if (
                comparator.relation_between(a.label, b.label)
                is not LabelRelation.NONE
            ):
                return True
            # Co-hyponymy counts: Adults and Seniors cohere under person.
            tokens_a = comparator.analyzer.label(a.label).tokens
            tokens_b = comparator.analyzer.label(b.label).tokens
            return any(
                comparator.wordnet.share_hypernym(ta.lemma, tb.lemma)
                for ta in tokens_a
                for tb in tokens_b
            )

        for field in labeled:
            related = any(
                other is not field and coheres(field, other)
                for other in labeled
            )
            if related:
                continue
            # A field unrelated to EVERY sibling in a 3+ group is a smell.
            findings.append(
                LintFinding(
                    check="horizontal",
                    severity="info",
                    node_names=(group.name, field.name),
                    message=(
                        f"field {field.label!r} shares no lexical relation "
                        f"with any sibling in group "
                        f"{group.label or group.name!r}"
                    ),
                )
            )
    return findings


def _check_vertical(
    root: SchemaNode, comparator: SemanticComparator
) -> list[LintFinding]:
    findings = []
    for node in root.internal_nodes():
        if node is root or not node.is_labeled:
            continue
        for descendant in node.walk():
            if descendant is node or not descendant.is_labeled:
                continue
            # Definition 5 inverted: the descendant label is STRICTLY more
            # general than the ancestor's.
            if comparator.hypernym(descendant.label, node.label):
                findings.append(
                    LintFinding(
                        check="vertical",
                        severity="warn",
                        node_names=(node.name, descendant.name),
                        message=(
                            f"descendant {descendant.label!r} is more "
                            f"general than its ancestor {node.label!r}"
                        ),
                    )
                )
    return findings


def _check_homonyms(
    root: SchemaNode, comparator: SemanticComparator
) -> list[LintFinding]:
    findings = []
    fields = [leaf for leaf in root.leaves() if leaf.is_labeled]
    for i, a in enumerate(fields):
        for b in fields[i + 1 :]:
            if comparator.similar(a.label, b.label):
                findings.append(
                    LintFinding(
                        check="homonyms",
                        severity="warn",
                        node_names=(a.name, b.name),
                        message=(
                            f"fields {a.label!r} and {b.label!r} are "
                            "indistinguishable by label"
                        ),
                    )
                )
    return findings


def _check_unlabeled(root: SchemaNode) -> list[LintFinding]:
    findings = []
    for leaf in root.leaves():
        if leaf is root:
            continue
        if not leaf.is_labeled and not leaf.instances:
            findings.append(
                LintFinding(
                    check="unlabeled",
                    severity="warn",
                    node_names=(leaf.name,),
                    message=(
                        f"field {leaf.name!r} has neither a label nor "
                        "instance values"
                    ),
                )
            )
    return findings


def _check_generic(
    root: SchemaNode, comparator: SemanticComparator
) -> list[LintFinding]:
    findings = []
    for leaf in root.leaves():
        if not leaf.is_labeled:
            continue
        tokens = comparator.analyzer.label(leaf.label).tokens
        if len(tokens) == 1 and tokens[0].lemma in _GENERIC_LONERS:
            findings.append(
                LintFinding(
                    check="generic",
                    severity="info",
                    node_names=(leaf.name,),
                    message=(
                        f"label {leaf.label!r} is too generic to stand alone "
                        "(Section 3.2.1: prefer most descriptive)"
                    ),
                )
            )
    return findings


_CHECKS = {
    "horizontal": _check_horizontal,
    "vertical": _check_vertical,
    "homonyms": _check_homonyms,
    "generic": _check_generic,
}


def lint_interface(
    root: SchemaNode,
    comparator: SemanticComparator | None = None,
    checks: tuple[str, ...] = ("horizontal", "vertical", "homonyms",
                               "unlabeled", "generic"),
) -> list[LintFinding]:
    """All findings for the labeled tree at ``root``, warn-first."""
    comparator = comparator or SemanticComparator()
    findings: list[LintFinding] = []
    for check in checks:
        if check == "unlabeled":
            findings.extend(_check_unlabeled(root))
        elif check in _CHECKS:
            findings.extend(_CHECKS[check](root, comparator))
        else:
            raise ValueError(f"unknown lint check {check!r}")
    findings.sort(key=lambda f: (f.severity != "warn", f.check))
    return findings


def lint_node_dict(
    data: dict,
    comparator: SemanticComparator | None = None,
    checks: tuple[str, ...] = ("horizontal", "vertical", "homonyms",
                               "unlabeled", "generic"),
) -> list[LintFinding]:
    """Lint a serialized schema tree (the ``"tree"`` of a service response).

    Accepts the node-dict shape produced by
    :func:`repro.schema.serialize.node_to_dict` — which is exactly what
    ``POST /label`` returns — so callers of the labeling service can run
    the well-designedness pass on a response without rebuilding schema
    objects themselves.
    """
    from .schema.serialize import node_from_dict

    return lint_interface(node_from_dict(data), comparator, checks=checks)
