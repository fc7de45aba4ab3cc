"""Seeded sampling of source interfaces from a domain catalog.

The generator turns a :class:`DomainSpec` into a :class:`DomainDataset`:
``interface_count`` query interfaces plus the ground-truth cluster
:class:`Mapping` (which the paper assumes as input — Section 2.1).

Faithfulness levers (all of them mirror observations in the paper):

* **Well-designed sources** — one label *style* per group per interface, so
  each interface's row in a group relation is internally consistent.
* **Heterogeneity** — different interfaces pick different styles/variants;
  some leave fields or group nodes unlabeled (LQ below 100%).
* **Granularity mismatches** — a group may collapse into one 1:m field
  (``Passengers``), reduced later by ``Mapping.expand_one_to_many``.
* **Structure variety** — groups may flatten (fields straight under the
  parent), super-groups may or may not materialize, so source depths vary.

Determinism: everything derives from ``random.Random(seed)``; the same seed
reproduces the corpus bit for bit.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from ..merge import merge_interfaces
from ..schema.clusters import Mapping
from ..schema.interface import QueryInterface
from ..schema.tree import FieldKind, SchemaNode
from .catalog import Concept, DomainSpec, GroupSpec

__all__ = ["DomainDataset", "generate_domain"]


@dataclass
class DomainDataset:
    """A sampled domain: sources + ground-truth mapping (+ lazy merge)."""

    name: str
    spec: DomainSpec
    interfaces: list[QueryInterface]
    mapping: Mapping
    seed: int
    _integrated: SchemaNode | None = field(default=None, repr=False)

    def prepare(self) -> "DomainDataset":
        """Reduce 1:m correspondences (idempotent)."""
        if not getattr(self, "_prepared", False):
            self.mapping.expand_one_to_many(self.interfaces)
            self._prepared = True
        return self

    def integrated(self) -> SchemaNode:
        """The merged (unlabeled) integrated schema tree."""
        if self._integrated is None:
            self.prepare()
            self._integrated = merge_interfaces(self.interfaces, self.mapping)
        return self._integrated


def _make_field_node(
    rng: random.Random,
    concept: Concept,
    style: str | None,
    interface_name: str,
    mapping: Mapping,
) -> SchemaNode:
    unlabeled_prob = concept.unlabeled_prob
    if concept.kind is FieldKind.CHECKBOX:
        # A checkbox without its caption is meaningless; real forms leave
        # text boxes unlabeled (visual context carries them), not checkboxes.
        unlabeled_prob *= 0.15
    labeled = rng.random() >= unlabeled_prob
    variant = concept.picker.pick(rng, style)
    instances: tuple[str, ...] = ()
    if concept.instances and rng.random() < concept.instance_prob:
        instances = concept.instances
    node = SchemaNode(
        variant.text if labeled else None,
        kind=concept.kind,
        instances=instances,
        name=f"{interface_name}:{concept.key}",
    )
    mapping.assign(concept.key, interface_name, node)
    return node


def _sample_group(
    rng: random.Random,
    group: GroupSpec,
    interface_name: str,
    mapping: Mapping,
    allow_flatten: bool = True,
    prevalence_scale: float = 1.0,
) -> list[SchemaNode]:
    """The node(s) a group contributes to one interface (possibly []).

    ``prevalence_scale`` thins whole groups, not fields within them: real
    forms show Min and Max together or not at all, which is also what keeps
    group-relation partitions covering (Section 4.1).
    """
    if rng.random() >= group.prevalence * prevalence_scale:
        return []

    # Granularity mismatch: the collapsed 1:m field stands for the group.
    if group.collapse_label is not None and rng.random() < group.collapse_prob:
        node = SchemaNode(
            group.collapse_label,
            instances=group.collapse_instances,
            kind=group.concepts[0].kind,
            name=f"{interface_name}:{group.key}:collapsed",
        )
        for concept in group.concepts:
            mapping.assign(concept.key, interface_name, node)
        return [node]

    style = rng.choice(group.styles) if group.styles else None
    eligible = group.eligible[style]
    members = [c for c in eligible if rng.random() < c.prevalence]
    if not members:
        members = [rng.choice(eligible)]
    fields = [
        _make_field_node(rng, concept, style, interface_name, mapping)
        for concept in members
    ]

    flatten = len(fields) == 1 or (
        allow_flatten and rng.random() < group.flatten_prob
    )
    if flatten:
        return fields

    group_label = None
    if group.group_labels and rng.random() < group.labeled_prob:
        group_label = group.label_picker.pick(rng, style).text
    return [
        SchemaNode(group_label, fields, name=f"{interface_name}:{group.key}")
    ]


def _sample_interface(
    rng: random.Random,
    spec: DomainSpec,
    index: int,
    mapping: Mapping,
) -> QueryInterface:
    interface_name = f"{spec.name}-{index:02d}"

    # Decide which super-groups materialize first: their member groups keep
    # their internal nesting (a flattened member would sibling-merge with
    # its neighbors under the super node, which real interfaces avoid).
    materialized: list = []
    in_supergroup: set[str] = set()
    for supergroup in spec.supergroups:
        if rng.random() < supergroup.nest_prob:
            materialized.append(supergroup)
            in_supergroup.update(supergroup.members)

    group_nodes: dict[str, list[SchemaNode]] = {}
    for group in spec.groups:
        group_nodes[group.key] = _sample_group(
            rng,
            group,
            interface_name,
            mapping,
            allow_flatten=group.key not in in_supergroup,
            prevalence_scale=spec.field_prevalence_scale,
        )

    placed: set[str] = set()
    top_level: list[SchemaNode] = []

    for supergroup in materialized:
        member_nodes = [
            node
            for key in supergroup.members
            for node in group_nodes.get(key, [])
        ]
        present_members = [
            key for key in supergroup.members if group_nodes.get(key)
        ]
        if len(present_members) < 2:
            continue
        rng.shuffle(member_nodes)  # sources disagree on section order
        label = None
        if supergroup.labels and rng.random() < supergroup.labeled_prob:
            label = supergroup.label_picker.pick(rng).text
        top_level.append(
            SchemaNode(
                label, member_nodes, name=f"{interface_name}:{supergroup.key}"
            )
        )
        placed.update(present_members)

    for group in spec.groups:
        if group.key in placed:
            continue
        top_level.extend(group_nodes.get(group.key, []))

    for concept in spec.root_concepts:
        if rng.random() < concept.prevalence * spec.field_prevalence_scale:
            top_level.append(
                _make_field_node(rng, concept, None, interface_name, mapping)
            )

    rng.shuffle(top_level)  # sources disagree on overall section order
    root = SchemaNode(None, top_level, name=f"{interface_name}:root")
    return QueryInterface(
        name=interface_name, root=root, domain=spec.name
    )


def generate_domain(spec: DomainSpec, seed: int = 0) -> DomainDataset:
    """Sample ``spec.interface_count`` interfaces plus ground-truth mapping.

    Retries an interface draw when it ends up degenerate (no fields) so the
    corpus always has ``interface_count`` usable sources.
    """
    spec.validate()
    # zlib.crc32 is stable across processes (str.__hash__ is randomized).
    rng = random.Random((zlib.crc32(spec.name.encode()) & 0xFFFF) * 10_007 + seed)
    mapping = Mapping()
    interfaces: list[QueryInterface] = []
    index = 0
    attempts = 0
    while len(interfaces) < spec.interface_count:
        attempts += 1
        if attempts > spec.interface_count * 20:
            raise RuntimeError(
                f"{spec.name}: could not sample enough non-degenerate interfaces"
            )
        trial_mapping = Mapping()
        interface = _sample_interface(rng, spec, index, trial_mapping)
        if not interface.root.children:
            continue  # degenerate draw: no group materialized
        # Commit the trial assignments into the real mapping.
        for cluster in trial_mapping.clusters:
            for interface_name, node in cluster.members.items():
                mapping.assign(cluster.name, interface_name, node)
        interfaces.append(interface)
        index += 1
    return DomainDataset(
        name=spec.name, spec=spec, interfaces=interfaces, mapping=mapping, seed=seed
    )
