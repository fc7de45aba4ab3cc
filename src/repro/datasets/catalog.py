"""Domain catalogs — the vocabulary from which source interfaces are sampled.

The paper evaluates on 150 real deep-web interfaces collected in 2005-06;
those pages are long gone, so the reproduction generates a synthetic corpus
with the same *kinds* of heterogeneity (DESIGN.md section 2).  A domain is
described by a catalog:

* a :class:`Concept` is one global field (one future cluster) with several
  realistic :class:`LabelVariant` spellings — plural vs singular, noun vs
  "Preferred X" vs "X Preference", question-style, value-as-label, …;
* a :class:`GroupSpec` is a semantic unit of concepts, with the labels
  sources use for the enclosing group node, an optional *collapse* form
  (one field standing for the whole group — the paper's 1:m ``Passengers``
  example), and style coherence: an interface picks one label *style* per
  group and uses it for every member, which is precisely the paper's
  well-designed-interface assumption;
* a :class:`SuperGroupSpec` nests groups under a labeled super node
  ("Where and when do you want to travel?");
* a :class:`DomainSpec` assembles groups, super-groups and root-level
  concepts, plus the number of interfaces to sample.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from types import MappingProxyType

from ..schema.tree import FieldKind

__all__ = [
    "LabelVariant", "VariantPicker", "Concept", "GroupSpec", "SuperGroupSpec", "DomainSpec",
]


@dataclass(frozen=True)
class LabelVariant:
    """One way sources spell a label.

    ``style`` ties variants of different concepts together: an interface
    that picks style ``plural`` for a group labels *all* its fields with
    ``plural`` variants (falling back to any variant when a concept has
    none of that style).
    """

    text: str
    style: str | None = None
    weight: float = 1.0


class VariantPicker:
    """Weighted draws from one tuple of variants, optionally of one style.

    The population and cumulative weights of every style are built once,
    so a draw is one :meth:`random.Random.choices` call over prebuilt
    tables — the same single ``random()`` call, and the same pick, as
    ``choices(variants, weights=...)`` over the variants it selects.
    """

    __slots__ = ("_all", "_by_style")

    def __init__(self, options: tuple[LabelVariant, ...]) -> None:
        def table(population):
            return population, list(accumulate(v.weight for v in population))

        self._all = table(options)
        self._by_style = {
            v.style: table(tuple(u for u in options if u.style == v.style))
            for v in options
            if v.style is not None
        }

    def pick(self, rng: random.Random, style: str | None = None) -> LabelVariant:
        """A variant of ``style`` when there is one, else any, by weight."""
        population, cum_weights = self._by_style.get(style, self._all)
        return rng.choices(population, cum_weights=cum_weights, k=1)[0]


def variants(*specs) -> tuple[LabelVariant, ...]:
    """Terse variant construction: strings or (text, style[, weight]) tuples."""
    out = []
    for spec in specs:
        if isinstance(spec, LabelVariant):
            out.append(spec)
        elif isinstance(spec, str):
            out.append(LabelVariant(spec))
        else:
            out.append(LabelVariant(*spec))
    return tuple(out)


@dataclass(frozen=True)
class Concept:
    """One global field concept — the seed of one cluster."""

    key: str
    variants: tuple[LabelVariant, ...]
    prevalence: float = 0.9          # P(interface includes this field | group present)
    unlabeled_prob: float = 0.0      # P(field appears without a label)
    kind: FieldKind = FieldKind.TEXT_BOX
    instances: tuple[str, ...] = ()
    instance_prob: float = 0.0       # P(field carries its instance list)
    #: When set, the concept only appears on interfaces whose group style is
    #: one of these — how disjoint source populations arise (the Table 3
    #: State/City vs ZipCode/Distance split).
    styles: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.variants:
            raise ValueError(f"concept {self.key} needs at least one label variant")

    @cached_property
    def picker(self) -> VariantPicker:
        return VariantPicker(self.variants)


@dataclass(frozen=True)
class GroupSpec:
    """A semantic unit of concepts appearing together on interfaces."""

    key: str
    concepts: tuple[Concept, ...]
    group_labels: tuple[LabelVariant, ...] = ()
    labeled_prob: float = 0.7        # P(group node carries a label | group nested)
    prevalence: float = 1.0          # P(interface includes this group)
    flatten_prob: float = 0.0        # P(fields placed directly under the parent)
    collapse_label: str | None = None   # 1:m form ("Passengers")
    collapse_prob: float = 0.0          # P(interface shows the collapsed field)
    collapse_instances: tuple[str, ...] = ()

    def cluster_names(self) -> tuple[str, ...]:
        return tuple(concept.key for concept in self.concepts)

    @cached_property
    def styles(self) -> tuple[str, ...]:
        """The label styles the concepts' variants use, in first-use order."""
        styles: list[str] = []
        for concept in self.concepts:
            for variant in concept.variants:
                if variant.style is not None and variant.style not in styles:
                    styles.append(variant.style)
        return tuple(styles)

    @cached_property
    def eligible(self) -> dict[str | None, tuple[Concept, ...]]:
        """Per style (``None`` when the group has none): the concepts an
        interface of that style may show — all of them if none qualifies."""
        return {
            style: tuple(
                c for c in self.concepts
                if c.styles is None or (style is not None and style in c.styles)
            ) or self.concepts
            for style in (None, *self.styles)
        }

    @cached_property
    def label_picker(self) -> VariantPicker:
        return VariantPicker(self.group_labels)


@dataclass(frozen=True)
class SuperGroupSpec:
    """A labeled super node wrapping several groups."""

    key: str
    members: tuple[str, ...]         # group keys
    labels: tuple[LabelVariant, ...] = ()
    labeled_prob: float = 0.7
    nest_prob: float = 0.8           # P(the super node materializes at all)

    @cached_property
    def label_picker(self) -> VariantPicker:
        return VariantPicker(self.labels)


@dataclass(frozen=True)
class DomainSpec:
    """Everything needed to sample one domain's source interfaces."""

    name: str
    interface_count: int
    groups: tuple[GroupSpec, ...]
    supergroups: tuple[SuperGroupSpec, ...] = ()
    root_concepts: tuple[Concept, ...] = ()
    description: str = ""
    #: Read-only: a spec is built once per domain and shared.
    metadata: Mapping = field(default_factory=dict)
    #: Global multiplier on concept prevalence — tunes the average number
    #: of fields per source toward the Table 6 column-2 value without
    #: re-authoring every concept.
    field_prevalence_scale: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "metadata", MappingProxyType(dict(self.metadata)))

    def group_by_key(self, key: str) -> GroupSpec:
        for group in self.groups:
            if group.key == key:
                return group
        raise KeyError(f"{self.name}: no group {key!r}")

    def all_concepts(self) -> list[Concept]:
        concepts = [c for g in self.groups for c in g.concepts]
        concepts.extend(self.root_concepts)
        return concepts

    def validate(self) -> None:
        """Catch catalog-authoring mistakes early."""
        seen: set[str] = set()
        for concept in self.all_concepts():
            if concept.key in seen:
                raise ValueError(f"{self.name}: duplicate concept key {concept.key}")
            seen.add(concept.key)
        group_keys = {g.key for g in self.groups}
        for supergroup in self.supergroups:
            missing = [m for m in supergroup.members if m not in group_keys]
            if missing:
                raise ValueError(
                    f"{self.name}: supergroup {supergroup.key} references "
                    f"unknown groups {missing}"
                )
