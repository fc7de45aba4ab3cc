"""JSON (de)serialization for schema trees, interfaces and mappings.

The on-disk format is deliberately plain: nested dicts for trees, a
``{cluster: {interface: field_name}}`` table for mappings.  It exists so
corpora generated by :mod:`repro.datasets` can be saved, inspected, edited
by hand, and reloaded — the reproduction analog of the paper's project
web page datasets.  The ``*_from_dict`` readers check each field's JSON
type as they build, so a malformed document raises ``ValueError`` here.
"""

from __future__ import annotations

import json
from pathlib import Path

from .clusters import Cluster, Mapping
from .interface import QueryInterface
from .tree import FieldKind, SchemaNode

_TEXT = (str, type(None))
_KINDS = tuple(kind.value for kind in FieldKind)
_NODE_FIELDS = (
    "'label' and 'cluster' must be strings or null, 'kind' one of "
    f"{', '.join(_KINDS)}, 'instances' a list of strings, 'children' a list"
)

#: Deepest schema tree :func:`node_from_dict` builds (the root is level 1).
#: Generated corpora reach depth 4; the pipeline's recursive passes run out
#: of stack near 600.
MAX_TREE_DEPTH = 64

__all__ = [
    "node_to_dict",
    "node_from_dict",
    "interface_to_dict",
    "interface_from_dict",
    "mapping_to_dict",
    "mapping_from_dict",
    "corpus_to_dict",
    "save_corpus",
    "load_corpus",
]


def node_to_dict(node: SchemaNode) -> dict:
    data: dict = {"name": node.name}
    if node.label is not None:
        data["label"] = node.label
    if node.kind is not None:
        data["kind"] = node.kind.value
    if node.instances:
        data["instances"] = list(node.instances)
    if node.cluster is not None:
        data["cluster"] = node.cluster
    if node.children:
        data["children"] = [node_to_dict(child) for child in node.children]
    return data


def node_from_dict(data: dict, depth: int = 1) -> SchemaNode:
    """Inverse of :func:`node_to_dict`, checking the JSON type of each field
    and the tree's depth in the pass that builds it (``ValueError`` on a
    mismatch, or below :data:`MAX_TREE_DEPTH` levels)."""
    if depth > MAX_TREE_DEPTH:
        raise ValueError(f"schema tree deeper than {MAX_TREE_DEPTH} levels")
    if not (isinstance(data, dict) and isinstance(data.get("name"), str)):
        raise ValueError("a serialized schema node needs a string 'name'")
    label, kind, cluster = data.get("label"), data.get("kind"), data.get("cluster")
    instances, children = data.get("instances", []), data.get("children", [])
    if not (
        isinstance(label, _TEXT) and isinstance(cluster, _TEXT)
        and (kind is None or kind in _KINDS) and isinstance(children, list)
        and isinstance(instances, list) and all(isinstance(i, str) for i in instances)
    ):
        raise ValueError(f"node {data['name']!r}: {_NODE_FIELDS}")
    return SchemaNode(
        label,
        [node_from_dict(child, depth + 1) for child in children],
        kind=None if kind is None else FieldKind(kind),
        instances=tuple(instances),
        cluster=cluster,
        name=data["name"],
    )


def interface_to_dict(interface: QueryInterface) -> dict:
    data = {"name": interface.name, "root": node_to_dict(interface.root)}
    if interface.domain:
        data["domain"] = interface.domain
    if interface.url:
        data["url"] = interface.url
    if interface.metadata:
        data["metadata"] = interface.metadata
    return data


def interface_from_dict(data: dict) -> QueryInterface:
    if not (isinstance(data, dict) and isinstance(data.get("name"), str)):
        raise ValueError("an interface must be an object with a string 'name'")
    if not isinstance(data.get("metadata", {}), dict):
        raise ValueError(f"interface {data['name']!r}: 'metadata' must be an object")
    return QueryInterface(
        name=data["name"],
        root=node_from_dict(data.get("root")),
        domain=data.get("domain"),
        url=data.get("url"),
        metadata=data.get("metadata", {}),
    )


def mapping_to_dict(mapping: Mapping) -> dict:
    """Mapping as ``{cluster: {interface: field node name}}``.

    Clusters and their members are emitted in sorted order so the document
    is a pure function of the corpus *content*: two mappings holding the
    same correspondences serialize byte-identically regardless of the order
    clusters were registered or members added.  Content hashing
    (:mod:`repro.service.fingerprint`) and save/load round-trip stability
    both rely on this.
    """
    return {
        cluster.name: {
            interface_name: cluster.members[interface_name].name
            for interface_name in sorted(cluster.members)
        }
        for cluster in sorted(mapping.clusters, key=lambda c: c.name)
    }


def mapping_from_dict(data: dict, interfaces: list[QueryInterface]) -> Mapping:
    by_name = {qi.name: qi for qi in interfaces}
    mapping = Mapping()
    if not (isinstance(data, dict) and all(isinstance(m, dict) for m in data.values())):
        raise ValueError("a mapping must be an object of {interface: node} objects")
    for cluster_name, members in data.items():
        cluster = Cluster(cluster_name)
        for interface_name, node_name in members.items():
            interface = by_name.get(interface_name)
            node = None if interface is None else interface.root.find_by_name(node_name)
            if node is None:
                raise ValueError(
                    f"mapping references unknown node {node_name!r} "
                    f"of interface {interface_name!r}"
                )
            cluster.add(interface_name, node)
        mapping.add_cluster(cluster)
    return mapping


def corpus_to_dict(interfaces: list[QueryInterface], mapping: Mapping) -> dict:
    """The full corpus as one JSON-ready document (deterministic ordering).

    Interfaces keep their list order (it is meaningful: merge ordering and
    group relations cite sources); tree nodes always emit their keys in the
    same field order; the mapping is fully sorted.  Saving, loading and
    saving again therefore yields the identical document.
    """
    return {
        "interfaces": [interface_to_dict(qi) for qi in interfaces],
        "mapping": mapping_to_dict(mapping),
    }


def save_corpus(path: str | Path, interfaces: list[QueryInterface], mapping: Mapping) -> None:
    """Write interfaces + mapping as one JSON document."""
    Path(path).write_text(json.dumps(corpus_to_dict(interfaces, mapping), indent=2))


def load_corpus(path: str | Path) -> tuple[list[QueryInterface], Mapping]:
    """Inverse of :func:`save_corpus`."""
    document = json.loads(Path(path).read_text())
    interfaces = [interface_from_dict(d) for d in document["interfaces"]]
    mapping = mapping_from_dict(document["mapping"], interfaces)
    return interfaces, mapping
