"""QueryInterface measures, clusters/mapping, 1:m reduction, group partition,
serialization round trips."""

from __future__ import annotations

import pytest

from repro.schema.clusters import Cluster, Mapping
from repro.schema.groups import GroupKind, partition_clusters
from repro.schema.interface import FieldKind, QueryInterface, make_field, make_group
from repro.schema.serialize import (
    interface_from_dict,
    interface_to_dict,
    load_corpus,
    mapping_from_dict,
    mapping_to_dict,
    save_corpus,
)
from repro.schema.tree import SchemaNode


class TestQueryInterface:
    @pytest.fixture()
    def interface(self):
        fields = [
            make_field("Adults", cluster="c_adult", name="f1"),
            make_field(None, cluster="c_child", name="f2"),
        ]
        group = make_group("Passengers", fields, name="g1")
        extra = make_field("Promo", cluster="c_promo", name="f3")
        return QueryInterface("qi", SchemaNode(None, [group, extra], name="r"))

    def test_counts(self, interface):
        assert interface.leaf_count() == 3
        assert interface.internal_node_count() == 1
        assert interface.depth() == 3

    def test_labeling_quality_excludes_root(self, interface):
        # 4 non-root nodes, 3 labeled.
        assert interface.labeling_quality() == pytest.approx(3 / 4)

    def test_field_lookup(self, interface):
        assert interface.field_by_name("f1").label == "Adults"
        with pytest.raises(KeyError):
            interface.field_by_name("g1")  # internal node is not a field
        with pytest.raises(KeyError):
            interface.field_by_name("missing")

    def test_validates_on_construction(self):
        bad = SchemaNode(None, [SchemaNode("x")])
        bad.children[0].parent = None
        with pytest.raises(ValueError):
            QueryInterface("bad", bad)


class TestCluster:
    def test_labels_first_seen_order_distinct(self):
        cluster = Cluster("c")
        cluster.add("a", make_field("Adults"))
        cluster.add("b", make_field("Adult"))
        cluster.add("c", make_field("Adults"))
        cluster.add("d", make_field(None))
        assert cluster.labels() == ["Adults", "Adult"]
        assert cluster.frequency() == 4

    def test_duplicate_interface_rejected(self):
        cluster = Cluster("c")
        cluster.add("a", make_field("X"))
        with pytest.raises(ValueError):
            cluster.add("a", make_field("Y"))

    def test_instances_union_filtered_by_label(self):
        cluster = Cluster("c")
        cluster.add("a", make_field("Class", instances=("First", "Economy")))
        cluster.add("b", make_field("Flight Class", instances=("Economy", "Business")))
        assert cluster.instances_union() == {"First", "Economy", "Business"}
        assert cluster.instances_union("Class") == {"First", "Economy"}

    def test_label_of(self):
        cluster = Cluster("c")
        cluster.add("a", make_field("X"))
        cluster.add("b", make_field(None))
        assert cluster.label_of("a") == "X"
        assert cluster.label_of("b") is None
        assert cluster.label_of("missing") is None


class TestOneToManyExpansion:
    """The paper's Passengers example (Section 2.1 / Figure 2)."""

    def _build(self):
        passengers = make_field(
            "Passengers", instances=("1", "2", "3"), name="vac:passengers"
        )
        root = SchemaNode(None, [make_group(None, [passengers], name="vac:g")],
                          name="vac:r")
        vacations = QueryInterface("vacations", root)

        adults = make_field("Adults", name="aa:adults")
        children = make_field("Children", name="aa:children")
        aa_root = SchemaNode(
            None, [make_group(None, [adults, children], name="aa:g")], name="aa:r"
        )
        aa = QueryInterface("aa", aa_root)

        mapping = Mapping()
        mapping.assign("c_adult", "aa", adults)
        mapping.assign("c_child", "aa", children)
        mapping.assign("c_adult", "vacations", passengers)
        mapping.assign("c_child", "vacations", passengers)
        return [vacations, aa], mapping

    def test_expansion_creates_internal_node(self):
        interfaces, mapping = self._build()
        records = mapping.expand_one_to_many(interfaces)
        assert len(records) == 1
        record = records[0]
        assert record.field_label == "Passengers"
        assert set(record.clusters) == {"c_adult", "c_child"}
        # The Passengers leaf became an internal node with unlabeled children.
        vacations = interfaces[0]
        expanded = vacations.root.find_by_name("vac:passengers")
        assert expanded.is_internal
        assert expanded.label == "Passengers"
        assert all(not child.is_labeled for child in expanded.children)

    def test_mapping_becomes_one_to_one(self):
        interfaces, mapping = self._build()
        mapping.expand_one_to_many(interfaces)
        mapping.validate_one_to_one()
        for cluster_name in ("c_adult", "c_child"):
            member = mapping[cluster_name].members["vacations"]
            assert member.is_leaf and member.cluster == cluster_name

    def test_one_to_one_fields_get_cluster_attribute(self):
        interfaces, mapping = self._build()
        mapping.expand_one_to_many(interfaces)
        aa = interfaces[1]
        assert aa.root.find_by_name("aa:adults").cluster == "c_adult"

    def test_validate_detects_unreduced(self):
        interfaces, mapping = self._build()
        with pytest.raises(ValueError, match="in both"):
            mapping.validate_one_to_one()

    def test_unknown_interface_rejected(self):
        interfaces, mapping = self._build()
        with pytest.raises(KeyError):
            mapping.expand_one_to_many([interfaces[1]])  # vacations missing


class TestGroupPartition:
    """Figure 3's C_groups / C_root / C_int example (Real Estate)."""

    def _figure3_tree(self) -> SchemaNode:
        state = SchemaNode(None, cluster="c_state", name="l1")
        city = SchemaNode(None, cluster="c_city", name="l2")
        zone = SchemaNode(None, [state, city], name="zone")
        minimum = SchemaNode(None, cluster="c_min", name="l3")
        maximum = SchemaNode(None, cluster="c_max", name="l4")
        price = SchemaNode(None, [minimum, maximum], name="price")
        garage = SchemaNode(None, cluster="c_garage", name="l5")
        beds = SchemaNode(None, [
            SchemaNode(None, cluster="c_bed", name="l6"),
            SchemaNode(None, cluster="c_bath", name="l7"),
        ], name="beds")
        characteristics = SchemaNode(None, [beds, garage], name="chars")
        ptype = SchemaNode(None, cluster="c_ptype", name="l8")
        return SchemaNode(None, [zone, price, characteristics, ptype], name="root")

    def test_partition(self):
        partition = partition_clusters(self._figure3_tree())
        assert [g.clusters for g in partition.regular] == [
            ("c_state", "c_city"), ("c_min", "c_max"), ("c_bed", "c_bath")
        ]
        assert partition.c_int() == ("c_garage",)
        assert partition.c_root() == ("c_ptype",)

    def test_group_kinds_and_lookup(self):
        partition = partition_clusters(self._figure3_tree())
        assert partition.group_of("c_garage").kind is GroupKind.ISOLATED
        assert partition.group_of("c_ptype").kind is GroupKind.ROOT
        assert partition.group_of("c_state").kind is GroupKind.REGULAR
        assert partition.group_of("c_missing") is None

    def test_all_groups_order(self):
        partition = partition_clusters(self._figure3_tree())
        kinds = [g.kind for g in partition.all_groups()]
        assert kinds == [
            GroupKind.REGULAR, GroupKind.REGULAR, GroupKind.REGULAR,
            GroupKind.ROOT, GroupKind.ISOLATED,
        ]

    def test_unclustered_leaf_rejected(self):
        tree = SchemaNode(None, [SchemaNode(None, name="leaf")], name="root")
        with pytest.raises(ValueError, match="no cluster"):
            partition_clusters(tree)


class TestSerialization:
    def _interface(self) -> QueryInterface:
        fields = [
            make_field(
                "Class",
                kind=FieldKind.SELECTION_LIST,
                instances=("First", "Economy"),
                cluster="c_class",
                name="f1",
            ),
            make_field("Airline", cluster="c_airline", name="f2"),
        ]
        group = make_group("Service", fields, name="g")
        return QueryInterface(
            "qi", SchemaNode(None, [group], name="r"), domain="airline",
            url="http://example.org", metadata={"k": "v"},
        )

    def test_interface_round_trip(self):
        original = self._interface()
        restored = interface_from_dict(interface_to_dict(original))
        assert restored.name == original.name
        assert restored.domain == "airline"
        assert restored.metadata == {"k": "v"}
        assert restored.root.find_by_name("f1").instances == ("First", "Economy")
        assert restored.root.find_by_name("f1").kind is FieldKind.SELECTION_LIST
        assert restored.leaf_count() == 2

    def test_mapping_round_trip(self):
        interface = self._interface()
        mapping = Mapping()
        mapping.assign("c_class", "qi", interface.field_by_name("f1"))
        data = mapping_to_dict(mapping)
        restored = mapping_from_dict(data, [interface])
        assert restored["c_class"].members["qi"].name == "f1"

    def test_mapping_with_unknown_node_rejected(self):
        interface = self._interface()
        with pytest.raises(ValueError, match="unknown node 'ghost'"):
            mapping_from_dict({"c_x": {"qi": "ghost"}}, [interface])
        with pytest.raises(ValueError, match="of interface 'nope'"):
            mapping_from_dict({"c_x": {"nope": "f1"}}, [interface])

    def test_corpus_round_trip(self, tmp_path):
        interface = self._interface()
        mapping = Mapping()
        mapping.assign("c_class", "qi", interface.field_by_name("f1"))
        path = tmp_path / "corpus.json"
        save_corpus(path, [interface], mapping)
        interfaces, restored = load_corpus(path)
        assert interfaces[0].name == "qi"
        assert restored["c_class"].members["qi"].label == "Class"
