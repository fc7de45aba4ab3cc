"""Shared fixtures: lexicon, comparator, the paper's worked examples, and
service clients that close their sockets."""

from __future__ import annotations

import copy
from functools import cache

import pytest
from hypothesis import HealthCheck, settings

from repro.core.label import LabelAnalyzer
from repro.core.semantics import SemanticComparator
from repro.datasets.registry import load_domain
from repro.lexicon.data import build_default_wordnet
from repro.schema.clusters import Mapping
from repro.schema.groups import Group, GroupKind
from repro.schema.interface import QueryInterface, make_field, make_group
from repro.schema.serialize import corpus_to_dict
from repro.schema.tree import SchemaNode
from repro.service.client import ServiceClient

# Every property test draws the same examples on every run: no example
# database, no deadline (a slow shared host is not a failure).
settings.register_profile(
    "repro",
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def client_for():
    """Make :class:`ServiceClient` objects that are closed when the test ends."""
    made = []

    def make(*args, **kwargs) -> ServiceClient:
        made.append(ServiceClient(*args, **kwargs))
        return made[-1]

    yield make
    for client in made:
        client.close()


@pytest.fixture(scope="session")
def wordnet():
    return build_default_wordnet()


@pytest.fixture(scope="session")
def analyzer(wordnet):
    return LabelAnalyzer(wordnet)


@pytest.fixture(scope="session")
def comparator(analyzer):
    return SemanticComparator(analyzer)


def build_group_corpus(rows: dict[str, dict[str, str]], clusters: list[str]):
    """Build interfaces + mapping from ``{interface: {cluster: label}}``.

    Each interface gets one group node containing its labeled fields —
    the shape of the paper's Tables 2-4.
    """
    mapping = Mapping()
    interfaces = []
    for interface_name, labels in rows.items():
        fields = []
        for cluster in clusters:
            if cluster not in labels:
                continue
            field = make_field(
                labels[cluster],
                cluster=cluster,
                name=f"{interface_name}:{cluster}",
            )
            fields.append(field)
            mapping.assign(cluster, interface_name, field)
        root = SchemaNode(
            None,
            [make_group(None, fields, name=f"{interface_name}:grp")],
            name=f"{interface_name}:root",
        )
        interfaces.append(QueryInterface(interface_name, root))
    return interfaces, mapping


@cache
def _book_document() -> dict:
    book = load_domain("book", seed=0)
    return corpus_to_dict(book.interfaces, book.mapping)


#: Path of the first field of the Book seed-0 document's first interface.
BOOK_FIRST_FIELD = ("interfaces", 0, "root", "children", 0)


def book_document_with(path: tuple = (), value=None) -> dict:
    """A fresh copy of the Book seed-0 corpus document, with the field at
    ``path`` (if any) set to ``value``."""
    document = copy.deepcopy(_book_document())
    if path:
        target = document
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
    return document


def rot_disk_entries(directory) -> None:
    """Change one byte of every entry a disk cache under ``directory``
    holds, keeping each record's CRC: the damage bit rot does."""
    for segment in directory.glob("segment-*.jsonl"):
        segment.write_bytes(segment.read_bytes().replace(b'{"ok":true', b'{"ok":True'))


def regular_group(clusters: list[str], name: str = "g") -> Group:
    return Group(
        name=name,
        kind=GroupKind.REGULAR,
        clusters=tuple(clusters),
        parent_name="p",
    )


@pytest.fixture()
def table2_corpus():
    """The paper's Table 2: the airline passenger group."""
    rows = {
        "aa": {"c_adult": "Adults", "c_child": "Children"},
        "airfareplanet": {"c_adult": "Adult", "c_child": "Child"},
        "airtravel": {"c_adult": "Adult", "c_child": "Child", "c_infant": "Infant"},
        "british": {"c_senior": "Seniors", "c_adult": "Adults", "c_child": "Children"},
        "economytravel": {
            "c_adult": "Adults", "c_child": "Children", "c_infant": "Infants"
        },
        "vacations": {"c_senior": "Seniors", "c_adult": "Adults", "c_child": "Children"},
    }
    clusters = ["c_senior", "c_adult", "c_child", "c_infant"]
    interfaces, mapping = build_group_corpus(rows, clusters)
    return interfaces, mapping, regular_group(clusters, "passengers")


@pytest.fixture()
def table3_corpus():
    """The paper's Table 3: the auto location group with disjoint halves."""
    rows = {
        "100auto": {"c_state": "State", "c_city": "City"},
        "Ads4autos": {"c_state": "State", "c_city": "City"},
        "CarMarket": {"c_zip": "Zip Code", "c_distance": "Distance"},
        "cars-1": {"c_zip": "Your Zip", "c_distance": "Within"},
    }
    clusters = ["c_state", "c_city", "c_zip", "c_distance"]
    interfaces, mapping = build_group_corpus(rows, clusters)
    return interfaces, mapping, regular_group(clusters, "location")


@pytest.fixture()
def table4_corpus():
    """The paper's Table 4: the airline service group (semantic level)."""
    rows = {
        "aa": {"c_stops": "NonStop", "c_airline": "Choose an Airline"},
        "airfare": {
            "c_stops": "Number of Connections", "c_airline": "Airline Preference"
        },
        "alldest": {"c_class": "Class of Ticket", "c_airline": "Preferred Airline"},
        "cheap": {"c_stops": "Max. Number of Stops", "c_airline": "Airline Preference"},
        "msn": {"c_class": "Class", "c_airline": "Airline"},
    }
    clusters = ["c_stops", "c_class", "c_airline"]
    interfaces, mapping = build_group_corpus(rows, clusters)
    return interfaces, mapping, regular_group(clusters, "service")
