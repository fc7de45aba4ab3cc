"""Paper-invariant oracles: regression over the seed domains + negatives.

Positive direction: every seed-domain labeling (and every golden snapshot)
satisfies horizontal consistency, vertical generality and idempotence.
Negative direction: deliberately broken labelings — a tampered solution, a
generality-inverted tree, a repeated path label — are caught, so the
oracles are known to actually bite.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.pipeline import label_corpus
from repro.datasets.registry import DOMAINS, load_domain
from repro.service.engine import LabelingEngine
from repro.testing.oracles import (
    OracleError,
    OracleReport,
    OracleViolation,
    canonical_response,
    check_horizontal_consistency,
    check_label_idempotence,
    check_tree_dict,
    check_vertical_generality,
    verify_labeling,
    wordnet_strict_hypernym,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
ALL_DOMAINS = sorted(DOMAINS)


@pytest.fixture(scope="module")
def labeled_domains(comparator):
    """Every seed domain labeled once; (root, result) per name."""
    labeled = {}
    for name in ALL_DOMAINS:
        dataset = load_domain(name, seed=0)
        labeled[name] = label_corpus(
            dataset.interfaces, dataset.mapping, comparator=comparator,
            domain=name,
        )
    return labeled


# ----------------------------------------------------------------------
# The strict-generality relation itself.
# ----------------------------------------------------------------------


class TestWordnetStrictHypernym:
    def test_real_hypernym_edge_qualifies(self, comparator):
        assert wordnet_strict_hypernym(comparator, "Location", "City")
        assert not wordnet_strict_hypernym(comparator, "City", "Location")

    def test_token_subset_alone_does_not_qualify(self, comparator):
        # Definition 1's token-count rule would make "Availability" a
        # hypernym of "Availability Options"; the strict oracle relation
        # requires a genuine lexicon edge and must reject this.
        assert not wordnet_strict_hypernym(
            comparator, "Availability", "Availability Options"
        )

    def test_hypernym_edge_with_extra_tokens_qualifies(self, comparator):
        # person > adult via the lexicon, and every token of the shorter
        # label relates to one of the longer's.
        assert wordnet_strict_hypernym(comparator, "Person", "Adult")

    def test_conjunctions_are_excluded(self, comparator):
        assert not wordnet_strict_hypernym(comparator, "Location", "City and State")


# ----------------------------------------------------------------------
# Positive regression: all seed domains satisfy every oracle.
# ----------------------------------------------------------------------


class TestSeedDomainInvariants:
    @pytest.mark.parametrize("name", ALL_DOMAINS)
    def test_verify_labeling_passes(self, name, labeled_domains, comparator):
        root, result = labeled_domains[name]
        report = verify_labeling(root, result, comparator)
        assert isinstance(report, OracleReport)
        assert report.checks > 0
        assert report.ok, report.summary()

    @pytest.mark.parametrize("name", ALL_DOMAINS)
    def test_horizontal_consistency(self, name, labeled_domains, comparator):
        __, result = labeled_domains[name]
        assert check_horizontal_consistency(result, comparator) == []

    @pytest.mark.parametrize("name", ALL_DOMAINS)
    def test_vertical_generality(self, name, labeled_domains, comparator):
        root, __ = labeled_domains[name]
        assert check_vertical_generality(root, comparator) == []

    @pytest.mark.parametrize("name", ALL_DOMAINS)
    def test_engine_strict_mode_accepts(self, name, comparator):
        engine = LabelingEngine(cache_size=0, verify="strict",
                                comparator=comparator)
        response = engine.label({"domain": name, "seed": 0})
        assert response["ok"]
        oracle = engine.stats()["resilience"]["oracle"]
        assert oracle["checks"] > 0 and oracle["failures"] == 0


#: Strict-mode violations over seeds 0-9, pinned so that a fix and a new
#: violation both fail :class:`TestSeedSweepViolations`.  Each
#: ``vertical.path`` run has a leaf that repeats an ancestor's label
#: (Proposition 2); Airline seed 9 puts the leaf ``Time`` under ``Dates``.
#: Switching homonym repair off clears none of them.  ROADMAP item 7 is
#: where they are meant to be fixed.
KNOWN_STRICT_VIOLATIONS = {
    ("airline", 9): {"vertical.generality"},
    ("auto", 4): {"vertical.path"},
    ("auto", 6): {"vertical.path"},
    ("carrental", 2): {"vertical.path"},
    ("carrental", 4): {"vertical.path"},
    ("carrental", 7): {"vertical.path"},
    ("carrental", 8): {"vertical.path"},
    ("hotels", 9): {"vertical.path"},
}


class TestSeedSweepViolations:
    def test_strict_mode_violations_are_exactly_the_known_ones(self):
        engine = LabelingEngine(verify="strict", cache_size=0)
        found = {}
        for name in ALL_DOMAINS:
            for seed in range(10):
                try:
                    engine.label({"domain": name, "seed": seed})
                except OracleError as exc:
                    found[name, seed] = oracles_of(exc.report.violations)
        assert found == KNOWN_STRICT_VIOLATIONS


class TestGoldenTrees:
    @pytest.mark.parametrize("name", ALL_DOMAINS)
    def test_golden_tree_satisfies_vertical_oracle(self, name, comparator):
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        assert check_tree_dict(golden["tree"], comparator) == []

    def test_rejects_non_tree_input(self, comparator):
        with pytest.raises(ValueError, match="serialized schema node"):
            check_tree_dict({"classification": "meaningful"}, comparator)


class TestIdempotence:
    @pytest.mark.parametrize("name", ["airline", "hotels"])
    def test_seed_domain_idempotent(self, name, comparator):
        def factory(cache_size):
            return LabelingEngine(cache_size=cache_size, comparator=comparator)

        payload = {"domain": name, "seed": 0}
        assert check_label_idempotence(payload, engine_factory=factory) == []

    def test_canonical_response_strips_volatiles(self):
        response = {
            "ok": True,
            "cached": True,
            "resilience": {"attempts": 2, "faults": []},
            "stats": {"leaves": 4, "elapsed_ms": 12.5},
        }
        clean = canonical_response(response)
        assert clean == {"ok": True, "stats": {"leaves": 4}}
        # The original is untouched (deep copy, not mutation).
        assert response["stats"]["elapsed_ms"] == 12.5


# ----------------------------------------------------------------------
# Negative direction: broken labelings are caught.
# ----------------------------------------------------------------------


def oracles_of(violations: list[OracleViolation]) -> set[str]:
    return {v.oracle for v in violations}


class TestOraclesCatchBreakage:
    def test_tampered_field_labels_breaks_agreement(self, comparator):
        dataset = load_domain("airline", seed=0)
        __, result = label_corpus(
            dataset.interfaces, dataset.mapping, comparator=comparator
        )
        cluster = next(c for c, l in result.field_labels.items() if l)
        result.field_labels[cluster] = "Tampered Label"
        violations = check_horizontal_consistency(result, comparator)
        assert "horizontal.agreement" in oracles_of(violations)

    def test_tampered_solution_breaks_provenance(self, comparator):
        dataset = load_domain("airline", seed=0)
        __, result = label_corpus(
            dataset.interfaces, dataset.mapping, comparator=comparator
        )
        name, solution = next(iter(result.chosen_solutions.items()))
        cluster = next(c for c, l in solution.labels.items() if l)
        solution.labels[cluster] = "Label From Nowhere"
        violations = check_horizontal_consistency(result, comparator)
        assert "horizontal.provenance" in oracles_of(violations)

    def test_erased_label_breaks_coverage(self, comparator):
        dataset = load_domain("airline", seed=0)
        __, result = label_corpus(
            dataset.interfaces, dataset.mapping, comparator=comparator
        )
        # Erase a label from a consistent group's solution *and* the flat
        # map, so only the coverage oracle (not agreement) can object.
        name = next(
            n for n, gr in result.group_results.items()
            if gr.consistent and any(
                result.chosen_solutions[n].labels.get(c)
                for c in gr.group.clusters
            )
        )
        solution = result.chosen_solutions[name]
        cluster = next(c for c, l in solution.labels.items() if l)
        solution.labels[cluster] = None
        result.field_labels[cluster] = None
        violations = check_horizontal_consistency(result, comparator)
        assert "horizontal.coverage" in oracles_of(violations)

    def test_generality_inversion_in_tree_dict(self, comparator):
        # "location" is a genuine lexicon hypernym of "city": a leaf
        # labeled Location under an internal node labeled City inverts
        # Definition 5 and must be flagged.
        tree = {
            "name": "root",
            "label": None,
            "children": [
                {
                    "name": "g_geo",
                    "label": "City",
                    "children": [
                        {"name": "f_loc", "label": "Location", "children": []},
                    ],
                },
            ],
        }
        violations = check_tree_dict(tree, comparator)
        assert oracles_of(violations) == {"vertical.generality"}

    def test_repeated_path_label_in_tree_dict(self, comparator):
        tree = {
            "name": "root",
            "label": None,
            "children": [
                {
                    "name": "g_where",
                    "label": "Destination",
                    "children": [
                        {"name": "f_dest", "label": "Destination", "children": []},
                    ],
                },
            ],
        }
        violations = check_tree_dict(tree, comparator)
        assert oracles_of(violations) == {"vertical.path"}

    def test_generality_inversion_on_real_nodes(self, comparator):
        from .conftest import build_group_corpus

        # Rows engineered so the oracle sees an inversion when we force
        # the labels by hand on the merged tree.
        interfaces, mapping = build_group_corpus(
            {
                "a": {"c_city": "City", "c_state": "State"},
                "b": {"c_city": "City", "c_state": "State"},
            },
            ["c_city", "c_state"],
        )
        root, result = label_corpus(interfaces, mapping, comparator=comparator)
        internal = [n for n in root.internal_nodes() if n is not root]
        assert internal, "two-cluster group should merge to an internal node"
        target = internal[0]
        leaf = next(n for n in target.walk() if n.is_leaf)
        target.label = "City"
        leaf.label = "Location"
        violations = check_vertical_generality(root, comparator)
        assert "vertical.generality" in oracles_of(violations)

    def test_report_raise_if_failed(self):
        report = OracleReport(
            checks=3,
            violations=[OracleViolation("vertical.path", "x", "boom")],
        )
        assert not report.ok
        with pytest.raises(OracleError) as excinfo:
            report.raise_if_failed()
        assert "vertical.path" in str(excinfo.value)
        assert excinfo.value.report is report
        OracleReport(checks=3).raise_if_failed()  # ok: no raise
