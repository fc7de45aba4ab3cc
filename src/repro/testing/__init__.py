"""repro.testing — paper-invariant oracles.

:mod:`.oracles` turns the paper's correctness contracts (horizontal
consistency within solved groups, vertical generality down the tree,
idempotence of ``label_corpus``) into reusable checkers that run from
pytest and from the engine's ``verify="strict"`` mode.  A serving process
loads this package only when strict mode computes a labeling.
"""

from .oracles import (
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
