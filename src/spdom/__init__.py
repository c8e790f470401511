"""spdom: strategy-proofness analysis on restricted strict-preference domains.

The package models domains of strict rankings, derives their conditional or
non-conditional restriction-map form, partitions them by answers to the
derived conditions, audits and enumerates strategy-proof social choice rules,
counts two-step rule combinations in closed form, and verifies at small scale
that strategy-proof rules without dictators attain exactly two outcomes.

The domain layer (``prefcore``, ``classify``, ``domfile``) is imported with
the package.  The rule layer (``rules``, ``counting``, ``twostep``, and
``orbits`` for the theorem sweep) is imported when one of its names is first
used, so that reading domains never loads it.
"""

import importlib

from .classify import (
    AnswerSet,
    ResponsePartition,
    RestrictionMap,
    SCAN_MODES,
    classify,
    partition_by_answers,
    rebuild,
    relabel_domain,
    relabel_map,
)
from .domfile import (
    AgentSpec,
    DomainSpec,
    ParseError,
    format_pair,
    map_statement_lines,
    parse_domain_file,
    serialize_product_domain,
)
from .prefcore import (
    MAX_ALTERNATIVES,
    PROFILE_ENUMERATION_LIMIT,
    TABLE_CELL_LIMIT,
    DomainError,
    OrderedPair,
    PairSets,
    PreferenceDomain,
    ProductDomain,
    Ranking,
    SizeLimitError,
    SpdomError,
    UnsatisfiableRestrictionError,
    all_rankings,
    consistent_rankings,
    default_labels,
    generate_domain,
    nonconditional_closure,
    pair_sets,
)

#: Rule-layer name -> the submodule that defines it, imported on first use.
_LAZY = {
    name: module
    for module, names in (
        (
            "counting",
            "BlockCount Catalog PairVoteCount SubruleCountReport count_second_step dedekind "
            "decimal_digit_count dictatorial_rules enumerate_sp_rules nonconditional_domains "
            "pair_vote_rules power_digit_count second_step_catalog steerable_range_count",
        ),
        ("orbits", "ImpossibilityReport ProductFamily TheoremViolation verify_impossibility"),
        (
            "rules",
            "ManipulationWitness Rule SpAuditReport audit_sp_lemmas constant_rule dictators_of "
            "find_manipulation iter_manipulations parse_rule_file range_of serialize_rule",
        ),
        (
            "twostep",
            "BlockDecomposition DECOMPOSITION_DICTATORIAL DECOMPOSITION_TWO_OUTCOME "
            "DECOMPOSITION_VIOLATION SearchResult decompose search_sp_combinations "
            "serialize_assignment",
        ),
    )
    for name in names.split()
}


def __getattr__(name: str):
    """A rule-layer name, read from its submodule on first use (PEP 562) and
    then kept as a package global."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "AnswerSet",
    "AgentSpec",
    "DomainError",
    "DomainSpec",
    "MAX_ALTERNATIVES",
    "OrderedPair",
    "PROFILE_ENUMERATION_LIMIT",
    "PairSets",
    "ParseError",
    "PreferenceDomain",
    "ProductDomain",
    "Ranking",
    "ResponsePartition",
    "RestrictionMap",
    "SCAN_MODES",
    "SizeLimitError",
    "SpdomError",
    "TABLE_CELL_LIMIT",
    "UnsatisfiableRestrictionError",
    "all_rankings",
    "classify",
    "consistent_rankings",
    "default_labels",
    "format_pair",
    "generate_domain",
    "map_statement_lines",
    "nonconditional_closure",
    "pair_sets",
    "parse_domain_file",
    "partition_by_answers",
    "rebuild",
    "relabel_domain",
    "relabel_map",
    "serialize_product_domain",
    *_LAZY,
    "__version__",
]
