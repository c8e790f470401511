"""Two-step structure of rules: answer elicitation, then block subrules.

Each agent is asked how they rank every condition pair of their restriction
map; the resulting per-agent answer sets form a *response profile*, which
selects one non-conditional block per agent.  A rule then decomposes into one
subrule per response profile, and conversely an assignment of subrules to
response profiles assembles into a full rule.  ``search_sp_combinations``
walks assignments whose subrules come from the closed-form catalog (constants,
two-outcome monotone vote rules, steerable dictatorships) and keeps the
strategy-proof assemblies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .classify import AnswerSet, ResponsePartition
from .counting import second_step_catalog
from .prefcore import DomainError
from .rules import Rule, dictators_of, find_manipulation, range_of


def _check_subrules(partition: ResponsePartition, subrules: Sequence[Rule]) -> None:
    blocks = partition.block_products
    if len(subrules) != len(blocks):
        raise DomainError(
            f"need {len(blocks)} subrules (one per response profile), got {len(subrules)}"
        )
    for answers, block, subrule in zip(partition.responses, blocks, subrules):
        if subrule.domain.agents != block.agents:
            raise DomainError(f"subrule for response profile {answers!r} is not over its block")


def assemble(partition: ResponsePartition, subrules: Sequence[Rule]) -> Rule:
    """Glue block subrules (one per response profile, canonical order) into one
    full rule: each profile is answered by the subrule of its response profile."""
    _check_subrules(partition, subrules)
    tables = [subrule.table for subrule in subrules]
    return Rule(partition.product, tuple(tables[r][s] for r, s in partition.gather))


DECOMPOSITION_DICTATORIAL = "dictatorial"
DECOMPOSITION_TWO_OUTCOME = "sp_range_le_2"
DECOMPOSITION_VIOLATION = "violation"


@dataclass(frozen=True)
class BlockDecomposition:
    """One response profile's subrule and what kind of rule it is."""

    answers: tuple[AnswerSet, ...]
    subrule: Rule
    classification: str
    dictators: frozenset[int]
    range_size: int


@dataclass(frozen=True)
class DecompositionReport:
    blocks: tuple[BlockDecomposition, ...]

    @property
    def violations(self) -> tuple[BlockDecomposition, ...]:
        return tuple(b for b in self.blocks if b.classification == DECOMPOSITION_VIOLATION)

    @property
    def clean(self) -> bool:
        return not self.violations


def decompose(rule: Rule, partition: ResponsePartition) -> DecompositionReport:
    """Split a rule into its response-profile subrules and classify each as
    dictatorial, strategy-proof with at most two outcomes, or a violation."""
    if rule.domain != partition.product:
        raise DomainError("rule is over a different product than the response partition")
    tables = [[0] * block.profile_count for block in partition.block_products]
    for outcome, (r, s) in zip(rule.table, partition.gather):
        tables[r][s] = outcome
    blocks: list[BlockDecomposition] = []
    for answers, block, table in zip(partition.responses, partition.block_products, tables):
        subrule = Rule(block, tuple(table))
        dictators = dictators_of(subrule)
        attained = range_of(subrule)
        if dictators:
            kind = DECOMPOSITION_DICTATORIAL
        elif len(attained) <= 2 and find_manipulation(subrule) is None:
            kind = DECOMPOSITION_TWO_OUTCOME
        else:
            kind = DECOMPOSITION_VIOLATION
        blocks.append(
            BlockDecomposition(
                answers=answers,
                subrule=subrule,
                classification=kind,
                dictators=dictators,
                range_size=len(attained),
            )
        )
    return DecompositionReport(tuple(blocks))


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a catalog-driven search over two-step assignments."""

    rules: tuple[Rule, ...]
    assignments: tuple[tuple[int, ...], ...]  # catalog indices per found rule
    catalogs: tuple[tuple[Rule, ...], ...]  # one per response profile
    candidates_total: int
    candidates_tried: int
    complete: bool


def search_sp_combinations(
    partition: ResponsePartition, budget: int = 1_000_000
) -> SearchResult:
    """Try every assignment of catalog subrules to response profiles (up to
    ``budget`` candidates, canonical order) and keep the assemblies that are
    strategy-proof.

    Every strategy-proof rule arises this way: its block subrules are
    strategy-proof rules on non-conditional products, hence constants,
    two-outcome vote rules, or steerable dictatorships — all in the catalog.
    So when the search completes within budget, the result is exhaustive.
    """
    if budget < 1:
        raise DomainError(f"budget must be positive, got {budget}")
    catalogs = tuple(second_step_catalog(block) for block in partition.block_products)
    total = 1
    for catalog in catalogs:
        total *= len(catalog)

    rules: list[Rule] = []
    assignments: list[tuple[int, ...]] = []
    tried = 0
    for indices in itertools.product(*(range(len(c)) for c in catalogs)):
        if tried == budget:
            break
        tried += 1
        rule = assemble(partition, [catalogs[i][j] for i, j in enumerate(indices)])
        if find_manipulation(rule) is None:
            rules.append(rule)
            assignments.append(indices)

    return SearchResult(
        rules=tuple(rules),
        assignments=tuple(assignments),
        catalogs=catalogs,
        candidates_total=total,
        candidates_tried=tried,
        complete=tried == total,
    )


# ---------------------------------------------------------------------------
# Assignment file format


def _format_answer_set(answers: AnswerSet, labels: Sequence[str]) -> str:
    inner = ",".join(f"{labels[p.top]}>{labels[p.bottom]}" for p in sorted(answers))
    return "{" + inner + "}"


def serialize_assignment(partition: ResponsePartition, indices: Sequence[int]) -> str:
    """Render an assignment of catalog subrules as text: one catalog index per
    response profile, canonical order (as in ``SearchResult.assignments``)."""
    responses = partition.responses
    if len(indices) != len(responses):
        raise DomainError(
            f"need {len(responses)} catalog indices (one per response profile), "
            f"got {len(indices)}"
        )
    pd = partition.product
    lines = ["alternatives: " + " ".join(pd.labels)]
    lines.append("agents: " + " ".join(pd.agent_names))
    for answers, idx in zip(responses, indices):
        left = "|".join(_format_answer_set(a, pd.labels) for a in answers)
        lines.append(f"{left} -> catalog:{idx}")
    return "\n".join(lines) + "\n"
