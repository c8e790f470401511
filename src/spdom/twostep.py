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
from typing import Optional, Sequence

from .classify import AnswerSet, ResponsePartition
from .counting import second_step_catalog
from .prefcore import PROFILE_ENUMERATION_LIMIT, DomainError
from .rules import (
    ManipulationWitness,
    Rule,
    dictators_of,
    find_manipulation,
    iter_manipulations,
    range_of,
)


def _check_subrules(partition: ResponsePartition, subrules: Sequence[Rule]) -> None:
    blocks = partition.block_products
    if len(subrules) != len(blocks):
        raise DomainError(
            f"need {len(blocks)} subrules (one per response profile), got {len(subrules)}"
        )
    for answers, block, subrule in zip(partition.responses, blocks, subrules):
        if subrule.domain.agents != block.agents:
            raise DomainError(f"subrule for response profile {answers!r} is not over its block")


def _check_rule(rule: Rule, partition: ResponsePartition) -> None:
    if rule.domain != partition.product:
        raise DomainError("rule is over a different product than the response partition")


@dataclass(frozen=True)
class TwoStepAssignment:
    """One subrule per realizable response profile, in canonical order."""

    partition: ResponsePartition
    subrules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        _check_subrules(self.partition, self.subrules)


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
    _check_rule(rule, partition)
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
class FirstStepWitness:
    """A manipulation annotated with whether the misreport changed the
    manipulator's elicited answers (their response-profile coordinate)."""

    witness: ManipulationWitness
    answer_changing: bool


def first_step_witnesses(
    rule: Rule,
    partition: ResponsePartition,
    max_profiles: int = PROFILE_ENUMERATION_LIMIT,
) -> tuple[FirstStepWitness, ...]:
    """Every manipulation of ``rule``, each annotated by whether the deviation
    crosses answer-set blocks.  When all block subrules are strategy-proof,
    every witness is answer-changing (a within-block deviation would manipulate
    a strategy-proof subrule)."""
    _check_rule(rule, partition)
    out = []
    for witness in iter_manipulations(rule, max_profiles):
        positions = partition.positions[witness.agent]
        sincere = positions[witness.profile[witness.agent]][0]
        deviating = positions[witness.deviation][0]
        out.append(FirstStepWitness(witness, answer_changing=sincere != deviating))
    return tuple(out)


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

    candidates = itertools.islice(
        itertools.product(*(range(len(c)) for c in catalogs)), budget
    )
    rules: list[Rule] = []
    assignments: list[tuple[int, ...]] = []
    tried = 0
    for indices in candidates:
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


def _parse_answer_set(token: str, labels: dict[str, int], lineno: int) -> AnswerSet:
    from .domfile import ParseError
    from .prefcore import OrderedPair

    token = token.strip()
    if not (token.startswith("{") and token.endswith("}")):
        raise ParseError(f"expected an answer set in braces, found {token!r}", lineno, 1)
    inner = token[1:-1].strip()
    if not inner:
        return frozenset()
    pairs = []
    for part in inner.split(","):
        part = part.strip()
        if ">" not in part:
            raise ParseError(f"expected 'a>b' inside answer set, found {part!r}", lineno, 1)
        top, _, bottom = part.partition(">")
        top, bottom = top.strip(), bottom.strip()
        if top not in labels or bottom not in labels:
            raise ParseError(f"unknown alternative in answer pair {part!r}", lineno, 1)
        pairs.append(OrderedPair(labels[top], labels[bottom]))
    return frozenset(pairs)


def parse_assignment_file(
    text: str,
    partition: ResponsePartition,
    base_dir: Optional[str] = None,
) -> TwoStepAssignment:
    """Parse an assignment document: one line per realizable response profile,
    in canonical order, referencing subrules as ``catalog:N`` or
    ``file:relative/path.rule`` (resolved against ``base_dir``)."""
    from pathlib import Path

    from .domfile import ParseError
    from .rules import parse_rule_file

    pd = partition.product
    labels = {label: i for i, label in enumerate(pd.labels)}
    responses = partition.responses
    expected_iter = iter(zip(responses, partition.block_products))
    subrules: list[Rule] = []
    header = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header == 0:
            if not line.startswith("alternatives:"):
                raise ParseError("an assignment file starts with 'alternatives:'", lineno, 1)
            declared = tuple(line[len("alternatives:") :].split())
            if declared != pd.labels:
                raise ParseError(
                    f"alternatives {declared!r} do not match the domain's {pd.labels!r}",
                    lineno,
                    1,
                )
            header = 1
            continue
        if header == 1:
            if not line.startswith("agents:"):
                raise ParseError("expected 'agents:' after the alternatives line", lineno, 1)
            declared_agents = tuple(line[len("agents:") :].split())
            if declared_agents != pd.agent_names:
                raise ParseError(
                    f"agents {declared_agents!r} do not match the domain's "
                    f"{pd.agent_names!r}",
                    lineno,
                    1,
                )
            header = 2
            continue
        if "->" not in line:
            raise ParseError("expected 'answer sets -> subrule reference'", lineno, 1)
        left, _, right = line.partition("->")
        expected = next(expected_iter, None)
        if expected is None:
            raise ParseError(f"more than {len(responses)} assignment lines", lineno, 1)
        declared_answers = tuple(
            _parse_answer_set(part, labels, lineno) for part in left.strip().split("|")
        )
        answers, block_pd = expected
        if declared_answers != answers:
            expected_text = "|".join(_format_answer_set(a, pd.labels) for a in answers)
            raise ParseError(
                f"response profile out of canonical order: expected {expected_text!r}",
                lineno,
                1,
            )
        ref = right.strip()
        if ref.startswith("catalog:"):
            catalog = second_step_catalog(block_pd)
            try:
                idx = int(ref[len("catalog:") :])
            except ValueError:
                raise ParseError(f"bad catalog index in {ref!r}", lineno, 1) from None
            if not 0 <= idx < len(catalog):
                raise ParseError(
                    f"catalog index {idx} out of range 0..{len(catalog) - 1}", lineno, 1
                )
            subrules.append(catalog[idx])
        elif ref.startswith("file:"):
            rel = ref[len("file:") :].strip()
            path = Path(base_dir) / rel if base_dir else Path(rel)
            try:
                content = path.read_text()
            except (OSError, UnicodeDecodeError) as err:
                raise DomainError(f"cannot read subrule file {path}: {err}") from err
            subrules.append(parse_rule_file(content, block_pd))
        else:
            raise ParseError(
                f"subrule reference must be 'catalog:N' or 'file:PATH', found {ref!r}",
                lineno,
                1,
            )
    if header < 2:
        raise ParseError("incomplete assignment file header", 1, 1)
    missing = next(expected_iter, None)
    if missing is not None:
        raise DomainError(
            f"assignment file covers only {len(subrules)} of {len(responses)} response profiles"
        )
    return TwoStepAssignment(partition, tuple(subrules))
