"""Social choice rules on product domains and their strategy-proofness.

A rule is a dense outcome table over the canonical profile order of a product
domain.  This module checks manipulability (one agent misreporting to obtain
an outcome they sincerely prefer), identifies dictators, audits the
structural facts that characterize strategy-proof rules (outcome maximality
over option sets; pairwise freeness of option-set members), and reads/writes
the ``.rule`` text format.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable, Iterator, NamedTuple, Optional

from .domfile import ParseError, format_profile
from .prefcore import (
    TABLE_CELL_LIMIT,
    DomainError,
    PreferenceDomain,
    ProductDomain,
    SizeLimitError,
    _Value,
    pair_sets,
)


def _check_table_cap(count: int) -> None:
    if count > TABLE_CELL_LIMIT:
        raise SizeLimitError(
            f"outcome table would need {count} cells, over the cap of {TABLE_CELL_LIMIT}"
        )


class Rule(_Value):
    """A social choice rule: one outcome per profile, in canonical profile order.

    Only the table's length is checked; its builder keeps every outcome in
    ``0..m-1`` (the ``.rule`` parser maps labels to ids).
    """

    __slots__ = _compared = ("domain", "table")

    def __init__(self, domain: ProductDomain, table: tuple[int, ...]) -> None:
        self.domain, self.table = domain, table
        count = domain.profile_count
        _check_table_cap(count)
        if len(table) != count:
            raise DomainError(f"outcome table needs {count} cells, got {len(table)}")


def constant_rule(pd: ProductDomain, outcome: int) -> Rule:
    if not 0 <= outcome < pd.m:
        raise DomainError(f"outcome {outcome!r} is outside 0..{pd.m - 1}")
    _check_table_cap(pd.profile_count)  # before the table is allocated
    return Rule(pd, (outcome,) * pd.profile_count)


def range_of(rule: Rule) -> frozenset[int]:
    """The set of outcomes the rule actually attains."""
    return frozenset(rule.table)


class ManipulationWitness(NamedTuple):
    """One profitable misreport: at ``profile``, ``agent`` deviating to ranking
    index ``deviation`` turns ``sincere_outcome`` into the strictly better
    ``deviating_outcome`` (better under the agent's sincere ranking)."""

    agent: int
    profile: tuple[int, ...]
    deviation: int
    sincere_outcome: int
    deviating_outcome: int


def _check_profile_guard(count: int, max_profiles: int) -> None:
    if count > max_profiles:
        raise SizeLimitError(f"{count} profiles exceeds the enumeration guard of {max_profiles}")


class _Admissible(dict):
    """For one report: state -> the outcomes that may join it, filled on first use."""

    def __init__(self, marks: list[int]) -> None:
        super().__init__()
        self.marks = marks

    def __missing__(self, state: int) -> int:
        m = len(self.marks)
        options = state & (1 << m) - 1
        unbeaten = sum(1 << a for a, mark in enumerate(self.marks) if not mark >> m & options)
        self[state] = fits = unbeaten & ~(state >> m)
        return fits


class OptionSets:
    """One agent's option sets, fiber by fiber.  A fiber is one setting of
    the other agents' reports; the agent's reports fill its cells, one each,
    ``strides[agent]`` apart.  A state packs O, the outcomes the agent
    reaches at a fiber (or at its first few cells), in bits ``0..m-1``, and
    U, the outcomes some report there strictly prefers to what it gets, in
    bits ``m..2m-1``.

    A rule is strategy-proof exactly when every report gets its best member
    of O (Barberà and Peleg, "Strategy-proof voting schemes with continuous
    preferences", Social Choice and Welfare 7, 1990).  The one test is
    ``admissible[d][state]``: outcome ``a`` may join a state for report
    ``d`` exactly when ``a`` is not in U and no member of O is strictly
    ``d``-better than ``a``.  For O alone that is d's best member of O and
    whatever d ranks above it."""

    def __init__(self, domain: PreferenceDomain) -> None:
        m = domain.m
        self.marks: list[list[int]] = []  # marks[d][x]: the state of a cell where d gets x
        for ranking in domain.rankings:
            row = [0] * m
            above = 0
            for alt in ranking.order:
                row[alt] = 1 << alt | above << m
                above |= 1 << alt
            self.marks.append(row)
        self.admissible = [_Admissible(row) for row in self.marks]

    @classmethod
    @functools.lru_cache(maxsize=1024)
    def of(cls, domain: PreferenceDomain) -> "OptionSets":
        """The option sets of ``domain``, kept for the 1,024 domains last used."""
        return cls(domain)

    def state(self, outcomes: Iterable[int]) -> int:
        """The state of a whole fiber, from its outcomes in report order."""
        return functools.reduce(operator.or_, map(list.__getitem__, self.marks, outcomes), 0)


def _fibers(rule: Rule, agent: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """The outcomes of each of ``agent``'s fibers in report order, fibers
    in the order of ``pd.fibers(agent)``, and the fibers' states."""
    pd, table = rule.domain, rule.table
    stride = pd.strides[agent]
    span = pd.sizes[agent] * stride
    fibers = [table[base : base + span : stride] for base in pd.fibers(agent)]
    return fibers, list(map(OptionSets.of(pd.agents[agent]).state, fibers))


def _manipulations(rule: Rule, agent: int, states: list[int]) -> Iterator[ManipulationWitness]:
    """``agent``'s manipulations by profile index, then deviation, given the
    states of its fibers.  A fiber has a manipulation exactly when its
    option set O meets U (see :class:`OptionSets`).  Only there are the
    deviations tried, each by comparing the positions of two cells'
    outcomes in the sincere ranking."""
    pd, table, m = rule.domain, rule.table, rule.domain.m
    stride, size = pd.strides[agent], pd.sizes[agent]
    suspects = sorted(
        cell
        for base, state in zip(pd.fibers(agent), states)
        if state & state >> m
        for cell in range(base, base + size * stride, stride)
    )
    for index in suspects:
        digit = index // stride % size
        base = index - digit * stride
        pos = pd.agents[agent].rankings[digit].position
        sincere = table[index]
        for deviation in range(size):
            other = table[base + deviation * stride]
            if pos[other] < pos[sincere]:
                yield ManipulationWitness(
                    agent=agent,
                    profile=pd.profile_at(index),
                    deviation=deviation,
                    sincere_outcome=sincere,
                    deviating_outcome=other,
                )


def iter_manipulations(rule: Rule) -> Iterator[ManipulationWitness]:
    """Every manipulation, scanned agent-ascending, then profile-index, then
    deviation — so the first yielded witness is the canonical one."""
    for agent in range(rule.domain.n):
        yield from _manipulations(rule, agent, _fibers(rule, agent)[1])


def find_manipulation(rule: Rule) -> Optional[ManipulationWitness]:
    """The canonical first manipulation, or None when the rule is strategy-proof."""
    return next(iter_manipulations(rule), None)


def dictators_of(rule: Rule) -> frozenset[int]:
    """Agents whose sincere report always gets their range-best outcome.

    An agent counts as a dictator when, at every profile, the chosen outcome
    is their most preferred alternative within the rule's attained range, so
    constant rules make every agent a (degenerate) dictator.
    """
    pd = rule.domain
    attained = sum(1 << alt for alt in range_of(rule))
    out: set[int] = set()
    for agent in range(pd.n):
        admissible = OptionSets.of(pd.agents[agent]).admissible
        best = [(fits[attained] & attained).bit_length() - 1 for fits in admissible]
        if all(map(operator.eq, rule.table, map(best.__getitem__, pd.column(agent)))):
            out.add(agent)
    return frozenset(out)


class OptionMaximalityFault(NamedTuple):
    """At ``others``, ``agent`` reporting ranking index ``own`` received
    ``outcome`` although ``better`` was in their option set."""

    agent: int
    others: tuple[int, ...]
    own: int
    outcome: int
    better: int


class OptionFreenessFault(NamedTuple):
    """Option set at ``others`` for ``agent`` contains alternatives ``a, b``
    that the agent's domain does not leave free."""

    agent: int
    others: tuple[int, ...]
    a: int
    b: int


class SpAuditReport(NamedTuple):
    """Structural audit of a rule against the facts that characterize
    strategy-proofness: every realized outcome is the reporter's best
    option-set member, and option-set members are pairwise free."""

    witness: Optional[ManipulationWitness]  # None exactly when strategy-proof
    maximality_faults: tuple[OptionMaximalityFault, ...]
    freeness_faults: tuple[OptionFreenessFault, ...]

    @property
    def clean(self) -> bool:
        return self.witness is None and not self.maximality_faults and not self.freeness_faults


def audit_sp_lemmas(rule: Rule) -> SpAuditReport:
    """Audit option-set maximality and option-set freeness on every subprofile.

    For strategy-proof rules both fault lists are empty; for manipulable rules
    the report pinpoints where the structure breaks.  Like the manipulation
    scan, it reads each cell of a table the caller already holds, so it takes
    no profile guard: callers check theirs before they build or read the rule.
    """
    pd = rule.domain
    witness: Optional[ManipulationWitness] = None
    maximality: list[OptionMaximalityFault] = []
    freeness: list[OptionFreenessFault] = []
    m = pd.m
    for agent in range(pd.n):
        options = OptionSets.of(pd.agents[agent])
        fibers, states = _fibers(rule, agent)
        if witness is None:  # the canonical first one, as find_manipulation's
            witness = next(_manipulations(rule, agent, states), None)
        free = pair_sets(pd.agents[agent]).free
        # Per option set O: each report's best member of O, which is the
        # one member of O the report admits, and the pairs of O not free.
        facts: dict[int, tuple[tuple[int, ...], list[tuple[int, int]]]] = {}
        for outcomes, state, base in zip(fibers, states, pd.fibers(agent)):
            reach = state & (1 << m) - 1
            if reach not in facts:
                best = tuple((fits[reach] & reach).bit_length() - 1 for fits in options.admissible)
                pairs = itertools.combinations([x for x in range(m) if reach >> x & 1], 2)
                facts[reach] = best, [p for p in pairs if p not in free]
            best, unfree = facts[reach]
            if not unfree and outcomes == best:
                continue
            profile = pd.profile_at(base)
            rest = profile[:agent] + profile[agent + 1 :]  # the other agents' reports
            freeness.extend(OptionFreenessFault(agent, rest, a, b) for a, b in unfree)
            if outcomes != best:
                maximality.extend(
                    OptionMaximalityFault(agent, rest, own, outcome, top)
                    for own, (outcome, top) in enumerate(zip(outcomes, best))
                    if outcome != top
                )
    return SpAuditReport(
        witness=witness,
        maximality_faults=tuple(maximality),
        freeness_faults=tuple(freeness),
    )


def serialize_rule(rule: Rule) -> str:
    """Render a rule as the ``.rule`` text format (canonical profile order)."""
    pd = rule.domain
    lines = ["alternatives: " + " ".join(pd.labels)]
    for index, profile in enumerate(pd.iter_profiles()):
        lines.append(f"{format_profile(pd, profile)} -> {pd.labels[rule.table[index]]}")
    return "\n".join(lines) + "\n"


def parse_rule_file(text: str, pd: ProductDomain) -> Rule:
    """Parse a ``.rule`` document against its product domain.

    The profile column is redundant; every line must carry the canonical
    rendering of the profile at its position, which the parser verifies.
    """
    label_to_id = {label: i for i, label in enumerate(pd.labels)}
    expected = pd.profile_count
    table: list[int] = []
    header_seen = False
    profiles = pd.iter_profiles()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if not line.startswith("alternatives:"):
                raise ParseError("a rule file starts with 'alternatives:'", lineno, 1)
            declared = tuple(line[len("alternatives:") :].split())
            if declared != pd.labels:
                raise ParseError(
                    f"alternatives {declared!r} do not match the domain's {pd.labels!r}",
                    lineno,
                    1,
                )
            header_seen = True
            continue
        if "->" not in line:
            raise ParseError("expected 'profile -> outcome'", lineno, 1)
        left, _, right = line.partition("->")
        left = left.strip()
        right = right.strip()
        if len(table) >= expected:
            raise ParseError(f"more than {expected} profile lines", lineno, 1)
        canonical = format_profile(pd, next(profiles))
        if left != canonical:
            raise ParseError(
                f"profile out of canonical order: expected {canonical!r}, found {left!r}",
                lineno,
                1,
            )
        if right not in label_to_id:
            raise ParseError(f"unknown outcome label {right!r}", lineno, 1)
        table.append(label_to_id[right])
    if not header_seen:
        raise ParseError("empty rule file", 1, 1)
    if len(table) != expected:
        raise ParseError(f"expected {expected} profile lines, found {len(table)}", 1, 1)
    return Rule(pd, tuple(table))
