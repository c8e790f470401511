"""Exhaustive and closed-form enumeration of strategy-proof rules.

Two independent routes to the same numbers live here on purpose:

- :func:`enumerate_sp_rules` walks outcome tables with backtracking and
  incremental adjacent-profile constraint checks — brute force, definitional;
- :func:`count_second_step` (with :func:`count_sp_range2`,
  :func:`count_dictatorial` and the monotone-function counts behind
  :func:`dedekind`) computes the same totals in closed form for rules that are
  dictatorial-on-a-block or confined to two outcomes, which is every
  strategy-proof rule on non-conditional blocks.

:func:`second_step_catalog` materializes the closed-form families as explicit
rules, and :func:`verify_impossibility` sweeps domain families checking that
no strategy-proof, non-dictatorial rule attains a range of size other than two.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from decimal import ROUND_FLOOR, Decimal, localcontext
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .classify import AnswerSet, ResponsePartition
from .prefcore import (
    PROFILE_ENUMERATION_LIMIT,
    TABLE_CELL_LIMIT,
    DomainError,
    PreferenceDomain,
    ProductDomain,
    SizeLimitError,
    consistent_rankings,
    pair_sets,
)
from .rules import Rule, audit_sp_lemmas, dictators_of, find_manipulation_within, range_of


def enumerate_sp_rules(
    pd: ProductDomain,
    range_filter: Optional[Iterable[int]] = None,
    max_profiles: int = PROFILE_ENUMERATION_LIMIT,
) -> Iterator[Rule]:
    """All strategy-proof rules on ``pd``, outcome tables in ascending
    lexicographic order, optionally with range restricted to ``range_filter``.

    Backtracking over the canonical profile order: a partial table is extended
    one profile at a time, and each new cell is checked against every already
    assigned profile adjacent to it (differing in one agent's report) — in
    both deviation directions — which is exactly the strategy-proofness
    constraint, so every completed table is strategy-proof and none is missed.
    """
    count = pd.profile_count
    if count > max_profiles:
        raise SizeLimitError(
            f"{count} profiles exceeds the enumeration guard of {max_profiles}"
        )
    m = pd.m
    if range_filter is None:
        outcomes = tuple(range(m))
    else:
        outcomes = tuple(sorted(set(range_filter)))
        for alt in outcomes:
            if not 0 <= alt < m:
                raise DomainError(f"range filter alternative {alt} is outside 0..{m - 1}")
        if not outcomes:
            raise DomainError("range filter must allow at least one outcome")
    full_mask = 0
    for alt in outcomes:
        full_mask |= 1 << alt

    sizes = pd.sizes
    strides = pd.strides
    n = pd.n
    positions = [[r.position for r in d.rankings] for d in pd.agents]

    # ok[i][dt][dq][b] = bitmask of outcomes a permitted at the later profile
    # when the earlier adjacent profile (agent i reporting dq instead of dt)
    # already has outcome b.
    ok: list[list[list[list[int]]]] = []
    for i in range(n):
        pos = positions[i]
        size = sizes[i]
        per_agent = []
        for dt in range(size):
            pt = pos[dt]
            per_dt = []
            for dq in range(size):
                pq = pos[dq]
                per_dq = [0] * m
                for b in range(m):
                    mask = 1 << b
                    for a in range(m):
                        if a != b and pt[a] < pt[b] and pq[b] < pq[a]:
                            mask |= 1 << a
                    per_dq[b] = mask
                per_dt.append(per_dq)
            per_agent.append(per_dt)
        ok.append(per_agent)

    # neighbors[t]: for each already-assigned profile adjacent to t, the index
    # q and the ok-row (indexed by the outcome at q) constraining t's outcome.
    neighbors: list[list[tuple[int, list[int]]]] = []
    for t in range(count):
        entry: list[tuple[int, list[int]]] = []
        rest = t
        digits = []
        for i in range(n - 1, -1, -1):
            rest, digit = divmod(rest, sizes[i])
            digits.append(digit)
        digits.reverse()
        for i in range(n):
            dt = digits[i]
            stride = strides[i]
            rows = ok[i][dt]
            for dq in range(dt):
                entry.append((t - (dt - dq) * stride, rows[dq]))
        neighbors.append(entry)

    table = [0] * count
    masks = [0] * count
    masks[0] = full_mask
    t = 0
    while t >= 0:
        if not masks[t]:
            t -= 1
            continue
        low = masks[t] & -masks[t]
        table[t] = low.bit_length() - 1
        masks[t] ^= low
        if t == count - 1:
            yield Rule(pd, tuple(table))
            continue
        t += 1
        mask = full_mask
        for q, row in neighbors[t]:
            mask &= row[table[q]]
            if not mask:
                break
        masks[t] = mask


_DEDEKIND_TABLE = {
    5: 7581,
    6: 7828354,
    7: 2414682040998,
    8: 56130437228687557907788,
}


@lru_cache(maxsize=None)
def _monotone_function_masks(n: int) -> tuple[int, ...]:
    """All monotone boolean functions of ``n`` variables, each encoded as the
    integer whose bit ``x`` is the value at input vector ``x``; ascending."""
    if n < 0:
        raise DomainError(f"dedekind index must be nonnegative, got {n}")
    if n > 4:
        raise SizeLimitError(f"explicit monotone-function enumeration capped at n=4, got {n}")
    points = 1 << n
    out = []
    for f in range(1 << points):
        good = True
        # monotone iff turning any input bit on never turns the output off
        for x in range(points):
            fx = (f >> x) & 1
            for j in range(n):
                if (x >> j) & 1:
                    continue
                if fx > (f >> (x | (1 << j))) & 1:
                    good = False
                    break
            if not good:
                break
        if good:
            out.append(f)
    return tuple(out)


@lru_cache(maxsize=None)
def dedekind(n: int) -> int:
    """The number of monotone boolean functions of ``n`` variables.

    Computed by brute force for ``n <= 4``; values for ``5..8`` come from the
    published table; larger ``n`` raises the size guard.
    """
    if n < 0:
        raise DomainError(f"dedekind index must be nonnegative, got {n}")
    if n <= 4:
        return len(_monotone_function_masks(n))
    if n in _DEDEKIND_TABLE:
        return _DEDEKIND_TABLE[n]
    raise SizeLimitError(f"dedekind numbers beyond n=8 are not available (got n={n})")


def _check_same_m(domains: Sequence[PreferenceDomain]) -> int:
    if not domains:
        raise DomainError("need at least one agent domain")
    m = domains[0].m
    if any(d.m != m for d in domains):
        raise DomainError("all agent domains must share the alternative set")
    return m


def count_sp_range2(domains: Sequence[PreferenceDomain], pair: Sequence[int]) -> int:
    """How many strategy-proof rules attain exactly the two given outcomes.

    Such a rule is determined by a monotone function of the votes of the
    agents whose domain leaves the pair free (everyone else's preference over
    the pair never changes), minus the two constant functions, whose range is
    a single outcome.
    """
    m = _check_same_m(domains)
    a, b = pair
    if not (0 <= a < m and 0 <= b < m) or a == b:
        raise DomainError(f"invalid alternative pair {tuple(pair)!r}")
    lo, hi = min(a, b), max(a, b)
    free_count = sum(1 for d in domains if (lo, hi) in pair_sets(d).free)
    return dedekind(free_count) - 2


def pair_vote_rules(pd: ProductDomain, pair: Sequence[int]) -> tuple[Rule, ...]:
    """The strategy-proof rules with range inside ``pair`` that are not
    constant, materialized as explicit rules; canonical order (ascending
    monotone-function truth table).  This is the explicit-route counterpart of
    :func:`count_sp_range2`."""
    m = pd.m
    a, b = pair
    if not (0 <= a < m and 0 <= b < m) or a == b:
        raise DomainError(f"invalid alternative pair {tuple(pair)!r}")
    lo, hi = min(a, b), max(a, b)
    free_agents = [i for i, d in enumerate(pd.agents) if (lo, hi) in pair_sets(d).free]
    k = len(free_agents)
    points = 1 << k
    count = pd.profile_count
    if count > TABLE_CELL_LIMIT:
        raise SizeLimitError("product domain too large to materialize vote rules")
    # vote vector index per profile: first free agent is the high bit;
    # bit set means the agent prefers lo to hi.
    vote_index = [0] * count
    for order, agent in enumerate(free_agents):
        shift = k - 1 - order
        stride = pd.strides[agent]
        size = pd.sizes[agent]
        prefers_lo = [1 if r.matrix[lo][hi] else 0 for r in pd.agents[agent].rankings]
        for index in range(count):
            vote_index[index] |= prefers_lo[(index // stride) % size] << shift
    rules = []
    constants = (0, (1 << points) - 1)
    for f in _monotone_function_masks(k):
        if f in constants:
            continue
        table = tuple(lo if (f >> vote_index[i]) & 1 else hi for i in range(count))
        rules.append(Rule(pd, table))
    return tuple(rules)


def dictatorial_rules(pd: ProductDomain, k: int) -> tuple[Rule, ...]:
    """Strategy-proof rules that pick some agent's best alternative out of a
    fixed size-``k`` range the agent can fully steer; deduplicated by outcome
    table, canonical order (agent, then range)."""
    m = pd.m
    if not 1 <= k <= m:
        raise DomainError(f"range size must be in 1..{m}, got {k}")
    count = pd.profile_count
    if count > TABLE_CELL_LIMIT:
        raise SizeLimitError("product domain too large to materialize dictatorial rules")
    seen: set[tuple[int, ...]] = set()
    out: list[Rule] = []
    for agent in range(pd.n):
        domain = pd.agents[agent]
        stride = pd.strides[agent]
        size = pd.sizes[agent]
        for combo in itertools.combinations(range(m), k):
            best = [min(combo, key=lambda alt: r.position[alt]) for r in domain.rankings]
            if set(best) != set(combo):
                continue  # the agent cannot steer the whole range
            table = tuple(best[(index // stride) % size] for index in range(count))
            if table in seen:
                continue
            seen.add(table)
            out.append(Rule(pd, table))
    return tuple(out)


def count_dictatorial(domains: Sequence[PreferenceDomain], k: int) -> int:
    """How many distinct rules pick a fixed agent's best of a steerable
    size-``k`` range (extensional identity: equal tables count once)."""
    _check_same_m(domains)
    return len(dictatorial_rules(ProductDomain.of(domains), k))


def second_step_catalog(pd: ProductDomain) -> tuple[Rule, ...]:
    """Every rule that is constant, a two-outcome monotone vote rule, or a
    steerable dictatorship on ``pd``, deduplicated, in canonical order.

    On non-conditional products this is exactly the strategy-proof rules (the
    impossibility theorem rules out anything else), which makes the catalog the
    explicit cross-check of :func:`count_second_step`'s closed-form subtotal.
    """
    from .rules import constant_rule  # local import to keep module load light

    m = pd.m
    out: list[Rule] = [constant_rule(pd, alt) for alt in range(m)]
    seen: set[tuple[int, ...]] = {r.table for r in out}
    for a in range(m):
        for b in range(a + 1, m):
            for rule in pair_vote_rules(pd, (a, b)):
                if rule.table not in seen:
                    seen.add(rule.table)
                    out.append(rule)
    for k in range(3, m + 1):
        for rule in dictatorial_rules(pd, k):
            if rule.table not in seen:
                seen.add(rule.table)
                out.append(rule)
    return tuple(out)


def decimal_digit_count(value: int) -> int:
    """Number of decimal digits of a nonnegative integer, without ``str()``."""
    if value < 0:
        raise DomainError("digit count needs a nonnegative integer")
    if value == 0:
        return 1
    digits = max(1, int(value.bit_length() * 0.30103) - 1)
    while 10**digits <= value:
        digits += 1
    return digits


def power_digit_count(base: int, exponent: int) -> int:
    """Number of decimal digits of ``base ** exponent``, exactly.

    Uses exact integer comparison up to 100k digits and 80-digit decimal
    logarithms beyond (safe for bases that are not powers of ten).
    """
    if base < 1 or exponent < 0:
        raise DomainError("power digit count needs base >= 1 and exponent >= 0")
    if base == 1 or exponent == 0:
        return 1
    approx = exponent * math.log10(base)
    if approx <= 100_000:
        return decimal_digit_count(base**exponent)
    with localcontext() as ctx:
        ctx.prec = 80
        exact = Decimal(exponent) * Decimal(base).log10()
        return int(exact.to_integral_value(rounding=ROUND_FLOOR)) + 1


@dataclass(frozen=True)
class PairVoteCount:
    """Closed-form count of two-outcome rules for one unordered pair."""

    pair: tuple[int, int]
    free_agents: tuple[int, ...]
    count: int


@dataclass(frozen=True)
class BlockCount:
    """Subrule counts for one response profile (one block product)."""

    answers: tuple[AnswerSet, ...]
    block_sizes: tuple[int, ...]
    constants: int
    pair_counts: tuple[PairVoteCount, ...]
    dictatorial: tuple[tuple[int, int], ...]  # (range size, count), k >= 3
    subtotal: int


@dataclass(frozen=True)
class SubruleCountReport:
    """Closed-form count of strategy-proof subrule assignments."""

    m: int
    profile_count: int
    naive_digits: int  # digits of m ** profile_count
    blocks: tuple[BlockCount, ...]
    product: int


def count_second_step(partition: ResponsePartition) -> SubruleCountReport:
    """Count the strategy-proof second-step assignments of a response
    partition: for every realizable response profile, the number of constant,
    two-outcome, and steerable-dictatorship subrules on its block product, and
    the grand product over response profiles (exact)."""
    m = partition.product.m
    blocks: list[BlockCount] = []
    product = 1
    # Lazily, block by block: the partition's cached block products would hold
    # one ProductDomain per response profile for the whole count.
    for answers, block_domains in zip(
        itertools.product(*partition.answers), itertools.product(*partition.blocks)
    ):
        pair_counts = []
        pair_total = 0
        for a in range(m):
            for b in range(a + 1, m):
                free_agents = tuple(
                    i for i, d in enumerate(block_domains) if (a, b) in pair_sets(d).free
                )
                cnt = dedekind(len(free_agents)) - 2
                pair_counts.append(PairVoteCount((a, b), free_agents, cnt))
                pair_total += cnt
        dict_counts = []
        dict_total = 0
        for k in range(3, m + 1):
            cnt = count_dictatorial(block_domains, k)
            dict_counts.append((k, cnt))
            dict_total += cnt
        subtotal = m + pair_total + dict_total
        blocks.append(
            BlockCount(
                answers=answers,
                block_sizes=tuple(len(b) for b in block_domains),
                constants=m,
                pair_counts=tuple(pair_counts),
                dictatorial=tuple(dict_counts),
                subtotal=subtotal,
            )
        )
        product *= subtotal

    profile_count = partition.product.profile_count
    return SubruleCountReport(
        m=m,
        profile_count=profile_count,
        naive_digits=power_digit_count(m, profile_count),
        blocks=tuple(blocks),
        product=product,
    )


def nonconditional_domains(m: int) -> tuple[PreferenceDomain, ...]:
    """Every non-conditional domain over ``m`` alternatives (each is the
    closure of an acyclic orientation assignment of some unordered pairs),
    deduplicated and canonically ordered.  Guarded to ``m <= 4``."""
    if m > 4:
        raise SizeLimitError(f"non-conditional domain enumeration capped at m=4, got {m}")
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    seen: dict[tuple, PreferenceDomain] = {}
    for orientation in itertools.product((0, 1, 2), repeat=len(pairs)):
        fixed = []
        for (a, b), way in zip(pairs, orientation):
            if way == 1:
                fixed.append((a, b))
            elif way == 2:
                fixed.append((b, a))
        survivors = consistent_rankings(fixed, m)
        if not survivors:
            continue
        key = tuple(r.order for r in survivors)
        if key not in seen:
            seen[key] = PreferenceDomain(m, survivors)
    return tuple(seen[key] for key in sorted(seen, key=lambda k: (len(k), k)))


@dataclass(frozen=True)
class TheoremViolation:
    """A strategy-proof, non-dictatorial rule whose range size is not two."""

    instance: int
    rule: Rule


@dataclass(frozen=True)
class AuditFault:
    instance: int
    rule: Rule
    reason: str


@dataclass(frozen=True)
class ImpossibilityReport:
    instances: int
    rules_checked: int
    violations: tuple[TheoremViolation, ...]
    audited: int
    audit_faults: tuple[AuditFault, ...]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.audit_faults


def _violates_impossibility(rule: Rule) -> bool:
    return len(range_of(rule)) != 2 and not dictators_of(rule)


def _audit_rule(rule: Rule, rng: random.Random, restriction_cap: int = 4096) -> Optional[str]:
    """Audit one strategy-proof rule: the option-set facts must hold, and every
    sub-product restriction must stay strategy-proof (sampled above the cap)."""
    report = audit_sp_lemmas(rule)
    if not report.clean:
        return (
            f"audit found {len(report.maximality_faults)} maximality and "
            f"{len(report.freeness_faults)} freeness fault(s)"
        )
    pd = rule.domain
    per_agent: list[list[tuple[int, ...]]] = []
    total = 1
    for size in pd.sizes:
        subsets = [
            combo
            for r in range(1, size + 1)
            for combo in itertools.combinations(range(size), r)
        ]
        per_agent.append(subsets)
        total *= len(subsets)
    if total <= restriction_cap:
        combos: Iterable[tuple[tuple[int, ...], ...]] = itertools.product(*per_agent)
    else:
        combos = (
            tuple(subsets[rng.randrange(len(subsets))] for subsets in per_agent)
            for _ in range(restriction_cap // 8)
        )
    for subset_choice in combos:
        witness = find_manipulation_within(rule, subset_choice)
        if witness is not None:
            return f"restriction {subset_choice!r} is manipulable: {witness}"
    return None


def verify_impossibility(
    family: Iterable[ProductDomain],
    max_profiles: int = PROFILE_ENUMERATION_LIMIT,
    audit_sample: int = 0,
    seed: Optional[int] = None,
) -> ImpossibilityReport:
    """Check a family of product domains for counterexamples to the
    impossibility claim: a strategy-proof rule with no dictator must attain
    exactly two outcomes.  Violations are reported, not raised — on products
    of non-conditional domains none exist, while conditional inputs are
    expected to produce them.

    With ``audit_sample > 0``, that many strategy-proof rules are sampled
    (reproducibly, via ``seed``) across the family and audited: option-set
    maximality and freeness on every subprofile, plus strategy-proofness of
    sub-product restrictions (exhaustively up to a cap, sampled beyond it).
    """
    instances = list(family)
    rules_checked = 0
    violations: list[TheoremViolation] = []
    pool_for_audit: list[tuple[int, Rule]] = []
    for idx, pd in enumerate(instances):
        rules = list(enumerate_sp_rules(pd, max_profiles=max_profiles))
        rules_checked += len(rules)
        violations.extend(TheoremViolation(idx, r) for r in rules if _violates_impossibility(r))
        if audit_sample > 0:
            pool_for_audit.extend((idx, r) for r in rules)

    audited = 0
    faults: list[AuditFault] = []
    if audit_sample > 0 and pool_for_audit:
        rng = random.Random(seed)
        chosen = (
            pool_for_audit
            if len(pool_for_audit) <= audit_sample
            else rng.sample(pool_for_audit, audit_sample)
        )
        for idx, rule in chosen:
            reason = _audit_rule(rule, rng)
            audited += 1
            if reason is not None:
                faults.append(AuditFault(idx, rule, reason))

    return ImpossibilityReport(
        instances=len(instances),
        rules_checked=rules_checked,
        violations=tuple(violations),
        audited=audited,
        audit_faults=tuple(faults),
    )
