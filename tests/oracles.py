"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written by a different route than the library:
plain permutation filters, dictionary-based profile lookups, and full
brute-force scans.  Slow but obviously correct, and only run at tiny scale.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from spdom import (
    PROFILE_ENUMERATION_LIMIT,
    DomainError,
    ImpossibilityReport,
    OrderedPair,
    PreferenceDomain,
    ProductDomain,
    Ranking,
    RestrictionMap,
    Rule,
    TheoremViolation,
    UnsatisfiableRestrictionError,
    all_rankings,
    dictators_of,
    enumerate_sp_rules,
    pair_sets,
    range_of,
    relabel_domain,
    relabel_map,
)
from spdom.counting import AuditFault, _audit_rule
from spdom.prefcore import _check_pair


# ---------------------------------------------------------------------------
# Domain families


def prefix_interval_orders(axis: Sequence[int]) -> list[tuple[int, ...]]:
    """Single-peaked orders via the prefix characterization: a ranking is
    single-peaked on the axis exactly when each of its top-k sets occupies
    consecutive axis positions."""
    m = len(axis)
    pos = {alt: i for i, alt in enumerate(axis)}
    out = []
    for order in itertools.permutations(range(m)):
        ok = True
        for k in range(1, m + 1):
            spots = sorted(pos[alt] for alt in order[:k])
            if spots[-1] - spots[0] != k - 1:
                ok = False
                break
        if ok:
            out.append(order)
    return out


def reversed_prefix_interval_orders(axis: Sequence[int]) -> list[tuple[int, ...]]:
    """Single-dipped orders: exactly the reverses of single-peaked orders."""
    return sorted(tuple(reversed(order)) for order in prefix_interval_orders(axis))


def orders_satisfying_pairs(m: int, pairs: Iterable[tuple[int, int]]) -> list[tuple[int, ...]]:
    """All orders (best first) placing ``a`` before ``b`` for each pair (a, b)."""
    pairs = list(pairs)
    out = []
    for order in itertools.permutations(range(m)):
        position = {alt: i for i, alt in enumerate(order)}
        if all(position[a] < position[b] for a, b in pairs):
            out.append(order)
    return out


def count_strict_partial_orders(m: int) -> int:
    """Number of strict partial orders on m labeled points, by scanning every
    subset of the off-diagonal pairs for irreflexivity + transitivity."""
    cells = [(a, b) for a in range(m) for b in range(m) if a != b]
    count = 0
    for bits in itertools.product((False, True), repeat=len(cells)):
        rel = {cell for cell, bit in zip(cells, bits) if bit}
        if all(
            ((a, c) in rel)
            for (a, b) in rel
            for (b2, c) in rel
            if b == b2 and a != c
        ) and not any((a, b) in rel and (b, a) in rel for (a, b) in rel):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Restriction-map semantics


def keeps_ranking(
    order: Sequence[int],
    base: Iterable[tuple[int, int]],
    conditionals: Iterable[tuple[Iterable[tuple[int, int]], Iterable[tuple[int, int]]]],
) -> bool:
    """Plain-loop membership test for a restriction map."""
    position = {alt: i for i, alt in enumerate(order)}

    def holds(pair: tuple[int, int]) -> bool:
        a, b = pair
        return position[a] < position[b]

    if not all(holds(p) for p in base):
        return False
    for antecedent, conclusions in conditionals:
        if all(holds(p) for p in antecedent) and not all(holds(c) for c in conclusions):
            return False
    return True


@dataclass(frozen=True)
class DomainRestriction:
    """One removal predicate: drop rankings satisfying ``antecedent`` whose
    ``conclusion`` is reversed.  An empty antecedent makes it unconditional."""

    antecedent: frozenset[OrderedPair]
    conclusion: OrderedPair

    def removes(self, r: Ranking) -> bool:
        return r.satisfies(self.antecedent) and r.matrix[self.conclusion.bottom][
            self.conclusion.top
        ]


def apply_restriction(d: PreferenceDomain, restriction: DomainRestriction) -> PreferenceDomain:
    """Filter ``d`` by one restriction; error if nothing survives."""
    for p in restriction.antecedent:
        _check_pair(p, d.m)
    _check_pair(restriction.conclusion, d.m)
    survivors = [r for r in d.rankings if not restriction.removes(r)]
    if not survivors:
        raise UnsatisfiableRestrictionError("restriction removes every ranking of the domain")
    return PreferenceDomain(d.m, tuple(survivors))


def classify_by_scan(d: PreferenceDomain, scan: str = "default") -> RestrictionMap:
    """``classify``'s choice rule on lists of rankings: every antecedent from
    ``itertools.combinations`` of the excluded ranking's own pairs, with its
    member mask recomputed from scratch, and ``cur`` filtered ranking by
    ranking."""
    if scan == "reversed":
        perm = tuple(range(d.m - 1, -1, -1))
        mirrored = classify_by_scan(relabel_domain(d, perm))
        return relabel_map(mirrored, perm)

    m = d.m
    target = set(d.rankings)
    base: list[OrderedPair] = []
    cur: list[Ranking] = list(all_rankings(m))

    fixed = pair_sets(d).fixed
    for a in range(m):
        if len(cur) == len(d):
            break
        for b in range(a + 1, m):
            if OrderedPair(a, b) in fixed:
                pair = OrderedPair(a, b)
            elif OrderedPair(b, a) in fixed:
                pair = OrderedPair(b, a)
            else:
                continue
            base.append(pair)
            cur = [r for r in cur if r.matrix[pair.top][pair.bottom]]
            if len(cur) == len(d):
                break

    conditionals: list[tuple[frozenset[OrderedPair], OrderedPair]] = []
    members = d.rankings
    full_mask = (1 << len(members)) - 1
    sat_mask = {
        OrderedPair(a, b): sum(1 << i for i, r in enumerate(members) if r.matrix[a][b])
        for a in range(m)
        for b in range(m)
        if a != b
    }
    free_pairs = sorted(pair_sets(d).free)
    while len(cur) != len(d):
        excluded = next(r for r in cur if r not in target)
        own_pairs = excluded.ordered_pairs()
        conclusions = sorted(
            OrderedPair(b, a) if excluded.matrix[a][b] else OrderedPair(a, b)
            for (a, b) in free_pairs
        )
        chosen: Optional[tuple[frozenset[OrderedPair], OrderedPair]] = None
        for size in range(1, len(own_pairs) + 1):
            for antecedent in itertools.combinations(own_pairs, size):
                mask = full_mask
                for p in antecedent:
                    mask &= sat_mask[p]
                for c in conclusions:
                    if mask & ~sat_mask[c] == 0:
                        chosen = (frozenset(antecedent), c)
                        break
                if chosen:
                    break
            if chosen:
                break
        assert chosen is not None
        antecedent, conclusion = chosen
        conditionals.append(chosen)
        cur = [
            r
            for r in cur
            if not (r.satisfies(antecedent) and r.matrix[conclusion.bottom][conclusion.top])
        ]

    return RestrictionMap.of(m, base, ((a, (c,)) for a, c in conditionals))


# ---------------------------------------------------------------------------
# Strategy-proofness by dictionary lookup


def outcome_map(rule: Rule) -> dict[tuple[int, ...], int]:
    """Profile-tuple -> outcome, built from the canonical product order."""
    pd = rule.domain
    coords = itertools.product(*(range(len(d)) for d in pd.agents))
    return dict(zip(coords, rule.table))


def sp_violations(rule: Rule) -> list[tuple[int, tuple[int, ...], int]]:
    """Every (agent, profile, deviation) manipulation, by triple loop."""
    pd = rule.domain
    table = outcome_map(rule)
    out = []
    for agent in range(pd.n):
        rankings = pd.agents[agent].rankings
        for profile, sincere in table.items():
            truthful = rankings[profile[agent]]
            for deviation in range(len(rankings)):
                if deviation == profile[agent]:
                    continue
                shifted = list(profile)
                shifted[agent] = deviation
                other = table[tuple(shifted)]
                if truthful.prefers(other, sincere):
                    out.append((agent, profile, deviation))
    return out


def is_sp(rule: Rule) -> bool:
    return not sp_violations(rule)


def all_sp_tables(
    pd: ProductDomain, outcomes: Optional[Sequence[int]] = None
) -> list[tuple[int, ...]]:
    """Brute force every outcome table; keep the strategy-proof ones.
    Only usable when ``len(outcomes) ** profile_count`` is tiny."""
    if outcomes is None:
        outcomes = range(pd.m)
    found = []
    for table in itertools.product(outcomes, repeat=pd.profile_count):
        if is_sp(Rule(pd, table)):
            found.append(table)
    return found


def dictatorial_tables(pd: ProductDomain, k: int) -> set[tuple[int, ...]]:
    """Tables of dictatorships steered to a k-alternative range, directly:
    for each agent and each k-set attaining all k outcomes."""
    out: set[tuple[int, ...]] = set()
    for agent in range(pd.n):
        for combo in itertools.combinations(range(pd.m), k):
            table = []
            for coords in itertools.product(*(range(len(d)) for d in pd.agents)):
                ranking = pd.agents[agent].rankings[coords[agent]]
                table.append(min(combo, key=lambda alt: ranking.position[alt]))
            if len(set(table)) == k:
                out.add(tuple(table))
    return out


def monotone_boolean_function_count(n: int) -> int:
    """Dedekind numbers by scanning all 2**(2**n) boolean functions (n <= 4)."""
    points = 1 << n
    count = 0
    for bits in range(1 << points):
        ok = True
        for x in range(points):
            for y in range(points):
                if (x & y) == x and ((bits >> x) & 1) > ((bits >> y) & 1):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def exactly_pair_sp_count(pd: ProductDomain, pair: tuple[int, int]) -> int:
    """Strategy-proof rules whose attained range is exactly {a, b}, counted by
    brute force over the two-outcome tables."""
    a, b = pair
    both = {a, b}
    return sum(1 for table in all_sp_tables(pd, outcomes=(a, b)) if set(table) == both)


# ---------------------------------------------------------------------------
# Restrictions and impossibility sweeps, one instance at a time


def restrict_rule(rule: Rule, subdomains: Sequence[PreferenceDomain]) -> Rule:
    """The same rule on a sub-product (each agent's domain shrunk to a subset)."""
    pd = rule.domain
    if len(subdomains) != pd.n:
        raise DomainError(f"need {pd.n} subdomains, got {len(subdomains)}")
    index_maps: list[list[int]] = []
    for agent, sub in enumerate(subdomains):
        parent = pd.agents[agent]
        if not sub.is_subdomain_of(parent):
            raise DomainError(f"agent {agent}: not a subdomain of the rule's domain")
        index_maps.append([parent.index(r) for r in sub.rankings])
    new_pd = pd.with_agents(subdomains)
    strides = pd.strides
    table = []
    for profile in itertools.product(*index_maps):
        table.append(rule.table[sum(d * s for d, s in zip(profile, strides))])
    return Rule(new_pd, tuple(table))


def first_manipulation_within(
    rule: Rule, subsets: Sequence[Sequence[int]]
) -> Optional[tuple[int, tuple[int, ...], int, int, int]]:
    """(agent, profile, deviation, sincere, deviating) of the first
    manipulation inside the per-agent index subsets: agents ascending, the
    other agents' reports in subset-product order, then the sincere report
    and the deviation in subset order — by dictionary lookups."""
    pd = rule.domain
    table = outcome_map(rule)
    for agent in range(pd.n):
        others = [subsets[i] for i in range(pd.n) if i != agent]
        for rest in itertools.product(*others):
            for own in subsets[agent]:
                profile = list(rest)
                profile.insert(agent, own)
                sincere = table[tuple(profile)]
                ranking = pd.agents[agent].rankings[own]
                for deviation in subsets[agent]:
                    if deviation == own:
                        continue
                    profile[agent] = deviation
                    other = table[tuple(profile)]
                    profile[agent] = own
                    if ranking.prefers(other, sincere):
                        return agent, tuple(profile), deviation, sincere, other
    return None


def sweep_rules(
    instances: Sequence[ProductDomain], max_profiles: int = PROFILE_ENUMERATION_LIMIT
) -> list[list[Rule]]:
    """Every instance's strategy-proof rules, enumerated one instance at a time."""
    return [list(enumerate_sp_rules(pd, max_profiles=max_profiles)) for pd in instances]


def audit_per_instance(
    rules: Sequence[Sequence[Rule]], audit_sample: int, seed: Optional[int]
) -> tuple[int, tuple[AuditFault, ...]]:
    """(audited, faults) of the audit sample drawn from one pool holding
    every instance's rules in instance order."""
    pool = [(idx, rule) for idx, found in enumerate(rules) for rule in found]
    if audit_sample <= 0 or not pool:
        return 0, ()
    rng = random.Random(seed)
    chosen = pool if len(pool) <= audit_sample else rng.sample(pool, audit_sample)
    faults = []
    for idx, rule in chosen:
        reason = _audit_rule(rule, rng)
        if reason is not None:
            faults.append(AuditFault(idx, rule, reason))
    return len(chosen), tuple(faults)


def verify_impossibility_per_instance(
    instances: Sequence[ProductDomain],
    max_profiles: int = PROFILE_ENUMERATION_LIMIT,
    audit_sample: int = 0,
    seed: Optional[int] = None,
    rules: Optional[Sequence[Sequence[Rule]]] = None,
) -> ImpossibilityReport:
    """The impossibility sweep without symmetry: every instance enumerated
    and checked, the audit sample drawn from all rules at once.  ``rules``
    may hold :func:`sweep_rules` of the same instances."""
    if rules is None:
        rules = sweep_rules(instances, max_profiles)
    violations = tuple(
        TheoremViolation(idx, rule)
        for idx, found in enumerate(rules)
        for rule in found
        if len(range_of(rule)) != 2 and not dictators_of(rule)
    )
    audited, faults = audit_per_instance(rules, audit_sample, seed)
    return ImpossibilityReport(
        instances=len(instances),
        rules_checked=sum(len(found) for found in rules),
        violations=violations,
        audited=audited,
        audit_faults=faults,
    )
