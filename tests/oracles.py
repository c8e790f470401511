"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written by a different route than the library:
plain permutation filters, dictionary-based profile lookups, and full
brute-force scans.  Slow but obviously correct, and only run at tiny scale.
The last sections hold routines no command uses but the tests still check
the library against: closed-form answer blocks and two-outcome counts, the
dictatorship and option-set helpers, gluing block subrules into a full rule,
and the ``.assign`` reader.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from spdom import (
    PROFILE_ENUMERATION_LIMIT,
    AnswerSet,
    Catalog,
    DomainError,
    ImpossibilityReport,
    ManipulationWitness,
    OrderedPair,
    ParseError,
    PreferenceDomain,
    ProductDomain,
    Ranking,
    ResponsePartition,
    RestrictionMap,
    Rule,
    SearchResult,
    TheoremViolation,
    UnsatisfiableRestrictionError,
    all_rankings,
    consistent_rankings,
    dedekind,
    dictators_of,
    enumerate_sp_rules,
    find_manipulation,
    iter_manipulations,
    pair_sets,
    parse_rule_file,
    range_of,
    relabel_domain,
    relabel_map,
)
from spdom.domfile import format_response
from spdom.orbits import AuditFault, _audit_rule, _check_same_m
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


def single_peaked_by_filter(axis: Sequence[int]) -> list[tuple[int, ...]]:
    """Single-peaked orders by the definition, canonical order: every ranking
    of the m! that prefers t to u whenever t lies between u and the peak."""
    m = len(axis)
    pos = {alt: i for i, alt in enumerate(axis)}
    out = []
    for r in all_rankings(m):
        peak = pos[r.top]
        if all(
            r.prefers(t, u)
            for t in range(m)
            for u in range(m)
            if t != u and (peak <= pos[t] < pos[u] or pos[u] < pos[t] <= peak)
        ):
            out.append(r.order)
    return out


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
        return r.satisfies(self.antecedent) and r.prefers(*self.conclusion.swapped())


def apply_restriction(d: PreferenceDomain, restriction: DomainRestriction) -> PreferenceDomain:
    """Filter ``d`` by one restriction; error if nothing survives."""
    for p in restriction.antecedent:
        _check_pair(p, d.m)
    _check_pair(restriction.conclusion, d.m)
    survivors = [r for r in d.rankings if not restriction.removes(r)]
    if not survivors:
        raise UnsatisfiableRestrictionError("restriction removes every ranking of the domain")
    return PreferenceDomain(d.m, tuple(survivors))


def pair_masks_by_ranking(m: int) -> dict[OrderedPair, int]:
    """Per ordered pair, the bitmask of the rankings of ``all_rankings(m)``
    (bit i for the i-th) that rank ``top`` above ``bottom``, set one ranking
    and one pair at a time."""
    masks = {OrderedPair(a, b): 0 for a in range(m) for b in range(m) if a != b}
    for i, r in enumerate(all_rankings(m)):
        for j, top in enumerate(r.order):
            for bottom in r.order[j + 1 :]:
                masks[top, bottom] |= 1 << i
    return masks


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
            cur = [r for r in cur if r.prefers(*pair)]
            if len(cur) == len(d):
                break

    conditionals: list[tuple[frozenset[OrderedPair], OrderedPair]] = []
    members = d.rankings
    full_mask = (1 << len(members)) - 1
    sat_mask = {
        OrderedPair(a, b): sum(1 << i for i, r in enumerate(members) if r.prefers(a, b))
        for a in range(m)
        for b in range(m)
        if a != b
    }
    free_pairs = sorted(pair_sets(d).free)
    while len(cur) != len(d):
        excluded = next(r for r in cur if r not in target)
        own_pairs = excluded.ordered_pairs()
        conclusions = sorted(
            OrderedPair(b, a) if excluded.prefers(a, b) else OrderedPair(a, b)
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
            if not (r.satisfies(antecedent) and r.prefers(*conclusion.swapped()))
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


def all_sp_tables(pd: ProductDomain, outcomes: Optional[Sequence[int]] = None) -> list[bytes]:
    """Brute force every outcome table; keep the strategy-proof ones.
    Only usable when ``len(outcomes) ** profile_count`` is tiny."""
    if outcomes is None:
        outcomes = range(pd.m)
    found = []
    for table in itertools.product(outcomes, repeat=pd.profile_count):
        if is_sp(Rule(pd, table)):
            found.append(bytes(table))
    return found


def dictatorial_tables(pd: ProductDomain, k: int) -> set[bytes]:
    """Tables of dictatorships steered to a k-alternative range, directly:
    for each agent and each k-set attaining all k outcomes."""
    out: set[bytes] = set()
    for agent in range(pd.n):
        for combo in itertools.combinations(range(pd.m), k):
            table = []
            for coords in itertools.product(*(range(len(d)) for d in pd.agents)):
                ranking = pd.agents[agent].rankings[coords[agent]]
                table.append(min(combo, key=lambda alt: ranking.position[alt]))
            if len(set(table)) == k:
                out.add(bytes(table))
    return out


def monotone_boolean_functions(n: int) -> list[int]:
    """Truth tables (bit x: the value at point x) of the monotone boolean
    functions of n variables, by scanning all 2**(2**n) functions (n <= 4)."""
    points = 1 << n
    out = []
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
            out.append(bits)
    return out


def monotone_boolean_function_count(n: int) -> int:
    """Dedekind numbers by scanning all boolean functions (n <= 4)."""
    return len(monotone_boolean_functions(n))


def single_peaked_sp_count(m: int, n: int) -> int:
    """Strategy-proof rules on n identical single-peaked agents over one axis
    of m alternatives, by closed form (n <= 4).

    A strategy-proof rule with range R, |R| = k, is a generalized median
    voter scheme on R (Moulin 1980; Barberà, Gul and Stacchetti 1993): k - 1
    nested thresholds, each a monotone family of winning coalitions that
    holds the grand coalition and not the empty one.  So the count is
    sum_k C(m, k) * W(k - 1), where W(j) counts the chains
    F_1 <= ... <= F_j of such families and W(0) = 1.  For n = 2 this is
    m (m + 1) 2**(m - 2).
    """
    grand = 1 << ((1 << n) - 1)  # the bit of the grand coalition
    families = [f for f in monotone_boolean_functions(n) if f & grand and not f & 1]
    ending = dict.fromkeys(families, 1)  # chains F_1 <= ... <= F_(k-1), by F_(k-1)
    total = m  # k = 1: the m constants, W(0) = 1
    for k in range(2, m + 1):
        total += math.comb(m, k) * sum(ending.values())
        ending = {g: sum(c for f, c in ending.items() if f & ~g == 0) for g in families}
    return total


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
        if not set(sub.rankings) <= set(parent.rankings):
            raise DomainError(f"agent {agent}: not a subdomain of the rule's domain")
        index_maps.append([parent.rankings.index(r) for r in sub.rankings])
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


def burnside_orbit_count(base: Sequence[PreferenceDomain], agents: int) -> int:
    """The number of orbits of ``agents``-tuples of ``base`` domains under
    permuting the agents and relabeling the alternatives, by Burnside's
    lemma: the mean, over the pairs (agent permutation s, relabeling p), of
    the tuples each pair fixes.  Along a cycle of s of length L a fixed tuple
    repeats one domain relabeled by p at each step, which must be a domain
    that p^L fixes; so a pair fixes the product, over the cycles of s, of
    the counts of such domains."""
    m = base[0].m
    keys = [frozenset(r.order for r in d.rankings) for d in base]
    total = 0
    for p in itertools.permutations(range(m)):
        fixed = []  # fixed[L - 1]: the base domains that p^L fixes
        power = tuple(range(m))
        for _ in range(agents):
            power = tuple(p[alt] for alt in power)
            fixed.append(
                sum(frozenset(tuple(power[alt] for alt in o) for o in key) == key for key in keys)
            )
        for s in itertools.permutations(range(agents)):
            seen: set[int] = set()
            count = 1
            for start in range(agents):
                length = 0
                j = start
                while j not in seen:
                    seen.add(j)
                    j = s[j]
                    length += 1
                if length:
                    count *= fixed[length - 1]
            total += count
    order = math.factorial(agents) * math.factorial(m)
    assert total % order == 0
    return total // order


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
        reason = _audit_rule(rule)
        if reason is not None:
            faults.append(AuditFault(idx, reason))
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
        TheoremViolation(idx, rule.table)
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


# ---------------------------------------------------------------------------
# Library routines no command uses, kept as second routes for the tests


def satisfied_antecedents(r: Ranking, map_: RestrictionMap) -> AnswerSet:
    """The condition pairs of ``map_`` that ``r`` ranks top-over-bottom: one
    ranking at a time, where :func:`partition_by_answers` splits bitmasks."""
    return frozenset(p for p in map_.conditions if r.prefers(p.top, p.bottom))


def _check_answers(map_: RestrictionMap, answers: Iterable[Sequence[int]]) -> frozenset[OrderedPair]:
    conditions = map_.conditions
    checked = frozenset(_check_pair(p, map_.m) for p in answers)
    for p in checked:
        if p not in conditions:
            raise DomainError(f"answer pair {tuple(p)} is not one of the map's conditions")
        if p.swapped() in checked:
            raise DomainError(f"answer set contains {tuple(p)} and its reverse")
    return checked


def answer_closure_pairs(map_: RestrictionMap, answers: Iterable[Sequence[int]]) -> frozenset[OrderedPair]:
    """Fixed pairs characterizing the block of an answer set, by formula.

    The block of answer set ``B`` is the closure of: the base, ``B`` itself,
    the reversals of the unanswered conditions, and every conclusion whose
    antecedent lies inside ``B``.  This is the second, closed-form route to
    the same block that :func:`partition_by_answers` computes by filtering.
    """
    checked = _check_answers(map_, answers)
    pairs: set[OrderedPair] = set(map_.base)
    pairs |= checked
    pairs |= {p.swapped() for p in map_.conditions - checked}
    for antecedent, conclusions in map_.conditionals:
        if antecedent <= checked:
            pairs |= conclusions
    return frozenset(pairs)


def answer_block_by_formula(
    map_: RestrictionMap, answers: Iterable[Sequence[int]]
) -> Optional[PreferenceDomain]:
    """The block of an answer set rebuilt from :func:`answer_closure_pairs`;
    None when the pairs are contradictory (unrealizable answer set)."""
    pairs = answer_closure_pairs(map_, answers)
    survivors = consistent_rankings(pairs, map_.m)
    if not survivors:
        return None
    return PreferenceDomain(map_.m, survivors)


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


def dictatorship(pd: ProductDomain, agent: int) -> Rule:
    """The rule that always picks ``agent``'s top alternative."""
    if not 0 <= agent < pd.n:
        raise DomainError(f"agent index {agent} is outside 0..{pd.n - 1}")
    tops = [r.top for r in pd.agents[agent].rankings]
    stride = pd.strides[agent]
    size = len(pd.agents[agent])
    table = [0] * pd.profile_count
    for index in range(pd.profile_count):
        table[index] = tops[(index // stride) % size]
    return Rule(pd, tuple(table))


def is_strategy_proof(rule: Rule) -> bool:
    return find_manipulation(rule) is None


def option_set(rule: Rule, agent: int, others: Sequence[int]) -> frozenset[int]:
    """Outcomes ``agent`` can reach by varying their report while the other
    agents' reports stay at ``others`` (ranking indices, agent-ascending)."""
    pd = rule.domain
    if not 0 <= agent < pd.n:
        raise DomainError(f"agent index {agent} is outside 0..{pd.n - 1}")
    if len(others) != pd.n - 1:
        raise DomainError(f"need {pd.n - 1} other-agent coordinates, got {len(others)}")
    strides = pd.strides
    base = 0
    it = iter(others)
    for i in range(pd.n):
        if i == agent:
            continue
        digit = next(it)
        if not 0 <= digit < pd.sizes[i]:
            raise DomainError(f"coordinate {digit} out of range for agent {i}")
        base += digit * strides[i]
    stride = strides[agent]
    return frozenset(rule.table[base + r * stride] for r in range(pd.sizes[agent]))


def audit_faults(rule: Rule) -> tuple[list[tuple], list[tuple]]:
    """The (maximality, freeness) faults that :func:`spdom.audit_sp_lemmas`
    counts, as tuples: agent, the other agents' reports, then the agent's
    own report, outcome and best option (maximality) or the pair
    (freeness).  From :func:`option_set`, :func:`outcome_map` and ranking
    positions; a pair is free when the agent's rankings order it both ways."""
    pd = rule.domain
    table = outcome_map(rule)
    maximality: list[tuple] = []
    freeness: list[tuple] = []
    for agent in range(pd.n):
        rankings = pd.agents[agent].rankings
        others_ranges = [range(pd.sizes[i]) for i in range(pd.n) if i != agent]
        for others in itertools.product(*others_ranges):
            options = sorted(option_set(rule, agent, others))
            for a, b in itertools.combinations(options, 2):
                ways = {r.position[a] < r.position[b] for r in rankings}
                if len(ways) < 2:
                    freeness.append((agent, others, a, b))
            for own, ranking in enumerate(rankings):
                outcome = table[others[:agent] + (own,) + others[agent:]]
                best = min(options, key=ranking.position.__getitem__)
                if outcome != best:
                    maximality.append((agent, others, own, outcome, best))
    return maximality, freeness


# ---------------------------------------------------------------------------
# Two-step assignments: gluing block subrules into a full rule, the
# first-step witness annotation, the search by assembling every candidate,
# and the ``.assign`` reader, the round-trip partner of
# ``spdom.twostep.serialize_assignment``


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
    tables = [iter(subrule.table) for subrule in subrules]
    return Rule(partition.product, tuple(next(tables[r]) for r in partition.response_of))


@dataclass(frozen=True)
class TwoStepAssignment:
    """One subrule per realizable response profile, in canonical order."""

    partition: ResponsePartition
    subrules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        _check_subrules(self.partition, self.subrules)


@dataclass(frozen=True)
class FirstStepWitness:
    """A manipulation annotated with whether the misreport changed the
    manipulator's elicited answers (their response-profile coordinate)."""

    witness: ManipulationWitness
    answer_changing: bool


def first_step_witnesses(
    rule: Rule, partition: ResponsePartition
) -> tuple[FirstStepWitness, ...]:
    """Every manipulation of ``rule``, each annotated by whether the deviation
    crosses answer-set blocks.  When all block subrules are strategy-proof,
    every witness is answer-changing (a within-block deviation would manipulate
    a strategy-proof subrule)."""
    if rule.domain != partition.product:
        raise DomainError("rule is over a different product than the response partition")
    out = []
    for witness in iter_manipulations(rule):
        answer_of = partition.answer_of[witness.agent]
        sincere = answer_of[witness.profile[witness.agent]]
        deviating = answer_of[witness.deviation]
        out.append(FirstStepWitness(witness, answer_changing=sincere != deviating))
    return tuple(out)


def search_by_assembly(partition: ResponsePartition, budget: int = 1_000_000) -> SearchResult:
    """The reference route of ``spdom.twostep.search_sp_combinations``: assemble
    every candidate assignment, canonical order, up to ``budget`` of them, and
    keep those with no manipulation in a full table scan."""
    if budget < 1:
        raise DomainError(f"budget must be positive, got {budget}")
    catalogs = tuple(Catalog(block) for block in partition.block_products)
    total = 1
    for catalog in catalogs:
        total *= len(catalog)
    assignments: list[tuple[int, ...]] = []
    tried = 0
    for indices in itertools.product(*(range(len(c)) for c in catalogs)):
        if tried == budget:
            break
        tried += 1
        rule = assemble(partition, [catalogs[i][j] for i, j in enumerate(indices)])
        if find_manipulation(rule) is None:
            assignments.append(indices)
    return SearchResult(
        assignments=iter(assignments),
        catalogs=catalogs,
        candidates_total=total,
        candidates_tried=tried,
        complete=tried == total,
    )


def _parse_answer_set(token: str, labels: dict[str, int], lineno: int) -> AnswerSet:
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
            expected_text = format_response(answers, pd.labels)
            raise ParseError(
                f"response profile out of canonical order: expected {expected_text!r}",
                lineno,
                1,
            )
        ref = right.strip()
        if ref.startswith("catalog:"):
            catalog = Catalog(block_pd)
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
