from __future__ import annotations

import itertools
import random

import pytest

import oracles
from oracles import dictatorship, is_strategy_proof, option_set
from spdom import (
    DomainError,
    ParseError,
    PreferenceDomain,
    ProductDomain,
    Ranking,
    Rule,
    audit_sp_lemmas,
    constant_rule,
    dictators_of,
    find_manipulation,
    generate_domain,
    iter_manipulations,
    nonconditional_domains,
    parse_rule_file,
    range_of,
    serialize_rule,
)

UNI3 = generate_domain("universal", m=3)
SP3 = generate_domain("single_peaked", axis=[0, 1, 2])


def _single_agent_uni3() -> ProductDomain:
    return ProductDomain.of([UNI3])


def _tiny_two_agent() -> ProductDomain:
    d0 = PreferenceDomain.of(Ranking(o) for o in [(0, 1, 2), (1, 0, 2)])
    d1 = PreferenceDomain.of(Ranking(o) for o in [(0, 1, 2), (2, 1, 0)])
    return ProductDomain.of([d0, d1])


# ---------------------------------------------------------------------------
# Basic rule constructors


def test_constant_rule():
    pd = _tiny_two_agent()
    rule = constant_rule(pd, 2)
    assert rule.table == (2, 2, 2, 2)
    assert range_of(rule) == frozenset({2})
    assert is_strategy_proof(rule)
    # Degenerate: with a one-point range, every agent is trivially a dictator.
    assert dictators_of(rule) == frozenset({0, 1})
    with pytest.raises(DomainError):
        constant_rule(pd, 3)


def test_dictatorship_tables():
    pd = ProductDomain.of([UNI3, UNI3])
    for agent in range(2):
        rule = dictatorship(pd, agent)
        for index, profile in enumerate(pd.iter_profiles()):
            assert rule.table[index] == pd.agents[agent].rankings[profile[agent]].top
        assert is_strategy_proof(rule)
        assert dictators_of(rule) == frozenset({agent})
        assert range_of(rule) == frozenset({0, 1, 2})
    with pytest.raises(DomainError):
        dictatorship(pd, 2)


def test_rule_validation():
    pd = _single_agent_uni3()
    with pytest.raises(DomainError):
        Rule(pd, (0, 1, 2))  # wrong length
    assert Rule(pd, (0, 0, 1, 1, 2, 2)).table == (0, 0, 1, 1, 2, 2)


# ---------------------------------------------------------------------------
# Manipulation scan vs the dictionary-based oracle, exhaustively


def test_single_agent_exhaustive_against_oracle():
    pd = _single_agent_uni3()
    sp_count = 0
    for table in itertools.product(range(3), repeat=6):
        rule = Rule(pd, table)
        violations = oracles.sp_violations(rule)
        witness = find_manipulation(rule)
        assert (witness is None) == (not violations)
        if witness is None:
            sp_count += 1
        else:
            assert (witness.agent, witness.profile, witness.deviation) == violations[0]
        assert len(list(iter_manipulations(rule))) == len(violations)
    assert sp_count == len(oracles.all_sp_tables(pd))


def test_two_agent_exhaustive_against_oracle_with_audit():
    pd = _tiny_two_agent()
    for table in itertools.product(range(3), repeat=4):
        rule = Rule(pd, table)
        sp = oracles.is_sp(rule)
        assert is_strategy_proof(rule) == sp
        report = audit_sp_lemmas(rule)
        assert (report.witness is None) == sp
        # Strategy-proofness is equivalent to option-set maximality, and
        # implies option-set freeness.
        assert (not report.maximality_faults) == sp
        if sp:
            assert not report.freeness_faults
            assert report.clean
        else:
            assert report.witness is not None


def test_witnesses_are_genuine():
    pd = ProductDomain.of([SP3, SP3])
    table = tuple((i * 7 + 3) % 3 for i in range(pd.profile_count))
    rule = Rule(pd, table)
    outcome = dict(zip(pd.iter_profiles(), table))
    count = 0
    for w in iter_manipulations(rule):
        count += 1
        sincere_ranking = pd.agents[w.agent].rankings[w.profile[w.agent]]
        assert w.sincere_outcome == outcome[w.profile]
        shifted = list(w.profile)
        shifted[w.agent] = w.deviation
        assert w.deviating_outcome == outcome[tuple(shifted)]
        assert sincere_ranking.prefers(w.deviating_outcome, w.sincere_outcome)
    assert count == len(oracles.sp_violations(rule))


def test_manipulations_in_canonical_order_against_oracle():
    # Every witness, in the triple-loop oracle's order (agent, profile index,
    # deviation), and both audit fault lists in the oracle audit's order, on
    # near two-outcome tables over products where all agents but the last
    # have a stride above one.  top4 always puts 0 on top, so an option set
    # holding 0 and others is not free, pair by pair.
    sp4 = generate_domain("single_peaked", axis=[0, 1, 2, 3])
    top4 = PreferenceDomain.of(Ranking((0,) + p) for p in itertools.permutations((1, 2, 3)))
    rng = random.Random(7)
    for domains in ([SP3, UNI3], [UNI3, SP3, SP3], [sp4, top4], [top4, sp4]):
        pd = ProductDomain.of(domains)
        for _ in range(40):
            table = [rng.randrange(2) for _ in range(pd.profile_count)]
            for _ in range(rng.randrange(4)):
                table[rng.randrange(pd.profile_count)] = 2
            rule = Rule(pd, tuple(table))
            found = [(w.agent, w.profile, w.deviation) for w in iter_manipulations(rule)]
            assert found == oracles.sp_violations(rule)
            report = audit_sp_lemmas(rule)
            faults = (
                [tuple(f) for f in report.maximality_faults],
                [tuple(f) for f in report.freeness_faults],
            )
            assert faults == oracles.audit_faults(rule)


# ---------------------------------------------------------------------------
# Option sets and audits


def test_option_set_of_dictatorship():
    pd = ProductDomain.of([SP3, UNI3])
    rule = dictatorship(pd, 0)
    tops = frozenset(r.top for r in SP3.rankings)
    for other in range(len(UNI3)):
        assert option_set(rule, 0, (other,)) == tops
    for own in range(len(SP3)):
        assert option_set(rule, 1, (own,)) == frozenset({SP3.rankings[own].top})
    with pytest.raises(DomainError):
        option_set(rule, 2, (0,))
    with pytest.raises(DomainError):
        option_set(rule, 0, (0, 0))
    with pytest.raises(DomainError):
        option_set(rule, 0, (99,))


def test_audit_flags_freeness_and_maximality():
    d = PreferenceDomain.of(Ranking(o) for o in [(0, 1, 2), (0, 2, 1)])
    pd = ProductDomain.of([d])
    # Both members put alternative 0 on top, so the pair (0, 1) is fixed; a
    # rule attaining {0, 1} across this agent's reports breaks freeness.
    rule = Rule(pd, (0, 1))
    report = audit_sp_lemmas(rule)
    assert report.witness is not None
    assert report.witness is not None
    assert [(f.agent, f.others, f.a, f.b) for f in report.freeness_faults] == [(0, (), 0, 1)]
    assert [(f.own, f.outcome, f.better) for f in report.maximality_faults] == [(1, 1, 0)]
    assert not report.clean


def test_anti_dictatorship_is_manipulable():
    pd = _single_agent_uni3()
    rule = Rule(pd, tuple(r.order[-1] for r in UNI3.rankings))
    report = audit_sp_lemmas(rule)
    assert report.witness is not None
    assert report.maximality_faults and not report.freeness_faults


# ---------------------------------------------------------------------------
# Restriction


def test_restrict_rule_values():
    pd = ProductDomain.of([UNI3, UNI3])
    rule = Rule(pd, tuple((i * 5 + 1) % 3 for i in range(36)))
    sub0 = PreferenceDomain.of(Ranking(o) for o in [(0, 1, 2), (2, 1, 0)])
    sub1 = PreferenceDomain.of([Ranking((1, 0, 2))])
    small = oracles.restrict_rule(rule, [sub0, sub1])
    assert small.domain.sizes == (2, 1)
    outcome = dict(zip(pd.iter_profiles(), rule.table))
    for profile, small_outcome in zip(small.domain.iter_profiles(), small.table):
        parent_profile = (
            UNI3.rankings.index(sub0.rankings[profile[0]]),
            UNI3.rankings.index(sub1.rankings[profile[1]]),
        )
        assert small_outcome == outcome[parent_profile]


def test_restrict_rule_errors():
    pd = ProductDomain.of([UNI3, UNI3])
    rule = dictatorship(pd, 0)
    with pytest.raises(DomainError):
        oracles.restrict_rule(rule, [UNI3])
    other = generate_domain("universal", m=4)
    with pytest.raises(DomainError):
        oracles.restrict_rule(rule, [other, UNI3])


def test_a_manipulable_restriction_makes_the_rule_manipulable():
    # Strategy-proofness passes to every sub-product, which is why the theorem
    # audit scans no restrictions: a manipulation inside one is a manipulation
    # of the whole rule, so the full scan and the option-set audit see it.
    rng = random.Random(11)
    base = nonconditional_domains(3)
    witnesses = 0
    for _ in range(150):
        pd = ProductDomain.of([rng.choice(base) for _ in range(rng.randint(1, 3))])
        constant = rng.randrange(3)
        table = tuple(
            constant if rng.random() < 0.8 else rng.randrange(3) for _ in range(pd.profile_count)
        )
        rule = Rule(pd, table)
        for _ in range(12):
            subsets = tuple(
                tuple(rng.sample(range(size), rng.randint(1, size))) for size in pd.sizes
            )
            if oracles.first_manipulation_within(rule, subsets) is None:
                continue
            witnesses += 1
            assert find_manipulation(rule) is not None
            assert audit_sp_lemmas(rule).maximality_faults
    assert witnesses > 100


# ---------------------------------------------------------------------------
# Rule file format


def test_rule_roundtrip():
    pd = ProductDomain.of([SP3, UNI3], labels=["x", "y", "z"])
    rule = dictatorship(pd, 1)
    text = serialize_rule(rule)
    assert text.splitlines()[0] == "alternatives: x y z"
    assert text.splitlines()[1] == "xyz,xyz -> x"
    again = parse_rule_file(text, pd)
    assert again == rule


def test_rule_parse_accepts_comments_and_blanks():
    pd = ProductDomain.of([PreferenceDomain.of([Ranking((0, 1))])], labels=["x", "y"])
    text = "# a comment\nalternatives: x y\n\nxy -> y  # pick y\n"
    assert parse_rule_file(text, pd).table == (1,)


def test_rule_parse_errors():
    d = PreferenceDomain.of(Ranking(o) for o in [(0, 1), (1, 0)])
    pd = ProductDomain.of([d], labels=["x", "y"])
    good = "alternatives: x y\nxy -> x\nyx -> y\n"
    assert parse_rule_file(good, pd).table == (0, 1)

    with pytest.raises(ParseError, match="starts with 'alternatives:'"):
        parse_rule_file("xy -> x\n", pd)
    with pytest.raises(ParseError, match="do not match"):
        parse_rule_file("alternatives: x q\nxy -> x\nyx -> y\n", pd)
    with pytest.raises(ParseError, match="expected 'profile -> outcome'"):
        parse_rule_file("alternatives: x y\nxy x\n", pd)
    with pytest.raises(ParseError, match="canonical order"):
        parse_rule_file("alternatives: x y\nyx -> y\nxy -> x\n", pd)
    with pytest.raises(ParseError, match="unknown outcome"):
        parse_rule_file("alternatives: x y\nxy -> q\nyx -> y\n", pd)
    with pytest.raises(ParseError, match="expected 2 profile lines, found 1$"):
        parse_rule_file("alternatives: x y\nxy -> x\n", pd)
    with pytest.raises(ParseError, match="line 4, column 1: more than 2 profile lines$"):
        parse_rule_file(good + "yx -> y\n", pd)
    with pytest.raises(ParseError, match="empty rule file"):
        parse_rule_file("\n# only a comment\n", pd)
