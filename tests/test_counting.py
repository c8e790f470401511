from __future__ import annotations

import itertools
import math

import pytest

import oracles
from spdom import (
    DomainError,
    OrderedPair,
    ProductDomain,
    ResponsePartition,
    RestrictionMap,
    SizeLimitError,
    classify,
    count_dictatorial,
    count_second_step,
    count_sp_range2,
    decimal_digit_count,
    dedekind,
    dictatorial_rules,
    dictators_of,
    enumerate_sp_rules,
    generate_domain,
    is_non_conditional,
    is_strategy_proof,
    nonconditional_domains,
    pair_vote_rules,
    partition_by_answers,
    power_digit_count,
    range_of,
    second_step_catalog,
    verify_impossibility,
)

UNI3 = generate_domain("universal", m=3)
SP3 = generate_domain("single_peaked", axis=[0, 1, 2])


# ---------------------------------------------------------------------------
# Monotone-function counts


def test_dedekind_small_vs_oracle():
    for n in range(5):
        assert dedekind(n) == oracles.monotone_boolean_function_count(n)
    assert [dedekind(n) for n in range(5)] == [2, 3, 6, 20, 168]


def test_dedekind_published_values():
    assert dedekind(5) == 7581
    assert dedekind(6) == 7828354
    assert dedekind(7) == 2414682040998
    assert dedekind(8) == 56130437228687557907788


def test_dedekind_guards():
    with pytest.raises(SizeLimitError):
        dedekind(9)
    with pytest.raises(DomainError):
        dedekind(-1)


# ---------------------------------------------------------------------------
# Two-outcome rules: closed form vs explicit vs brute force


def _tiny_two_agent() -> ProductDomain:
    d0 = generate_domain("explicit", rankings=[(0, 1, 2), (1, 0, 2)])
    d1 = generate_domain("explicit", rankings=[(0, 1, 2), (2, 1, 0)])
    return ProductDomain.of([d0, d1])


def test_count_sp_range2_vs_brute_force_single_agent():
    pd = ProductDomain.of([UNI3])
    for pair in ((0, 1), (0, 2), (1, 2)):
        formula = count_sp_range2(pd.agents, pair)
        assert formula == dedekind(1) - 2 == 1
        assert formula == oracles.exactly_pair_sp_count(pd, pair)
        rules = pair_vote_rules(pd, pair)
        assert len(rules) == formula
        assert all(set(r.table) == set(pair) for r in rules)


def test_count_sp_range2_vs_brute_force_two_agents():
    pd = _tiny_two_agent()
    # Freeness differs by pair here: (0,1) is free for both agents, (0,2) and
    # (1,2) only for agent 1.
    for pair in ((0, 1), (0, 2), (1, 2)):
        formula = count_sp_range2(pd.agents, pair)
        brute = oracles.exactly_pair_sp_count(pd, pair)
        assert formula == brute
        rules = pair_vote_rules(pd, pair)
        assert len(rules) == formula
        got = {r.table for r in rules}
        want = {
            t for t in oracles.all_sp_tables(pd, outcomes=pair) if set(t) == set(pair)
        }
        assert got == want
    assert count_sp_range2(pd.agents, (0, 1)) == dedekind(2) - 2 == 4
    assert count_sp_range2(pd.agents, (0, 2)) == dedekind(1) - 2 == 1


def test_count_sp_range2_fixed_pair_is_zero():
    chain = generate_domain("explicit", rankings=[(0, 1, 2)])
    assert count_sp_range2([chain], (0, 1)) == dedekind(0) - 2 == 0
    assert pair_vote_rules(ProductDomain.of([chain]), (0, 1)) == ()


def test_pair_vote_rules_are_strategy_proof():
    pd = ProductDomain.of([UNI3, UNI3])
    for pair in ((0, 1), (0, 2), (1, 2)):
        rules = pair_vote_rules(pd, pair)
        assert len(rules) == dedekind(2) - 2 == 4
        for rule in rules:
            assert is_strategy_proof(rule)
            assert range_of(rule) == frozenset(pair)
    with pytest.raises(DomainError):
        pair_vote_rules(pd, (0, 0))
    with pytest.raises(DomainError):
        count_sp_range2(pd.agents, (0, 5))


# ---------------------------------------------------------------------------
# Dictatorial rules


def test_dictatorial_rules_vs_oracle():
    pd = ProductDomain.of([UNI3, UNI3])
    got = {r.table for r in dictatorial_rules(pd, 3)}
    assert got == oracles.dictatorial_tables(pd, 3)
    assert count_dictatorial(pd.agents, 3) == 2
    for rule in dictatorial_rules(pd, 3):
        assert is_strategy_proof(rule)
        assert len(dictators_of(rule)) == 1


def test_dictatorial_rules_need_steerable_range():
    # A single-ranking agent cannot steer any multi-alternative range.
    chain = generate_domain("explicit", rankings=[(0, 1, 2)])
    pd = ProductDomain.of([chain, chain])
    assert dictatorial_rules(pd, 3) == ()
    with pytest.raises(DomainError):
        dictatorial_rules(pd, 0)


# ---------------------------------------------------------------------------
# Exhaustive strategy-proof enumeration


def test_enumerate_matches_brute_force_single_agent():
    pd = ProductDomain.of([UNI3])
    rules = list(enumerate_sp_rules(pd))
    tables = [r.table for r in rules]
    assert tables == sorted(tables)
    assert set(tables) == set(oracles.all_sp_tables(pd))


def test_enumerate_matches_brute_force_tiny_two_agent():
    pd = _tiny_two_agent()
    tables = [r.table for r in enumerate_sp_rules(pd)]
    assert tables == sorted(tables)
    assert set(tables) == set(oracles.all_sp_tables(pd))


def test_enumerate_universal3_two_agents():
    pd = ProductDomain.of([UNI3, UNI3])
    rules = list(enumerate_sp_rules(pd))
    assert len(rules) == 17
    by_range_size = {1: 0, 2: 0, 3: 0}
    for rule in rules:
        by_range_size[len(range_of(rule))] += 1
    assert by_range_size == {1: 3, 2: 12, 3: 2}
    # The explicit catalog is exactly the same set of rules here.
    assert {r.table for r in rules} == {r.table for r in second_step_catalog(pd)}


def test_enumerate_single_peaked_two_agents():
    pd = ProductDomain.of([SP3, SP3])
    rules = list(enumerate_sp_rules(pd))
    assert len(rules) == 24
    catalog = {r.table for r in second_step_catalog(pd)}
    assert len(catalog) == 17
    assert catalog <= {r.table for r in rules}


def test_enumerate_range_filter():
    pd = ProductDomain.of([UNI3, UNI3])
    rules = list(enumerate_sp_rules(pd, range_filter=[0, 1]))
    assert len(rules) == 6  # two constants + four monotone vote rules
    assert all(range_of(r) <= {0, 1} for r in rules)
    with pytest.raises(DomainError):
        list(enumerate_sp_rules(pd, range_filter=[]))
    with pytest.raises(DomainError):
        list(enumerate_sp_rules(pd, range_filter=[7]))


def test_enumerate_profile_guard():
    pd = ProductDomain.of([UNI3, UNI3])
    with pytest.raises(SizeLimitError):
        list(enumerate_sp_rules(pd, max_profiles=10))


# ---------------------------------------------------------------------------
# Closed-form second-step counting


def _count(domains, maps):
    return count_second_step(ResponsePartition.of(ProductDomain.of(domains), maps))


def test_count_second_step_single_peaked3():
    maps = [classify(SP3), classify(SP3)]
    report = _count([SP3, SP3], maps)
    assert report.m == 3
    assert report.profile_count == 16
    assert [b.subtotal for b in report.blocks] == [11, 5, 5, 3]
    assert [b.block_sizes for b in report.blocks] == [(3, 3), (3, 1), (1, 3), (1, 1)]
    assert report.product == 11 * 5 * 5 * 3 == 825


def test_count_second_step_two_agent_conditional(ex1_spec):
    domains = [a.domain for a in ex1_spec.agents]
    report = _count(domains, ex1_spec.map_hints)
    assert report.m == 5
    assert report.profile_count == 6400
    assert report.naive_digits == 4474
    assert [b.subtotal for b in report.blocks] == [59, 46, 46, 37]
    assert [b.block_sizes for b in report.blocks] == [
        (60, 60),
        (60, 20),
        (20, 60),
        (20, 20),
    ]
    b0, b1, b2, b3 = report.blocks
    xy = frozenset({OrderedPair(2, 3)})
    assert b0.answers == (frozenset(), frozenset())
    assert b1.answers == (frozenset(), xy)
    assert b2.answers == (xy, frozenset())
    assert b3.answers == (xy, xy)
    for block, two_outcome, dict3, dict4 in (
        (b0, 36, 14, 4),
        (b1, 30, 9, 2),
        (b2, 30, 9, 2),
        (b3, 28, 4, 0),
    ):
        assert block.constants == 5
        assert sum(pc.count for pc in block.pair_counts) == two_outcome
        assert block.dictatorial == ((3, dict3), (4, dict4), (5, 0))
        assert block.subtotal == 5 + two_outcome + dict3 + dict4
    assert report.product == 59 * 37 * 46 * 46 == 4619228


def test_count_second_step_chain(ex2_spec):
    domains = [a.domain for a in ex2_spec.agents]
    report = _count(domains, ex2_spec.map_hints)
    assert report.m == 5
    assert report.profile_count == 256
    assert report.naive_digits == 179
    subtotals = [b.subtotal for b in report.blocks]
    assert len(subtotals) == 16
    assert sorted(subtotals) == [5, 8, 8, 9, 9, 9, 9, 14, 14, 16, 16, 17, 17, 17, 21, 21]
    # Same-answer (diagonal) blocks, in canonical answer order.
    assert [subtotals[i] for i in (0, 5, 10, 15)] == [21, 21, 17, 5]
    assert [report.blocks[i].block_sizes for i in (0, 5, 10, 15)] == [
        (5, 5),
        (6, 6),
        (4, 4),
        (1, 1),
    ]
    # Swapping the two agents' answer sets never changes the subtotal.
    for i in range(4):
        for j in range(4):
            assert subtotals[4 * i + j] == subtotals[4 * j + i]
    assert report.product == 228245070327644160
    assert report.product == math.prod(subtotals)


def test_count_second_step_blocks_agree_with_catalog_and_enumeration(ex2_spec):
    domains = [a.domain for a in ex2_spec.agents]
    maps = ex2_spec.map_hints
    report = _count(domains, maps)
    partitions = [partition_by_answers(d, map_) for d, map_ in zip(domains, maps)]
    for block, combo in zip(report.blocks, itertools.product(*partitions)):
        assert block.answers == tuple(answers for answers, _ in combo)
        block_pd = ProductDomain.of([domain for _, domain in combo])
        catalog = second_step_catalog(block_pd)
        assert len(catalog) == block.subtotal
        assert len({r.table for r in catalog}) == block.subtotal
        enumerated = {r.table for r in enumerate_sp_rules(block_pd)}
        assert enumerated == {r.table for r in catalog}


def test_count_second_step_validation(ex1_spec):
    # The maps are checked once, where the response partition is built.
    pd = ex1_spec.product
    with pytest.raises(DomainError, match="need 2 restriction maps"):
        ResponsePartition.of(pd, ex1_spec.map_hints[:1])
    with pytest.raises(DomainError, match="different alternative set"):
        ResponsePartition.of(pd, [RestrictionMap.of(3, []), RestrictionMap.of(3, [])])
    wrong = RestrictionMap.of(5, [(0, 1)])
    with pytest.raises(DomainError, match="does not rebuild"):
        ResponsePartition.of(pd, [wrong, wrong])
    with pytest.raises(DomainError):
        ProductDomain.of([])


# ---------------------------------------------------------------------------
# Non-conditional domain sweep


def test_nonconditional_domains_m3():
    domains = nonconditional_domains(3)
    assert len(domains) == 19
    assert len(domains) == oracles.count_strict_partial_orders(3)
    assert sorted(len(d) for d in domains) == [1] * 6 + [2] * 6 + [3] * 6 + [6]
    assert len({tuple(r.order for r in d.rankings) for d in domains}) == 19
    assert all(is_non_conditional(d) for d in domains)


def test_nonconditional_domains_m2_and_guard():
    assert len(nonconditional_domains(2)) == 3
    with pytest.raises(SizeLimitError):
        nonconditional_domains(5)


# ---------------------------------------------------------------------------
# Digit counting


def test_decimal_digit_count():
    assert decimal_digit_count(0) == 1
    assert decimal_digit_count(9) == 1
    assert decimal_digit_count(10) == 2
    assert decimal_digit_count(10**100) == 101
    assert decimal_digit_count(10**100 - 1) == 100
    with pytest.raises(DomainError):
        decimal_digit_count(-1)


def test_power_digit_count():
    assert power_digit_count(5, 6400) == 4474
    assert power_digit_count(5, 256) == 179
    assert power_digit_count(5, 6400) == decimal_digit_count(5**6400)
    assert power_digit_count(3, 36) == decimal_digit_count(3**36)
    assert power_digit_count(1, 999) == 1
    assert power_digit_count(7, 0) == 1
    # Large-exponent path (beyond exact integer comparison).
    assert power_digit_count(2, 400_000) == decimal_digit_count(2**400_000)
    with pytest.raises(DomainError):
        power_digit_count(0, 3)
    with pytest.raises(DomainError):
        power_digit_count(2, -1)


# ---------------------------------------------------------------------------
# Impossibility sweeps


def test_verify_impossibility_single_agent_family():
    family = [ProductDomain.of([d]) for d in nonconditional_domains(3)]
    report = verify_impossibility(family)
    assert report.instances == 19
    assert report.rules_checked == 79
    assert report.violations == ()
    assert report.audited == 0 and report.audit_faults == ()
    assert report.ok


def test_verify_impossibility_flags_conditional_domains():
    report = verify_impossibility([ProductDomain.of([SP3, SP3])])
    assert report.rules_checked == 24
    assert len(report.violations) == 7
    assert not report.ok
    for violation in report.violations:
        assert violation.instance == 0
        assert len(range_of(violation.rule)) != 2
        assert not dictators_of(violation.rule)
        assert is_strategy_proof(violation.rule)


def test_verify_impossibility_audit_and_determinism():
    family = [ProductDomain.of([d]) for d in nonconditional_domains(3)[:6]]
    first = verify_impossibility(family, audit_sample=5, seed=7)
    second = verify_impossibility(family, audit_sample=5, seed=7)
    assert first == second
    assert first.audited == 5
    assert first.audit_faults == ()
