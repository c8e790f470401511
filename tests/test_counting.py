from __future__ import annotations

import functools
import itertools
import math
import random
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

import pytest

import oracles
from conftest import FIXTURES
from oracles import count_sp_range2, is_strategy_proof
from spdom import (
    DomainError,
    OrderedPair,
    PreferenceDomain,
    ProductDomain,
    ProductFamily,
    Ranking,
    ResponsePartition,
    RestrictionMap,
    SizeLimitError,
    all_rankings,
    classify,
    count_second_step,
    decimal_digit_count,
    dedekind,
    dictatorial_rules,
    dictators_of,
    enumerate_sp_rules,
    generate_domain,
    nonconditional_closure,
    nonconditional_domains,
    pair_sets,
    pair_vote_rules,
    parse_domain_file,
    partition_by_answers,
    power_digit_count,
    range_of,
    second_step_catalog,
    steerable_range_count,
    verify_impossibility,
)
from spdom.counting import _monotone_function_masks
from spdom.orbits import FamilyOrbits

UNI3 = generate_domain("universal", m=3)
SP3 = generate_domain("single_peaked", axis=[0, 1, 2])


# ---------------------------------------------------------------------------
# Monotone-function counts


def test_dedekind_small_vs_oracle():
    for n in range(5):
        assert dedekind(n) == oracles.monotone_boolean_function_count(n)
    assert [dedekind(n) for n in range(5)] == [2, 3, 6, 20, 168]
    for n in range(5):
        assert len(_monotone_function_masks(n)) == dedekind(n)


def test_monotone_function_masks_match_the_scan():
    # Built by splitting on the last variable; the oracle scans every function.
    for n in range(5):
        assert list(_monotone_function_masks(n)) == oracles.monotone_boolean_functions(n)
    with pytest.raises(SizeLimitError, match=r"capped at n=4, got 5"):
        _monotone_function_masks(5)


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
    d0 = PreferenceDomain.of(Ranking(o) for o in [(0, 1, 2), (1, 0, 2)])
    d1 = PreferenceDomain.of(Ranking(o) for o in [(0, 1, 2), (2, 1, 0)])
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
    chain = PreferenceDomain.of([Ranking((0, 1, 2))])
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
    assert len(got) == 2
    for rule in dictatorial_rules(pd, 3):
        assert is_strategy_proof(rule)
        assert len(dictators_of(rule)) == 1


def test_dictatorial_rules_need_steerable_range():
    # A single-ranking agent cannot steer any multi-alternative range.
    chain = PreferenceDomain.of([Ranking((0, 1, 2))])
    pd = ProductDomain.of([chain, chain])
    assert dictatorial_rules(pd, 3) == ()
    with pytest.raises(DomainError):
        dictatorial_rules(pd, 0)


def test_steerable_range_count():
    for m in (3, 4):
        uni = generate_domain("universal", m=m)
        assert [steerable_range_count(uni, k) for k in range(1, m + 1)] == [
            math.comb(m, k) for k in range(1, m + 1)
        ]
    # Single-peaked on x < y < z: each peak is reachable, so every range is.
    assert [steerable_range_count(SP3, k) for k in (1, 2, 3)] == [3, 3, 1]
    # Both rankings put z last, so of the pairs only {x, y} is steerable.
    two = PreferenceDomain.of(Ranking(o) for o in [(0, 1, 2), (1, 0, 2)])
    assert [steerable_range_count(two, k) for k in (1, 2, 3)] == [3, 1, 0]
    chain = PreferenceDomain.of([Ranking((0, 1, 2))])
    assert [steerable_range_count(chain, k) for k in (1, 2, 3)] == [3, 0, 0]
    with pytest.raises(DomainError):
        steerable_range_count(UNI3, 0)
    with pytest.raises(DomainError):
        steerable_range_count(UNI3, 4)


def _fixture_block_products():
    for name in ("ex1", "ex2", "single_peaked3", "universal3"):
        spec = parse_domain_file((FIXTURES / f"{name}.spdom").read_text())
        yield from ResponsePartition.of(spec.product, spec.resolved_maps()).block_products


def test_count_dictatorial_matches_materialized_tables():
    # count_second_step's constants and dictatorial counts against the
    # deduplicated tables of dictatorial_rules: every block product of the
    # fixtures, every non-conditional domain alone (m <= 4), and every pair of
    # them (m = 3), each as the one response profile of its classify maps.
    cases = [pd.agents for pd in _fixture_block_products()]
    for m in (1, 2, 3, 4):
        cases.extend((d,) for d in nonconditional_domains(m))
    cases.extend(itertools.product(nonconditional_domains(3), repeat=2))
    for blocks in cases:
        pd = ProductDomain.of(blocks)
        partition = ResponsePartition.of(pd, [classify(d) for d in blocks])
        (block,) = count_second_step(partition).blocks
        assert block.constants == len(dictatorial_rules(pd, 1)), blocks
        for k, count in block.dictatorial:
            assert count == len(dictatorial_rules(pd, k)), (blocks, k)


# ---------------------------------------------------------------------------
# Exhaustive strategy-proof enumeration


def _three_agent_with_one_ranking() -> ProductDomain:
    # Strides 3, 3 and 1: the middle agent has a single ranking.
    d0 = PreferenceDomain.of(Ranking(o) for o in [(0, 1, 2), (2, 1, 0)])
    one = PreferenceDomain.of([Ranking((1, 0, 2))])
    d2 = PreferenceDomain.of(Ranking(o) for o in [(0, 2, 1), (1, 2, 0), (2, 0, 1)])
    return ProductDomain.of([d0, one, d2])


@pytest.mark.parametrize("outcomes", [None, (0, 2), (1,)], ids=["all", "only_0_2", "only_1"])
@pytest.mark.parametrize(
    "product",
    [lambda: ProductDomain.of([UNI3]), _tiny_two_agent, _three_agent_with_one_ranking],
    ids=["single_agent", "tiny_two_agent", "three_agent_one_ranking"],
)
def test_enumerate_matches_brute_force(product, outcomes):
    # The same tables in the same (ascending) order as a scan of every table.
    pd = product()
    tables = [r.table for r in enumerate_sp_rules(pd, range_filter=outcomes)]
    assert tables == oracles.all_sp_tables(pd, outcomes)


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


def test_enumerate_sets_up_on_the_first_rule(monkeypatch):
    # The guards and the filter are checked at the call; the per-cell set-up,
    # one step list per profile, waits for the first rule, so a caller's own
    # refusals (enumerate-sp's oracle cap) come before it.
    pd = ProductDomain.of([UNI3, UNI3])

    def unreachable():
        raise AssertionError("profiles enumerated")

    monkeypatch.setattr(pd, "iter_profiles", unreachable)
    search = enumerate_sp_rules(pd)
    with pytest.raises(AssertionError, match="profiles enumerated"):
        next(search)


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
    report = _count(domains, ex1_spec.resolved_maps())
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
    report = _count(domains, ex2_spec.resolved_maps())
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
    maps = ex2_spec.resolved_maps()
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


def test_count_second_step_two_outcome_matches_per_pair_oracle():
    # The bit-sliced two-outcome count against the per-pair oracle on seeded
    # random products of 1-5 agents over m <= 4.  Each agent's domain is a
    # non-conditional domain or a random set of rankings; with five agents a
    # pair can be free for 4 or 5 of them, which takes a third bit plane.
    rng = random.Random(20261018)
    bases = {m: nonconditional_domains(m) for m in (2, 3, 4)}
    largest_free_count = 0
    for _ in range(60):
        m = rng.randint(2, 4)
        every = all_rankings(m)
        domains = []
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.5:
                domains.append(rng.choice(bases[m]))
            else:
                picked = rng.sample(range(len(every)), rng.randint(1, len(every)))
                domains.append(PreferenceDomain(m, tuple(every[i] for i in sorted(picked))))
        partition = ResponsePartition.of(ProductDomain.of(domains), [classify(d) for d in domains])
        pairs = list(itertools.combinations(range(m), 2))
        for block, block_pd in zip(count_second_step(partition).blocks, partition.block_products):
            oracle = sum(count_sp_range2(block_pd.agents, pair) for pair in pairs)
            assert block.two_outcome == oracle, (domains, block.index)
            pair_counts = block.pair_counts
            assert block.two_outcome == sum(pc.count for pc in pair_counts)
            assert [pc.pair for pc in pair_counts] == pairs
            for pc in pair_counts:
                largest_free_count = max(largest_free_count, len(pc.free_agents))
    assert largest_free_count >= 4  # a third bit plane was needed


def test_count_second_step_validation(ex1_spec):
    # The maps are checked once, where the response partition is built.
    pd = ex1_spec.product
    with pytest.raises(DomainError, match="need 2 restriction maps"):
        ResponsePartition.of(pd, ex1_spec.resolved_maps()[:1])
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
    assert all(nonconditional_closure(pair_sets(d).fixed, d.m) == d for d in domains)


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
    assert power_digit_count(2, 400_000) == decimal_digit_count(2**400_000)  # over 10^5 digits
    with pytest.raises(DomainError):
        power_digit_count(0, 3)
    with pytest.raises(DomainError):
        power_digit_count(2, -1)


def test_power_digit_count_routes_agree(monkeypatch):
    # Powers of at most EXACT_POWER_BITS bits are built; the logarithm route
    # must give the same counts on them.
    cases = [(base, exponent) for base in range(1, 13) for exponent in range(0, 400, 7)]
    cases += [(5, 6400), (7, 4681), (10, 3000), (1000, 900)]
    built = [power_digit_count(base, exponent) for base, exponent in cases]
    assert built == [decimal_digit_count(base**exponent) for base, exponent in cases]
    monkeypatch.setattr("spdom.counting.EXACT_POWER_BITS", -1)
    assert [power_digit_count(base, exponent) for base, exponent in cases] == built


def test_power_digit_count_near_a_convergent():
    # 4515634950974286551821770101394324536311 * log10(7) is within 1e-40 of
    # an integer from below; an 80-digit logarithm rounds it up to that integer.
    exponent = 4515634950974286551821770101394324536311
    assert power_digit_count(7, exponent) == 3816154246488244298397143709712602630060


def _convergent_denominators(x: Decimal, limit: int) -> list[int]:
    """The denominators up to ``limit`` of the continued-fraction convergents
    of ``x``, read as an exact fraction."""
    rest = Fraction(x)
    denominators, (before, q) = [], (1, 0)
    while True:
        whole = math.floor(rest)
        before, q = q, whole * q + before
        if q > limit:
            return denominators
        denominators.append(q)
        rest = 1 / (rest - whole)


@pytest.mark.parametrize("base", range(2, 10))
def test_power_digit_count_at_convergents(base):
    # q * log10(base) comes closest to an integer at the convergents q (best
    # approximations, Khinchin, "Continued Fractions", 1964), where a rounded
    # logarithm is likeliest to cross it.  The reference is exact up to 10^5
    # digits; beyond, a logarithm of 400 digits times the exponent, rounded to
    # 4 * (the exponent's digits) + 50 digits, whose error stays below
    # 10 ** (2 - precision) of the product.
    with localcontext() as ctx:
        ctx.prec = 400
        log = Decimal(base).log10()
    for q in _convergent_denominators(log, 10**80):
        for exponent in (q, q + 1):
            if exponent * math.log10(base) < 100_000:
                expected = decimal_digit_count(base**exponent)
            else:
                with localcontext() as ctx:
                    ctx.prec = 4 * len(str(exponent)) + 50
                    value = log * exponent
                    error = value.scaleb(2 - ctx.prec)
                    whole = value.to_integral_value(ROUND_FLOOR)
                    assert min(value - whole, whole + 1 - value) > error
                expected = int(whole) + 1
            assert power_digit_count(base, exponent) == expected, (base, exponent)


def test_power_digit_count_of_powers_of_ten():
    for exponent in (0, 1, 7, 10**5, 4515634950974286551821770101394324536311, 10**80):
        assert power_digit_count(10, exponent) == exponent + 1
        assert power_digit_count(100, exponent) == 2 * exponent + 1


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


def test_one_domain_family_is_one_instance():
    # At m = 1 the family has one instance, whatever the agent count.
    report = verify_impossibility(ProductFamily(nonconditional_domains(1), 500), audit_sample=3)
    assert report == (1, 1, (), 1, ())


# ---------------------------------------------------------------------------
# The orbit sweep against the per-instance sweep


def _single_peaked_base() -> tuple:
    """Single-peaked domains over every axis of 3 alternatives: conditional,
    and closed under relabeling."""
    domains = {
        tuple(r.order for r in d.rankings): d
        for d in (
            generate_domain("single_peaked", axis=axis)
            for axis in itertools.permutations(range(3))
        )
    }
    return tuple(domains[key] for key in sorted(domains))


@functools.lru_cache(maxsize=None)
def _family_and_oracle(m, n: int):
    """The family, and the per-instance oracle's rules and unaudited report."""
    base = _single_peaked_base() if m == "sp" else nonconditional_domains(m)
    instances = [ProductDomain.of(list(c)) for c in itertools.product(base, repeat=n)]
    rules = oracles.sweep_rules(instances)
    report = oracles.verify_impossibility_per_instance(instances, rules=rules)
    return ProductFamily(base, n), instances, rules, report


@pytest.mark.parametrize(
    "m, n, audit_sample, seed",
    [(2, n, 0, None) for n in range(1, 5)]
    + [(3, n, 0, None) for n in range(1, 4)]
    + [(3, n, k, seed) for n in range(1, 4) for k in (100, 200) for seed in (1, 2, 7)]
    + [("sp", 2, 0, None), ("sp", 2, 10, 3)],
)
def test_orbit_sweep_matches_per_instance_sweep(m, n, audit_sample, seed):
    family, instances, rules, unaudited = _family_and_oracle(m, n)
    audited, faults = oracles.audit_per_instance(rules, audit_sample, seed)
    expected = unaudited._replace(audited=audited, audit_faults=faults)
    assert verify_impossibility(family, audit_sample=audit_sample, seed=seed) == expected
    if audit_sample == 0:
        assert list(family) == instances
    if m == "sp":
        # The violations run through orbits of 3 and 6 instances.
        assert len(expected.violations) == 57
        assert {v.instance for v in expected.violations} == set(range(9))


def test_orbit_counts_and_members():
    known = {(3, 2): 39, (3, 3): 241, (4, 2): 1096}
    shapes = [(2, n) for n in range(1, 5)] + [(3, n) for n in range(1, 4)] + [(4, 1), (4, 2)]
    for m, n in shapes:
        family = ProductFamily(nonconditional_domains(m), n)
        orbits = FamilyOrbits(family)
        # Burnside's lemma over S_n x S_m is an independent route to the count.
        assert len(orbits.keys) == oracles.burnside_orbit_count(family.base, n), (m, n)
        assert len(orbits.keys) == known.get((m, n), len(orbits.keys))
        found = [orbits.members(k) for k in range(len(orbits.keys))]
        assert sorted(i for members in found for i in members) == list(range(len(family)))
        assert [len(members) for members in found] == orbits.sizes
        assert [members[0] for members in found] == sorted(members[0] for members in found)
        for k, members in enumerate(found):
            assert members == sorted(members)
            assert family[members[0]] == orbits.product(k)
            sizes = {tuple(sorted(family[i].sizes)) for i in members}
            assert len(sizes) == 1
        keys = itertools.combinations_with_replacement(range(len(family.base)), n)
        assert [orbits.position(key) for key in keys] == list(range(orbits.count))


def test_orbit_count_at_m4_with_3_agents():
    # 219 base domains: 1,774,630 multisets, 10,503,459 instances.
    family = ProductFamily(nonconditional_domains(4), 3)
    orbits = FamilyOrbits(family)
    assert len(orbits.keys) == oracles.burnside_orbit_count(family.base, 3) == 74882
    assert sum(orbits.sizes) == len(family) == 219**3
    assert orbits.count == 1774630 and min(orbits.number) == 0


@pytest.mark.parametrize(
    "m, n", [(2, n) for n in range(1, 5)] + [(3, n) for n in range(1, 4)] + [("sp", 2)]
)
def test_carried_rules_match_enumeration(m, n):
    family, instances, rules, _ = _family_and_oracle(m, n)
    orbits = FamilyOrbits(family)
    for k in range(len(orbits.keys)):
        tables = [bytes(r.table) for r in enumerate_sp_rules(orbits.product(k))]
        for member in orbits.members(k):
            expected = [bytes(r.table) for r in rules[member]]
            assert orbits.carry(k, member, tables) == expected, (k, member)


@pytest.mark.parametrize("m, n", [(2, 3), (2, 4), (3, 2), (3, 3), ("sp", 2)])
def test_locator_follows_instance_order(m, n):
    family, instances, rules, _ = _family_and_oracle(m, n)
    orbits = FamilyOrbits(family)
    counts = [len(list(enumerate_sp_rules(orbits.product(k)))) for k in range(len(orbits.keys))]
    locate = orbits.locator(counts)
    pool = [(i, j) for i, found in enumerate(rules) for j in range(len(found))]
    picks = range(len(pool))
    if len(pool) > 3000:
        picks = random.Random(n).sample(picks, 3000)
    for pick in picks:
        number, instance, offset = locate(pick)
        assert (instance, offset) == pool[pick]
        assert instance in orbits.members(number)


def test_orbits_need_a_relabel_closed_base():
    with pytest.raises(AssertionError):
        FamilyOrbits(ProductFamily((SP3,), 2))
    with pytest.raises(DomainError):
        ProductFamily(nonconditional_domains(2), 0)
    with pytest.raises(DomainError):
        ProductFamily((), 2)


def test_first_over_matches_the_first_instance_over_the_guard():
    for m, agents in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)):
        family = ProductFamily(nonconditional_domains(m), agents)
        counts = [family[i].profile_count for i in range(len(family))]
        for guard in sorted(set(counts) | {c - 1 for c in counts} | {max(counts) + 5}):
            if guard < 1:
                continue
            expected = next(((i, c) for i, c in enumerate(counts) if c > guard), None)
            assert family.first_over(guard) == expected, (m, agents, guard)


def test_first_over_does_not_build_the_family():
    family = ProductFamily(nonconditional_domains(3), 100)
    index, count = family.first_over(10_000)
    assert family[index].profile_count == count == 15552
    assert family[index].sizes == (1,) * 94 + (2,) + (6,) * 5
    with pytest.raises(IndexError):
        family[19**100]


def test_orbit_sweep_enumerates_each_orbit_once(monkeypatch):
    import spdom.orbits as orbits

    calls = []
    original = orbits.enumerate_sp_rules

    def counted(pd, *args, **kwargs):
        calls.append(pd)
        return original(pd, *args, **kwargs)

    monkeypatch.setattr(orbits, "enumerate_sp_rules", counted)
    family = ProductFamily(nonconditional_domains(3), 3)
    report = verify_impossibility(family)
    assert (report.instances, report.rules_checked) == (6859, 70422)
    assert len(calls) == 241
    # The audit carries its rules from the sweep's enumerations.
    calls.clear()
    report = verify_impossibility(family, audit_sample=200, seed=1)
    assert (report.rules_checked, report.audited, report.audit_faults) == (70422, 200, ())
    assert len(calls) == 241
    # With no tables kept, each picked orbit's first instance is enumerated once more.
    calls.clear()
    monkeypatch.setattr(orbits, "KEPT_CELLS", 0)
    assert verify_impossibility(family, audit_sample=200, seed=1) == report
    assert len(calls) == 241 + len(set(calls[241:])) > 241


def test_audit_reuses_the_sweeps_enumeration(monkeypatch):
    import spdom.orbits as orbits

    calls = []
    original = orbits.enumerate_sp_rules

    def counted(pd, *args, **kwargs):
        calls.append(pd)
        return original(pd, *args, **kwargs)

    monkeypatch.setattr(orbits, "enumerate_sp_rules", counted)
    instances = [ProductDomain.of([SP3, SP3]), ProductDomain.of([SP3, UNI3])]
    report = verify_impossibility(instances, audit_sample=10, seed=1)
    assert (report.rules_checked, report.audited) == (44, 10)
    assert len(calls) == 2  # one per instance: the audit enumerates nothing again
