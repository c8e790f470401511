from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spdom import (
    SCAN_MODES,
    DomainError,
    DomainRestriction,
    OrderedPair,
    PreferenceDomain,
    RestrictionMap,
    UnsatisfiableRestrictionError,
    all_rankings,
    answer_block_by_formula,
    answer_closure_pairs,
    apply_restriction,
    classify,
    generate_domain,
    is_non_conditional,
    partition_by_answers,
    rebuild,
    relabel_domain,
    relabel_map,
    satisfied_antecedents,
)

SP3 = generate_domain("single_peaked", axis=[0, 1, 2])


# ---------------------------------------------------------------------------
# Restriction maps as values


def test_restriction_map_merges_and_orders_conditionals():
    m = RestrictionMap.of(
        3,
        [],
        [([(0, 1)], [(1, 2)]), ([(0, 1)], [(0, 2)]), ([(0, 2)], [(1, 2)])],
    )
    assert m.conditionals == (
        (frozenset({OrderedPair(0, 1)}), frozenset({OrderedPair(0, 2), OrderedPair(1, 2)})),
        (frozenset({OrderedPair(0, 2)}), frozenset({OrderedPair(1, 2)})),
    )
    assert m.conditions == frozenset({OrderedPair(0, 1), OrderedPair(0, 2)})
    assert not m.is_non_conditional


def test_restriction_map_validation():
    with pytest.raises(DomainError):
        RestrictionMap.of(3, [(0, 1), (1, 0)])
    with pytest.raises(DomainError):
        RestrictionMap.of(3, [], [([], [(0, 1)])])
    with pytest.raises(DomainError):
        RestrictionMap.of(3, [], [([(0, 1)], [])])
    with pytest.raises(DomainError):
        RestrictionMap.of(3, [(0, 1)], [([(0, 2)], [(1, 0)])])
    with pytest.raises(DomainError):
        RestrictionMap.of(3, [(0, 3)])


def test_conclusions_for():
    m = RestrictionMap.of(
        5, [], [([(0, 1)], [(1, 2)]), ([(1, 2)], [(2, 3)]), ([(2, 3)], [(3, 4)])]
    )
    assert m.conclusions_for(frozenset({OrderedPair(2, 3)})) == frozenset({OrderedPair(3, 4)})
    assert m.conclusions_for(
        frozenset({OrderedPair(0, 1), OrderedPair(1, 2), OrderedPair(2, 3)})
    ) == frozenset({OrderedPair(1, 2), OrderedPair(2, 3), OrderedPair(3, 4)})
    assert m.conclusions_for(frozenset()) == frozenset()


def test_apply_restriction():
    universal = generate_domain("universal", m=3)
    r = DomainRestriction(frozenset({OrderedPair(0, 1)}), OrderedPair(1, 2))
    assert apply_restriction(universal, r) == SP3
    total = DomainRestriction(frozenset(), OrderedPair(0, 1))
    chain = generate_domain("explicit", rankings=[(1, 0, 2)])
    with pytest.raises(UnsatisfiableRestrictionError):
        apply_restriction(chain, total)


# ---------------------------------------------------------------------------
# Classification: frozen expected maps


def test_classify_single_peaked3_default():
    m = classify(SP3)
    assert m.base == frozenset()
    assert m.conditionals == (
        (frozenset({OrderedPair(0, 1)}), frozenset({OrderedPair(1, 2)})),
    )
    assert rebuild(m) == SP3


def test_classify_single_peaked3_reversed():
    m = classify(SP3, scan="reversed")
    assert m.base == frozenset()
    assert m.conditionals == (
        (frozenset({OrderedPair(2, 1)}), frozenset({OrderedPair(1, 0)})),
    )
    assert rebuild(m) == SP3


def test_classify_rejects_unknown_scan():
    assert SCAN_MODES == ("default", "reversed")
    with pytest.raises(DomainError):
        classify(SP3, scan="sideways")


def test_classify_non_conditional_domains():
    universal = generate_domain("universal", m=3)
    m = classify(universal)
    assert m.base == frozenset() and m.conditionals == ()

    one_pair = generate_domain("fixed_pairs", m=3, pairs=[(0, 1)])
    m = classify(one_pair)
    assert m.base == frozenset({OrderedPair(0, 1)}) and m.conditionals == ()
    assert rebuild(m) == one_pair

    singleton = generate_domain("explicit", rankings=[(0, 1, 2)])
    m = classify(singleton)
    assert m.base == frozenset(
        {OrderedPair(0, 1), OrderedPair(0, 2), OrderedPair(1, 2)}
    )
    assert m.conditionals == ()


def test_classify_two_agent_fixture_domain(ex1_spec):
    # Five alternatives v w x y z (ids 0..4); the domain keeps every ranking
    # with y above x plus the x-above-y rankings placing z over both v and w.
    d = ex1_spec.agents[0].domain
    assert len(d) == 80
    m = classify(d)
    assert m.base == frozenset()
    assert m.conditionals == (
        (frozenset({OrderedPair(0, 4)}), frozenset({OrderedPair(3, 2)})),
        (frozenset({OrderedPair(1, 4)}), frozenset({OrderedPair(3, 2)})),
    )
    assert rebuild(m) == d
    # The fixture's declared hint is a different but equivalent map.
    hint = ex1_spec.agents[0].map_hint
    assert hint is not None and hint != m
    assert rebuild(hint) == d


def test_classify_chain_fixture_domain(ex2_spec):
    d = ex2_spec.agents[0].domain
    assert len(d) == 16
    assert d == generate_domain("single_peaked", axis=[0, 1, 2, 3, 4])
    m = classify(d)
    assert not m.is_non_conditional
    assert rebuild(m) == d


def test_rebuild_unsatisfiable():
    m = RestrictionMap.of(3, [(0, 1), (1, 2)], [([(0, 2)], [(2, 0)])])
    with pytest.raises(UnsatisfiableRestrictionError):
        rebuild(m)


# ---------------------------------------------------------------------------
# Classification: exhaustive identity on three alternatives


@pytest.mark.parametrize("scan", SCAN_MODES)
def test_rebuild_classify_identity_all_m3_subsets(scan):
    rs = all_rankings(3)
    for bits in range(1, 1 << 6):
        d = PreferenceDomain.of(rs[i] for i in range(6) if bits >> i & 1)
        m = classify(d, scan=scan)
        assert rebuild(m) == d
        assert m.is_non_conditional == is_non_conditional(d)


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.sampled_from(range(24)), min_size=1, max_size=24),
    st.sampled_from(SCAN_MODES),
)
def test_rebuild_classify_identity_m4_samples(ids, scan):
    rs = all_rankings(4)
    d = PreferenceDomain.of(rs[i] for i in ids)
    assert rebuild(classify(d, scan=scan)) == d


def test_rebuild_membership_matches_loop_oracle(ex2_spec):
    hint = ex2_spec.agents[0].map_hint
    base = [tuple(p) for p in hint.base]
    conds = [
        ([tuple(p) for p in ante], [tuple(c) for c in concl])
        for ante, concl in hint.conditionals
    ]
    domain_orders = {r.order for r in rebuild(hint).rankings}
    for order in itertools.permutations(range(5)):
        assert oracles.keeps_ranking(order, base, conds) == (order in domain_orders)


# ---------------------------------------------------------------------------
# Answer sets and partitions


def test_satisfied_antecedents():
    m = classify(SP3)
    xyz = all_rankings(3)[0]  # (0, 1, 2)
    zyx = all_rankings(3)[5]  # (2, 1, 0)
    assert satisfied_antecedents(xyz, m) == frozenset({OrderedPair(0, 1)})
    assert satisfied_antecedents(zyx, m) == frozenset()


def test_realizable_answer_sets_chain(ex2_spec):
    d = ex2_spec.agents[0].domain
    hint = ex2_spec.agents[0].map_hint
    blocks = partition_by_answers(d, hint)
    assert [answers for answers, _ in blocks] == [
        frozenset(),
        frozenset({OrderedPair(2, 3)}),
        frozenset({OrderedPair(1, 2), OrderedPair(2, 3)}),
        frozenset({OrderedPair(0, 1), OrderedPair(1, 2), OrderedPair(2, 3)}),
    ]
    assert {satisfied_antecedents(r, hint) for r in d.rankings} == {a for a, _ in blocks}
    assert [len(block) for _, block in blocks] == [5, 6, 4, 1]


def test_partition_blocks_disjoint_cover_non_conditional(ex1_spec, ex2_spec):
    for spec in (ex1_spec, ex2_spec):
        d = spec.agents[0].domain
        hint = spec.agents[0].map_hint
        blocks = partition_by_answers(d, hint)
        seen: set = set()
        for _, block in blocks:
            assert is_non_conditional(block)
            orders = {r.order for r in block.rankings}
            assert not (orders & seen)
            seen |= orders
        assert seen == {r.order for r in d.rankings}


def test_restriction_and_formula_routes_agree(ex1_spec, ex2_spec):
    # Two independent routes to each answer block: filtering the domain member
    # by member, and rebuilding from the closed-form fixed-pair description.
    for spec in (ex1_spec, ex2_spec):
        d = spec.agents[0].domain
        hint = spec.agents[0].map_hint
        for answers, by_filter in partition_by_answers(d, hint):
            assert by_filter == answer_block_by_formula(hint, answers)


def test_unrealizable_answer_sets_return_none(ex2_spec):
    d = ex2_spec.agents[0].domain
    hint = ex2_spec.agents[0].map_hint
    # Answering v>w but not w>x contradicts the first conditional's conclusion.
    answers = [(0, 1)]
    assert frozenset({OrderedPair(0, 1)}) not in {a for a, _ in partition_by_answers(d, hint)}
    assert answer_block_by_formula(hint, answers) is None


def test_answer_validation(ex2_spec):
    hint = ex2_spec.agents[0].map_hint
    with pytest.raises(DomainError):
        answer_closure_pairs(hint, [(3, 4)])  # not a condition pair
    with pytest.raises(DomainError):
        answer_closure_pairs(hint, [(0, 1), (1, 0)])
    with pytest.raises(DomainError):
        answer_block_by_formula(hint, [(4, 3)])


# ---------------------------------------------------------------------------
# Relabeling


def test_relabel_involution():
    perm = (2, 1, 0)
    assert relabel_domain(relabel_domain(SP3, perm), perm) == SP3
    m = classify(SP3)
    assert relabel_map(relabel_map(m, perm), perm) == m
    assert rebuild(relabel_map(m, perm)) == relabel_domain(SP3, perm)
