from __future__ import annotations

import importlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import answer_block_by_formula, answer_closure_pairs, satisfied_antecedents
from spdom import (
    SCAN_MODES,
    DomainError,
    OrderedPair,
    PreferenceDomain,
    Ranking,
    RestrictionMap,
    UnsatisfiableRestrictionError,
    all_rankings,
    classify,
    generate_domain,
    nonconditional_closure,
    pair_sets,
    partition_by_answers,
    rebuild,
    relabel_domain,
    relabel_map,
)
from spdom.classify import (
    LATTICE_FREE_PAIR_LIMIT,
    _lattice_chooser,
    _pair_masks,
    _scan_chooser,
    _universe_index,
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


@pytest.mark.parametrize(
    "base, conditionals, message",
    [
        # An out-of-range pair, alone and next to a reversed base pair.
        ([(0, 3)], [], "pair (0, 3) mentions an alternative outside 0..2"),
        ([(0, 1), (1, 0), (0, 3)], [], "pair (0, 3) mentions an alternative outside 0..2"),
        # A reversed base pair, alone and next to a reversed antecedent pair.
        ([(0, 1), (1, 0)], [], "base contains (0, 1) and its reverse"),
        ([(0, 1), (1, 0)], [([(0, 2), (2, 0)], [(1, 2)])], "base contains (0, 1) and its reverse"),
        ([], [([(0, 2), (2, 0)], [(1, 2)])], "antecedent contains (0, 2) and its reverse"),
        # An empty conclusion set, alone and with a reversed antecedent pair.
        ([], [([(0, 1)], [])], "conditional conclusion sets must be nonempty"),
        ([], [([(0, 1), (1, 0)], [])], "conditional conclusion sets must be nonempty"),
        # A conclusion reversing a base pair, alone and in the conditional that
        # sorts before one with a reversed antecedent pair.
        ([(0, 1)], [([(0, 2)], [(1, 0)])], "conclusion (1, 0) contradicts a base fixed pair"),
        (
            [(0, 1)],
            [([(1, 2), (2, 1)], [(0, 2)]), ([(0, 2)], [(1, 0)])],
            "conclusion (1, 0) contradicts a base fixed pair",
        ),
    ],
)
def test_restriction_map_reports_its_first_fault(base, conditionals, message):
    with pytest.raises(DomainError) as info:
        RestrictionMap.of(3, base, conditionals)
    assert str(info.value) == message


def test_apply_restriction():
    universal = generate_domain("universal", m=3)
    r = oracles.DomainRestriction(frozenset({OrderedPair(0, 1)}), OrderedPair(1, 2))
    assert oracles.apply_restriction(universal, r) == SP3
    total = oracles.DomainRestriction(frozenset(), OrderedPair(0, 1))
    chain = PreferenceDomain.of([Ranking((1, 0, 2))])
    with pytest.raises(UnsatisfiableRestrictionError):
        oracles.apply_restriction(chain, total)


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

    one_pair = nonconditional_closure([(0, 1)], 3)
    m = classify(one_pair)
    assert m.base == frozenset({OrderedPair(0, 1)}) and m.conditionals == ()
    assert rebuild(m) == one_pair

    singleton = PreferenceDomain.of([Ranking((0, 1, 2))])
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
        assert m == oracles.classify_by_scan(d, scan=scan)
        assert rebuild(m) == d
        assert m.is_non_conditional == (nonconditional_closure(pair_sets(d).fixed, d.m) == d)


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.sampled_from(range(24)), min_size=1, max_size=24),
    st.sampled_from(SCAN_MODES),
)
def test_rebuild_classify_identity_m4_samples(ids, scan):
    rs = all_rankings(4)
    d = PreferenceDomain.of(rs[i] for i in ids)
    assert rebuild(classify(d, scan=scan)) == d


def _random_domains(m: int, count: int, seed: int) -> list[PreferenceDomain]:
    rng = random.Random(seed)
    rs = all_rankings(m)
    return [
        PreferenceDomain.of(rng.sample(rs, rng.randint(1, len(rs)))) for _ in range(count)
    ]


def _assert_rebuild_matches_loop_oracle(map_: RestrictionMap) -> None:
    base = [tuple(p) for p in map_.base]
    conds = [
        ([tuple(p) for p in ante], [tuple(c) for c in concl])
        for ante, concl in map_.conditionals
    ]
    domain_orders = {r.order for r in rebuild(map_).rankings}
    for order in itertools.permutations(range(map_.m)):
        assert oracles.keeps_ranking(order, base, conds) == (order in domain_orders)


def test_rebuild_membership_matches_loop_oracle(ex2_spec):
    _assert_rebuild_matches_loop_oracle(ex2_spec.agents[0].map_hint)
    for d in _random_domains(4, 60, seed=4):
        for scan in SCAN_MODES:
            _assert_rebuild_matches_loop_oracle(classify(d, scan=scan))


# ---------------------------------------------------------------------------
# Classification: the bitset search against the list-and-combinations scan


@pytest.mark.parametrize("scan", SCAN_MODES)
@pytest.mark.parametrize("m", [4, 5])
def test_classify_matches_scan_oracle_random_domains(m, scan):
    for d in _random_domains(m, 60, seed=m):
        assert classify(d, scan=scan) == oracles.classify_by_scan(d, scan=scan)


def test_classify_matches_scan_oracle_fixture_agents(ex1_spec, ex2_spec, sp3_spec, uni3_spec):
    for spec in (ex1_spec, ex2_spec, sp3_spec, uni3_spec):
        for agent in spec.agents:
            for scan in SCAN_MODES:
                d = agent.domain
                assert classify(d, scan=scan) == oracles.classify_by_scan(d, scan=scan)


def test_classify_matches_scan_oracle_half_of_m6():
    d = PreferenceDomain.of(random.Random(6).sample(all_rankings(6), 360))
    map_ = classify(d)
    assert len(map_.conditionals) > 100
    assert map_ == oracles.classify_by_scan(d)


def _chain_samples(m: int, top: int, count: int, seed: int) -> list[PreferenceDomain]:
    """Seeded samples of the closure of ``0 > 1 > ... > top-1`` over everything
    else: ``m - top`` alternatives stay free, so at most C(m - top, 2) free pairs."""
    closure = nonconditional_closure(
        [(a, b) for a in range(top) for b in range(a + 1, m)], m
    ).rankings
    rng = random.Random(seed)
    return [
        PreferenceDomain.of(rng.sample(closure, rng.randint(2, 40))) for _ in range(count)
    ]


# "when c > d => e > a, e > b" over seven alternatives: every pair is free.
WIDE_M7 = rebuild(RestrictionMap.of(7, [], [([(2, 3)], [(4, 0), (4, 1)])]))


def _conditional_m7(fixed: int) -> PreferenceDomain:
    """``when e > f => g > a, g > b`` over seven alternatives, under the first
    ``fixed`` pairs of ``a > b > c > d``: 21 - fixed free pairs."""
    chain = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    return rebuild(RestrictionMap.of(7, chain[:fixed], [([(4, 5)], [(6, 0), (6, 1)])]))


AT_LIMIT_M7, PAST_LIMIT_M7 = _conditional_m7(4), _conditional_m7(3)


@pytest.mark.parametrize("scan", SCAN_MODES)
@pytest.mark.parametrize("m, top, count", [(7, 1, 3), (7, 2, 3), (8, 2, 2), (8, 3, 2)])
def test_classify_matches_scan_oracle_chain_samples(m, top, count, scan):
    for d in _chain_samples(m, top, count, seed=10 * m + top):
        assert len(pair_sets(d).free) <= LATTICE_FREE_PAIR_LIMIT
        assert classify(d, scan=scan) == oracles.classify_by_scan(d, scan=scan)


@pytest.mark.parametrize("scan", SCAN_MODES)
@pytest.mark.parametrize(
    "d", [AT_LIMIT_M7, PAST_LIMIT_M7, WIDE_M7], ids=["at-limit", "past-limit", "wide"]
)
def test_classify_matches_scan_oracle_wide_m7(d, scan):
    assert classify(d, scan=scan) == oracles.classify_by_scan(d, scan=scan)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_lattice_chooser_does_not_depend_on_call_order(m):
    # Phase two asks about rankings that keep every fixed pair but are not
    # members; one chooser asked about them in any order answers as a fresh
    # chooser per ranking and as the depth-first scan do.
    rng = random.Random(100 + m)
    index, masks = _universe_index(m), _pair_masks(m)
    for d in _random_domains(m, 8, seed=m):
        sets = pair_sets(d)
        members = {r.order for r in d.rankings}
        excluded = [
            r for r in nonconditional_closure(sets.fixed, m).rankings if r.order not in members
        ]
        excluded = rng.sample(excluded, min(len(excluded), 40))
        free_pairs = sorted(sets.free)
        target = sum(1 << index[order] for order in members)
        scan = _scan_chooser(target, free_pairs, masks)
        reused = _lattice_chooser(d.rankings, free_pairs)
        for r in excluded:
            expected = scan(r)
            assert _lattice_chooser(d.rankings, free_pairs)(r) == expected
            assert reused(r) == expected


def test_classify_phase_two_path_follows_free_pair_count(monkeypatch):
    def refuse(*args):
        raise RuntimeError("depth-first scan reached")

    monkeypatch.setattr(importlib.import_module("spdom.classify"), "_first_admissible", refuse)
    half_of_m6 = PreferenceDomain.of(random.Random(6).sample(all_rankings(6), 360))
    assert len(pair_sets(half_of_m6).free) == 15
    assert len(pair_sets(AT_LIMIT_M7).free) == LATTICE_FREE_PAIR_LIMIT
    for d in [half_of_m6, AT_LIMIT_M7, *_random_domains(5, 10, seed=5)]:
        for scan in SCAN_MODES:
            assert rebuild(classify(d, scan=scan)) == d
    assert len(pair_sets(PAST_LIMIT_M7).free) == LATTICE_FREE_PAIR_LIMIT + 1
    assert len(pair_sets(WIDE_M7).free) == 21
    for d in [PAST_LIMIT_M7, WIDE_M7]:
        for scan in SCAN_MODES:
            with pytest.raises(RuntimeError, match="depth-first scan reached"):
                classify(d, scan=scan)


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


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.randoms(use_true_random=False))
def test_partition_matches_member_by_member_answers(m, rng):
    # The mask route against asking every member about every condition pair.
    universe = all_rankings(m)
    d = PreferenceDomain.of(rng.sample(universe, rng.randint(1, len(universe))))
    map_ = classify(d)
    buckets: dict = {}
    for r in d.rankings:
        buckets.setdefault(satisfied_antecedents(r, map_), []).append(r)
    blocks = partition_by_answers(d, map_)
    assert dict(blocks) == {a: PreferenceDomain(m, tuple(block)) for a, block in buckets.items()}
    assert [a for a, _ in blocks] == sorted(buckets, key=lambda a: (len(a), sorted(a)))


def test_partition_blocks_disjoint_cover_non_conditional(ex1_spec, ex2_spec):
    for spec in (ex1_spec, ex2_spec):
        d = spec.agents[0].domain
        hint = spec.agents[0].map_hint
        blocks = partition_by_answers(d, hint)
        seen: set = set()
        for _, block in blocks:
            assert nonconditional_closure(pair_sets(block).fixed, block.m) == block
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


def test_pair_masks_match_the_per_ranking_construction():
    for m in range(1, 9):
        masks = _pair_masks(m)
        expected = oracles.pair_masks_by_ranking(m)
        assert masks == expected, m
        assert list(masks) == list(expected)
