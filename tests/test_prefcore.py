from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spdom import (
    MAX_ALTERNATIVES,
    DomainError,
    OrderedPair,
    PreferenceDomain,
    ProductDomain,
    Ranking,
    SizeLimitError,
    UnsatisfiableRestrictionError,
    all_rankings,
    consistent_rankings,
    default_labels,
    generate_domain,
    nonconditional_closure,
    pair_sets,
)
from spdom.rules import OptionSets


# ---------------------------------------------------------------------------
# Rankings


def test_ranking_from_order_basics():
    r = Ranking((2, 0, 1))
    assert r.order == (2, 0, 1)
    assert r.m == 3
    assert r.top == 2
    assert r.position == (1, 2, 0)
    assert r.prefers(2, 0) and r.prefers(0, 1) and not r.prefers(1, 2)


def test_ranking_satisfies_and_ordered_pairs():
    r = Ranking((1, 2, 0))
    assert r.satisfies([(1, 2), (2, 0)])
    assert not r.satisfies([(0, 1)])
    assert r.ordered_pairs() == ((1, 0), (1, 2), (2, 0))


def test_ranking_rejects_non_permutations():
    with pytest.raises(DomainError):
        Ranking((0, 0, 1))
    with pytest.raises(DomainError):
        Ranking((0, 1, 3))
    with pytest.raises(DomainError):
        Ranking(())
    direct = Ranking((2, 0, 1))
    assert direct == Ranking((2, 0, 1))
    assert hash(direct) == hash(Ranking((2, 0, 1)))


def test_ranking_relabeled():
    r = Ranking((0, 1, 2))
    # Swap alternatives 0 and 2: the best alternative is now called 2.
    assert r.relabeled((2, 1, 0)).order == (2, 1, 0)


@given(st.permutations(list(range(5))))
def test_ranking_roundtrip_m5(order):
    r = Ranking(tuple(order))
    assert list(r.order) == list(order)
    for i, alt in enumerate(order):
        assert r.position[alt] == i
    for a, b in itertools.combinations(order, 2):
        assert r.prefers(a, b) != r.prefers(b, a)


def test_all_rankings_counts_and_order():
    for m in range(1, 6):
        rs = all_rankings(m)
        assert len(rs) == len(set(rs))
        import math

        assert len(rs) == math.factorial(m)
        assert [r.order for r in rs] == sorted(r.order for r in rs)


# ---------------------------------------------------------------------------
# Domain generators vs independent oracles


AXES_3_TO_5 = [axis for m in (3, 4, 5) for axis in itertools.permutations(range(m))]


@pytest.mark.parametrize("axis", AXES_3_TO_5)
def test_single_peaked_matches_prefix_oracle_m3(axis):
    d = generate_domain("single_peaked", axis=list(axis))
    assert [r.order for r in d.rankings] == oracles.prefix_interval_orders(axis)


def test_single_peaked_m4_and_count():
    for m in (3, 4, 5):
        d = generate_domain("single_peaked", axis=list(range(m)))
        assert len(d) == 2 ** (m - 1)
    axis = (2, 0, 3, 1)
    d = generate_domain("single_peaked", axis=list(axis))
    assert [r.order for r in d.rankings] == oracles.prefix_interval_orders(axis)


def test_single_dipped_is_reversed_single_peaked():
    for axis in AXES_3_TO_5:
        d = generate_domain("single_dipped", axis=list(axis))
        assert sorted(r.order for r in d.rankings) == oracles.reversed_prefix_interval_orders(
            axis
        )


@pytest.mark.parametrize("m", range(1, 8))
def test_single_peaked_generation_matches_the_filter(m):
    # Grown outward from each peak against the definition's filter over all
    # m! rankings, on the identity axis, its reverse and two shuffles.
    rng = random.Random(m)
    axes = {tuple(range(m)), tuple(reversed(range(m)))}
    axes |= {tuple(rng.sample(range(m), m)) for _ in range(2)}
    for axis in sorted(axes):
        peaked = oracles.single_peaked_by_filter(axis)
        assert len(peaked) == 2 ** (m - 1)
        d = generate_domain("single_peaked", axis=list(axis))
        assert [r.order for r in d.rankings] == peaked
        d = generate_domain("single_dipped", axis=list(axis))
        assert [r.order for r in d.rankings] == sorted(order[::-1] for order in peaked)


def test_universal_domain():
    d = generate_domain("universal", m=3)
    assert len(d) == 6
    assert d.rankings == all_rankings(3)


def test_self_preferring():
    d = generate_domain("self_preferring", m=4, owner=2)
    assert len(d) == 6  # 3! orders of the others
    assert all(r.top == 2 for r in d.rankings)


def test_juror_bias():
    d = generate_domain("juror_bias", m=4, high=[0, 1], low=[3])
    expected = oracles.orders_satisfying_pairs(4, [(0, 3), (1, 3)])
    assert [r.order for r in d.rankings] == expected
    with pytest.raises(DomainError):
        generate_domain("juror_bias", m=3, high=[0], low=[0])


def test_generate_domain_parameter_validation():
    with pytest.raises(DomainError):
        generate_domain("universal")  # missing m
    with pytest.raises(DomainError):
        generate_domain("universal", m=3, extra=1)
    with pytest.raises(DomainError):
        generate_domain("no_such_kind", m=3)


def test_alternative_count_guard():
    with pytest.raises(SizeLimitError):
        generate_domain("universal", m=MAX_ALTERNATIVES + 1)
    assert default_labels(3) == ("a", "b", "c")
    with pytest.raises(SizeLimitError):
        default_labels(MAX_ALTERNATIVES + 1)


# ---------------------------------------------------------------------------
# Fixed/free pairs and closures


def test_pair_sets_single_peaked3_all_free():
    d = generate_domain("single_peaked", axis=[0, 1, 2])
    sets = pair_sets(d)
    assert sets.fixed == frozenset()
    assert sets.free == frozenset({(0, 1), (0, 2), (1, 2)})


def test_pair_sets_chain():
    d = PreferenceDomain.of([Ranking((0, 1, 2))])
    sets = pair_sets(d)
    assert sets.free == frozenset()
    assert sets.fixed == frozenset(
        {OrderedPair(0, 1), OrderedPair(0, 2), OrderedPair(1, 2)}
    )


def test_consistent_rankings_matches_oracle():
    pairs = [(0, 2), (1, 2)]
    got = [r.order for r in consistent_rankings(pairs, 3)]
    assert got == oracles.orders_satisfying_pairs(3, pairs)
    assert consistent_rankings([(0, 1), (1, 0)], 3) == ()


def test_nonconditional_closure_unsatisfiable():
    with pytest.raises(UnsatisfiableRestrictionError):
        nonconditional_closure([(0, 1), (1, 2), (2, 0)], 3)


@settings(max_examples=60)
@given(
    st.sets(st.sampled_from(range(6)), min_size=1, max_size=6).map(
        lambda ids: PreferenceDomain.of(all_rankings(3)[i] for i in ids)
    )
)
def test_closure_contains_domain_and_is_idempotent(d):
    closure = nonconditional_closure(pair_sets(d).fixed, 3)
    assert set(d.rankings) <= set(closure.rankings)
    again = nonconditional_closure(pair_sets(closure).fixed, 3)
    assert again == closure


# ---------------------------------------------------------------------------
# PreferenceDomain container behavior


def test_domain_canonical_sorting_and_lookup():
    rs = [Ranking(o) for o in [(2, 1, 0), (0, 1, 2)]]
    d = PreferenceDomain.of(rs)
    assert [r.order for r in d.rankings] == [(0, 1, 2), (2, 1, 0)]
    assert d.rankings.index(rs[0]) == 1
    assert Ranking((1, 0, 2)) not in d.rankings


def test_domain_rejects_duplicates_and_mixed_sizes():
    r = Ranking((0, 1, 2))
    with pytest.raises(DomainError):
        PreferenceDomain.of([r, Ranking((0, 1, 2))])
    with pytest.raises(DomainError):
        PreferenceDomain.of([r, Ranking((0, 1, 2, 3))])
    with pytest.raises(DomainError):
        PreferenceDomain.of([])


def test_domain_hash_is_taken_once(monkeypatch):
    # Equal domains built apart hash and compare equal; a cache keyed by a
    # domain hashes it without visiting its rankings again.
    d = PreferenceDomain.of(all_rankings(4))
    e = PreferenceDomain.of(reversed([Ranking(r.order) for r in all_rankings(4)]))
    assert d is not e and d == e and hash(d) == hash(e)
    assert d != generate_domain("single_peaked", axis=[0, 1, 2, 3])
    OptionSets.of(d)
    calls = []
    ranking_hash = Ranking.__hash__
    monkeypatch.setattr(Ranking, "__hash__", lambda r: calls.append(r) or ranking_hash(r))
    assert OptionSets.of(d) is OptionSets.of(e)
    assert pair_sets(d) is pair_sets(e)
    assert calls == []


# ---------------------------------------------------------------------------
# Product domains


def _mixed_product() -> ProductDomain:
    d1 = generate_domain("single_peaked", axis=[0, 1, 2])  # 4 rankings
    d2 = generate_domain("universal", m=3)  # 6 rankings
    return ProductDomain.of([d1, d2])


def test_product_basics():
    pd = _mixed_product()
    assert pd.m == 3 and pd.n == 2
    assert pd.sizes == (4, 6)
    assert pd.strides == (6, 1)
    assert pd.profile_count == 24
    assert pd.labels == ("a", "b", "c")
    assert pd.agent_names == ("1", "2")


def test_profile_index_roundtrip_and_order():
    pd = _mixed_product()
    seen = []
    for k in range(pd.profile_count):
        profile = pd.profile_at(k)
        seen.append(profile)
    assert seen == list(pd.iter_profiles())
    # Agent 0 is the most significant coordinate.
    assert seen[0] == (0, 0) and seen[1] == (0, 1) and seen[6] == (1, 0)


@given(st.integers(min_value=0, max_value=23))
def test_profile_at_matches_product_enumeration(k):
    pd = _mixed_product()
    expected = list(itertools.product(range(4), range(6)))[k]
    assert pd.profile_at(k) == expected


def test_column_and_fibers_read_the_profile_order():
    rng = random.Random(20261018)
    rankings = all_rankings(3)
    for _ in range(200):
        sizes = [rng.choice((1, 1, 2, 3, 4, 6)) for _ in range(rng.randint(1, 4))]
        pd = ProductDomain.of([PreferenceDomain.of(rng.sample(rankings, k)) for k in sizes])
        profiles = list(pd.iter_profiles())
        for i in range(pd.n):
            assert list(pd.column(i)) == [p[i] for p in profiles]
            assert pd.fibers(i) == [k for k, p in enumerate(profiles) if p[i] == 0]


def test_product_validation():
    d3 = generate_domain("universal", m=3)
    d4 = generate_domain("universal", m=4)
    with pytest.raises(DomainError):
        ProductDomain.of([d3, d4])
    with pytest.raises(DomainError):
        ProductDomain.of([])
    with pytest.raises(DomainError):
        ProductDomain.of([d3], labels=["a", "a", "b"])
    with pytest.raises(DomainError):
        ProductDomain.of([d3, d3], agent_names=["1", "1"])
    with pytest.raises(DomainError):
        ProductDomain.of([d3]).profile_at(6)


def test_with_agents_keeps_identity():
    pd = _mixed_product()
    sub = pd.with_agents([pd.agents[0], pd.agents[0]])
    assert sub.labels == pd.labels and sub.agent_names == pd.agent_names
    assert sub.sizes == (4, 4)
