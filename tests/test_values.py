"""Value semantics of the package's value types and records.

Value types (``Ranking``, ``PreferenceDomain``, ``ProductDomain``, ``Rule``,
``RestrictionMap``, ``ResponsePartition``, ``ProductFamily``) compare and hash
by their compared fields and equal only their own class; records are
``NamedTuple``s.
"""

from __future__ import annotations

import functools

import pytest

from spdom import (
    DomainError,
    ManipulationWitness,
    PreferenceDomain,
    ProductDomain,
    ProductFamily,
    Ranking,
    ResponsePartition,
    RestrictionMap,
    Rule,
    SizeLimitError,
    generate_domain,
    nonconditional_domains,
)

XYZ, YXZ, ZYX = Ranking((0, 1, 2)), Ranking((1, 0, 2)), Ranking((2, 1, 0))


def _pairs():
    """(x, y, z) per value type: x and y are equal but built apart, z differs."""
    d1, d2 = PreferenceDomain.of([XYZ, YXZ]), PreferenceDomain.of([Ranking((1, 0, 2)), XYZ])
    pd1, pd2 = ProductDomain.of([d1, d1]), ProductDomain.of([d2, d2])
    maps = [RestrictionMap.of(3, [(0, 2)], [([(0, 1)], [(1, 2)])]) for _ in range(2)]
    base = nonconditional_domains(2)
    return [
        (XYZ, Ranking((0, 1, 2)), YXZ),
        (d1, d2, PreferenceDomain.of([XYZ, ZYX])),
        (pd1, pd2, ProductDomain.of([d1, d1], labels=("x", "y", "z"))),
        (*maps, RestrictionMap.of(3, [(2, 0)])),
        (Rule(pd1, (0, 1, 1, 0)), Rule(pd2, (0, 1, 1, 0)), Rule(pd1, (0, 1, 1, 1))),
        (
            ResponsePartition.of(pd1, maps[:1] * 2),
            ResponsePartition.of(pd2, maps[1:] * 2),
            ResponsePartition.of(ProductDomain.of([d1]), maps[:1]),
        ),
        (ProductFamily(base, 2), ProductFamily(tuple(base), 2), ProductFamily(base, 3)),
    ]


@pytest.mark.parametrize("x, y, z", _pairs(), ids=lambda v: type(v).__name__)
def test_equality_and_hash_follow_the_compared_fields(x, y, z):
    assert x is not y and x == y and not x != y and hash(x) == hash(y)
    assert x != z and not x == z
    assert len({x, y, z}) == 2
    assert {x: 1}[y] == 1
    assert repr(x) == repr(y) != repr(z)
    assert repr(x).startswith(type(x).__name__ + "(")


def test_value_types_equal_only_their_own_class():
    assert XYZ != (0, 1, 2) and XYZ != XYZ.order
    domain = PreferenceDomain.of([XYZ])
    assert domain != (3, (XYZ,)) and domain != ProductDomain.of([domain])
    assert repr(XYZ) == "Ranking(order=(0, 1, 2))"
    assert repr(domain) == "PreferenceDomain(m=3, rankings=(Ranking(order=(0, 1, 2)),))"


def test_a_domain_keys_a_cache_by_value():
    @functools.lru_cache(maxsize=None)
    def size(d: PreferenceDomain) -> int:
        calls.append(d)
        return len(d)

    calls: list[PreferenceDomain] = []
    d = generate_domain("single_peaked", axis=[0, 1, 2])
    e = PreferenceDomain.of(Ranking(r.order) for r in reversed(d.rankings))
    assert (size(d), size(e), size(generate_domain("universal", m=3))) == (4, 4, 6)
    assert calls == [d, generate_domain("universal", m=3)] and calls[0] is d


def test_construction_still_checks():
    pd = ProductDomain.of([PreferenceDomain.of([XYZ, YXZ])])
    with pytest.raises(DomainError, match="outcome table needs 2 cells, got 3"):
        Rule(pd, (0, 1, 2))
    with pytest.raises(DomainError, match="not a permutation"):
        Ranking((0, 0, 1))
    with pytest.raises(DomainError, match="duplicate ranking"):
        PreferenceDomain(3, (XYZ, XYZ))
    with pytest.raises(DomainError, match="agent names must be distinct"):
        ProductDomain(("a", "b", "c"), ("1", "1"), (pd.agents[0],) * 2)
    with pytest.raises(DomainError, match="at least one agent"):
        ProductFamily(nonconditional_domains(2), 0)
    with pytest.raises(SizeLimitError):
        Ranking(tuple(range(9)))


def test_records_are_named_tuples():
    w = ManipulationWitness(
        agent=0, profile=(1, 2), deviation=1, sincere_outcome=2, deviating_outcome=0
    )
    assert w == (0, (1, 2), 1, 2, 0) and tuple(w) == (0, (1, 2), 1, 2, 0)
    assert w._fields == ("agent", "profile", "deviation", "sincere_outcome", "deviating_outcome")
    assert w._replace(deviation=0).deviation == 0 and w.deviation == 1
