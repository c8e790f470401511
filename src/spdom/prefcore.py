"""Strict preference rankings, preference domains, and product domains.

Alternatives are integers ``0..m-1``; human-readable labels are attached at the
file-format and CLI layer, never here.  A ranking is stored as its best-first
order, checked once to be a permutation; the position of each alternative is
derived from it, and every pairwise comparison reads positions.  Domains are
immutable, canonically sorted, and hashable, so they can key caches and be
compared structurally.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

MAX_ALTERNATIVES = 8
PROFILE_ENUMERATION_LIMIT = 10_000
TABLE_CELL_LIMIT = 10_000_000


class SpdomError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SpdomError, ValueError):
    """Semantically invalid ranking, domain, pair, rule, or file content."""


class UnsatisfiableRestrictionError(DomainError):
    """A restriction set admits no ranking at all."""


class SizeLimitError(SpdomError):
    """An operation exceeded one of the documented size guards."""


class OrderedPair(NamedTuple):
    """An oriented pair: ``top`` is ranked strictly above ``bottom``."""

    top: int
    bottom: int

    def swapped(self) -> "OrderedPair":
        return OrderedPair(self.bottom, self.top)


def _check_alternative_count(m: int) -> None:
    if m < 1:
        raise DomainError(f"need at least one alternative, got m={m}")
    if m > MAX_ALTERNATIVES:
        raise SizeLimitError(
            f"m={m} alternatives exceeds the supported maximum of {MAX_ALTERNATIVES}"
        )


def _check_pair(pair: Sequence[int], m: int) -> OrderedPair:
    if len(pair) != 2:
        raise DomainError(f"a pair has exactly two alternatives, got {pair!r}")
    a, b = pair
    if not (0 <= a < m and 0 <= b < m):
        raise DomainError(f"pair {pair!r} mentions an alternative outside 0..{m - 1}")
    if a == b:
        raise DomainError(f"pair {pair!r} compares an alternative with itself")
    return OrderedPair(a, b)


class _Value:
    """Equality, hash and repr over the attributes ``_compared`` names; only
    instances of one class compare equal, and the hash is of their tuple."""

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({fields})"


class Ranking(_Value):
    """A strict total order over alternatives ``0..m-1``.

    ``order`` lists the alternatives best first and is the only compared
    field; ``position`` (rank of each alternative, 0 = best) is derived from
    it and excluded from equality.
    """

    __slots__ = ("order", "position")
    _compared = ("order",)

    def __init__(self, order: tuple[int, ...]) -> None:
        self.order = order
        m = len(order)
        _check_alternative_count(m)
        if sorted(order) != list(range(m)):
            raise DomainError(f"order {order!r} is not a permutation of 0..{m - 1}")
        self.position = tuple(sorted(range(m), key=order.__getitem__))

    def __eq__(self, other: object) -> bool:  # ``_Value``'s, unrolled: domains compare often
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.order == other.order

    def __hash__(self) -> int:
        return hash((self.order,))

    @property
    def m(self) -> int:
        return len(self.order)

    @property
    def top(self) -> int:
        return self.order[0]

    def prefers(self, a: int, b: int) -> bool:
        """True iff ``a`` is strictly preferred to ``b``."""
        return self.position[a] < self.position[b]

    def satisfies(self, pairs: Iterable[Sequence[int]]) -> bool:
        """True iff every oriented pair in ``pairs`` holds (top above bottom)."""
        position = self.position
        return all(position[p[0]] < position[p[1]] for p in pairs)

    def ordered_pairs(self) -> tuple[OrderedPair, ...]:
        """All m(m-1)/2 oriented pairs realized by this ranking, sorted."""
        pairs = itertools.combinations(self.order, 2)  # (earlier, later) = (top, bottom)
        return tuple(sorted(OrderedPair(a, b) for a, b in pairs))

    def relabeled(self, perm: Sequence[int]) -> "Ranking":
        """Rename alternative ``i`` to ``perm[i]`` keeping relative order."""
        return Ranking(tuple(perm[a] for a in self.order))


@lru_cache(maxsize=None)
def all_rankings(m: int) -> tuple[Ranking, ...]:
    """Every ranking of ``0..m-1``, in canonical (lexicographic order-sequence) order."""
    _check_alternative_count(m)
    return tuple(Ranking(p) for p in itertools.permutations(range(m)))


class PairSets(NamedTuple):
    """Split of the m(m-1)/2 unordered pairs of a domain.

    ``fixed`` holds oriented pairs ranked the same way by every member;
    ``free`` holds unordered pairs ``(a, b)`` with ``a < b`` on which members
    disagree.
    """

    fixed: frozenset[OrderedPair]
    free: frozenset[tuple[int, int]]


class PreferenceDomain(_Value):
    """A nonempty set of rankings over a common alternative set, canonically sorted."""

    __slots__ = ("m", "rankings", "_hash")
    _compared = ("m", "rankings")

    def __init__(self, m: int, rankings: tuple[Ranking, ...]) -> None:
        self.m, self.rankings = m, rankings
        _check_alternative_count(m)
        if not rankings:
            raise DomainError("a preference domain must contain at least one ranking")
        previous: tuple[int, ...] = ()  # sorts before every order
        for r in rankings:
            if r.m != m:
                raise DomainError("all rankings in a domain must share the alternative set")
            if r.order <= previous:
                if r.order == previous:
                    raise DomainError(f"duplicate ranking {r.order!r} in domain")
                raise DomainError("internal: domain rankings not canonically sorted; use .of()")
            previous = r.order
        self._hash = hash((m, tuple(r.order for r in rankings)))  # of the orders, taken once

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def of(cls, rankings: Iterable[Ranking]) -> "PreferenceDomain":
        """Normalize: sort canonically and reject duplicates / mixed sizes."""
        rs = sorted(rankings, key=lambda r: r.order)
        if not rs:
            raise DomainError("a preference domain must contain at least one ranking")
        return cls(rs[0].m, tuple(rs))

    def __len__(self) -> int:
        return len(self.rankings)


@lru_cache(maxsize=None)
def pair_sets(d: PreferenceDomain) -> PairSets:
    """Partition the unordered pairs of ``d`` into fixed and free pairs.

    Always: ``len(fixed) + len(free) == m*(m-1)/2``.
    """
    fixed: set[OrderedPair] = set()
    free: set[tuple[int, int]] = set()
    positions = [r.position for r in d.rankings]
    for a, b in itertools.combinations(range(d.m), 2):
        ahead = sum(p[a] < p[b] for p in positions)
        if 0 < ahead < len(positions):
            free.add((a, b))
        elif ahead:
            fixed.add(OrderedPair(a, b))
        else:
            fixed.add(OrderedPair(b, a))
    return PairSets(frozenset(fixed), frozenset(free))


def consistent_rankings(pairs: Iterable[Sequence[int]], m: int) -> tuple[Ranking, ...]:
    """All rankings satisfying every oriented pair (possibly none), canonical order."""
    _check_alternative_count(m)
    checked = [_check_pair(p, m) for p in pairs]
    forced: set[OrderedPair] = set(checked)
    for p in forced:
        if p.swapped() in forced:
            return ()
    return tuple(r for r in all_rankings(m) if r.satisfies(forced))


def nonconditional_closure(pairs: Iterable[Sequence[int]], m: int) -> PreferenceDomain:
    """The domain of every ranking consistent with the given oriented pairs.

    Raises :class:`UnsatisfiableRestrictionError` when the pairs are
    contradictory or cyclic (no ranking survives).
    """
    pairs = list(pairs)
    survivors = consistent_rankings(pairs, m)
    if not survivors:
        raise UnsatisfiableRestrictionError(
            f"no ranking satisfies the fixed pairs {sorted(tuple(p) for p in pairs)!r}"
        )
    return PreferenceDomain(m, survivors)


def _single_peaked_orders(axis: Sequence[int]) -> list[tuple[int, ...]]:
    """The 2^(m-1) orders single-peaked along ``axis``: from each peak, every
    next alternative is the nearest one left or right of those ranked so far."""
    m = len(axis)
    grown = [(i,) for i in range(m)]  # axis positions, best first
    for _ in range(m - 1):
        grown = [o + (end,) for o in grown for end in (min(o) - 1, max(o) + 1) if 0 <= end < m]
    return [tuple(axis[i] for i in order) for order in grown]


def generate_domain(kind: str, **params) -> PreferenceDomain:
    """Construct one of the built-in domain families.

    Supported kinds (with their keyword parameters):

    - ``universal`` (``m``): every ranking.
    - ``single_peaked`` (``axis``): rankings single-peaked along the given
      left-to-right sequence of alternative ids.
    - ``single_dipped`` (``axis``): rankings single-dipped along the axis.
    - ``self_preferring`` (``m``, ``owner``): rankings placing ``owner`` first.
    - ``juror_bias`` (``m``, ``high``, ``low``): rankings placing every
      alternative in ``high`` above every alternative in ``low``.
    """

    def _take(*names: str) -> list:
        missing = [n for n in names if n not in params]
        if missing:
            raise DomainError(f"domain kind {kind!r} requires parameter(s) {missing}")
        extra = set(params) - set(names)
        if extra:
            raise DomainError(f"domain kind {kind!r} got unexpected parameter(s) {sorted(extra)}")
        return [params[n] for n in names]

    if kind == "universal":
        (m,) = _take("m")
        _check_alternative_count(m)
        return PreferenceDomain(m, all_rankings(m))
    if kind in ("single_peaked", "single_dipped"):
        (axis,) = _take("axis")
        m = len(axis)
        _check_alternative_count(m)
        if sorted(axis) != list(range(m)):
            raise DomainError(f"axis {tuple(axis)!r} is not a permutation of 0..{m - 1}")
        step = -1 if kind == "single_dipped" else 1  # the reverses of the single-peaked
        return PreferenceDomain.of(Ranking(o[::step]) for o in _single_peaked_orders(axis))
    if kind == "self_preferring":
        m, owner = _take("m", "owner")
        _check_alternative_count(m)
        if not 0 <= owner < m:
            raise DomainError(f"owner {owner!r} is outside 0..{m - 1}")
        pairs = [OrderedPair(owner, b) for b in range(m) if b != owner]
        return nonconditional_closure(pairs, m)
    if kind == "juror_bias":
        m, high, low = _take("m", "high", "low")
        _check_alternative_count(m)
        high = list(high)
        low = list(low)
        if not high or not low:
            raise DomainError("juror_bias needs nonempty high and low groups")
        if set(high) & set(low):
            raise DomainError("juror_bias groups must be disjoint")
        pairs = [OrderedPair(a, b) for a in high for b in low]
        return nonconditional_closure(pairs, m)
    raise DomainError(f"unknown domain kind {kind!r}")


def default_labels(m: int) -> tuple[str, ...]:
    _check_alternative_count(m)
    return tuple("abcdefgh"[:m])


class ProductDomain(_Value):
    """Per-agent preference domains over one shared alternative set.

    Profile indices are mixed-radix with agent 0 most significant: the profile
    at index ``k`` assigns agent ``i`` the ranking ``d_i.rankings[digit_i]``
    where the digits are the base-``len(d_i)`` expansion of ``k``.
    """

    _compared = ("labels", "agent_names", "agents")

    def __init__(
        self,
        labels: tuple[str, ...],
        agent_names: tuple[str, ...],
        agents: tuple[PreferenceDomain, ...],
    ) -> None:
        self.labels, self.agent_names, self.agents = labels, agent_names, agents
        if not agents:
            raise DomainError("a product domain needs at least one agent")
        m = agents[0].m
        if any(d.m != m for d in agents):
            raise DomainError("all agents must rank the same alternative set")
        if len(labels) != m:
            raise DomainError(f"expected {m} alternative labels, got {len(labels)}")
        if len(set(labels)) != m:
            raise DomainError("alternative labels must be distinct")
        if len(agent_names) != len(agents):
            raise DomainError("one name per agent required")
        if len(set(agent_names)) != len(agent_names):
            raise DomainError("agent names must be distinct")

    @classmethod
    def of(
        cls,
        agents: Sequence[PreferenceDomain],
        labels: Optional[Sequence[str]] = None,
        agent_names: Optional[Sequence[str]] = None,
    ) -> "ProductDomain":
        agents = tuple(agents)
        if not agents:
            raise DomainError("a product domain needs at least one agent")
        if labels is None:
            labels = default_labels(agents[0].m)
        if agent_names is None:
            agent_names = tuple(str(i + 1) for i in range(len(agents)))
        return cls(tuple(labels), tuple(agent_names), agents)

    @property
    def m(self) -> int:
        return self.agents[0].m

    @property
    def n(self) -> int:
        return len(self.agents)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(d) for d in self.agents)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        strides = [1] * self.n
        for i in range(self.n - 2, -1, -1):
            strides[i] = strides[i + 1] * len(self.agents[i + 1])
        return tuple(strides)

    @cached_property
    def profile_count(self) -> int:
        return math.prod(self.sizes)

    def profile_at(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.profile_count:
            raise DomainError(f"profile index {index} out of range 0..{self.profile_count - 1}")
        digits = [0] * self.n
        for i in range(self.n - 1, -1, -1):
            index, digits[i] = divmod(index, len(self.agents[i]))
        return tuple(digits)

    def iter_profiles(self) -> Iterator[tuple[int, ...]]:
        """All profiles in canonical (index-ascending) order."""
        return itertools.product(*(range(len(d)) for d in self.agents))

    def column(self, agent: int) -> Iterator[int]:
        """``agent``'s ranking index at every profile, in profile order: each
        index repeated ``strides[agent]`` times, the run of all indices
        repeated once per setting of the agents before."""
        stride, size = self.strides[agent], self.sizes[agent]
        runs = self.profile_count // (stride * size)
        digits = itertools.chain.from_iterable(itertools.repeat(range(size), runs))
        if stride == 1:
            return digits
        repeat = itertools.repeat
        return itertools.chain.from_iterable(map(repeat, digits, repeat(stride)))

    def fibers(self, agent: int) -> list[int]:
        """The first profile of each setting of the other agents, ascending:
        the profiles where ``agent`` reports ranking 0.  The agent's other
        rankings follow at steps of ``strides[agent]``."""
        stride = self.strides[agent]
        span = stride * self.sizes[agent]
        return [start + j for start in range(0, self.profile_count, span) for j in range(stride)]

    def with_agents(self, agents: Sequence[PreferenceDomain]) -> "ProductDomain":
        """Same labels and agent names, different per-agent domains."""
        return ProductDomain(self.labels, self.agent_names, tuple(agents))
