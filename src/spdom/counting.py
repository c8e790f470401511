"""Exhaustive and closed-form enumeration of strategy-proof rules.

Two independent routes to the same numbers live here on purpose:

- :func:`enumerate_sp_rules` walks outcome tables by backtracking, each
  cell narrowed to what the option-set test admits — the definition;
- :func:`count_second_step` (with :func:`steerable_range_count` and the
  published monotone-function counts of :func:`dedekind`) computes the same
  totals in closed form for rules that are dictatorial-on-a-block or confined
  to two outcomes, which is every strategy-proof rule on non-conditional
  blocks.

The dictatorial count needs no tables.  A dictatorial rule with range C picks
its dictator's best of C, and C must be a set the dictator can fully steer:
every member is the best of C in some ranking of the dictator's domain.  For
k >= 2 two such rules coincide only if they have the same dictator and the
same range (a table that depended on two agents' reports alone would be
constant), so on domains D_1..D_n

    dictatorial(k) = sum_i steerable(D_i, k)    (k >= 2),  = m  (k = 1),

where steerable(D, k) (:func:`steerable_range_count`) counts the steerable
size-k sets of D.

:class:`Catalog` lists the closed-form families as explicit rules, each table
built when it is read; :func:`second_step_catalog` builds them all, and
:func:`nonconditional_domains` lists the domains whose products the theorem
sweep (:mod:`spdom.orbits`) checks.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .classify import AnswerSet, ResponsePartition
from .prefcore import (
    PROFILE_ENUMERATION_LIMIT,
    TABLE_CELL_LIMIT,
    DomainError,
    PreferenceDomain,
    ProductDomain,
    SizeLimitError,
    consistent_rankings,
    pair_sets,
)
from .rules import OptionSets, Rule, _check_profile_guard, _check_table_cap, constant_rule


def enumerate_sp_rules(
    pd: ProductDomain,
    range_filter: Optional[Iterable[int]] = None,
    max_profiles: int = PROFILE_ENUMERATION_LIMIT,
) -> Iterator[Rule]:
    """All strategy-proof rules on ``pd``, outcome tables in ascending
    lexicographic order, optionally with range restricted to ``range_filter``.

    Backtracking over the canonical profile order, one cell at a time.  Per
    agent, cell t keeps the option-set state (O, U) of the cells of its fiber
    before t (:class:`~spdom.rules.OptionSets`): the state kept at the
    previous one, q = t - strides[i], plus q's outcome.  t's candidates are
    the outcomes admissible for its reports against those states, which is
    the strategy-proofness check against every earlier cell of each fiber,
    both ways.  A cell's states are rewritten whenever the search enters it,
    so backtracking needs no undo.  Guards and filter are checked at the call;
    the per-cell set-up is built when the first rule is asked for."""
    count = pd.profile_count
    _check_profile_guard(count, max_profiles)
    _check_table_cap(count)
    outcomes = range(pd.m) if range_filter is None else set(range_filter)
    for alt in sorted(outcomes):
        if not 0 <= alt < pd.m:
            raise DomainError(f"range filter alternative {alt} is outside 0..{pd.m - 1}")
    if not outcomes:
        raise DomainError("range filter must allow at least one outcome")
    full_mask = sum(1 << alt for alt in outcomes)
    lowest = [(mask & -mask).bit_length() - 1 for mask in range(full_mask + 1)]

    def search() -> Iterator[Rule]:
        # before[i][t]: the state of agent i's fiber at t over the cells before t
        # (0 at a fiber's first cell).  steps[t]: per agent with such a cell q,
        # (before[i], q, q's marks, t's test).
        before = [[0] * count for _ in pd.agents]
        options = [OptionSets.of(d) for d in pd.agents]
        steps = [
            [
                (states, t - stride, opts.marks[d - 1], opts.admissible[d])
                for states, stride, opts, d in zip(before, pd.strides, options, digits)
                if d
            ]
            for t, digits in enumerate(pd.iter_profiles())
        ]
        table = [0] * count
        masks = [0] * count
        masks[0] = full_mask
        t = 0
        while t >= 0:
            mask = masks[t]
            if not mask:
                t -= 1
                continue
            table[t] = lowest[mask]
            masks[t] = mask & (mask - 1)
            if t == count - 1:
                yield Rule(pd, tuple(table))
                continue
            t += 1
            mask = full_mask
            for states, q, marks, admissible in steps[t]:
                state = states[t] = states[q] | marks[table[q]]
                mask &= admissible[state]
                if not mask:
                    break
            masks[t] = mask

    return search()


# The number of monotone boolean functions of n = 0..8 variables (OEIS A000372).
_DEDEKIND = (2, 3, 6, 20, 168, 7581, 7828354, 2414682040998, 56130437228687557907788)


# pair_vote_rules enumerates monotone functions of at most this many votes.
_MONOTONE_LIMIT = 4


@lru_cache(maxsize=None)
def _monotone_function_masks(n: int) -> tuple[int, ...]:
    """All monotone boolean functions of ``n`` variables, each encoded as the
    integer whose bit ``x`` is the value at input vector ``x``; ascending.
    The explicit route behind :func:`pair_vote_rules`.

    Split on the last variable: its off half ``lo`` and on half ``hi`` are
    monotone functions of one variable fewer, and the whole is monotone
    exactly when ``lo`` is at most ``hi`` everywhere."""
    if n > _MONOTONE_LIMIT:
        raise SizeLimitError(
            f"explicit monotone-function enumeration capped at n={_MONOTONE_LIMIT}, got {n}"
        )
    if n == 0:
        return (0, 1)
    halves = _monotone_function_masks(n - 1)
    shift = 1 << (n - 1)
    return tuple(sorted(lo | hi << shift for lo in halves for hi in halves if not lo & ~hi))


def dedekind(n: int) -> int:
    """The number of monotone boolean functions of ``n`` variables, read from
    the published values for ``n <= 8``; larger ``n`` raises the size guard."""
    if n < 0:
        raise DomainError(f"dedekind index must be nonnegative, got {n}")
    if n >= len(_DEDEKIND):
        raise SizeLimitError(f"dedekind numbers beyond n=8 are not available (got n={n})")
    return _DEDEKIND[n]


def _member_table(digits: Sequence[Sequence[int]], outcomes: Sequence[int]) -> tuple[int, ...]:
    """The table of the catalog member that picks ``outcomes[key]``, ``key``
    the mixed-radix number of ``digits[i][r]`` at each agent i's ranking r,
    the last agent lowest.  ``rows[key]`` is the table over the agents done
    (last first), given the digits of the agents before them."""
    rows = [[outcome] for outcome in outcomes]
    step = 1  # what one unit of the current agent's digit adds to the key
    for agent_digits in reversed(digits):
        offsets = [digit * step for digit in agent_digits]
        step *= max(agent_digits) + 1
        for key in range(0, len(rows), step):
            row: list[int] = []
            for offset in offsets:
                row += rows[key + offset]
            rows[key] = row
    return tuple(rows[0])


def _pair_members(pd: ProductDomain, lo: int, hi: int) -> list[tuple]:
    """The non-constant monotone vote rules on ``lo < hi`` as catalog members,
    ascending truth table; each agent the pair is free for votes for ``lo``
    with a bit, the first such agent's the highest."""
    voters = [(lo, hi) in pair_sets(d).free for d in pd.agents]
    digits = [[v and r.prefers(lo, hi) for r in d.rankings] for v, d in zip(voters, pd.agents)]
    k = sum(voters)
    return [
        (digits, [lo if f >> vote & 1 else hi for vote in range(1 << k)])
        for f in _monotone_function_masks(k)[1:-1]  # not the constants, first and last
    ]


def _dictator_members(pd: ProductDomain, k: int) -> Iterator[tuple]:
    """Per agent, then per size-``k`` range the agent can fully steer, the
    rule that picks the agent's best of the range, as a catalog member."""
    for agent, domain in enumerate(pd.agents):
        admissible = OptionSets.of(domain).admissible
        digits = [range(len(d)) if i == agent else (0,) * len(d) for i, d in enumerate(pd.agents)]
        for combo in itertools.combinations(range(pd.m), k):
            chosen = sum(1 << alt for alt in combo)
            best = [(fits[chosen] & chosen).bit_length() - 1 for fits in admissible]
            if len(set(best)) == k:  # the agent can steer the whole range
                yield digits, best


class Catalog(Sequence[Rule]):
    """The members of :func:`second_step_catalog` in its order, each table built
    when read; they are pairwise distinct (by range, dictator or vote function).
    Opening one checks the table cap, then each pair's monotone-function cap."""

    def __init__(self, pd: ProductDomain) -> None:
        _check_table_cap(pd.profile_count)
        zeros = [(0,) * size for size in pd.sizes]  # a constant reads no agent
        self.domain, self.members = pd, [(zeros, (alt,)) for alt in range(pd.m)]
        for lo, hi in itertools.combinations(range(pd.m), 2):
            self.members += _pair_members(pd, lo, hi)
        for k in range(3, pd.m + 1):
            self.members += _dictator_members(pd, k)

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, index: int) -> Rule:
        return Rule(self.domain, _member_table(*self.members[index]))


def pair_vote_rules(pd: ProductDomain, pair: Sequence[int]) -> tuple[Rule, ...]:
    """The strategy-proof rules with range inside ``pair`` that are not
    constant, materialized as explicit rules; canonical order (ascending
    monotone-function truth table): the explicit route to the two-outcome
    counts of :func:`count_second_step`."""
    m = pd.m
    a, b = pair
    if not (0 <= a < m and 0 <= b < m) or a == b:
        raise DomainError(f"invalid alternative pair {tuple(pair)!r}")
    _check_table_cap(pd.profile_count)
    return tuple(Rule(pd, _member_table(*member)) for member in _pair_members(pd, *sorted(pair)))


def dictatorial_rules(pd: ProductDomain, k: int) -> tuple[Rule, ...]:
    """Strategy-proof rules that pick some agent's best alternative out of a
    fixed size-``k`` range the agent can fully steer; deduplicated by outcome
    table, canonical order (agent, then range)."""
    m = pd.m
    if not 1 <= k <= m:
        raise DomainError(f"range size must be in 1..{m}, got {k}")
    _check_table_cap(pd.profile_count)
    tables = dict.fromkeys(_member_table(*member) for member in _dictator_members(pd, k))
    return tuple(Rule(pd, table) for table in tables)


def steerable_range_count(d: PreferenceDomain, k: int) -> int:
    """How many size-``k`` sets C of alternatives an agent with domain ``d``
    can fully steer: every member of C is the best of C in some ranking of
    ``d``.  A domain with fewer than ``k`` rankings steers none."""
    m = d.m
    if not 1 <= k <= m:
        raise DomainError(f"range size must be in 1..{m}, got {k}")
    if len(d) < k:
        return 0
    # reach[c]: every set of alternatives that some ranking puts wholly below
    # c, with its subsets (c stays the best when rivals are dropped).
    reach: list[set[int]] = [set() for _ in range(m)]
    for r in d.rankings:
        below = 0
        for alt in reversed(r.order):
            reach[alt].add(below)
            below |= 1 << alt
    for sets in reach:
        for below in tuple(sets):
            sub = below
            while sub:
                sub = (sub - 1) & below
                sets.add(sub)
    count = 0
    for combo in itertools.combinations(range(m), k):
        chosen = sum(1 << alt for alt in combo)
        if all(chosen ^ (1 << c) in reach[c] for c in combo):
            count += 1
    return count


def second_step_catalog(pd: ProductDomain) -> tuple[Rule, ...]:
    """Every rule that is constant, a two-outcome monotone vote rule, or a
    steerable dictatorship on ``pd``, deduplicated, in canonical order.

    On non-conditional products this is exactly the strategy-proof rules (the
    impossibility theorem rules out anything else), which makes the catalog the
    explicit cross-check of :func:`count_second_step`'s closed-form subtotal.
    """
    m = pd.m
    unique: dict[tuple[int, ...], Rule] = {}  # table -> its first rule
    for rule in itertools.chain(
        (constant_rule(pd, alt) for alt in range(m)),
        *(pair_vote_rules(pd, pair) for pair in itertools.combinations(range(m), 2)),
        *(dictatorial_rules(pd, k) for k in range(3, m + 1)),
    ):
        unique.setdefault(rule.table, rule)
    return tuple(unique.values())


def _catalogs_fit(partition: ResponsePartition) -> bool:
    """Whether every block product's :class:`Catalog` opens within its caps:
    the largest block product is within the table cap, and no pair is free
    for more agents than a pair vote takes.  Each agent's block is chosen
    independently, so the most agents a pair is free for is the number of
    agents with some block that leaves it free."""
    if math.prod(max(map(len, blocks)) for blocks in partition.blocks) > TABLE_CELL_LIMIT:
        return False
    if partition.product.n <= _MONOTONE_LIMIT:
        return True
    free = [set().union(*(pair_sets(b).free for b in blocks)) for blocks in partition.blocks]
    return all(sum(pair in f for f in free) <= _MONOTONE_LIMIT for pair in set().union(*free))


def decimal_digit_count(value: int) -> int:
    """Number of decimal digits of a nonnegative integer, without ``str()``."""
    if value < 0:
        raise DomainError("digit count needs a nonnegative integer")
    if value == 0:
        return 1
    digits = max(1, int(value.bit_length() * 0.30103) - 1)
    while 10**digits <= value:
        digits += 1
    return digits


EXACT_POWER_BITS = 1 << 15  # built in less time than loading ``decimal`` takes


def power_digit_count(base: int, exponent: int) -> int:
    """Number of decimal digits of ``base ** exponent``: counted on the power
    up to ``EXACT_POWER_BITS`` bits, else ``floor(exponent * log10(base)) +
    1``, exact for a power of ten and otherwise taken at a precision (from
    twice the exponent's digits) that doubles until a slack of ``10 ** (2 -
    prec)`` of the product, above its three roundings of at most ``10 ** (1
    - prec)`` each, cannot move the floor."""
    if base < 1 or exponent < 0:
        raise DomainError("power digit count needs base >= 1 and exponent >= 0")
    if exponent * base.bit_length() <= EXACT_POWER_BITS:
        return decimal_digit_count(base**exponent)
    shift = decimal_digit_count(base) - 1
    if base == 10**shift:
        return shift * exponent + 1
    from decimal import ROUND_FLOOR, Decimal, localcontext
    with localcontext() as ctx:
        ctx.prec = 2 * decimal_digit_count(exponent) + 8
        while True:
            value = Decimal(base).log10() * exponent
            slack = value.scaleb(2 - ctx.prec)
            low, high = ((value + d).to_integral_value(ROUND_FLOOR) for d in (-slack, slack))
            if low == high:
                return int(low) + 1
            ctx.prec *= 2


class PairVoteCount(NamedTuple):
    """Closed-form count of two-outcome rules for one unordered pair."""

    pair: tuple[int, int]
    free_agents: tuple[int, ...]
    count: int


class BlockCount(NamedTuple):
    """Subrule counts for one response profile (one block product).

    ``index`` is each agent's answer index.  The answers, block sizes and the
    per-pair and per-range-size breakdowns are read off the partition and the
    shared per-block tallies when asked for."""

    index: tuple[int, ...]
    constants: int  # one per alternative
    two_outcome: int
    subtotal: int
    partition: ResponsePartition
    # Per agent and block: (free-pair bitmask, steerable ranges of size 3..m, their total).
    tallies: tuple

    @property
    def answers(self) -> tuple[AnswerSet, ...]:
        return tuple(row[j] for row, j in zip(self.partition.answers, self.index))

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(row[j]) for row, j in zip(self.partition.blocks, self.index))

    @property
    def dictatorial(self) -> tuple[tuple[int, int], ...]:
        """(range size, count) for each range size k >= 3."""
        columns = zip(*(row[j][1] for row, j in zip(self.tallies, self.index)))
        return tuple((k, sum(col)) for k, col in zip(range(3, self.constants + 1), columns))

    @property
    def pair_counts(self) -> tuple[PairVoteCount, ...]:
        masks = [row[j][0] for row, j in zip(self.tallies, self.index)]
        out = []
        for p, pair in enumerate(itertools.combinations(range(self.constants), 2)):
            free_agents = tuple(i for i, mask in enumerate(masks) if mask >> p & 1)
            out.append(PairVoteCount(pair, free_agents, dedekind(len(free_agents)) - 2))
        return tuple(out)


class SubruleCountReport(NamedTuple):
    """Closed-form count of strategy-proof subrule assignments."""

    m: int
    profile_count: int
    naive_digits: int  # digits of m ** profile_count
    blocks: tuple[BlockCount, ...]
    product: int


def count_second_step(partition: ResponsePartition) -> SubruleCountReport:
    """Count the strategy-proof second-step assignments of a response
    partition: for every realizable response profile, the number of constant,
    two-outcome, and steerable-dictatorship subrules on its block product, and
    the grand product over response profiles (exact).

    Each agent block is tallied once: the pairs it leaves free as a bitmask,
    and its steerable ranges.  A response profile then adds its blocks' masks
    in a bit-sliced counter (one int per binary digit of the per-pair count of
    free agents) and its blocks' dictatorial totals."""
    m = partition.product.m
    pairs = list(itertools.combinations(range(m), 2))
    tallies = []
    for blocks in partition.blocks:
        row = []
        for block in blocks:
            free = pair_sets(block).free
            steerable = tuple(steerable_range_count(block, k) for k in range(3, m + 1))
            mask = sum(1 << p for p, pair in enumerate(pairs) if pair in free)
            row.append((mask, steerable, sum(steerable)))
        tallies.append(tuple(row))
    tallies = tuple(tallies)

    blocks: list[BlockCount] = []
    product = 1
    for index in partition.indices:
        planes: list[int] = []  # planes[b]: the pairs whose free-agent count has bit b set
        dictatorial = 0
        for row, j in zip(tallies, index):
            carry, _, total = row[j]
            dictatorial += total
            for b, plane in enumerate(planes):  # add one to each free pair's count
                planes[b] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                if carry:
                    planes.append(carry)
        if 1 << len(planes) > len(_DEDEKIND):  # a count may lack its Dedekind number
            for p in range(len(pairs)):
                dedekind(sum((plane >> p & 1) << b for b, plane in enumerate(planes)))
        two_outcome = 0
        for c in range(1, 1 << len(planes)):
            exact = -1  # the pairs free for exactly c agents
            for b, plane in enumerate(planes):
                exact &= plane if c >> b & 1 else ~plane
            if exact:
                two_outcome += (dedekind(c) - 2) * exact.bit_count()
        subtotal = m + two_outcome + dictatorial
        blocks.append(BlockCount(index, m, two_outcome, subtotal, partition, tallies))
        product *= subtotal

    profile_count = partition.product.profile_count
    return SubruleCountReport(
        m=m,
        profile_count=profile_count,
        naive_digits=power_digit_count(m, profile_count),
        blocks=tuple(blocks),
        product=product,
    )


def nonconditional_domains(m: int) -> tuple[PreferenceDomain, ...]:
    """Every non-conditional domain over ``m`` alternatives (each is the
    closure of an acyclic orientation assignment of some unordered pairs),
    deduplicated and canonically ordered.  Guarded to ``m <= 4``."""
    if m > 4:
        raise SizeLimitError(f"non-conditional domain enumeration capped at m=4, got {m}")
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    seen: dict[tuple, PreferenceDomain] = {}
    for orientation in itertools.product((0, 1, 2), repeat=len(pairs)):
        fixed = []
        for (a, b), way in zip(pairs, orientation):
            if way == 1:
                fixed.append((a, b))
            elif way == 2:
                fixed.append((b, a))
        survivors = consistent_rankings(fixed, m)
        if not survivors:
            continue
        key = tuple(r.order for r in survivors)
        if key not in seen:
            seen[key] = PreferenceDomain(m, survivors)
    return tuple(seen[key] for key in sorted(seen, key=lambda k: (len(k), k)))
