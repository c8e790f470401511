"""Classification of preference domains into restriction-map form.

A restriction map describes a domain as the universal domain filtered by a set
of always-on fixed pairs (the *base*) plus *conditional* restrictions: whenever
a ranking satisfies every oriented pair of a conditional's antecedent, it must
also satisfy each of that conditional's conclusion pairs, or it is removed.
A domain is *non-conditional* exactly when a map with no conditionals rebuilds
it, i.e. when it is the closure of its own fixed pairs.

``classify`` recovers such a map from an explicit domain with a deterministic
two-phase scan and ``rebuild`` inverts it, both over sets of rankings held as
ints (bit i for the i-th ranking of ``all_rankings(m)``).
``partition_by_answers`` slices a domain by which condition pairs a member
realizes, and ``ResponsePartition`` applies that split to every agent of a
product domain at once.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .prefcore import (
    DomainError,
    OrderedPair,
    PreferenceDomain,
    ProductDomain,
    Ranking,
    UnsatisfiableRestrictionError,
    _check_pair,
    _Value,
    all_rankings,
    pair_sets,
)

#: An answer set: the subset of a map's condition pairs a ranking satisfies.
AnswerSet = frozenset  # of OrderedPair

SCAN_MODES = ("default", "reversed")


class MapFault(DomainError):
    """A pair that keeps a restriction map from holding; ``wording`` has ``{}``
    for it.  ``conditional`` is None for a base pair, else (antecedent, 0 or 1)."""

    def __init__(self, wording: str, pair: OrderedPair, conditional: Optional[tuple] = None):
        super().__init__(wording.format(tuple(pair)))
        self.wording, self.pair, self.conditional = wording, pair, conditional


class RestrictionMap(_Value):
    """Base fixed pairs plus conditionals ``antecedent -> conclusion set``.

    Conditionals are merged by antecedent and canonically ordered, so two maps
    describing the same function compare equal.  ``conditions`` (the union of
    all antecedent pairs) is the set every ranking can be interrogated about.
    Build it with :meth:`of`, which validates the pairs once.
    """

    _compared = ("m", "base", "conditionals")

    def __init__(self, m: int, base: frozenset[OrderedPair], conditionals: tuple) -> None:
        self.m, self.base, self.conditionals = m, base, conditionals

    @classmethod
    def of(
        cls,
        m: int,
        base: Iterable[Sequence[int]],
        conditionals: Iterable[tuple[Iterable[Sequence[int]], Iterable[Sequence[int]]]] = (),
    ) -> "RestrictionMap":
        base_pairs = frozenset(_check_pair(p, m) for p in base)
        merged: dict[frozenset[OrderedPair], set[OrderedPair]] = {}
        for antecedent, conclusions in conditionals:
            key = frozenset(_check_pair(p, m) for p in antecedent)
            merged.setdefault(key, set()).update(_check_pair(c, m) for c in conclusions)
        ordered = tuple(
            (key, frozenset(merged[key])) for key in sorted(merged, key=lambda k: sorted(k))
        )
        for p in base_pairs:
            if p.swapped() in base_pairs:
                raise MapFault("base contains {} and its reverse", p)
        for key, conclusions in ordered:
            if not key:
                raise DomainError("conditional antecedents must be nonempty")
            if not conclusions:
                raise DomainError("conditional conclusion sets must be nonempty")
            for p in key:
                if p.swapped() in key:
                    raise MapFault("antecedent contains {} and its reverse", p, (key, 0))
            for c in conclusions:
                if c.swapped() in base_pairs:
                    raise MapFault("conclusion {} contradicts a base fixed pair", c, (key, 1))
        return cls(m, base_pairs, ordered)

    @cached_property
    def conditions(self) -> frozenset[OrderedPair]:
        """The union of all antecedent pairs."""
        out: set[OrderedPair] = set()
        for antecedent, _ in self.conditionals:
            out |= antecedent
        return frozenset(out)

    @property
    def is_non_conditional(self) -> bool:
        return not self.conditionals


@lru_cache(maxsize=None)
def _pair_masks(m: int) -> dict[OrderedPair, int]:
    """Per ordered pair, the bitmask of the rankings of ``all_rankings(m)``
    (bit i for the i-th) that rank ``top`` above ``bottom``: read off one
    byte per ranking, highest bit first, as a binary numeral."""
    flat = bytes(itertools.chain.from_iterable(r.position for r in reversed(all_rankings(m))))
    positions = [flat[alt::m] for alt in range(m)]  # per alternative, its position in each
    digits = bytes.maketrans(b"\0\1", b"01")
    masks = {}
    for a, b in itertools.permutations(range(m), 2):
        numeral = bytes(map(operator.lt, positions[a], positions[b])).translate(digits)
        masks[OrderedPair(a, b)] = int(numeral, 2)
    return masks


@lru_cache(maxsize=None)
def _universe_index(m: int) -> dict[tuple[int, ...], int]:
    return {r.order: i for i, r in enumerate(all_rankings(m))}


def _all_of(pairs: Iterable[OrderedPair], masks: Mapping[OrderedPair, int], start: int) -> int:
    for p in pairs:
        start &= masks[p]
    return start


def rebuild(map_: RestrictionMap) -> PreferenceDomain:
    """The domain a restriction map describes: universal filtered by base and
    conditionals.  Raises when nothing survives."""
    universe = all_rankings(map_.m)
    masks = _pair_masks(map_.m)
    keep = _all_of(map_.base, masks, (1 << len(universe)) - 1)
    for antecedent, conclusions in map_.conditionals:
        keep &= ~(_all_of(antecedent, masks, keep) & ~_all_of(conclusions, masks, keep))
    if not keep:
        raise UnsatisfiableRestrictionError("restriction map rebuilds to the empty domain")
    bits = map("1".__eq__, reversed(bin(keep)))  # bit i first; the "b0" prefix comes last
    return PreferenceDomain(map_.m, tuple(itertools.compress(universe, bits)))


def partition_by_answers(
    d: PreferenceDomain, map_: RestrictionMap
) -> tuple[tuple[AnswerSet, PreferenceDomain], ...]:
    """Split ``d`` into its answer-set blocks, canonically ordered.

    The blocks are disjoint, cover ``d``, and each is non-conditional.  A
    member's answers are its digits in the binary forms of the condition
    pairs' masks, read for all members at once, one pair at a time.
    """
    n = len(all_rankings(d.m))
    index, masks = _universe_index(d.m), _pair_masks(d.m)
    conditions = sorted(map_.conditions)
    spots = [n - 1 - index[r.order] for r in d.rankings]  # bit i is digit n-1-i
    columns = [map(format(masks[p], f"0{n}b").__getitem__, spots) for p in conditions]
    buckets: dict[tuple[str, ...], list[Ranking]] = {}
    for r, digits in zip(d.rankings, zip(*columns) if columns else itertools.repeat(())):
        buckets.setdefault(digits, []).append(r)
    blocks = []  # canonical order: by answer count, then by the sorted answers
    for digits, members in buckets.items():
        answers = list(itertools.compress(conditions, map("1".__eq__, digits)))
        blocks.append(((len(answers), answers), frozenset(answers), tuple(members)))
    blocks.sort(key=lambda block: block[0])
    return tuple((answers, PreferenceDomain(d.m, members)) for _, answers, members in blocks)


class ResponsePartition(_Value):
    """A product domain split by every agent's answers to their map's conditions.

    Per agent: the realizable answer sets in canonical order, the block of
    each, and each ranking's answer index.  A *response profile* is one
    answer set per agent; the response profiles are ordered like profiles
    (agent 0 most significant), and each selects the block product its
    second-step subrule runs on.  Blocks keep the domain's order, so a
    response profile's profiles, in order, are its block product's.  Build
    it with :meth:`of`, which validates the maps once.
    """

    _compared = ("product", "maps", "answers", "blocks", "answer_of")

    def __init__(
        self,
        product: ProductDomain,
        maps: tuple[RestrictionMap, ...],
        answers: tuple[tuple[AnswerSet, ...], ...],
        blocks: tuple[tuple[PreferenceDomain, ...], ...],
        answer_of: tuple[tuple[int, ...], ...],  # per agent, per ranking
    ) -> None:
        self.product, self.maps, self.answers = product, maps, answers
        self.blocks, self.answer_of = blocks, answer_of

    @classmethod
    def of(cls, pd: ProductDomain, maps: Sequence[RestrictionMap]) -> "ResponsePartition":
        maps = tuple(maps)
        if len(maps) != pd.n:
            raise DomainError(f"need {pd.n} restriction maps, got {len(maps)}")
        answers, blocks, answer_of = [], [], []
        for i, (d, map_) in enumerate(zip(pd.agents, maps)):
            if map_.m != pd.m:
                raise DomainError(f"map for agent {i} is over a different alternative set")
            if rebuild(map_) != d:
                raise DomainError(f"map for agent {i} does not rebuild that agent's domain")
            split = partition_by_answers(d, map_)
            answers.append(tuple(a for a, _ in split))
            blocks.append(tuple(block for _, block in split))
            where = {r.order: k for k, (_, block) in enumerate(split) for r in block.rankings}
            answer_of.append(tuple(where[r.order] for r in d.rankings))
        return cls(pd, maps, tuple(answers), tuple(blocks), tuple(answer_of))

    @cached_property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        """Every realizable response profile as one answer index per agent,
        canonical order."""
        return tuple(itertools.product(*(range(len(row)) for row in self.answers)))

    @cached_property
    def responses(self) -> tuple[tuple[AnswerSet, ...], ...]:
        """Every realizable response profile, canonical order."""
        return tuple(itertools.product(*self.answers))

    @cached_property
    def block_products(self) -> tuple[ProductDomain, ...]:
        """The block product of each response profile, parallel to ``responses``."""
        return tuple(self.product.with_agents(c) for c in itertools.product(*self.blocks))

    @cached_property
    def response_of(self) -> tuple[int, ...]:
        """The response-profile index of every profile of the product, in
        profile order."""
        position = {index: r for r, index in enumerate(self.indices)}
        column = self.product.column
        columns = (map(row.__getitem__, column(i)) for i, row in enumerate(self.answer_of))
        return tuple(map(position.__getitem__, zip(*columns)))


def _mirror_permutation(m: int) -> tuple[int, ...]:
    return tuple(m - 1 - i for i in range(m))


def relabel_domain(d: PreferenceDomain, perm: Sequence[int]) -> PreferenceDomain:
    return PreferenceDomain.of(r.relabeled(perm) for r in d.rankings)


def relabel_map(map_: RestrictionMap, perm: Sequence[int]) -> RestrictionMap:
    return RestrictionMap.of(
        map_.m,
        (OrderedPair(perm[p.top], perm[p.bottom]) for p in map_.base),
        (
            (
                [OrderedPair(perm[p.top], perm[p.bottom]) for p in antecedent],
                [OrderedPair(perm[c.top], perm[c.bottom]) for c in conclusions],
            )
            for antecedent, conclusions in map_.conditionals
        ),
    )


#: Phase two of ``classify`` searches the down-closure lattice over the free
#: pairs (sets of free pairs as bits of a 2^P-bit int) when the domain has at
#: most this many free pairs P, which covers every domain with m <= 6, and the
#: depth-first scan of ``_first_admissible`` above it.  Timed on m = 7
#: domains, the two break even at 18 free pairs on random 40-ranking samples;
#: at 16-17 the lattice is 2-20x faster on random samples of 40-120 rankings
#: and at most 5 ms slower on one- and two-conditional maps.
LATTICE_FREE_PAIR_LIMIT = 17

#: Phase two's choice for one excluded ranking: (antecedent, conclusion).
_Choice = tuple[list[OrderedPair], OrderedPair]


@lru_cache(maxsize=None)
def _cube(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The points ``0..2^p-1`` of the p-cube, as bit positions of an int:
    per coordinate j, the points with bit j set; per size k, the points
    with k bits set."""
    has = []
    for j in range(p):
        half = 1 << j
        pattern, width = ((1 << half) - 1) << half, 2 * half
        while width < 1 << p:
            pattern |= pattern << width
            width *= 2
        has.append(pattern)
    by_size = [1]
    for j in range(p):
        by_size = [
            (by_size[k] if k <= j else 0) | (by_size[k - 1] << (1 << j) if k else 0)
            for k in range(j + 2)
        ]
    return tuple(has), tuple(by_size)


def _lattice_chooser(
    members: Sequence[Ranking], free_pairs: Sequence[tuple[int, int]]
) -> Callable[[Ranking], _Choice]:
    """Phase two's choice through the lattice of sets of free pairs.

    Each member is a point of the P-cube (bit j set when it ranks the j-th
    free pair ``(a, b)`` as ``b`` over ``a``).  For an excluded ranking, the
    admissible candidates are the antecedents S of its own free pairs and
    the free pairs q it keeps, such that no member agrees with it on all of
    S and on q, i.e. S | {q} is outside the down-closure of the members'
    agreement sets.  Antecedents holding a fixed pair are never smallest:
    every member satisfies it, so dropping it leaves an admissible smaller
    antecedent (not an empty one, as some member keeps each free pair).  The
    choice therefore equals the depth-first scan's.
    """
    p = len(free_pairs)
    has, by_size = _cube(p)
    points = 0
    for r in members:
        pos = r.position
        points |= 1 << sum(1 << j for j, (a, b) in enumerate(free_pairs) if pos[b] < pos[a])
    # Per free pair, its orientation with the bit clear, then with it set.
    orientations = [(OrderedPair(a, b), OrderedPair(b, a)) for a, b in free_pairs]
    flipped = [0, points]  # the last call's flip mask and flipped points

    def choose(excluded: Ranking) -> _Choice:
        pos = excluded.position
        bits = [pos[b] < pos[a] for a, b in free_pairs]
        own = [both[bit] for both, bit in zip(orientations, bits)]
        # Flip every coordinate the excluded ranking has clear: each member's
        # point becomes the set of free pairs on which the two agree.  Flips
        # undo themselves, so the last call's points need only the changed ones.
        mask = sum(1 << j for j, bit in enumerate(bits) if not bit)
        change, agree = mask ^ flipped[0], flipped[1]
        for j in range(change.bit_length()):
            if change >> j & 1:
                high = agree & has[j]
                agree = (high >> (1 << j)) | ((agree ^ high) << (1 << j))
        flipped[:] = mask, agree
        down = agree
        for j in range(p):
            down |= (down & has[j]) >> (1 << j)
        # Every set of fewer than t pairs is in ``down``, for the least size t
        # of a set outside it (t >= 2: some member keeps each free pair), so
        # the open antecedents are the (t-1)-subsets of those smallest sets.
        outside = ~down
        t = 2
        while not by_size[t] & outside:
            t += 1
        # Lexicographically first open S: take each own pair, in sorted order,
        # while some smallest set outside ``down`` still holds it with S.
        sets, chosen, antecedent = by_size[t] & outside, 0, []
        for j in sorted(range(p), key=own.__getitem__):
            if sets & has[j]:
                sets &= has[j]
                chosen |= 1 << j
                antecedent.append(own[j])
                if len(antecedent) == t - 1:
                    break
        # The least conclusion q with S | {q} outside ``down``, tested on one
        # byte view of it.
        view = down.to_bytes(((1 << p) + 7) // 8, "little")
        conclusion = min(
            orientations[j][not bits[j]]
            for j, point in enumerate([chosen | 1 << j for j in range(p)])
            if not view[point >> 3] >> (point & 7) & 1
        )
        return antecedent, conclusion

    return choose


def _first_admissible(
    masks: Sequence[int],
    checks: Sequence[tuple[OrderedPair, int]],
    start: int,
    left: int,
    members: int,
) -> Optional[tuple[tuple[int, ...], OrderedPair]]:
    """Depth-first, in lexicographic order, over the ``left``-subsets of
    ``masks[start:]``: the first subset, with the first of ``checks``, such
    that no member left in ``members`` by the subset is in that check's mask."""
    stop = len(masks) - left + 1
    if left == 1:
        for i in range(start, stop):
            leaf = members & masks[i]
            for conclusion, breaks in checks:
                if not leaf & breaks:
                    return (i,), conclusion
        return None
    for i in range(start, stop):
        found = _first_admissible(masks, checks, i + 1, left - 1, members & masks[i])
        if found:
            return (i,) + found[0], found[1]
    return None


def _scan_chooser(
    target: int, free_pairs: Sequence[tuple[int, int]], masks: Mapping[OrderedPair, int]
) -> Callable[[Ranking], _Choice]:
    """Phase two's choice by a depth-first scan of each size in turn over the
    excluded ranking's sorted own pairs, carrying the members that satisfy
    the antecedent so far (one AND per step) and testing the conclusions at
    the leaves."""

    def choose(excluded: Ranking) -> _Choice:
        own_pairs = excluded.ordered_pairs()
        # Each conclusion reverses a free pair on the excluded ranking; it is
        # admissible iff no member satisfying the antecedent keeps that pair
        # the excluded ranking's way.
        kept = [
            OrderedPair(a, b) if excluded.prefers(a, b) else OrderedPair(b, a)
            for a, b in free_pairs
        ]
        checks = sorted((p.swapped(), masks[p]) for p in kept)
        own_masks = [masks[p] for p in own_pairs]
        for size in range(1, len(own_pairs) + 1):
            found = _first_admissible(own_masks, checks, 0, size, target)
            if found:
                return [own_pairs[i] for i in found[0]], found[1]
        raise AssertionError("no admissible conditional found")  # the full pair set always works

    return choose


def classify(d: PreferenceDomain, scan: str = "default") -> RestrictionMap:
    """Recover a restriction map for ``d``: ``rebuild(classify(d)) == d``.

    Sets of rankings are ints over ``all_rankings(m)`` (bit i for the i-th
    ranking), and a pair's mask holds the rankings that satisfy it.  Phase one
    walks the unordered pairs in lexicographic order and records the
    orientation of every pair ``d`` fixes, ANDing its mask into the universal
    domain as it goes.  If the filtered domain already equals ``d``, the domain
    is non-conditional and the map has no conditionals.  Otherwise phase two
    repeatedly removes the canonically smallest ranking not in ``d`` (the
    lowest bit outside ``d``): it picks, among antecedents drawn from that
    ranking's own pair set and conclusions that reverse one of ``d``'s free
    pairs on it, the candidate with the smallest antecedent (ties:
    lexicographic antecedent, then conclusion) such that every member of ``d``
    satisfying the antecedent also satisfies the conclusion.  Each chosen
    conditional is applied before the next step, and the scan stops when
    exactly ``d`` remains.

    With at most ``LATTICE_FREE_PAIR_LIMIT`` free pairs (every ``m <= 6``),
    the candidate is read off the down-closure lattice of the members'
    agreement sets over the free pairs, in O(P) big-int steps per excluded
    ranking; with more, a depth-first scan over the antecedents of each size
    finds it, since a 2^P-bit lattice would outgrow the scan.  Both routes
    choose the same map.

    ``scan="reversed"`` runs the same policy on the id-mirrored domain
    (``i -> m-1-i``) and maps the result back, which generally exhibits a
    different but equally valid map.
    """
    if scan not in SCAN_MODES:
        raise DomainError(f"unknown scan mode {scan!r}; expected one of {SCAN_MODES}")
    if scan == "reversed":
        perm = _mirror_permutation(d.m)
        mirrored = classify(relabel_domain(d, perm), scan="default")
        return relabel_map(mirrored, perm)

    m = d.m
    universe = all_rankings(m)
    masks = _pair_masks(m)
    index = _universe_index(m)
    target = sum(1 << index[r.order] for r in d.rankings)
    cur = (1 << len(universe)) - 1
    base: list[OrderedPair] = []

    sets = pair_sets(d)
    for a, b in itertools.combinations(range(m), 2):
        if cur == target:
            break
        pair = OrderedPair(a, b) if (a, b) in sets.fixed else OrderedPair(b, a)
        if pair in sets.fixed:
            base.append(pair)
            cur &= masks[pair]

    conditionals: list[_Choice] = []
    if cur != target:
        free_pairs = sorted(sets.free)
        if len(free_pairs) <= LATTICE_FREE_PAIR_LIMIT:
            choose = _lattice_chooser(d.rankings, free_pairs)
        else:
            choose = _scan_chooser(target, free_pairs, masks)
    while cur != target:
        outside = cur & ~target
        antecedent, conclusion = choose(universe[(outside & -outside).bit_length() - 1])
        conditionals.append((antecedent, conclusion))
        removed = _all_of(antecedent, masks, cur) & masks[conclusion.swapped()]
        if not removed:
            raise AssertionError("scan made no progress")
        cur &= ~removed

    return RestrictionMap.of(m, base, ((a, (c,)) for a, c in conditionals))
