"""Classification of preference domains into restriction-map form.

A restriction map describes a domain as the universal domain filtered by a set
of always-on fixed pairs (the *base*) plus *conditional* restrictions: whenever
a ranking satisfies every oriented pair of a conditional's antecedent, it must
also satisfy each of that conditional's conclusion pairs, or it is removed.
A domain is *non-conditional* exactly when a map with no conditionals rebuilds
it, i.e. when it is the closure of its own fixed pairs.

``classify`` recovers such a map from an explicit domain with a deterministic
two-phase scan; ``rebuild`` inverts it; ``satisfied_antecedents`` and
``partition_by_answers`` slice a domain by which condition pairs a member
realizes, and ``ResponsePartition`` applies that split to every agent of a
product domain at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .prefcore import (
    DomainError,
    OrderedPair,
    PreferenceDomain,
    ProductDomain,
    Ranking,
    UnsatisfiableRestrictionError,
    _check_pair,
    all_rankings,
    consistent_rankings,
    pair_sets,
)

#: An answer set: the subset of a map's condition pairs a ranking satisfies.
AnswerSet = frozenset  # of OrderedPair

SCAN_MODES = ("default", "reversed")


@dataclass(frozen=True)
class DomainRestriction:
    """One removal predicate: drop rankings satisfying ``antecedent`` whose
    ``conclusion`` is reversed.  An empty antecedent makes it unconditional."""

    antecedent: frozenset[OrderedPair]
    conclusion: OrderedPair

    def removes(self, r: Ranking) -> bool:
        return r.satisfies(self.antecedent) and r.matrix[self.conclusion.bottom][
            self.conclusion.top
        ]


def apply_restriction(d: PreferenceDomain, restriction: DomainRestriction) -> PreferenceDomain:
    """Filter ``d`` by one restriction; error if nothing survives."""
    for p in restriction.antecedent:
        _check_pair(p, d.m)
    _check_pair(restriction.conclusion, d.m)
    survivors = [r for r in d.rankings if not restriction.removes(r)]
    if not survivors:
        raise UnsatisfiableRestrictionError("restriction removes every ranking of the domain")
    return PreferenceDomain(d.m, tuple(survivors))


@dataclass(frozen=True)
class RestrictionMap:
    """Base fixed pairs plus conditionals ``antecedent -> conclusion set``.

    Conditionals are merged by antecedent and canonically ordered, so two maps
    describing the same function compare equal.  ``conditions`` (the union of
    all antecedent pairs) is the set every ranking can be interrogated about.
    """

    m: int
    base: frozenset[OrderedPair]
    conditionals: tuple[tuple[frozenset[OrderedPair], frozenset[OrderedPair]], ...]

    def __post_init__(self) -> None:
        for p in self.base:
            _check_pair(p, self.m)
            if p.swapped() in self.base:
                raise DomainError(f"base contains {tuple(p)} and its reverse")
        seen: set[frozenset[OrderedPair]] = set()
        for antecedent, conclusions in self.conditionals:
            if not antecedent:
                raise DomainError("conditional antecedents must be nonempty")
            if not conclusions:
                raise DomainError("conditional conclusion sets must be nonempty")
            if antecedent in seen:
                raise DomainError("internal: duplicate antecedent; use RestrictionMap.of()")
            seen.add(antecedent)
            for p in antecedent:
                _check_pair(p, self.m)
                if p.swapped() in antecedent:
                    raise DomainError(f"antecedent contains {tuple(p)} and its reverse")
            for c in conclusions:
                _check_pair(c, self.m)
                if c.swapped() in self.base:
                    raise DomainError(
                        f"conclusion {tuple(c)} contradicts a base fixed pair"
                    )

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
        return cls(m, base_pairs, ordered)

    @property
    def conditions(self) -> frozenset[OrderedPair]:
        """The union of all antecedent pairs."""
        out: set[OrderedPair] = set()
        for antecedent, _ in self.conditionals:
            out |= antecedent
        return frozenset(out)

    @property
    def is_non_conditional(self) -> bool:
        return not self.conditionals

    def conclusions_for(self, answers: AnswerSet) -> frozenset[OrderedPair]:
        """Union of conclusion sets over conditionals whose antecedent holds."""
        out: set[OrderedPair] = set()
        for antecedent, conclusions in self.conditionals:
            if antecedent <= answers:
                out |= conclusions
        return frozenset(out)


def _keeps(map_: RestrictionMap, r: Ranking) -> bool:
    if not r.satisfies(map_.base):
        return False
    for antecedent, conclusions in map_.conditionals:
        if r.satisfies(antecedent) and not r.satisfies(conclusions):
            return False
    return True


def rebuild(map_: RestrictionMap) -> PreferenceDomain:
    """The domain a restriction map describes: universal filtered by base and
    conditionals.  Raises when nothing survives."""
    survivors = tuple(r for r in all_rankings(map_.m) if _keeps(map_, r))
    if not survivors:
        raise UnsatisfiableRestrictionError("restriction map rebuilds to the empty domain")
    return PreferenceDomain(map_.m, survivors)


def satisfied_antecedents(r: Ranking, map_: RestrictionMap) -> AnswerSet:
    """The condition pairs of ``map_`` that ``r`` ranks top-over-bottom."""
    return frozenset(p for p in map_.conditions if r.matrix[p.top][p.bottom])


def _check_answers(map_: RestrictionMap, answers: Iterable[Sequence[int]]) -> frozenset[OrderedPair]:
    conditions = map_.conditions
    checked = frozenset(_check_pair(p, map_.m) for p in answers)
    for p in checked:
        if p not in conditions:
            raise DomainError(f"answer pair {tuple(p)} is not one of the map's conditions")
        if p.swapped() in checked:
            raise DomainError(f"answer set contains {tuple(p)} and its reverse")
    return checked


def answer_closure_pairs(map_: RestrictionMap, answers: Iterable[Sequence[int]]) -> frozenset[OrderedPair]:
    """Fixed pairs characterizing the block of an answer set, by formula.

    The block of answer set ``B`` is the closure of: the base, ``B`` itself,
    the reversals of the unanswered conditions, and every conclusion whose
    antecedent lies inside ``B``.  This is the second, closed-form route to
    the same block that :func:`partition_by_answers` computes by filtering.
    """
    checked = _check_answers(map_, answers)
    pairs: set[OrderedPair] = set(map_.base)
    pairs |= checked
    pairs |= {p.swapped() for p in map_.conditions - checked}
    pairs |= map_.conclusions_for(checked)
    return frozenset(pairs)


def answer_block_by_formula(
    map_: RestrictionMap, answers: Iterable[Sequence[int]]
) -> Optional[PreferenceDomain]:
    """The block of an answer set rebuilt from :func:`answer_closure_pairs`;
    None when the pairs are contradictory (unrealizable answer set)."""
    pairs = answer_closure_pairs(map_, answers)
    survivors = consistent_rankings(pairs, map_.m)
    if not survivors:
        return None
    return PreferenceDomain(map_.m, survivors)


def _answer_sort_key(answers: AnswerSet) -> tuple:
    return (len(answers), sorted(answers))


def partition_by_answers(
    d: PreferenceDomain, map_: RestrictionMap
) -> tuple[tuple[AnswerSet, PreferenceDomain], ...]:
    """Split ``d`` into its answer-set blocks, canonically ordered.

    The blocks are disjoint, cover ``d``, and each is non-conditional.
    """
    buckets: dict[AnswerSet, list[Ranking]] = {}
    for r in d.rankings:
        buckets.setdefault(satisfied_antecedents(r, map_), []).append(r)
    return tuple(
        (answers, PreferenceDomain(d.m, tuple(buckets[answers])))
        for answers in sorted(buckets, key=_answer_sort_key)
    )


@dataclass(frozen=True)
class ResponsePartition:
    """A product domain split by every agent's answers to their map's conditions.

    Per agent: the realizable answer sets in canonical order, the block of
    each, and for each ranking its (answer index, index within that block).
    A *response profile* is one answer set per agent; the response profiles
    are ordered like profiles (agent 0 most significant), and each selects the
    block product its second-step subrule runs on.  Build it with :meth:`of`,
    which validates the maps once.
    """

    product: ProductDomain
    maps: tuple[RestrictionMap, ...]
    answers: tuple[tuple[AnswerSet, ...], ...]
    blocks: tuple[tuple[PreferenceDomain, ...], ...]
    positions: tuple[tuple[tuple[int, int], ...], ...]

    @classmethod
    def of(cls, pd: ProductDomain, maps: Sequence[RestrictionMap]) -> "ResponsePartition":
        maps = tuple(maps)
        if len(maps) != pd.n:
            raise DomainError(f"need {pd.n} restriction maps, got {len(maps)}")
        answers, blocks, positions = [], [], []
        for i, (d, map_) in enumerate(zip(pd.agents, maps)):
            if map_.m != pd.m:
                raise DomainError(f"map for agent {i} is over a different alternative set")
            if rebuild(map_) != d:
                raise DomainError(f"map for agent {i} does not rebuild that agent's domain")
            split = partition_by_answers(d, map_)
            answers.append(tuple(a for a, _ in split))
            blocks.append(tuple(block for _, block in split))
            where = {
                r: (k, j)
                for k, (_, block) in enumerate(split)
                for j, r in enumerate(block.rankings)
            }
            positions.append(tuple(where[r] for r in d.rankings))
        return cls(pd, maps, tuple(answers), tuple(blocks), tuple(positions))

    @cached_property
    def responses(self) -> tuple[tuple[AnswerSet, ...], ...]:
        """Every realizable response profile, canonical order."""
        return tuple(itertools.product(*self.answers))

    @cached_property
    def block_products(self) -> tuple[ProductDomain, ...]:
        """The block product of each response profile, parallel to ``responses``."""
        return tuple(self.product.with_agents(c) for c in itertools.product(*self.blocks))

    @cached_property
    def gather(self) -> tuple[tuple[int, int], ...]:
        """Per profile of the product: (response index, profile index within
        that response's block product)."""
        out = []
        for combo in itertools.product(*self.positions):
            response = sub = 0
            for answers, blocks, (k, j) in zip(self.answers, self.blocks, combo):
                response = response * len(answers) + k
                sub = sub * len(blocks[k]) + j
            out.append((response, sub))
        return tuple(out)


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


def classify(d: PreferenceDomain, scan: str = "default") -> RestrictionMap:
    """Recover a restriction map for ``d``: ``rebuild(classify(d)) == d``.

    Phase one walks the unordered pairs in lexicographic order and records the
    orientation of every pair ``d`` fixes, filtering the universal domain as it
    goes.  If the filtered domain already equals ``d``, the domain is
    non-conditional and the map has no conditionals.  Otherwise phase two
    repeatedly removes the canonically smallest ranking not in ``d``: it picks,
    among antecedents drawn from that ranking's own pair set and conclusions
    that reverse one of ``d``'s free pairs on it, the candidate with the
    smallest antecedent (ties: lexicographic antecedent, then conclusion) such
    that every member of ``d`` satisfying the antecedent also satisfies the
    conclusion.  Each chosen conditional is applied before the next step, and
    the scan stops when exactly ``d`` remains.

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
    target = set(d.rankings)
    base: list[OrderedPair] = []
    cur: list[Ranking] = list(all_rankings(m))

    fixed = pair_sets(d).fixed
    for a in range(m):
        if len(cur) == len(d):
            break
        for b in range(a + 1, m):
            if OrderedPair(a, b) in fixed:
                pair = OrderedPair(a, b)
            elif OrderedPair(b, a) in fixed:
                pair = OrderedPair(b, a)
            else:
                continue
            base.append(pair)
            cur = [r for r in cur if r.matrix[pair.top][pair.bottom]]
            if len(cur) == len(d):
                break

    conditionals: list[tuple[frozenset[OrderedPair], OrderedPair]] = []
    if len(cur) != len(d):
        # Bitmasks over the members of d: a candidate conditional is admissible
        # iff it never removes a member, i.e. every member satisfying the
        # antecedent also satisfies the conclusion.
        members = d.rankings
        full_mask = (1 << len(members)) - 1
        sat_mask: dict[OrderedPair, int] = {}
        for a in range(m):
            for b in range(m):
                if a == b:
                    continue
                mask = 0
                for i, r in enumerate(members):
                    if r.matrix[a][b]:
                        mask |= 1 << i
                sat_mask[OrderedPair(a, b)] = mask
        free_pairs = sorted(pair_sets(d).free)

        while len(cur) != len(d):
            excluded = next(r for r in cur if r not in target)
            own_pairs = excluded.ordered_pairs()
            conclusions = sorted(
                OrderedPair(b, a) if excluded.matrix[a][b] else OrderedPair(a, b)
                for (a, b) in free_pairs
            )
            chosen: Optional[tuple[frozenset[OrderedPair], OrderedPair]] = None
            for size in range(1, len(own_pairs) + 1):
                for antecedent in itertools.combinations(own_pairs, size):
                    mask = full_mask
                    for p in antecedent:
                        mask &= sat_mask[p]
                        if not mask:
                            break
                    for c in conclusions:
                        if mask & ~sat_mask[c] == 0:
                            chosen = (frozenset(antecedent), c)
                            break
                    if chosen:
                        break
                if chosen:
                    break
            if chosen is None:  # cannot happen: the full pair set always works
                raise AssertionError("no admissible conditional found")
            antecedent, conclusion = chosen
            conditionals.append(chosen)
            before = len(cur)
            cur = [
                r
                for r in cur
                if not (r.satisfies(antecedent) and r.matrix[conclusion.bottom][conclusion.top])
            ]
            if len(cur) >= before:
                raise AssertionError("scan made no progress")

    return RestrictionMap.of(m, base, ((a, (c,)) for a, c in conditionals))
