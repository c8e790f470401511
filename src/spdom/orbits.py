"""The impossibility sweep: on products of non-conditional domains, every
strategy-proof rule without a dictator attains exactly two outcomes.

:func:`verify_impossibility` checks that claim on a :class:`ProductFamily`
(every product of a number of agents over a base of domains) or on a list of
product domains, and can audit a sample of the rules it enumerates.

Permuting the agents (S_n) or relabeling the alternatives (S_m) changes
neither the theorem, nor the number of strategy-proof rules, nor the profile
count, so a family is swept once per symmetry orbit, after McKay,
"Isomorph-free exhaustive generation" (J. Algorithms 26, 1998): 241
enumerations for the 6,859 instances at m=3 with 3 agents.
:class:`FamilyOrbits` builds the orbits without visiting the instances,
carries the first instance's rules to any member, and finds the instance of
a position in the family's rules.  Only ``verify-theorem`` loads this module.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import random
from array import array
from functools import lru_cache, reduce
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .counting import enumerate_sp_rules
from .prefcore import (
    PROFILE_ENUMERATION_LIMIT,
    DomainError,
    PreferenceDomain,
    ProductDomain,
    SizeLimitError,
    _Value,
)
from .rules import Rule, _check_profile_guard, audit_sp_lemmas, dictators_of, range_of


def _check_same_m(domains: Sequence[PreferenceDomain]) -> int:
    if not domains:
        raise DomainError("need at least one agent domain")
    m = domains[0].m
    if any(d.m != m for d in domains):
        raise DomainError("all agent domains must share the alternative set")
    return m


class ProductFamily(_Value):
    """Every product of ``agents`` domains drawn from ``base``, in the order of
    ``itertools.product(base, repeat=agents)``: instance ``k`` gives agent
    ``j`` the base domain at the ``j``-th base-``len(base)`` digit of ``k``,
    agent 0 most significant.  Instances are built on demand."""

    __slots__ = _compared = ("base", "agents")

    def __init__(self, base: tuple[PreferenceDomain, ...], agents: int) -> None:
        self.base, self.agents = base, agents
        _check_same_m(base)
        if agents < 1:
            raise DomainError(f"a product family needs at least one agent, got {agents}")

    def __len__(self) -> int:
        return len(self.base) ** self.agents

    def __getitem__(self, instance: int) -> ProductDomain:
        if not 0 <= instance < len(self.base) ** self.agents:  # len() caps at sys.maxsize
            raise IndexError(f"instance {instance} is outside the family")
        return ProductDomain.of([self.base[d] for d in self.digits(instance)])

    def digits(self, instance: int) -> list[int]:
        """The base indices of ``instance``'s agents."""
        digits = [0] * self.agents
        for j in range(self.agents - 1, -1, -1):
            instance, digits[j] = divmod(instance, len(self.base))
        return digits

    def index_of(self, digits: Iterable[int]) -> int:
        return reduce(lambda instance, d: instance * len(self.base) + d, digits, 0)

    def first_over(self, max_profiles: int) -> Optional[tuple[int, int]]:
        """The first instance with more than ``max_profiles`` profiles and its
        profile count, or None.  Greedy over the digits: each takes the
        smallest base index from which the remaining agents, at the largest
        base size, still pass the guard.  Only the last ``tail`` digits need
        the greedy step: before them the remaining agents alone exceed the
        guard, so every leading digit is base index 0 (a one-ranking domain
        in :func:`nonconditional_domains`)."""
        sizes = [len(d) for d in self.base]
        largest = max(sizes)
        # With largest >= 2, largest**max_profiles.bit_length() > max_profiles.
        tail = min(self.agents, max_profiles.bit_length())
        if largest**tail <= max_profiles:
            return None
        instance = 0
        count = sizes[0] ** (self.agents - tail)
        for remaining in range(tail - 1, -1, -1):
            digit = next(
                i for i, size in enumerate(sizes) if count * size * largest**remaining > max_profiles
            )
            instance = instance * len(sizes) + digit
            count *= sizes[digit]
        return instance, count


class FamilyOrbits:
    """A :class:`ProductFamily`'s orbits under permuting the agents and
    relabeling the alternatives, in order of their first instances.

    An orbit is a set of multisets of base indices (sorted digit tuples),
    whose orderings are its instances, so no instance is visited.  Met in
    lexicographic order, the order of their first orderings, a multiset not
    yet claimed opens an orbit and claims its images under every relabeling
    (the base must be closed under relabeling).  ``keys[k]`` is orbit k's
    opening multiset, as it stands its first instance, ``sizes[k]`` counts
    its instances, and ``number`` holds each multiset's orbit by
    lexicographic position."""

    def __init__(self, family: ProductFamily) -> None:
        self.family = family
        base, n, size = family.base, family.agents, len(family.base)
        index = {tuple(r.order for r in d.rankings): i for i, d in enumerate(base)}
        # Per relabeling (perm, row, back): base[k] relabeled is base[row[k]],
        # whose r-th ranking is the relabeled back[k][r]-th ranking of base[k].
        self.action = []
        for perm in itertools.permutations(range(base[0].m)):
            row, back = [], []
            for d in base:
                orders = [tuple(perm[alt] for alt in r.order) for r in d.rankings]
                back.append(sorted(range(len(orders)), key=orders.__getitem__))
                row.append(index.get(tuple(orders[j] for j in back[-1]), -1))
            if -1 in row:
                raise AssertionError("the base domains are not closed under relabeling")
            self.action.append((perm, row, back))
        # A multiset c_0 <= ... <= c_(n-1) sits at lexicographic position
        # count - 1 less the colex rank of its mirror (size - 1 - c reversed).
        self.count = math.comb(size + n - 1, n)
        self.weights = [
            [math.comb(size - c + n - 2 - j, n - j) for c in range(size)] for j in range(n)
        ]
        self.number = array("i", [-1]) * self.count
        self.keys: list[tuple[int, ...]] = []
        self.sizes: list[int] = []
        # An orbit's multisets are its key's distinct images, m! over the
        # relabelings fixing the key (orbit-stabilizer), and each has as
        # many orderings as the key.
        columns = list(zip(*(row for _, row, _ in self.action)))  # per base index
        for rank, key in enumerate(itertools.combinations_with_replacement(range(size), n)):
            if self.number[rank] < 0:
                fixed = 0
                for image in map(sorted, zip(*map(columns.__getitem__, key))):
                    self.number[self.position(image)] = len(self.keys)
                    fixed += image == list(key)
                runs = (len(list(run)) for _, run in itertools.groupby(key))
                orderings = math.factorial(n) // math.prod(map(math.factorial, runs))
                self.keys.append(key)
                self.sizes.append(len(self.action) // fixed * orderings)

    def position(self, key: Sequence[int]) -> int:
        """The lexicographic position of a sorted multiset."""
        return self.count - 1 - sum(map(list.__getitem__, self.weights, key))

    def product(self, number: int) -> ProductDomain:
        """Orbit ``number``'s first instance."""
        return ProductDomain.of([self.family.base[k] for k in self.keys[number]])

    def members(self, number: int) -> list[int]:
        """Orbit ``number``'s instances, ascending."""
        key = self.keys[number]
        images = {tuple(sorted(map(row.__getitem__, key))) for _, row, _ in self.action}
        orders = (order for image in images for order in itertools.permutations(image))
        return sorted(set(map(self.family.index_of, orders)))

    def carry(self, number: int, instance: int, tables: Iterable[bytes]) -> list[bytes]:
        """Tables of orbit ``number``'s first instance carried to ``instance``,
        ascending.  A relabeling maps the first instance's multiset to the
        instance's, and each agent of the instance plays an agent of the
        first instance whose domain relabels to its own: a table's image reads
        each profile at the matching profile and relabels the outcome.  So
        the first instance's strategy-proof rules carry to the instance's."""
        base, key = self.family.base, self.keys[number]
        digits = self.family.digits(instance)
        perm, row, back = next(
            a for a in self.action if sorted(map(a[1].__getitem__, key)) == sorted(digits)
        )
        strides = [math.prod(len(base[k]) for k in key[j + 1 :]) for j in range(len(key))]
        free = list(range(len(key)))
        profiles = [0]  # per profile of the instance, the first instance's
        for d in digits:
            j = next(j for j in free if row[key[j]] == d)
            free.remove(j)
            profiles = [p + strides[j] * r for p in profiles for r in back[key[j]]]
        relabel = bytes.maketrans(bytes(range(len(perm))), bytes(perm))
        take = operator.itemgetter(*profiles, 0)  # a tuple, even of one profile
        return sorted(bytes(take(t)[:-1]).translate(relabel) for t in tables)

    def locator(self, counts: Sequence[int]) -> Callable[[int], tuple[int, int, int]]:
        """For a position in the family's rules, listed instance by instance
        in instance order with ``counts[k]`` rules for each instance of orbit
        k: its orbit, instance and offset.  The position descends the digits,
        each taking the first base index whose instances reach past it.  The
        rules of the instances with a given prefix depend on its digits as a
        multiset, so they are summed per multiset, from the full ones down."""
        n, size = self.family.agents, len(self.family.base)
        totals: list[dict[tuple[int, ...], int]] = [{} for _ in range(n)]
        level: Iterable[tuple[tuple[int, ...], int]] = zip(
            itertools.combinations_with_replacement(range(size), n),
            map(counts.__getitem__, self.number),
        )
        for sums in reversed(totals):
            for key, total in level:
                for i, d in enumerate(key):
                    if not i or d != key[i - 1]:  # each distinct digit, as the next one
                        sub = key[:i] + key[i + 1 :]
                        sums[sub] = sums.get(sub, 0) + total
            level = sums.items()

        @lru_cache(maxsize=None)
        def ends(prefix: tuple[int, ...]) -> list[int]:  # running totals over the next digit
            keys = (tuple(sorted(prefix + (d,))) for d in range(size))
            return list(itertools.accumulate(map(totals[len(prefix) + 1].__getitem__, keys)))

        def locate(pick: int) -> tuple[int, int, int]:
            prefix: tuple[int, ...] = ()
            digits = []
            for _ in range(n - 1):
                row = ends(prefix)
                d = bisect.bisect_right(row, pick)
                pick -= row[d - 1] if d else 0
                prefix = tuple(sorted(prefix + (d,)))
                digits.append(d)
            for d in range(size):  # the last digit, over full multisets
                key = tuple(sorted(prefix + (d,)))
                number = self.number[self.position(key)]
                if pick < counts[number]:
                    return number, self.family.index_of(digits + [d]), pick
                pick -= counts[number]
            raise IndexError(f"rule position {pick} is outside the family")

        return locate


class SingletonOrbits:
    """A plain list of instances as one-instance orbits, through the calls
    of :class:`FamilyOrbits`."""

    def __init__(self, instances: tuple[ProductDomain, ...]) -> None:
        self.product, self.sizes = instances.__getitem__, [1] * len(instances)

    def members(self, number: int) -> list[int]:
        return [number]

    def carry(self, number: int, instance: int, tables: list[bytes]) -> list[bytes]:
        return tables

    def locator(self, counts: Sequence[int]) -> Callable[[int], tuple[int, int, int]]:
        ends = list(itertools.accumulate(counts))
        return lambda pick: ((i := bisect.bisect_right(ends, pick)), i, pick - ends[i] + counts[i])


class TheoremViolation(NamedTuple):
    """A strategy-proof, non-dictatorial rule whose range size is not two:
    its instance and its :class:`Rule`'s ``bytes`` table, carried there."""

    instance: int
    table: bytes


class AuditFault(NamedTuple):
    instance: int
    reason: str


class ImpossibilityReport(NamedTuple):
    instances: int
    rules_checked: int
    violations: tuple[TheoremViolation, ...]
    audited: int
    audit_faults: tuple[AuditFault, ...]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.audit_faults


def _audit_rule(rule: Rule) -> Optional[str]:
    """Audit one strategy-proof rule: no manipulation, and the option-set
    facts (maximality and freeness) hold.  Restrictions to sub-products need
    no scan of their own: a manipulation inside one is a manipulation of the
    rule itself.  Nor does the audit check the profile guard: the rule's
    instance was held to it before the sweep enumerated it."""
    report = audit_sp_lemmas(rule)
    if report.clean:
        return None
    return (
        f"audit found {report.maximality_faults} maximality and "
        f"{report.freeness_faults} freeness fault(s)"
    )


def _read_rules(rules: Iterable[Rule], room: int) -> tuple[int, list[bytes], list[bytes]]:
    """Read strategy-proof ``rules`` once, holding one at a time: their count,
    and the rules' own tables, those of the first ``room`` and the violating ones."""
    tables: list[bytes] = []
    bad: list[bytes] = []
    count = 0
    for count, rule in enumerate(rules, 1):
        if count <= room:
            tables.append(rule.table)
        # A one-outcome rule makes every agent a dictator: only wider ranges are scanned.
        if len(range_of(rule)) > 2 and not dictators_of(rule):
            bad.append(rule.table)
    return count, tables, bad


# The sweep reads each orbit's rules once, keeping its tables for the audit
# only while they fit in this many cells in all (m=3 with 3 agents needs
# 66,150, m=4 with 2 agents 384,018); a picked orbit that did not is read again.
KEPT_CELLS = 1 << 20


def verify_impossibility(
    family: ProductFamily | Iterable[ProductDomain],
    max_profiles: int = PROFILE_ENUMERATION_LIMIT,
    audit_sample: int = 0,
    seed: Optional[int] = None,
) -> ImpossibilityReport:
    """Check a family of product domains for counterexamples to the
    impossibility claim: a strategy-proof rule with no dictator must attain
    exactly two outcomes.  Violations are reported, not raised — on products
    of non-conditional domains none exist, while conditional inputs are
    expected to produce them.

    A :class:`ProductFamily` is swept once per symmetry orbit
    (:class:`FamilyOrbits`): the claim, the number of strategy-proof
    rules and the profile count do not change when agents are
    permuted or alternatives relabeled, so each orbit's first instance is
    enumerated and its rules count once per member.  Any other family is a
    list of one-instance orbits.  The profile guard is checked for the whole
    family before any enumeration; a family's agent count is held to it too.
    Each orbit's rules are read once, one at a time, and only the rules' own
    tables are kept: the violating ones, carried to each member, and for
    the audit the orbit's tables while they fit in :data:`KEPT_CELLS`.

    With ``audit_sample > 0``, that many strategy-proof rules are sampled
    (reproducibly, via ``seed``) across the family and audited by
    :func:`~spdom.rules.audit_sp_lemmas`: the manipulation scan plus option-set
    maximality and freeness on every subprofile.  A sample is a position in
    the family's list of rules (instance order, then enumeration order).
    """
    if isinstance(family, ProductFamily):
        over = family.first_over(max_profiles)
        if over is not None:
            _check_profile_guard(over[1], max_profiles)
        # Each instance is built agent by agent, even when one-ranking
        # domains leave it a single profile.
        if family.agents > max_profiles:
            raise SizeLimitError(
                f"{family.agents} agents exceeds the enumeration guard of {max_profiles}"
            )
        instances: ProductFamily | tuple[ProductDomain, ...] = family
        # One base domain makes one instance, whatever the agent count.
        orbits: FamilyOrbits | SingletonOrbits = (
            FamilyOrbits(family) if len(family.base) > 1 else SingletonOrbits((family[0],))
        )
    else:
        instances = tuple(family)
        for pd in instances:
            _check_profile_guard(pd.profile_count, max_profiles)
        orbits = SingletonOrbits(instances)

    counts = []  # rules per orbit
    kept: dict[int, list[bytes]] = {}  # first instances' tables, for the audit
    cells = 0
    violations: list[TheoremViolation] = []
    for number in range(len(orbits.sizes)):
        pd = orbits.product(number)
        # The orbit's tables are kept iff all of them fit: at most `room` rules.
        room = (KEPT_CELLS - cells) // pd.profile_count if audit_sample > 0 else -1
        count, tables, bad = _read_rules(enumerate_sp_rules(pd, max_profiles=max_profiles), room)
        counts.append(count)
        if count <= room:
            kept[number] = tables
            cells += count * pd.profile_count
        for member in orbits.members(number) if bad else ():
            violations.extend(
                TheoremViolation(member, table) for table in orbits.carry(number, member, bad)
            )
    violations.sort(key=lambda v: v.instance)
    rules_checked = sum(map(operator.mul, counts, orbits.sizes))

    picks: Sequence[int] = range(rules_checked) if audit_sample > 0 else ()
    if rules_checked > audit_sample > 0:
        picks = random.Random(seed).sample(picks, audit_sample)
    sampled: dict[int, list[bytes]] = {}  # carried tables by instance
    faults: list[AuditFault] = []
    for number, idx, offset in map(orbits.locator(counts), picks) if picks else ():
        if idx not in sampled:
            if number not in kept:
                rules = enumerate_sp_rules(orbits.product(number), max_profiles=max_profiles)
                kept[number] = [r.table for r in rules]
            sampled[idx] = orbits.carry(number, idx, kept[number])
        reason = _audit_rule(Rule(instances[idx], sampled[idx][offset]))
        if reason is not None:
            faults.append(AuditFault(idx, reason))

    return ImpossibilityReport(
        instances=len(instances),
        rules_checked=rules_checked,
        violations=tuple(violations),
        audited=len(picks),
        audit_faults=tuple(faults),
    )
