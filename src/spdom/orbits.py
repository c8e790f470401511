"""Symmetry orbits of a product family, for the impossibility sweep.

Permuting the agents (S_n) or relabeling the alternatives (S_m) changes
neither the theorem, nor the number of strategy-proof rules, nor the profile
count, so :func:`~spdom.counting.verify_impossibility` enumerates one
instance per orbit, after McKay, "Isomorph-free exhaustive generation"
(J. Algorithms 26, 1998).  :class:`FamilyOrbits` builds the orbits of a
:class:`~spdom.counting.ProductFamily` without visiting its instances,
carries the first instance's rules to any member, and finds the instance
of a position in the family's rules.  Only the sweep loads this module.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from array import array
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .prefcore import ProductDomain

if TYPE_CHECKING:
    from .counting import ProductFamily


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

    def __init__(self, family: "ProductFamily") -> None:
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
