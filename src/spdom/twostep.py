"""Two-step structure of rules: answer elicitation, then block subrules.

Each agent is asked how they rank every condition pair of their restriction
map; the resulting per-agent answer sets form a *response profile*, which
selects one non-conditional block per agent.  A rule then decomposes into one
subrule per response profile, and conversely an assignment of subrules to
response profiles assembles into a full rule.  ``search_sp_combinations``
finds the strategy-proof assignments of catalog subrules (constants,
two-outcome monotone vote rules, steerable dictatorships): each is
strategy-proof within its block, so the search only checks, pair by pair of
response profiles that differ in one agent's answers, that the agent cannot
gain by switching blocks.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Sequence

from .classify import AnswerSet, ResponsePartition
from .counting import Catalog, _catalogs_fit
from .domfile import format_response
from .prefcore import PROFILE_ENUMERATION_LIMIT, DomainError, ProductDomain
from .rules import (
    OptionSets,
    Rule,
    _check_profile_guard,
    _check_table_cap,
    dictators_of,
    find_manipulation,
    range_of,
)


DECOMPOSITION_DICTATORIAL = "dictatorial"
DECOMPOSITION_TWO_OUTCOME = "sp_range_le_2"
DECOMPOSITION_VIOLATION = "violation"


class BlockDecomposition(NamedTuple):
    """One response profile's subrule and what kind of rule it is."""

    answers: tuple[AnswerSet, ...]
    subrule: Rule
    classification: str
    dictators: frozenset[int]
    range_size: int


def decompose(rule: Rule, partition: ResponsePartition) -> tuple[BlockDecomposition, ...]:
    """Split a rule into its response-profile subrules, in canonical order,
    and classify each as dictatorial, strategy-proof with at most two
    outcomes, or a violation."""
    if rule.domain != partition.product:
        raise DomainError("rule is over a different product than the response partition")
    tables: list[list[int]] = [[] for _ in partition.indices]
    for outcome, r in zip(rule.table, partition.response_of):
        tables[r].append(outcome)
    blocks: list[BlockDecomposition] = []
    for answers, block, table in zip(partition.responses, partition.block_products, tables):
        subrule = Rule(block, tuple(table))
        dictators = dictators_of(subrule)
        attained = range_of(subrule)
        if dictators:
            kind = DECOMPOSITION_DICTATORIAL
        elif len(attained) <= 2 and find_manipulation(subrule) is None:
            kind = DECOMPOSITION_TWO_OUTCOME
        else:
            kind = DECOMPOSITION_VIOLATION
        blocks.append(BlockDecomposition(answers, subrule, kind, dictators, len(attained)))
    return tuple(blocks)


class SearchResult(NamedTuple):
    """Outcome of a catalog-driven search over two-step assignments."""

    assignments: Iterator[tuple[int, ...]]  # catalog indices per found rule, read once
    catalogs: tuple[Catalog, ...]  # one per response profile, built when read
    candidates_total: int
    candidates_tried: int
    complete: bool


def search_sp_combinations(
    partition: ResponsePartition, budget: int = 1_000_000
) -> SearchResult:
    """Every strategy-proof assignment of catalog subrules to response
    profiles whose lexicographic rank (the position in canonical order, last
    response profile fastest) is below ``budget``, in that order.

    Every strategy-proof rule arises this way: its block subrules are
    strategy-proof rules on non-conditional products, hence constants,
    two-outcome vote rules, or steerable dictatorships — all in the catalog.
    Each catalog subrule is strategy-proof within its block, so what is left
    to check is binary: at two response profiles that differ only in agent
    i's answers, i must not gain by reporting into the other block.  The
    search walks response profiles in canonical order, assigns catalog
    indices in ascending order, and narrows each later adjacent profile's
    candidates (an int bitset) by the compatibility row of the assignment,
    dropping a subtree when a bitset empties or its first rank reaches the
    budget.  ``candidates_tried`` is ``min(budget, total)``; when it is the
    total, the result is exhaustive.  Only the assignments, and each catalog
    table below its limit (once), are built as they are read.
    """
    if budget < 1:
        raise DomainError(f"budget must be positive, got {budget}")
    # The guards bound the search by the size of the whole product.  They come
    # first unless a block's catalog trips its own cap, which is reported then.
    count = partition.product.profile_count
    if _catalogs_fit(partition):
        _check_table_cap(count)
        _check_profile_guard(count, PROFILE_ENUMERATION_LIMIT)
    catalogs = tuple(map(Catalog, partition.block_products))
    found = _search_compatible(partition, catalogs, budget)
    total = math.prod(map(len, catalogs))
    tried = min(budget, total)
    return SearchResult(found, catalogs, total, tried, complete=tried == total)


def _block_masks(block: ProductDomain, agent: int, tables: Sequence[tuple]) -> list[tuple[int, int]]:
    """Per table in ``tables`` (all on ``block``), for each setting s of the
    other agents (their block profile, last agent fastest): ``opt``, the
    option set O of ``agent`` there, and ``low``, the complement of U: the
    outcomes that every sincere outcome weakly beats (see
    :class:`~spdom.rules.OptionSets`).  Both are packed m bits per s into one int."""
    m = block.m
    bases = block.fibers(agent)
    stride = block.strides[agent]
    span = block.sizes[agent] * stride
    options = OptionSets.of(block.agents[agent])
    everything = (1 << m) - 1
    seen: dict[tuple[int, ...], tuple[int, int]] = {}  # a fiber's outcomes -> (O, ~U)
    masks = []
    for table in tables:
        opt = low = shift = 0
        for base in bases:
            outcomes = table[base : base + span : stride]
            pair = seen.get(outcomes)
            if pair is None:
                state = options.state(outcomes)
                pair = seen[outcomes] = (state & everything, ~state >> m & everything)
            opt |= pair[0] << shift
            low |= pair[1] << shift
            shift += m
        masks.append((opt, low))
    return masks


def _later_neighbours(partition: ResponsePartition) -> list[list[tuple[int, int]]]:
    """Per response profile v: (w, agent) for each response profile w after v
    that differs from v only in that agent's answers, last agent first."""
    position = {index: v for v, index in enumerate(partition.indices)}
    return [
        [
            (position[index[:agent] + (k,) + index[agent + 1 :]], agent)
            for agent in reversed(range(len(index)))
            for k in range(index[agent] + 1, len(partition.answers[agent]))
        ]
        for index in partition.indices
    ]


def _search_compatible(
    partition: ResponsePartition, catalogs: Sequence[Catalog], budget: int
) -> Iterator[tuple[int, ...]]:
    """Yield the catalog-index assignments of rank below ``budget`` whose
    subrules are pairwise compatible at adjacent response profiles, in
    lexicographic order: depth-first with forward checking.  Subrule A at
    response profile v and B at w, where w differs from v only in agent i's
    answers, are compatible iff ``opt_B & ~low_A == 0`` and
    ``opt_A & ~low_B == 0`` for agent i's masks (see :func:`_block_masks`)."""
    count = len(catalogs)
    sizes = [len(c) for c in catalogs]
    weights = [1] * count  # weights[v]: the rank step of one index at v
    for v in range(count - 1, 0, -1):
        weights[v - 1] = weights[v] * sizes[v]
    # Indices whose rank alone reaches the budget can be left out at once.
    limits = [min(size, -(-budget // weight)) for size, weight in zip(sizes, weights)]

    # masks[v][agent]: (opt, low) per index below limits[v] at v, for agents with neighbours.
    movers = [agent for agent, answers in enumerate(partition.answers) if len(answers) > 1]
    masks = []
    for block, catalog, limit in zip(partition.block_products, catalogs, limits):
        tables = [catalog[a].table for a in range(limit)] if movers else []
        masks.append({agent: _block_masks(block, agent, tables) for agent in movers})
    # rows[a] at v: the bitset of indices at w compatible with index a at v,
    # filled the first time the search picks a at v.
    later = [
        [(w, masks[v][agent], masks[w][agent], [None] * limits[v]) for w, agent in pairs]
        for v, pairs in enumerate(_later_neighbours(partition))
    ]

    domains = [(1 << limit) - 1 for limit in limits]
    choice = [-1] * count
    rank = [0] * (count + 1)  # rank[v]: the rank of the assignment to 0..v-1
    undo: list[list[tuple[int, int]]] = [[] for _ in range(count)]
    v = 0
    while v >= 0:
        for w, previous in undo[v]:
            domains[w] = previous
        undo[v].clear()
        rest = domains[v] >> (choice[v] + 1)
        if rest:
            a = choice[v] + (rest & -rest).bit_length()
            choice[v] = a
            rank[v + 1] = rank[v] + a * weights[v]
        if not rest or rank[v + 1] >= budget:
            choice[v] = -1
            v -= 1
            continue
        for w, mine, theirs, rows in later[v]:
            bits = rows[a]
            if bits is None:
                opt_a, low_a = mine[a]
                bits = 0
                for b, (opt_b, low_b) in enumerate(theirs):
                    if not (opt_b & ~low_a or opt_a & ~low_b):
                        bits |= 1 << b
                rows[a] = bits
            narrowed = domains[w] & bits
            if narrowed != domains[w]:
                undo[v].append((w, domains[w]))
                domains[w] = narrowed
                if not narrowed:
                    break
        else:
            if v == count - 1:
                yield tuple(choice)
            else:
                v += 1


# ---------------------------------------------------------------------------
# Assignment file format


def serialize_assignment(partition: ResponsePartition, indices: Sequence[int]) -> str:
    """Render an assignment of catalog subrules as text: one catalog index per
    response profile, canonical order (as each of ``SearchResult.assignments``)."""
    responses = partition.responses
    if len(indices) != len(responses):
        raise DomainError(
            f"need {len(responses)} catalog indices (one per response profile), "
            f"got {len(indices)}"
        )
    pd = partition.product
    lines = ["alternatives: " + " ".join(pd.labels)]
    lines.append("agents: " + " ".join(pd.agent_names))
    for answers, idx in zip(responses, indices):
        lines.append(f"{format_response(answers, pd.labels)} -> catalog:{idx}")
    return "\n".join(lines) + "\n"
