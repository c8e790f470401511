from __future__ import annotations

import hashlib
import importlib
import itertools
import random
from collections import Counter

import pytest

from oracles import (
    TwoStepAssignment,
    all_sp_tables,
    assemble,
    first_step_witnesses,
    is_strategy_proof,
    parse_assignment_file,
    satisfied_antecedents,
    search_by_assembly,
    single_peaked_sp_count,
)
from spdom import (
    DECOMPOSITION_DICTATORIAL,
    DECOMPOSITION_TWO_OUTCOME,
    DECOMPOSITION_VIOLATION,
    DomainError,
    OrderedPair,
    ParseError,
    PreferenceDomain,
    ProductDomain,
    Catalog,
    ResponsePartition,
    Rule,
    SizeLimitError,
    all_rankings,
    classify,
    decompose,
    dictators_of,
    enumerate_sp_rules,
    find_manipulation,
    generate_domain,
    nonconditional_domains,
    parse_domain_file,
    parse_rule_file,
    range_of,
    search_sp_combinations,
    serialize_assignment,
    serialize_rule,
)
from conftest import FIXTURES
from spdom import counting
from spdom.counting import _catalogs_fit
from spdom.prefcore import Ranking, pair_sets
from spdom.rules import OptionSets
from spdom.twostep import _later_neighbours

SP3 = generate_domain("single_peaked", axis=[0, 1, 2])
XY = frozenset({OrderedPair(0, 1)})


def _sp3_partition() -> ResponsePartition:
    pd = ProductDomain.of([SP3, SP3], labels=["x", "y", "z"])
    return ResponsePartition.of(pd, (classify(SP3), classify(SP3)))


def _leftmost_top_rule(pd: ProductDomain) -> Rule:
    table = []
    for profile in pd.iter_profiles():
        tops = [d.rankings[digit].top for digit, d in zip(profile, pd.agents)]
        table.append(min(tops))
    return Rule(pd, tuple(table))


# ---------------------------------------------------------------------------
# Response profiles and blocks


def test_response_profiles_canonical():
    partition = _sp3_partition()
    assert partition.responses == (
        (frozenset(), frozenset()),
        (frozenset(), XY),
        (XY, frozenset()),
        (XY, XY),
    )


def test_response_profiles_chain(ex2_spec):
    responses = ResponsePartition.of(ex2_spec.product, ex2_spec.resolved_maps()).responses
    assert len(responses) == 16
    assert responses[0] == (frozenset(), frozenset())
    full = frozenset({OrderedPair(0, 1), OrderedPair(1, 2), OrderedPair(2, 3)})
    assert responses[-1] == (full, full)


def test_blocks_for():
    partition = _sp3_partition()
    pd = partition.product
    assert [b.sizes for b in partition.block_products] == [(3, 3), (3, 1), (1, 3), (1, 1)]
    block = partition.block_products[partition.responses.index((XY, XY))]
    assert block.labels == pd.labels and block.agent_names == pd.agent_names
    assert [r.order for r in block.agents[0].rankings] == [(0, 1, 2)]


def test_response_grid_reads_the_profile_order():
    # Independent routes: each profile's answer sets looked up ranking by
    # ranking, each block product's own profile order, and a scan of every
    # pair of response profiles.
    rng = random.Random(20261019)
    for _ in range(60):
        m = rng.choice((3, 4))
        rankings = all_rankings(m)
        domains = [
            PreferenceDomain.of(rng.sample(rankings, rng.randint(1, min(8, len(rankings)))))
            for _ in range(rng.randint(1, 3))
        ]
        pd = ProductDomain.of(domains)
        partition = ResponsePartition.of(pd, [classify(d) for d in domains])
        seen = [0] * len(partition.indices)
        for profile, r in zip(pd.iter_profiles(), partition.response_of):
            own = [d.rankings[digit] for digit, d in zip(profile, pd.agents)]
            assert partition.responses[r] == tuple(
                satisfied_antecedents(ranking, map_) for ranking, map_ in zip(own, partition.maps)
            )
            block = partition.block_products[r]
            digits = block.profile_at(seen[r])
            assert [d.rankings[digit] for digit, d in zip(digits, block.agents)] == own
            seen[r] += 1
        assert seen == [block.profile_count for block in partition.block_products]

        indices = partition.indices
        assert _later_neighbours(partition) == [
            [
                (w, agent)
                for agent in reversed(range(pd.n))
                for w in range(v + 1, len(indices))
                if [i for i in range(pd.n) if indices[v][i] != indices[w][i]] == [agent]
            ]
            for v in range(len(indices))
        ]

        rule = Rule(pd, tuple(rng.randrange(m) for _ in range(pd.profile_count)))
        assert assemble(partition, [b.subrule for b in decompose(rule, partition)]) == rule


def test_map_validation():
    pd = _sp3_partition().product
    maps = (classify(SP3), classify(SP3))
    with pytest.raises(DomainError, match="need 2 restriction maps"):
        ResponsePartition.of(pd, maps[:1])
    other_m = classify(generate_domain("universal", m=4))
    with pytest.raises(DomainError, match="different alternative set"):
        ResponsePartition.of(pd, (other_m, other_m))
    wrong = classify(generate_domain("universal", m=3))
    with pytest.raises(DomainError, match="does not rebuild"):
        ResponsePartition.of(pd, (wrong, wrong))


def test_partition_rebuilds_each_map_once(monkeypatch):
    # Maps are validated at the boundary: a whole search rebuilds each agent's
    # map exactly once, however many candidates it tries.
    module = importlib.import_module("spdom.classify")  # `spdom.classify` is the function
    calls = []
    original = module.rebuild

    def counting_rebuild(map_):
        calls.append(map_)
        return original(map_)

    monkeypatch.setattr(module, "rebuild", counting_rebuild)
    pd = ProductDomain.of([SP3, SP3], labels=["x", "y", "z"])
    result = search_sp_combinations(ResponsePartition.of(pd, (classify(SP3), classify(SP3))))
    assert result.candidates_tried == 825
    # The search runs as its assignments are read, so they are read in here.
    assert len(tuple(result.assignments)) == 24
    assert len(calls) == pd.n == 2


# ---------------------------------------------------------------------------
# Assembling


def test_assemble_routes_agree():
    partition = _sp3_partition()
    pd = partition.product
    outcomes = (0, 1, 2, 0)
    subrules = tuple(
        Rule(block, (outcome,) * block.profile_count)
        for block, outcome in zip(partition.block_products, outcomes)
    )
    rule = assemble(partition, subrules)
    # Independent check: each profile gets its response profile's outcome.
    expected_outcome = dict(zip(partition.responses, outcomes))
    for profile, outcome in zip(pd.iter_profiles(), rule.table):
        answers = tuple(
            satisfied_antecedents(d.rankings[digit], map_)
            for digit, d, map_ in zip(profile, pd.agents, partition.maps)
        )
        assert outcome == expected_outcome[answers]


def test_assemble_non_constant_subrule():
    partition = _sp3_partition()
    pd = partition.product
    blocks = partition.block_products
    # On the (no-answer, no-answer) block, pick the monotone vote rule between
    # the two free-for-both outcomes y and z; constants elsewhere.
    vote = next(r for r in Catalog(blocks[0]) if range_of(r) == frozenset({1, 2}))
    subrules = (vote, *(Rule(block, (1,) * block.profile_count) for block in blocks[1:]))
    rule = assemble(partition, subrules)
    vote_outcome = dict(zip(blocks[0].iter_profiles(), vote.table))
    for profile, outcome in zip(pd.iter_profiles(), rule.table):
        rankings = [d.rankings[digit] for digit, d in zip(profile, pd.agents)]
        if all(r.prefers(1, 0) for r in rankings):  # both in the no-answer block
            sub_profile = tuple(
                blocks[0].agents[i].rankings.index(rankings[i]) for i in range(2)
            )
            assert outcome == vote_outcome[sub_profile]
        else:
            assert outcome == 1


def test_assignment_validation():
    partition = _sp3_partition()
    good = tuple(Rule(b, (0,) * b.profile_count) for b in partition.block_products)
    with pytest.raises(DomainError, match="one per response profile"):
        TwoStepAssignment(partition, good[:3])
    with pytest.raises(DomainError, match="one per response profile"):
        assemble(partition, good[:3])
    bad = (Rule(partition.product, (0,) * partition.product.profile_count),) + good[1:]
    with pytest.raises(DomainError, match="not over its block"):
        TwoStepAssignment(partition, bad)
    with pytest.raises(DomainError, match="not over its block"):
        assemble(partition, bad)


def test_rule_over_other_product_rejected():
    partition = _sp3_partition()
    other_pd = ProductDomain.of([SP3, SP3])  # default labels a, b, c
    rule = _leftmost_top_rule(other_pd)
    with pytest.raises(DomainError, match="different product"):
        decompose(rule, partition)
    with pytest.raises(DomainError, match="different product"):
        first_step_witnesses(rule, partition)


# ---------------------------------------------------------------------------
# Decomposition


def test_decompose_leftmost_top_rule():
    partition = _sp3_partition()
    rule = _leftmost_top_rule(partition.product)
    assert is_strategy_proof(rule)
    assert dictators_of(rule) == frozenset()
    assert range_of(rule) == frozenset({0, 1, 2})
    blocks = decompose(rule, partition)
    kinds = [b.classification for b in blocks]
    assert kinds == [
        DECOMPOSITION_TWO_OUTCOME,
        DECOMPOSITION_DICTATORIAL,
        DECOMPOSITION_DICTATORIAL,
        DECOMPOSITION_DICTATORIAL,
    ]
    assert blocks[0].range_size == 2
    assert blocks[0].dictators == frozenset()
    assert all(b.range_size == 1 for b in blocks[1:])


def test_decompose_flags_manipulable_subrule():
    partition = _sp3_partition()
    pd = partition.product
    table = []
    for profile in pd.iter_profiles():
        table.append(pd.agents[0].rankings[profile[0]].order[-1])
    rule = Rule(pd, tuple(table))
    blocks = decompose(rule, partition)
    assert any(b.classification == DECOMPOSITION_VIOLATION for b in blocks)


def test_decompose_subrules_restrict_the_rule():
    partition = _sp3_partition()
    pd = partition.product
    rule = _leftmost_top_rule(pd)
    outcome = dict(zip(pd.iter_profiles(), rule.table))
    for block in decompose(rule, partition):
        sub_pd = block.subrule.domain
        for profile, sub_outcome in zip(sub_pd.iter_profiles(), block.subrule.table):
            parent_profile = tuple(
                pd.agents[i].rankings.index(sub_pd.agents[i].rankings[digit])
                for i, digit in enumerate(profile)
            )
            assert sub_outcome == outcome[parent_profile]


# ---------------------------------------------------------------------------
# First-step witnesses


def test_first_step_witnesses_empty_for_sp():
    partition = _sp3_partition()
    assert first_step_witnesses(_leftmost_top_rule(partition.product), partition) == ()


def test_first_step_witnesses_all_answer_changing(ex1_spec):
    # Constant subrules everywhere except the both-answered block: within-block
    # deviations never change the outcome, so every manipulation must cross
    # blocks by changing the manipulator's own answers.
    partition = ResponsePartition.of(ex1_spec.product, ex1_spec.resolved_maps())
    xy = frozenset({OrderedPair(2, 3)})
    subrules = tuple(
        Rule(block, (4 if answers == (xy, xy) else 1,) * block.profile_count)
        for answers, block in zip(partition.responses, partition.block_products)
    )
    rule = assemble(partition, subrules)
    assert find_manipulation(rule) is not None
    witnesses = first_step_witnesses(rule, partition)
    assert witnesses
    assert all(w.answer_changing for w in witnesses)
    # Every block subrule is (trivially) strategy-proof even though the
    # assembled rule is manipulable.
    kinds = {b.classification for b in decompose(rule, partition)}
    assert DECOMPOSITION_VIOLATION not in kinds


def test_first_step_witnesses_within_block():
    partition = _sp3_partition()
    pd = partition.product
    table = tuple(pd.agents[0].rankings[p[0]].order[-1] for p in pd.iter_profiles())
    witnesses = first_step_witnesses(Rule(pd, table), partition)
    assert any(not w.answer_changing for w in witnesses)


# ---------------------------------------------------------------------------
# Catalog-driven search


def _found_rules(partition: ResponsePartition, result) -> list[Rule]:
    """The rules of a search result, assembled from its catalog indices."""
    return [
        assemble(partition, [result.catalogs[v][a] for v, a in enumerate(indices)])
        for indices in result.assignments
    ]


def test_search_single_peaked_product_is_exhaustive():
    partition = _sp3_partition()
    pd = partition.product
    result = search_sp_combinations(partition)
    assert result.candidates_total == 11 * 5 * 5 * 3 == 825
    assert result.candidates_tried == 825
    assert result.complete
    assert tuple(map(tuple, result.catalogs)) == tuple(
        tuple(Catalog(block)) for block in partition.block_products
    )
    rules = _found_rules(partition, result)
    assert len(rules) == 24
    assert {r.table for r in rules} == {r.table for r in enumerate_sp_rules(pd)}


def test_search_budget_truncation():
    partition = _sp3_partition()
    result = search_sp_combinations(partition, budget=100)
    assert result.candidates_tried == 100
    assert not result.complete
    assert result.candidates_total == 825
    full = search_sp_combinations(partition)
    assert {r.table for r in _found_rules(partition, result)} <= {
        r.table for r in _found_rules(partition, full)
    }
    with pytest.raises(DomainError):
        search_sp_combinations(partition, budget=0)


def test_search_budget_bounds_the_rank():
    # The budget bounds the lexicographic rank: an assignment of rank r is
    # reported from budget r + 1 on, and not at budget r.
    partition = _sp3_partition()
    full = search_sp_combinations(partition)
    sizes = [len(c) for c in full.catalogs]
    assignments = tuple(full.assignments)
    for position, indices in enumerate(assignments):
        rank = 0
        for size, index in zip(sizes, indices):
            rank = rank * size + index
        if rank:
            below = search_sp_combinations(partition, rank)
            assert tuple(below.assignments) == assignments[:position]
        upto = search_sp_combinations(partition, rank + 1)
        assert tuple(upto.assignments) == assignments[: position + 1]


SEARCH_XYZ = """\
alternatives x y z
agent 1 { when x > y => x > z }
agent 2 { when x > y => x > z }
"""

SEARCH_ABCD = """\
alternatives a b c d
agent 1 { when a > b => c > d }
agent 2 { universal }
"""


def test_search_matches_assembly_route(sp3_spec, uni3_spec, ex1_spec, ex2_spec):
    # The forward-checking search reports what assembling and scanning each
    # candidate in canonical order reports, up to every budget.
    cases = [(sp3_spec, budget) for budget in (1, 2, 24, 100, 824, 825, 826)]
    cases += [
        (spec, 1_000_000)
        for spec in (uni3_spec, parse_domain_file(SEARCH_XYZ), parse_domain_file(SEARCH_ABCD))
    ]
    cases += [(ex2_spec, budget) for budget in (1, 60, 2000)]
    cases += [(ex1_spec, budget) for budget in (1, 60)]
    for spec, budget in cases:
        partition = ResponsePartition.of(spec.product, spec.resolved_maps("default"))
        found, expected = (
            result._replace(
                assignments=tuple(result.assignments),
                catalogs=tuple(map(tuple, result.catalogs)),
            )
            for result in (
                search_sp_combinations(partition, budget), search_by_assembly(partition, budget)
            )
        )
        for name in expected._fields:
            assert getattr(found, name) == getattr(expected, name), (spec.labels, budget, name)


@pytest.mark.parametrize("m, n, expected", [(3, 2, 24), (4, 3, 1199), (5, 2, 240)])
def test_search_count_matches_closed_form(m, n, expected):
    # Identical single-peaked agents: the complete search finds exactly the
    # generalized median voter schemes, which a closed form counts.
    axis = " ".join("abcde"[:m])
    text = f"alternatives {axis}\n" + "".join(
        f"agent {i} {{ single-peaked {axis} }}\n" for i in range(1, n + 1)
    )
    spec = parse_domain_file(text)
    partition = ResponsePartition.of(spec.product, spec.resolved_maps("default"))
    result = search_sp_combinations(partition, budget=10**100)
    assert result.complete
    assert len(tuple(result.assignments)) == single_peaked_sp_count(m, n) == expected


def test_catalog_fit_check_is_exact():
    # The search checks its guards before the catalogs only when no catalog
    # can trip a cap, and skips them otherwise, so the check must be exact: on
    # seeded random products of 5-6 agents over three alternatives (each a
    # non-conditional domain of two or three rankings or a random set of
    # rankings), it says no exactly when building the catalogs raises.
    rng = random.Random(20261018)
    every = all_rankings(3)
    small = [d for d in nonconditional_domains(3) if 2 <= len(d) <= 3]
    seen = set()
    for _ in range(40):
        domains = []
        for _ in range(rng.randint(5, 6)):
            if rng.random() < 0.8:
                domains.append(rng.choice(small))
                continue
            picked = sorted(rng.sample(range(len(every)), rng.randint(1, 4)))
            domains.append(PreferenceDomain(3, tuple(every[i] for i in picked)))
        partition = ResponsePartition.of(ProductDomain.of(domains), [classify(d) for d in domains])
        try:
            for block in partition.block_products:
                Catalog(block)
            built = True
        except SizeLimitError:
            built = False
        assert _catalogs_fit(partition) == built, domains
        seen.add(built)
    assert seen == {True, False}


def _multiset_products() -> list[ProductDomain]:
    """Every multiset product of non-conditional domains: m = 2 up to four
    agents, m = 3 up to three, m = 4 alone."""
    return [
        ProductDomain.of(domains)
        for m, most in ((2, 4), (3, 3), (4, 1))
        for n in range(1, most + 1)
        for domains in itertools.combinations_with_replacement(nonconditional_domains(m), n)
    ]


def _default_partition(spec) -> ResponsePartition:
    return ResponsePartition.of(spec.product, spec.resolved_maps("default"))


def test_catalog_members_are_the_explicit_catalog(sp3_spec, uni3_spec, ex1_spec, ex2_spec):
    # The search sizes a catalog by its member count, without building or
    # hashing a table: that holds because the members' tables are distinct.
    # Read in full, each catalog is the strategy-proof rules the enumerator
    # finds, the constants first: on every multiset product and on every
    # block product of the fixtures, as the search's own catalogs.
    catalogs = [(product, Catalog(product)) for product in _multiset_products()]
    assert len(catalogs) == 1792
    for spec in (sp3_spec, uni3_spec, ex1_spec, ex2_spec):
        partition = _default_partition(spec)
        catalogs += zip(partition.block_products, search_sp_combinations(partition, 1).catalogs)
    for block, catalog in catalogs:
        tables = [rule.table for rule in catalog]
        assert len(set(tables)) == len(tables), block.agents
        assert set(tables) == {rule.table for rule in enumerate_sp_rules(block)}, block.agents
        constants = [bytes((alt,)) * block.profile_count for alt in range(block.m)]
        assert tables[: block.m] == constants, block.agents


def test_every_outcome_table_is_bytes():
    # One representation: each producer hands out its table as bytes, one
    # byte per profile, with the outcomes the tuple forms held.
    partition = _sp3_partition()
    pd = partition.product
    cells = [
        min(d.rankings[digit].top for digit, d in zip(profile, pd.agents))
        for profile in pd.iter_profiles()
    ]
    tables = [Rule(pd, tuple(cells)).table, Rule(pd, cells).table]
    tables.append(parse_rule_file(serialize_rule(Rule(pd, cells)), pd).table)
    assert [type(table) for table in tables] == [bytes] * 3
    assert tables == [bytes(cells)] * 3
    for k, block in enumerate(decompose(Rule(pd, cells), partition)):
        expected = bytes(c for c, r in zip(cells, partition.response_of) if r == k)
        assert type(block.subrule.table) is bytes
        assert block.subrule.table == expected
    for block in partition.block_products:
        enumerated = [rule.table for rule in enumerate_sp_rules(block)]
        members = [rule.table for rule in Catalog(block)]
        assert {type(table) for table in enumerated + members} == {bytes}
        assert sorted(members) == enumerated
        if block.profile_count <= 3:
            assert enumerated == all_sp_tables(block)


# The first 32 hex digits of the sha256 of every member table's bytes and a
# newline, in catalog order, with "|" after each catalog, over the products of
# test_catalog_members_are_the_explicit_catalog: recorded while each catalog
# derived its members afresh, agent by agent.
CATALOG_ORDER_DIGEST = "ec02b03a4077e614d3a64562573d5bd2"


def test_catalog_member_order_is_pinned(sp3_spec, uni3_spec, ex1_spec, ex2_spec):
    products = _multiset_products()
    for spec in (sp3_spec, uni3_spec, ex1_spec, ex2_spec):
        products += _default_partition(spec).block_products
    assert len(products) == 1817
    digest = hashlib.sha256()
    for product in products:
        for rule in Catalog(product):
            digest.update(rule.table + b"\n")
        digest.update(b"|")
    assert digest.hexdigest()[:32] == CATALOG_ORDER_DIGEST


def test_catalogs_read_each_agent_block_once(monkeypatch, ex2_spec):
    # Opening every catalog of ex2 (16 response profiles) and of sp4x3 (64)
    # reads each distinct agent block once: one option-set read, and one vote
    # per ranking and pair the block leaves free, however many catalogs share
    # the block.
    sp4x3 = parse_domain_file(
        "alternatives a b c d\n"
        + "".join(f"agent {i} {{ single-peaked a b c d }}\n" for i in (1, 2, 3))
    )
    blocks = [_default_partition(spec).block_products for spec in (ex2_spec, sp4x3)]
    assert list(map(len, blocks)) == [16, 64]
    blocks = blocks[0] + blocks[1]
    counting._block_facts.cache_clear()
    read, votes = [], []
    option_sets, prefers = OptionSets.of, Ranking.prefers
    monkeypatch.setattr(OptionSets, "of", classmethod(lambda cls, d: read.append(d) or option_sets(d)))
    monkeypatch.setattr(Ranking, "prefers", lambda r, a, b: votes.append(r) or prefers(r, a, b))
    for block in blocks:
        Catalog(block)
    distinct = {d for block in blocks for d in block.agents}
    assert Counter(read) == Counter(distinct)
    assert len(votes) == sum(len(d) * len(pair_sets(d).free) for d in distinct)


def test_catalog_takes_integer_indices_only():
    # A slice is refused at the index, not deep in the table builder; negative
    # indices and iteration read the same members.
    catalog = Catalog(ProductDomain.of([SP3, SP3]))
    with pytest.raises(TypeError, match="'slice' object cannot be interpreted as an integer"):
        catalog[0:2]
    assert len(catalog) == 17
    assert catalog[-1] == catalog[16]
    assert list(catalog) == [catalog[i] for i in range(17)]


def test_search_builds_each_reachable_table_once(cli, monkeypatch, tmp_path):
    # Per response profile, the search builds the tables of the catalog
    # indices below its budget limit, each once though every agent with a
    # neighbour reads its masks, and no others.  A member's digits give its
    # block's sizes, which differ between consecutive response profiles here.
    built = []
    member_table = counting._member_table

    def counted(digits, outcomes):
        built.append(tuple(map(len, digits)))
        return member_table(digits, outcomes)

    monkeypatch.setattr(counting, "_member_table", counted)
    xyz = tmp_path / "xyz.spdom"
    xyz.write_text(SEARCH_XYZ)
    for argv, expected in (
        (["--domain", str(FIXTURES / "ex1.spdom"), "--budget", "60"], [1, 1, 2, 37]),
        (["--domain", str(xyz)], [11, 8, 8, 7]),
    ):
        built.clear()
        code, out, err = cli("search-two-step", *argv)
        assert (code, err) == (0, "")
        assert [len(list(run)) for _, run in itertools.groupby(built)] == expected


# ---------------------------------------------------------------------------
# Assignment file format


def test_assignment_roundtrip():
    partition = _sp3_partition()
    result = search_sp_combinations(partition)
    indices = tuple(result.assignments)[5]
    assignment = TwoStepAssignment(
        partition, tuple(result.catalogs[i][j] for i, j in enumerate(indices))
    )
    text = serialize_assignment(partition, indices)
    lines = text.splitlines()
    assert lines[0] == "alternatives: x y z"
    assert lines[1] == "agents: 1 2"
    assert lines[2].startswith("{}|{} -> catalog:")
    again = parse_assignment_file(text, partition)
    assert again == assignment
    assert is_strategy_proof(assemble(partition, again.subrules))


def test_assignment_file_reference(tmp_path):
    partition = _sp3_partition()
    blocks = partition.block_products
    special = Catalog(blocks[0])[4]
    (tmp_path / "sub.rule").write_text(serialize_rule(special))
    text = (
        "alternatives: x y z\n"
        "agents: 1 2\n"
        "{}|{} -> file:sub.rule\n"
        "{}|{x>y} -> catalog:1\n"
        "{x>y}|{} -> catalog:1\n"
        "{x>y}|{x>y} -> catalog:1\n"
    )
    assignment = parse_assignment_file(text, partition, base_dir=str(tmp_path))
    assert assignment.subrules[0] == special
    assert assignment.subrules[1] == Catalog(blocks[1])[1]


def test_assignment_parse_errors(tmp_path):
    partition = _sp3_partition()

    def parse(text: str):
        return parse_assignment_file(text, partition, base_dir=str(tmp_path))

    good = (
        "alternatives: x y z\n"
        "agents: 1 2\n"
        "{}|{} -> catalog:0\n"
        "{}|{x>y} -> catalog:0\n"
        "{x>y}|{} -> catalog:0\n"
        "{x>y}|{x>y} -> catalog:0\n"
    )
    assert len(parse(good).subrules) == 4

    with pytest.raises(ParseError, match="starts with 'alternatives:'"):
        parse("agents: 1 2\n")
    with pytest.raises(ParseError, match="do not match"):
        parse("alternatives: x y q\n" + good.split("\n", 1)[1])
    with pytest.raises(ParseError, match="expected 'agents:'"):
        parse("alternatives: x y z\n{}|{} -> catalog:0\n")
    with pytest.raises(ParseError, match="agents .* do not match"):
        parse(good.replace("agents: 1 2", "agents: a b"))
    with pytest.raises(ParseError, match="canonical order"):
        parse(good.replace("{}|{x>y} -> catalog:0", "{x>y}|{} -> catalog:0", 1))
    with pytest.raises(ParseError, match="out of range"):
        parse(good.replace("{}|{} -> catalog:0", "{}|{} -> catalog:99"))
    with pytest.raises(ParseError, match="bad catalog index"):
        parse(good.replace("{}|{} -> catalog:0", "{}|{} -> catalog:x"))
    with pytest.raises(ParseError, match="'catalog:N' or 'file:PATH'"):
        parse(good.replace("{}|{} -> catalog:0", "{}|{} -> magic:3"))
    with pytest.raises(ParseError, match="more than 4"):
        parse(good + "{x>y}|{x>y} -> catalog:0\n")
    with pytest.raises(DomainError, match="covers only 3 of 4"):
        parse(good.rsplit("{x>y}|{x>y}", 1)[0])
    with pytest.raises(ParseError, match="answer set in braces"):
        parse(good.replace("{}|{}", "()|{}"))
    with pytest.raises(ParseError, match="unknown alternative"):
        parse(good.replace("{}|{x>y} ", "{}|{q>y} "))
    with pytest.raises(DomainError, match="cannot read"):
        parse(good.replace("{}|{} -> catalog:0", "{}|{} -> file:missing.rule"))
    (tmp_path / "latin1.rule").write_bytes(b"\xe9\xff")
    with pytest.raises(DomainError, match="cannot read subrule file"):
        parse(good.replace("{}|{} -> catalog:0", "{}|{} -> file:latin1.rule"))
    with pytest.raises(ParseError, match="incomplete assignment file header"):
        parse("alternatives: x y z\n")


def test_serialize_rejects_wrong_index_count():
    partition = _sp3_partition()
    with pytest.raises(DomainError, match="need 4 catalog indices"):
        serialize_assignment(partition, (0, 0, 0))


# ---------------------------------------------------------------------------
# Decompose/assemble identity


@pytest.mark.parametrize("setup", ["single_peaked_pair", "universal_pair"])
def test_assemble_inverts_decompose_on_every_sp_rule(setup):
    # Splitting any strategy-proof rule into its response-profile subrules and
    # gluing those subrules back together must reproduce the rule exactly; and
    # the decomposition of a strategy-proof rule never contains a violation.
    if setup == "single_peaked_pair":
        partition = _sp3_partition()
        expected_rules = 24
    else:
        uni = generate_domain("universal", m=3)
        pd = ProductDomain.of([uni, uni], labels=["x", "y", "z"])
        partition = ResponsePartition.of(pd, (classify(uni), classify(uni)))
        expected_rules = 17
    rules = list(enumerate_sp_rules(partition.product))
    assert len(rules) == expected_rules
    for rule in rules:
        blocks = decompose(rule, partition)
        assert DECOMPOSITION_VIOLATION not in {b.classification for b in blocks}
        reassembled = assemble(partition, tuple(b.subrule for b in blocks))
        assert reassembled == rule
