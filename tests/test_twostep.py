from __future__ import annotations

import importlib
import itertools

import pytest

from spdom import (
    DECOMPOSITION_DICTATORIAL,
    DECOMPOSITION_TWO_OUTCOME,
    DECOMPOSITION_VIOLATION,
    DomainError,
    OrderedPair,
    ParseError,
    ProductDomain,
    ResponsePartition,
    Rule,
    TwoStepAssignment,
    assemble,
    classify,
    constant_rule,
    decompose,
    dictators_of,
    enumerate_sp_rules,
    find_manipulation,
    first_step_witnesses,
    generate_domain,
    is_strategy_proof,
    parse_assignment_file,
    range_of,
    satisfied_antecedents,
    search_sp_combinations,
    second_step_catalog,
    serialize_assignment,
    serialize_rule,
)

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
    responses = ResponsePartition.of(ex2_spec.product, ex2_spec.map_hints).responses
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


def test_gather_locates_every_profile():
    # Independent route: look each profile's rankings up in its block product.
    partition = _sp3_partition()
    pd = partition.product
    assert len(partition.gather) == pd.profile_count
    for profile, (r, s) in zip(pd.iter_profiles(), partition.gather):
        rankings = pd.rankings_at(profile)
        answers = tuple(
            satisfied_antecedents(ranking, map_)
            for ranking, map_ in zip(rankings, partition.maps)
        )
        assert partition.responses[r] == answers
        block = partition.block_products[r]
        assert block.profile_at(s) == tuple(
            d.index(ranking) for d, ranking in zip(block.agents, rankings)
        )


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
    # map exactly once, however many candidates it assembles.
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
    assert len(calls) == pd.n == 2


# ---------------------------------------------------------------------------
# Assembling


def test_assemble_routes_agree():
    partition = _sp3_partition()
    pd = partition.product
    outcomes = (0, 1, 2, 0)
    subrules = tuple(
        constant_rule(block, outcome)
        for block, outcome in zip(partition.block_products, outcomes)
    )
    rule = assemble(partition, subrules)
    # Independent check: each profile gets its response profile's outcome.
    expected_outcome = dict(zip(partition.responses, outcomes))
    for profile in pd.iter_profiles():
        answers = tuple(
            satisfied_antecedents(d.rankings[digit], map_)
            for digit, d, map_ in zip(profile, pd.agents, partition.maps)
        )
        assert rule.outcome(profile) == expected_outcome[answers]


def test_assemble_non_constant_subrule():
    partition = _sp3_partition()
    pd = partition.product
    blocks = partition.block_products
    # On the (no-answer, no-answer) block, pick the monotone vote rule between
    # the two free-for-both outcomes y and z; constants elsewhere.
    vote = next(
        r
        for r in second_step_catalog(blocks[0])
        if range_of(r) == frozenset({1, 2})
    )
    subrules = (vote, constant_rule(blocks[1], 1), constant_rule(blocks[2], 1), constant_rule(blocks[3], 1))
    rule = assemble(partition, subrules)
    for profile in pd.iter_profiles():
        rankings = pd.rankings_at(profile)
        if all(r.prefers(1, 0) for r in rankings):  # both in the no-answer block
            sub_profile = tuple(
                blocks[0].agents[i].index(rankings[i]) for i in range(2)
            )
            assert rule.outcome(profile) == vote.outcome(sub_profile)
        else:
            assert rule.outcome(profile) == 1


def test_assignment_validation():
    partition = _sp3_partition()
    good = tuple(constant_rule(b, 0) for b in partition.block_products)
    with pytest.raises(DomainError, match="one per response profile"):
        TwoStepAssignment(partition, good[:3])
    with pytest.raises(DomainError, match="one per response profile"):
        assemble(partition, good[:3])
    bad = (constant_rule(partition.product, 0),) + good[1:]
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
    report = decompose(rule, partition)
    kinds = [b.classification for b in report.blocks]
    assert kinds == [
        DECOMPOSITION_TWO_OUTCOME,
        DECOMPOSITION_DICTATORIAL,
        DECOMPOSITION_DICTATORIAL,
        DECOMPOSITION_DICTATORIAL,
    ]
    assert report.blocks[0].range_size == 2
    assert report.blocks[0].dictators == frozenset()
    assert all(b.range_size == 1 for b in report.blocks[1:])
    assert report.violations == () and report.clean


def test_decompose_flags_manipulable_subrule():
    partition = _sp3_partition()
    pd = partition.product
    table = []
    for profile in pd.iter_profiles():
        table.append(pd.agents[0].rankings[profile[0]].bottom)
    rule = Rule(pd, tuple(table))
    report = decompose(rule, partition)
    assert not report.clean
    assert any(b.classification == DECOMPOSITION_VIOLATION for b in report.blocks)


def test_decompose_subrules_restrict_the_rule():
    partition = _sp3_partition()
    pd = partition.product
    rule = _leftmost_top_rule(pd)
    for block in decompose(rule, partition).blocks:
        sub_pd = block.subrule.domain
        for profile in sub_pd.iter_profiles():
            parent_profile = tuple(
                pd.agents[i].index(sub_pd.agents[i].rankings[digit])
                for i, digit in enumerate(profile)
            )
            assert block.subrule.outcome(profile) == rule.outcome(parent_profile)


# ---------------------------------------------------------------------------
# First-step witnesses


def test_first_step_witnesses_empty_for_sp():
    partition = _sp3_partition()
    assert first_step_witnesses(_leftmost_top_rule(partition.product), partition) == ()


def test_first_step_witnesses_all_answer_changing(ex1_spec):
    # Constant subrules everywhere except the both-answered block: within-block
    # deviations never change the outcome, so every manipulation must cross
    # blocks by changing the manipulator's own answers.
    partition = ResponsePartition.of(ex1_spec.product, ex1_spec.map_hints)
    xy = frozenset({OrderedPair(2, 3)})
    subrules = tuple(
        constant_rule(block, 4 if answers == (xy, xy) else 1)
        for answers, block in zip(partition.responses, partition.block_products)
    )
    rule = assemble(partition, subrules)
    assert find_manipulation(rule) is not None
    witnesses = first_step_witnesses(rule, partition)
    assert witnesses
    assert all(w.answer_changing for w in witnesses)
    # Every block subrule is (trivially) strategy-proof even though the
    # assembled rule is manipulable.
    assert decompose(rule, partition).clean


def test_first_step_witnesses_within_block():
    partition = _sp3_partition()
    pd = partition.product
    table = tuple(pd.agents[0].rankings[p[0]].bottom for p in pd.iter_profiles())
    witnesses = first_step_witnesses(Rule(pd, table), partition)
    assert any(not w.answer_changing for w in witnesses)


# ---------------------------------------------------------------------------
# Catalog-driven search


def test_search_single_peaked_product_is_exhaustive():
    partition = _sp3_partition()
    pd = partition.product
    result = search_sp_combinations(partition)
    assert result.candidates_total == 11 * 5 * 5 * 3 == 825
    assert result.candidates_tried == 825
    assert result.complete
    assert len(result.rules) == 24
    assert {r.table for r in result.rules} == {
        r.table for r in enumerate_sp_rules(pd)
    }
    # Each reported assignment reassembles into its rule.
    catalogs = [second_step_catalog(block) for block in partition.block_products]
    assert result.catalogs == tuple(catalogs)
    for indices, rule in zip(result.assignments, result.rules):
        subrules = [catalogs[i][j] for i, j in enumerate(indices)]
        assert assemble(partition, subrules) == rule


def test_search_budget_truncation():
    partition = _sp3_partition()
    result = search_sp_combinations(partition, budget=100)
    assert result.candidates_tried == 100
    assert not result.complete
    assert result.candidates_total == 825
    full = search_sp_combinations(partition)
    assert {r.table for r in result.rules} <= {r.table for r in full.rules}
    with pytest.raises(DomainError):
        search_sp_combinations(partition, budget=0)


# ---------------------------------------------------------------------------
# Assignment file format


def test_assignment_roundtrip():
    partition = _sp3_partition()
    result = search_sp_combinations(partition)
    indices = result.assignments[5]
    assignment = TwoStepAssignment(
        partition, tuple(result.catalogs[i][j] for i, j in enumerate(indices))
    )
    text = serialize_assignment(assignment)
    lines = text.splitlines()
    assert lines[0] == "alternatives: x y z"
    assert lines[1] == "agents: 1 2"
    assert lines[2].startswith("{}|{} -> catalog:")
    again = parse_assignment_file(text, partition)
    assert again == assignment
    assert assemble(partition, again.subrules) == result.rules[5]


def test_assignment_file_reference(tmp_path):
    partition = _sp3_partition()
    blocks = partition.block_products
    special = second_step_catalog(blocks[0])[4]
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
    assert assignment.subrules[1] == second_step_catalog(blocks[1])[1]


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
    with pytest.raises(ParseError, match="incomplete assignment file header"):
        parse("alternatives: x y z\n")


def test_serialize_rejects_non_catalog_subrule():
    partition = _sp3_partition()
    blocks = partition.block_products
    # A manipulable subrule on the first block is not in any catalog.
    weird = Rule(blocks[0], tuple(r.bottom for r in blocks[0].agents[0].rankings for _ in range(3)))
    subrules = (weird,) + tuple(constant_rule(b, 0) for b in blocks[1:])
    assignment = TwoStepAssignment(partition, subrules)
    with pytest.raises(DomainError, match="not in its block catalog"):
        serialize_assignment(assignment)


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
        report = decompose(rule, partition)
        assert report.clean
        reassembled = assemble(partition, tuple(b.subrule for b in report.blocks))
        assert reassembled == rule
