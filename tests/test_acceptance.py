"""Acceptance suite: the ten headline guarantees of the package, one test per
criterion.  Each test appends one ``ACCEPTANCE n: PASS``/``FAIL`` line that the
terminal summary prints after the run (see ``conftest.pytest_terminal_summary``).

Every frozen integer below was computed by at least two independent routes
before being asserted (closed-form counting vs. exhaustive backtracking vs.
brute-force table scans); the library tests in the sibling modules pin the
same values at finer granularity.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager

from conftest import ACCEPTANCE_LINES
from spdom.classify import (
    ResponsePartition,
    classify,
    partition_by_answers,
    rebuild,
)
from spdom.counting import (
    count_second_step,
    enumerate_sp_rules,
    nonconditional_domains,
    verify_impossibility,
)
from spdom.prefcore import (
    OrderedPair,
    PreferenceDomain,
    ProductDomain,
    all_rankings,
    default_labels,
    is_non_conditional,
)
from spdom.rules import Rule, dictators_of, find_manipulation, range_of
from spdom.twostep import (
    TwoStepAssignment,
    assemble,
    decompose,
    first_step_witnesses,
)


@contextmanager
def record(criterion: int):
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"ACCEPTANCE {criterion}: FAIL")
        raise
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {criterion}: PASS")


def _leftmost_table(pd):
    return tuple(
        min(pd.agents[i].rankings[d].order[0] for i, d in enumerate(profile))
        for profile in pd.iter_profiles()
    )


def test_acceptance_01_two_agent_conditional_counts(ex1_spec):
    # Both agents share one conditional statement with a single antecedent
    # pair; the four response profiles split 60/20 per agent and their
    # strategy-proof subrule counts multiply out to 37 * 46^2 * 59.
    with record(1):
        start = time.perf_counter()
        domains = [a.domain for a in ex1_spec.agents]
        partition = ResponsePartition.of(ex1_spec.product, ex1_spec.resolved_maps("default"))
        report = count_second_step(partition)
        elapsed = time.perf_counter() - start

        assert [len(d) for d in domains] == [80, 80]
        by_answers = {
            tuple(block.answers): block.subtotal for block in report.blocks
        }
        empty = frozenset()
        xy = frozenset({OrderedPair(2, 3)})  # the antecedent pair x > y
        assert by_answers[(empty, empty)] == 59  # both keep y above x
        assert by_answers[(xy, xy)] == 37  # both put x above y
        assert by_answers[(empty, xy)] == 46
        assert by_answers[(xy, empty)] == 46
        assert report.product == 37 * 46**2 * 59 == 4619228
        assert elapsed < 5.0


def test_acceptance_02_chain_domain_counts(ex2_spec):
    # Two single-peaked-by-chain agents: 16 response profiles whose subtotals
    # depend only on the peak regions, with product 21^2 17^3 16^2 14^2 9^4 8^2 5.
    with record(2):
        start = time.perf_counter()
        domains = [a.domain for a in ex2_spec.agents]
        partition = ResponsePartition.of(ex2_spec.product, ex2_spec.resolved_maps("default"))
        report = count_second_step(partition)
        elapsed = time.perf_counter() - start

        assert [len(d) for d in domains] == [16, 16]
        assert len(report.blocks) == 16
        full_chain = frozenset(
            {OrderedPair(0, 1), OrderedPair(1, 2), OrderedPair(2, 3)}
        )  # v>w, w>x, x>y: the leftmost peak
        diagonal = {
            tuple(block.answers)[0]: block.subtotal
            for block in report.blocks
            if block.answers[0] == block.answers[1]
        }
        assert sorted(diagonal.values()) == [5, 17, 21, 21]
        assert diagonal[full_chain] == 5  # peak at v
        assert diagonal[frozenset({OrderedPair(1, 2), OrderedPair(2, 3)})] == 17
        assert diagonal[frozenset({OrderedPair(2, 3)})] == 21  # peak at x
        assert diagonal[frozenset()] == 21  # peak right of x
        mixed = sorted(
            block.subtotal
            for block in report.blocks
            if block.answers[0] != block.answers[1]
        )
        assert mixed == [8, 8, 9, 9, 9, 9, 14, 14, 16, 16, 17, 17]
        expected = 21**2 * 17**3 * 16**2 * 14**2 * 9**4 * 8**2 * 5
        assert report.product == expected == 228245070327644160
        assert elapsed < 5.0


def test_acceptance_03_nonconditional_sweep_has_no_counterexample():
    # Every ordered pair of non-conditional domains on three alternatives:
    # each strategy-proof rule either attains two outcomes or has a dictator.
    with record(3):
        start = time.perf_counter()
        base = nonconditional_domains(3)
        labels = default_labels(3)
        instances = [
            ProductDomain.of(list(combo), labels=labels)
            for combo in itertools.product(base, repeat=2)
        ]
        report = verify_impossibility(instances)
        elapsed = time.perf_counter() - start

        assert len(base) == 19
        assert report.instances == 361
        assert report.rules_checked == 2213
        assert report.violations == ()
        assert report.ok
        assert elapsed < 600.0


def test_acceptance_04_universal_pair_exact_catalog(uni3_spec):
    # Two unrestricted agents on three alternatives admit exactly 17
    # strategy-proof rules: 3 constants, 12 two-outcome vote rules, and the
    # 2 dictatorships; the closed-form count matches the enumerator exactly.
    with record(4):
        pd = uni3_spec.product
        rules = list(enumerate_sp_rules(pd))
        assert len(rules) == 17

        by_range_size: dict[int, int] = {}
        for rule in rules:
            by_range_size[len(range_of(rule))] = (
                by_range_size.get(len(range_of(rule)), 0) + 1
            )
        assert by_range_size == {1: 3, 2: 12, 3: 2}
        full_range = [r for r in rules if len(range_of(r)) == 3]
        assert all(dictators_of(r) for r in full_range)

        maps = uni3_spec.resolved_maps("default")
        report = count_second_step(ResponsePartition.of(pd, maps))
        assert len(report.blocks) == 1
        assert report.product == len(rules) == 17


def test_acceptance_05_leftmost_peak_rule_decomposes_cleanly(sp3_spec):
    # On two single-peaked agents the leftmost-peak rule is strategy-proof,
    # has no dictator, and attains all three outcomes -- yet every one of its
    # response-profile blocks is dictatorial or two-outcome (no violations),
    # so wide-range rules without dictators do exist off the non-conditional
    # world.
    with record(5):
        pd = sp3_spec.product
        rule = Rule(pd, _leftmost_table(pd))
        assert find_manipulation(rule) is None
        assert dictators_of(rule) == frozenset()
        assert len(range_of(rule)) == 3

        maps = sp3_spec.resolved_maps("default")
        report = decompose(rule, ResponsePartition.of(pd, maps))
        assert report.clean
        assert report.violations == ()
        kinds = {b.classification for b in report.blocks}
        assert kinds <= {"dictatorial", "sp_range_le_2"}


def test_acceptance_06_classification_round_trip(ex1_spec, ex2_spec):
    # rebuild(classify(d)) == d for every nonempty subset of the six rankings
    # on three alternatives and for both five-alternative example domains.
    with record(6):
        rankings = all_rankings(3)
        for mask in range(1, 64):
            domain = PreferenceDomain.of(
                rankings[i] for i in range(6) if mask >> i & 1
            )
            for scan in ("default", "reversed"):
                assert rebuild(classify(domain, scan=scan)) == domain

        for spec, size in ((ex1_spec, 80), (ex2_spec, 16)):
            for agent in spec.agents:
                assert len(agent.domain) == size
                for scan in ("default", "reversed"):
                    assert rebuild(classify(agent.domain, scan=scan)) == agent.domain


def test_acceptance_07_partition_law(ex1_spec, ex2_spec):
    # Answer blocks partition each example domain into disjoint
    # non-conditional pieces that union back to the original; the chain
    # example realizes exactly 4 answer sets per agent.
    with record(7):
        for spec, expected_blocks in ((ex1_spec, 2), (ex2_spec, 4)):
            maps = spec.resolved_maps("default")
            for agent, map_ in zip(spec.agents, maps):
                blocks = partition_by_answers(agent.domain, map_)
                assert len(blocks) == expected_blocks
                seen: set = set()
                total = 0
                for _, block in blocks:
                    members = set(block.rankings)
                    assert not (seen & members)  # disjoint
                    assert is_non_conditional(block)
                    seen |= members
                    total += len(block)
                assert total == len(agent.domain)
                assert seen == set(agent.domain.rankings)  # union restores


def test_acceptance_08_formula_equals_backtracking_everywhere():
    # For every single-agent domain and every ordered pair of domains drawn
    # from the 63 nonempty ranking subsets at m=3, each response block's
    # closed-form subrule count equals the backtracking enumerator's count on
    # that block.  Block counts are cached by the block's ranking content, so
    # each distinct block product is enumerated once.
    with record(8):
        rankings = all_rankings(3)
        subsets = [
            PreferenceDomain.of(rankings[i] for i in range(6) if mask >> i & 1)
            for mask in range(1, 64)
        ]
        classified = [(d, classify(d)) for d in subsets]
        enum_cache: dict[tuple, int] = {}

        def backtracking_count(block_pd: ProductDomain) -> int:
            key = tuple(
                tuple(r.order for r in d.rankings) for d in block_pd.agents
            )
            if key not in enum_cache:
                enum_cache[key] = sum(1 for _ in enumerate_sp_rules(block_pd))
            return enum_cache[key]

        checked_blocks = 0
        for choice in itertools.chain(
            ((entry,) for entry in classified),
            itertools.product(classified, repeat=2),
        ):
            domains = [d for d, _ in choice]
            maps = tuple(m for _, m in choice)
            partition = ResponsePartition.of(ProductDomain.of(domains), maps)
            report = count_second_step(partition)
            for block, block_pd in zip(report.blocks, partition.block_products):
                assert block.subtotal == backtracking_count(block_pd)
                checked_blocks += 1
        assert checked_blocks > 4032  # 63 + 63^2 products, >=1 block each


def test_acceptance_09_sampled_rule_audit():
    # 100 strategy-proof rules sampled across the 361-instance sweep must
    # pass the deep audit: option-set maximality at every profile, pairwise
    # freeness of option sets, and strategy-proofness of every sub-product
    # restriction (at this scale the restriction count is under the audit
    # cap, so the restriction check is exhaustive, not sampled).
    with record(9):
        base = nonconditional_domains(3)
        labels = default_labels(3)
        instances = [
            ProductDomain.of(list(combo), labels=labels)
            for combo in itertools.product(base, repeat=2)
        ]
        assert max((2 ** pd.sizes[0] - 1) * (2 ** pd.sizes[1] - 1) for pd in instances) <= 4096
        report = verify_impossibility(instances, audit_sample=100, seed=20260817)
        assert report.audited == 100
        assert report.audit_faults == ()
        assert report.violations == ()


def test_acceptance_10_assembly_witnesses_change_answers(ex1_spec):
    # An assembly of individually strategy-proof (constant) subrules that is
    # nevertheless manipulable: every manipulation must cross answer-set
    # blocks -- no witness can stay within a block.
    with record(10):
        partition = ResponsePartition.of(ex1_spec.product, ex1_spec.resolved_maps("default"))
        assert len(partition.responses) == 4

        xy = frozenset({OrderedPair(2, 3)})
        subrules = []
        for answers, block_pd in zip(partition.responses, partition.block_products):
            outcome = 4 if answers == (xy, xy) else 1  # z vs w
            subrules.append(Rule(block_pd, (outcome,) * block_pd.profile_count))
        assignment = TwoStepAssignment(partition, tuple(subrules))
        rule = assemble(partition, assignment.subrules)

        assert decompose(rule, partition).clean  # every block is strategy-proof
        assert find_manipulation(rule) is not None  # but the whole is not
        witnesses = first_step_witnesses(rule, partition)
        assert witnesses
        assert all(w.answer_changing for w in witnesses)
        assert sum(1 for w in witnesses if not w.answer_changing) == 0
