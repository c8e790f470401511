"""The handlers of the six rule commands, which ``spdom.cli`` loads when one
of them runs, so that the domain commands neither load nor compile them.
Each handler imports the rule-layer modules it runs."""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional, Sequence

from .classify import ResponsePartition
from .cli import _emit, _load_spec, _pair_json, _pairs_json, _ranking_json, _read_text, _write_text
from .domfile import (
    DomainSpec,
    format_answer_set,
    format_profile,
    format_ranking,
    format_response,
    parse_domain_file,
)
from .prefcore import DomainError, ProductDomain, SizeLimitError

if TYPE_CHECKING:
    from .orbits import ProductFamily
    from .rules import ManipulationWitness

# Full decimal rendering of big counts is capped; beyond this, or beyond
# Python's int-to-str limit when that is lower, only the digit count is reported.
PRINT_DIGIT_LIMIT = 1000
JSON_DIGIT_LIMIT = 4000
# enumerate-sp --oracle brute-forces every outcome table; cap the table count.
ORACLE_TABLE_LIMIT = 200_000
# Cap on table cells inlined into enumerate-sp JSON output.
RULE_JSON_CELL_LIMIT = 50_000


def _dictator_names(pd: ProductDomain, dictators) -> list[str]:
    return [pd.agent_names[i] for i in sorted(dictators)]


def _dictators_text(names: Sequence[str]) -> str:
    return ", ".join(names) or "none"


def _witness_json(pd: ProductDomain, w: ManipulationWitness) -> dict[str, Any]:
    return {
        "agent": pd.agent_names[w.agent],
        "profile": [
            _ranking_json(pd.agents[i].rankings[digit].order, pd.labels)
            for i, digit in enumerate(w.profile)
        ],
        "deviation": _ranking_json(
            pd.agents[w.agent].rankings[w.deviation].order, pd.labels
        ),
        "sincere_outcome": pd.labels[w.sincere_outcome],
        "deviating_outcome": pd.labels[w.deviating_outcome],
    }


def _witness_text(pd: ProductDomain, w: ManipulationWitness) -> str:
    deviation = format_ranking(pd.agents[w.agent].rankings[w.deviation].order, pd.labels)
    return (
        f"agent {pd.agent_names[w.agent]} at {format_profile(pd, w.profile)} "
        f"deviating to {deviation}: "
        f"{pd.labels[w.sincere_outcome]} -> {pd.labels[w.deviating_outcome]}"
    )


def _str_digit_limit() -> float:
    """The most digits ``str()`` (and so the JSON report) accepts of an int:
    Python refuses ints longer than its int-to-str digit limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or math.inf


def _take_results(
    options: dict[str, Any], results: Iterable[Any], keep: float,
    noun: str, suffix: str, render: Callable[[Any], str],
) -> tuple[int, list[Any], list[str]]:
    """Read ``results`` once, one at a time: count them, write each to the
    ``--out`` directory as ``<noun>_<index>.<suffix>`` as it comes, and keep
    the first ``keep``.  Returns the count, those kept and any ``wrote`` line."""
    directory = options["out"] and Path(options["out"])
    if directory:
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise DomainError(f"cannot write {directory}: {err}") from err
    count, kept = 0, []
    for count, result in enumerate(results, 1):
        if directory:
            _write_text(directory / f"{noun}_{count - 1:04d}.{suffix}", (render(result),))
        if count <= keep:
            kept.append(result)
    return count, kept, [f"wrote {count} {noun} file(s) to {directory}"] if directory else []


def _load_partition(options: dict[str, Any]) -> ResponsePartition:
    spec = _load_spec(options)
    return ResponsePartition.of(spec.product, spec.resolved_maps(options["scan"]))


def _cmd_count_subrules(options: dict[str, Any]) -> int:
    from .counting import Catalog, count_second_step, decimal_digit_count
    partition = _load_partition(options)
    pd = partition.product
    report = count_second_step(partition)
    product_digits = decimal_digit_count(report.product)
    limit = _str_digit_limit()  # neither cap below may pass Python's own

    oracle_payload = None
    mismatches = []
    if options["oracle"]:
        catalog_sizes = [len({rule.table for rule in Catalog(b)}) for b in partition.block_products]
        mismatches = [
            (block, size)
            for block, size in zip(report.blocks, catalog_sizes)
            if size != block.subtotal
        ]
        oracle_payload = {"agrees": not mismatches, "catalog_sizes": catalog_sizes}
    exit_code = 3 if mismatches else 0

    # Only the printed form is built.
    if options["format"] == "json":
        payload = {
            "command": "count-subrules",
            "alternatives": list(pd.labels),
            "agent_names": list(pd.agent_names),
            "profile_count": report.profile_count,
            "naive_digits": report.naive_digits,
            "blocks": (
                {
                    "answers": [_pairs_json(a, pd.labels) for a in block.answers],
                    "block_sizes": list(block.block_sizes),
                    "constants": block.constants,
                    "pairs": [
                        {
                            "pair": _pair_json(p.pair, pd.labels),
                            "free_agents": [pd.agent_names[i] for i in p.free_agents],
                            "count": p.count,
                        }
                        for p in block.pair_counts
                    ],
                    "dictatorial": [
                        {"range_size": k, "count": count} for k, count in block.dictatorial
                    ],
                    "subtotal": block.subtotal,
                }
                for block in report.blocks
            ),
            "product": report.product if product_digits <= min(JSON_DIGIT_LIMIT, limit) else None,
            "product_digits": product_digits,
            "oracle": oracle_payload,
        }
        _emit(options, payload, ())
        return exit_code

    head = [
        f"alternatives: {report.m} ({' '.join(pd.labels)}); "
        f"agents: {pd.n}; profiles: {report.profile_count}",
        f"naive table bound: {report.m}^{report.profile_count} ({report.naive_digits} digits)",
    ]
    # Each block's answer-set text and size are formatted once, not per profile.
    answer_texts = [[format_answer_set(a, pd.labels) for a in row] for row in partition.answers]
    size_texts = [[str(len(b)) for b in row] for row in partition.blocks]

    def block_lines() -> Iterator[str]:
        for block in report.blocks:
            label = "|".join([texts[j] for texts, j in zip(answer_texts, block.index)])
            sizes = "x".join([texts[j] for texts, j in zip(size_texts, block.index)])
            dictatorial = block.subtotal - block.constants - block.two_outcome
            yield (
                f"response profile {label}: block sizes {sizes}; subtotal {block.subtotal} "
                f"= {block.constants} constant + {block.two_outcome} two-outcome "
                f"+ {dictatorial} dictatorial"
            )

    # The lines after the blocks are built first, so a failure writes nothing.
    shown = f"{report.product} " if product_digits <= min(PRINT_DIGIT_LIMIT, limit) else ""
    tail = [f"strategy-proof two-step rules: {shown}({product_digits} digits)"]
    if oracle_payload is not None:
        for block, size in mismatches:
            tail.append(
                f"ORACLE MISMATCH at response profile "
                f"{format_response(block.answers, pd.labels)}: "
                f"catalog has {size} subrules, formula says {block.subtotal}"
            )
        tail.append(f"oracle (explicit catalogs): {'agrees' if not mismatches else 'DISAGREES'}")
    _emit(options, None, itertools.chain(head, block_lines(), tail))
    return exit_code


def _parse_range_filter(spec: DomainSpec, text: Optional[str]) -> Optional[tuple[int, ...]]:
    if text is None:
        return None
    label_to_id = {label: i for i, label in enumerate(spec.labels)}
    ids = []
    for part in text.split(","):
        part = part.strip()
        if part not in label_to_id:
            raise DomainError(f"unknown alternative {part!r} in --range")
        ids.append(label_to_id[part])
    return tuple(dict.fromkeys(ids))  # repeats dropped, first-seen order kept


def _brute_force_sp_tables(pd: ProductDomain, outcomes: list[int]) -> Iterator[bytes]:
    """Independent check for enumerate-sp: the tables over ``outcomes`` the
    manipulation scan passes.  The cap is checked at the call."""
    from .counting import power_digit_count
    from .rules import Rule, find_manipulation
    count = pd.profile_count
    digits = power_digit_count(len(outcomes), count)  # the power is built only if printable
    total = len(outcomes) ** count if digits <= _str_digit_limit() else None
    if total is None or total > ORACLE_TABLE_LIMIT:
        shown = f"({digits} digits)" if total is None else total
        raise SizeLimitError(
            f"oracle would scan {shown} tables, over the cap of {ORACLE_TABLE_LIMIT}"
        )
    rules = (Rule(pd, table) for table in itertools.product(outcomes, repeat=count))
    return (rule.table for rule in rules if find_manipulation(rule) is None)


def _cmd_enumerate_sp(options: dict[str, Any]) -> int:
    from .counting import enumerate_sp_rules
    from .rules import serialize_rule
    spec = _load_spec(options)
    pd = spec.product
    range_filter = _parse_range_filter(spec, options["range"])
    # The guards, then the oracle's cap, before any rule is enumerated or written.
    search = enumerate_sp_rules(pd, range_filter, options["max_profiles"])
    outcomes = sorted(range_filter or range(pd.m))
    brute_force = _brute_force_sp_tables(pd, outcomes) if options["oracle"] else None
    # The oracle's cap bounds the tables it keeps; JSON inlines them up to a cell limit.
    json_keep = RULE_JSON_CELL_LIMIT // pd.profile_count
    keep = math.inf if brute_force is not None else json_keep if options["format"] == "json" else 0
    count, rules, wrote = _take_results(options, search, keep, "rule", "rule", serialize_rule)

    lines = [f"strategy-proof rules: {count}"]
    if range_filter is not None:
        lines[0] += f" (range within {{{', '.join(pd.labels[a] for a in range_filter)}}})"
    lines += wrote

    oracle_payload = None
    exit_code = 0
    if brute_force is not None:
        brute = list(brute_force)
        agrees = brute == [r.table for r in rules]
        oracle_payload = {"agrees": agrees, "count": len(brute)}
        lines.append(
            f"oracle (full table scan): {'agrees' if agrees else 'DISAGREES'} "
            f"({len(brute)} rules)"
        )
        if not agrees:
            exit_code = 3

    payload = None  # only the printed form is built
    if options["format"] == "json":
        include_tables = count <= json_keep
        payload = {
            "command": "enumerate-sp",
            "count": count,
            "range_filter": (
                None if range_filter is None else [pd.labels[a] for a in range_filter]
            ),
            "rules": (
                [
                    {"index": i, "table": [pd.labels[v] for v in rule.table]}
                    for i, rule in enumerate(rules)
                ]
                if include_tables
                else []
            ),
            "rules_omitted": not include_tables,
            "oracle": oracle_payload,
        }
    # --out is the rule-file directory here, so the report always goes to stdout.
    _emit({**options, "out": None}, payload, lines)
    return exit_code


def _cmd_check_rule(options: dict[str, Any]) -> int:
    from .rules import _check_profile_guard, audit_sp_lemmas, dictators_of, parse_rule_file, range_of
    spec = _load_spec(options)
    pd = spec.product
    rule = parse_rule_file(_read_text(options["rule"]), pd)
    _check_profile_guard(pd.profile_count, options["max_profiles"])
    audit = audit_sp_lemmas(rule)
    witness = audit.witness
    attained = range_of(rule)
    dictators = _dictator_names(pd, dictators_of(rule))
    lines = [
        f"SP: {'yes' if witness is None else 'no'}; dictators: {_dictators_text(dictators)}; "
        f"range: {len(attained)}"
    ]
    lines.append(f"range alternatives: {', '.join(pd.labels[a] for a in sorted(attained))}")
    if witness is not None:
        lines.append(f"witness: {_witness_text(pd, witness)}")
    lines.append(
        f"audit: {audit.maximality_faults} maximality fault(s), "
        f"{audit.freeness_faults} freeness fault(s)"
    )

    exit_code = 0 if witness is None else 3
    oracle_payload = None
    if options["oracle"]:
        # Independent route: a rule is strategy-proof exactly when every realized
        # outcome is its reporter's best option-set member; and a strategy-proof
        # rule's option sets must be pairwise free.  (The witness comes from the
        # manipulation scan, which compares two cells' outcomes by position; the
        # faults come from the option-set test, OptionSets.admissible.)
        agrees = (witness is None) == (not audit.maximality_faults)
        agrees = agrees and not (witness is None and audit.freeness_faults)
        oracle_payload = {"agrees": agrees}
        lines.append(f"oracle (option-set audit): {'agrees' if agrees else 'DISAGREES'}")
        if not agrees:
            exit_code = 3

    payload = {
        "command": "check-rule",
        "strategy_proof": witness is None,
        "range": [pd.labels[a] for a in sorted(attained)],
        "range_size": len(attained),
        "dictators": dictators,
        "witness": None if witness is None else _witness_json(pd, witness),
        "audit": {
            "maximality_faults": audit.maximality_faults,
            "freeness_faults": audit.freeness_faults,
            "clean": audit.clean,
        },
        "oracle": oracle_payload,
    }
    _emit(options, payload, lines)
    return exit_code


def _cmd_decompose(options: dict[str, Any]) -> int:
    from .rules import parse_rule_file
    from .twostep import decompose
    partition = _load_partition(options)
    pd = partition.product
    rule = parse_rule_file(_read_text(options["rule"]), pd)
    blocks = decompose(rule, partition)

    kinds = {"dictatorial": 0, "sp_range_le_2": 0, "violation": 0}
    for block in blocks:
        kinds[block.classification] += 1
    lines = [
        f"response profiles: {len(blocks)}; "
        f"dictatorial: {kinds['dictatorial']}; "
        f"two-outcome: {kinds['sp_range_le_2']}; "
        f"violations: {kinds['violation']}"
    ]
    blocks_payload = []
    for block in blocks:
        sizes = "x".join(str(len(d)) for d in block.subrule.domain.agents)
        dictators = _dictator_names(pd, block.dictators)
        lines.append(
            f"{format_response(block.answers, pd.labels)} -> {block.classification}; "
            f"range {block.range_size}; dictators: {_dictators_text(dictators)}; block {sizes}"
        )
        blocks_payload.append(
            {
                "answers": [_pairs_json(a, pd.labels) for a in block.answers],
                "block_sizes": [len(d) for d in block.subrule.domain.agents],
                "classification": block.classification,
                "dictators": dictators,
                "range_size": block.range_size,
            }
        )
    payload = {
        "command": "decompose",
        "alternatives": list(pd.labels),
        "blocks": blocks_payload,
        "violations": kinds["violation"],
    }
    _emit(options, payload, lines)
    return 0 if kinds["violation"] == 0 else 3


def _theorem_instances(options: dict[str, Any]) -> ProductFamily | list[ProductDomain]:
    from .counting import nonconditional_domains
    from .orbits import ProductFamily
    domain_files = options["domain"] or []
    family = options["family"]
    if domain_files and family:
        raise DomainError("give either --domain files or --family, not both")
    if domain_files:
        return [parse_domain_file(_read_text(path)).product for path in domain_files]
    if not family:
        raise DomainError("verify-theorem needs --domain files or --family")
    agents = options["agents"]
    if agents < 1:
        raise DomainError(f"--agents must be at least 1, got {agents}")
    return ProductFamily(nonconditional_domains(options["m"]), agents)


def _cmd_verify_theorem(options: dict[str, Any]) -> int:
    from .orbits import verify_impossibility
    instances = _theorem_instances(options)
    report = verify_impossibility(
        instances,
        max_profiles=options["max_profiles"],
        audit_sample=options["audit_sample"],
        seed=options["seed"],
    )
    exit_code = 0 if report.ok else 3
    if options["format"] == "json":
        payload = {
            "command": "verify-theorem",
            "instances": report.instances,
            "rules_checked": report.rules_checked,
            # Each violation's own instance has the labels: a list may mix label sets.
            "violations": (
                {
                    "instance": v.instance,
                    "range_size": len(set(v.table)),
                    "dictators": [],  # violations have no dictator
                    "table": list(map(instances[v.instance].labels.__getitem__, v.table)),
                }
                for v in report.violations
            ),
            "audited": report.audited,
            "audit_faults": [
                {"instance": f.instance, "reason": f.reason} for f in report.audit_faults
            ],
        }
        _emit(options, payload, ())
        return exit_code
    lines = [
        f"instances: {report.instances}; rules checked: {report.rules_checked}; "
        f"violations: {len(report.violations)}; audited: {report.audited}; "
        f"audit faults: {len(report.audit_faults)}"
    ]
    if report.ok:
        lines.append(
            "verified: every strategy-proof rule without a dictator attains "
            "exactly two outcomes"
        )
    for v in report.violations[:20]:
        lines.append(
            f"violation: instance {v.instance}, range size {len(set(v.table))}, dictators: none"
        )
    if len(report.violations) > 20:
        lines.append(f"... and {len(report.violations) - 20} more violation(s)")
    for fault in report.audit_faults[:20]:
        lines.append(f"audit fault: instance {fault.instance}: {fault.reason}")
    _emit(options, None, lines)
    return exit_code


def _cmd_search_two_step(options: dict[str, Any]) -> int:
    from .counting import decimal_digit_count
    from .twostep import search_sp_combinations, serialize_assignment
    partition = _load_partition(options)
    result = search_sp_combinations(partition, budget=options["budget"])
    catalogs, total = result.catalogs, result.candidates_total
    sizes = "x".join(str(len(c)) for c in catalogs)
    digits = decimal_digit_count(total)
    printable = digits <= _str_digit_limit()

    lines = [
        f"response profiles: {len(catalogs)}; catalog sizes: {sizes}; "
        f"candidates: {total if printable else f'({digits} digits)'}; "
        f"tried: {result.candidates_tried}; complete: {'yes' if result.complete else 'no'}"
    ]
    # The JSON payload lists every assignment, so only JSON keeps them.
    count, assignments, wrote = _take_results(
        options, result.assignments, math.inf if options["format"] == "json" else 0,
        "assignment", "assign", lambda indices: serialize_assignment(partition, indices),
    )
    lines += [f"strategy-proof assignments: {count}", *wrote]

    payload = None  # only the printed form is built
    if options["format"] == "json":
        payload = {
            "command": "search-two-step",
            "response_profiles": len(catalogs),
            "candidates_total": total if printable else None,
            "candidates_tried": result.candidates_tried,
            "complete": result.complete,
            "found": count,
            "assignments": assignments,  # tuples, written as JSON lists
        }
    # --out is the assignment-file directory here; the report goes to stdout.
    _emit({**options, "out": None}, payload, lines)
    return 0
