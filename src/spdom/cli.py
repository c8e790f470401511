"""Command-line interface.

Subcommands
-----------
classify        derive each agent's restriction-map form from a domain file
closure         fixed/free pairs and the non-conditional closure per agent
partition       answer-set blocks per agent
count-subrules  closed-form count of strategy-proof two-step assignments
enumerate-sp    exhaustively enumerate strategy-proof rules (guarded)
check-rule      audit one rule file for strategy-proofness
decompose       split a rule into response-profile subrules and classify them
verify-theorem  sweep a family of products for impossibility counterexamples
search-two-step catalog-driven search over two-step assignments

Exit codes: 0 success; 1 malformed input or domain error; 2 a size guard or
argument-usage error; 3 a verification failure (a manipulable rule, a
decomposition violation, a counterexample, or an oracle disagreement).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from .classify import ResponsePartition, classify, partition_by_answers
from .counting import (
    decimal_digit_count,
    count_second_step,
    enumerate_sp_rules,
    nonconditional_domains,
    second_step_catalog,
    verify_impossibility,
)
from .domfile import DomainSpec, ParseError, parse_domain_file, serialize_product_domain
from .prefcore import (
    PROFILE_ENUMERATION_LIMIT,
    DomainError,
    ProductDomain,
    SizeLimitError,
    default_labels,
    nonconditional_closure,
    pair_sets,
)
from .rules import (
    ManipulationWitness,
    Rule,
    audit_sp_lemmas,
    dictators_of,
    find_manipulation,
    parse_rule_file,
    range_of,
    serialize_rule,
)
from .twostep import (
    TwoStepAssignment,
    decompose,
    search_sp_combinations,
    serialize_assignment,
)

# Full decimal rendering of big counts is capped; beyond this only the digit
# count is reported (also keeps JSON encoding well clear of int-to-str limits).
PRINT_DIGIT_LIMIT = 1000
JSON_DIGIT_LIMIT = 4000
# enumerate-sp --oracle brute-forces every outcome table; cap the table count.
ORACLE_TABLE_LIMIT = 200_000
# Cap on table cells inlined into enumerate-sp JSON output.
RULE_JSON_CELL_LIMIT = 50_000


@dataclass(frozen=True)
class CommandRequest:
    """A parsed invocation: the subcommand name plus its option mapping."""

    command: str
    options: dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Rendering helpers


def _pair_json(pair, labels: Sequence[str]) -> list[str]:
    a, b = pair
    return [labels[a], labels[b]]


def _pairs_json(pairs, labels: Sequence[str]) -> list[list[str]]:
    return [_pair_json(p, labels) for p in sorted(pairs)]


def _ranking_json(order: Sequence[int], labels: Sequence[str]) -> list[str]:
    return [labels[alt] for alt in order]


def _ranking_text(order: Sequence[int], labels: Sequence[str]) -> str:
    return "".join(labels[alt] for alt in order)


def _answers_text(answers, labels: Sequence[str]) -> str:
    inner = ",".join(f"{labels[p.top]}>{labels[p.bottom]}" for p in sorted(answers))
    return "{" + inner + "}"


def _answers_json(answers, labels: Sequence[str]) -> list[list[str]]:
    return [_pair_json(p, labels) for p in sorted(answers)]


def _pair_text(pair, labels: Sequence[str]) -> str:
    a, b = pair
    return f"{labels[a]} > {labels[b]}"


def _profile_text(pd: ProductDomain, profile: Sequence[int]) -> str:
    return ",".join(
        _ranking_text(pd.agents[i].rankings[digit].order, pd.labels)
        for i, digit in enumerate(profile)
    )


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
    deviation = _ranking_text(pd.agents[w.agent].rankings[w.deviation].order, pd.labels)
    return (
        f"agent {pd.agent_names[w.agent]} at {_profile_text(pd, w.profile)} "
        f"deviating to {deviation}: "
        f"{pd.labels[w.sincere_outcome]} -> {pd.labels[w.deviating_outcome]}"
    )


def _big_count_text(value: int) -> str:
    digits = decimal_digit_count(value)
    if digits <= PRINT_DIGIT_LIMIT:
        return str(value)
    return f"({digits} digits)"


def _emit(options: dict[str, Any], payload: dict[str, Any], text: str) -> None:
    if options.get("format") == "json":
        rendered = json.dumps(payload, indent=2) + "\n"
    else:
        rendered = text if text.endswith("\n") else text + "\n"
    out = options.get("out")
    if out:
        _write_text(Path(out), rendered)
    else:
        sys.stdout.write(rendered)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise DomainError(f"cannot read {path}: {err}") from err


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as err:
        raise DomainError(f"cannot write {path}: {err}") from err


def _out_dir(path: str) -> Path:
    directory = Path(path)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise DomainError(f"cannot write {directory}: {err}") from err
    return directory


def _load_spec(options: dict[str, Any]) -> DomainSpec:
    return parse_domain_file(_read_text(options["domain"]))


def _load_rule(options: dict[str, Any], pd: ProductDomain) -> Rule:
    return parse_rule_file(_read_text(options["rule"]), pd)


# ---------------------------------------------------------------------------
# Handlers (each returns the process exit code)


def _cmd_classify(options: dict[str, Any]) -> int:
    spec = _load_spec(options)
    scan = options["scan"]
    pd = spec.product
    maps = tuple(classify(agent.domain, scan=scan) for agent in spec.agents)

    agents_payload = []
    comment_lines = [f"# classification (scan: {scan})"]
    for agent, map_ in zip(spec.agents, maps):
        kind = "non-conditional" if map_.is_non_conditional else "conditional"
        comment_lines.append(
            f"# agent {agent.name}: {kind}, {len(map_.base)} fixed pair(s), "
            f"{len(map_.conditionals)} conditional statement(s)"
        )
        agents_payload.append(
            {
                "agent": agent.name,
                "non_conditional": map_.is_non_conditional,
                "base": _pairs_json(map_.base, pd.labels),
                "conditionals": [
                    {
                        "antecedent": _pairs_json(antecedent, pd.labels),
                        "conclusions": _pairs_json(conclusions, pd.labels),
                    }
                    for antecedent, conclusions in map_.conditionals
                ],
            }
        )
    payload = {
        "command": "classify",
        "scan": scan,
        "alternatives": list(pd.labels),
        "agents": agents_payload,
    }
    text = "\n".join(comment_lines) + "\n" + serialize_product_domain(pd, maps)
    _emit(options, payload, text)
    return 0


def _cmd_closure(options: dict[str, Any]) -> int:
    spec = _load_spec(options)
    pd = spec.product
    agents_payload = []
    lines = []
    for agent in spec.agents:
        sets = pair_sets(agent.domain)
        closure = nonconditional_closure(sets.fixed, agent.domain.m)
        non_conditional = closure == agent.domain
        agents_payload.append(
            {
                "agent": agent.name,
                "fixed": _pairs_json(sets.fixed, pd.labels),
                "free": _pairs_json(sets.free, pd.labels),
                "closure_size": len(closure),
                "domain_size": len(agent.domain),
                "non_conditional": non_conditional,
            }
        )
        fixed_text = (
            "; ".join(_pair_text(p, pd.labels) for p in sorted(sets.fixed)) or "(none)"
        )
        free_text = (
            "; ".join("{%s, %s}" % (pd.labels[a], pd.labels[b]) for a, b in sorted(sets.free))
            or "(none)"
        )
        lines.append(f"agent {agent.name}:")
        lines.append(f"  fixed pairs: {fixed_text}")
        lines.append(f"  free pairs: {free_text}")
        lines.append(f"  domain size: {len(agent.domain)}")
        lines.append(f"  closure size: {len(closure)}")
        lines.append(f"  non-conditional: {'yes' if non_conditional else 'no'}")
    payload = {
        "command": "closure",
        "alternatives": list(pd.labels),
        "agents": agents_payload,
    }
    _emit(options, payload, "\n".join(lines) + "\n")
    return 0


def _cmd_partition(options: dict[str, Any]) -> int:
    spec = _load_spec(options)
    scan = options["scan"]
    pd = spec.product
    maps = spec.resolved_maps(scan)
    agents_payload = []
    lines = []
    for agent, map_ in zip(spec.agents, maps):
        blocks = partition_by_answers(agent.domain, map_)
        lines.append(f"agent {agent.name}: {len(blocks)} block(s)")
        blocks_payload = []
        for answers, block in blocks:
            lines.append(f"  {_answers_text(answers, pd.labels)} -> {len(block)} ranking(s)")
            blocks_payload.append(
                {
                    "answers": _answers_json(answers, pd.labels),
                    "size": len(block),
                    "rankings": [_ranking_json(r.order, pd.labels) for r in block.rankings],
                }
            )
        agents_payload.append({"agent": agent.name, "blocks": blocks_payload})
    payload = {
        "command": "partition",
        "alternatives": list(pd.labels),
        "agents": agents_payload,
    }
    _emit(options, payload, "\n".join(lines) + "\n")
    return 0


def _load_partition(options: dict[str, Any]) -> ResponsePartition:
    spec = _load_spec(options)
    return ResponsePartition.of(spec.product, spec.resolved_maps(options["scan"]))


def _cmd_count_subrules(options: dict[str, Any]) -> int:
    partition = _load_partition(options)
    pd = partition.product
    report = count_second_step(partition)

    lines = [
        f"alternatives: {report.m} ({' '.join(pd.labels)}); "
        f"agents: {pd.n}; profiles: {report.profile_count}"
    ]
    lines.append(
        f"naive table bound: {report.m}^{report.profile_count} "
        f"({report.naive_digits} digits)"
    )
    blocks_payload = []
    for block in report.blocks:
        label = "|".join(_answers_text(a, pd.labels) for a in block.answers)
        sizes = "x".join(str(s) for s in block.block_sizes)
        two_outcome = sum(p.count for p in block.pair_counts)
        dictatorial = sum(count for _, count in block.dictatorial)
        lines.append(
            f"response profile {label}: block sizes {sizes}; subtotal {block.subtotal} "
            f"= {block.constants} constant + {two_outcome} two-outcome "
            f"+ {dictatorial} dictatorial"
        )
        blocks_payload.append(
            {
                "answers": [_answers_json(a, pd.labels) for a in block.answers],
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
        )

    product_digits = decimal_digit_count(report.product)
    lines.append(
        f"strategy-proof two-step rules: {_big_count_text(report.product)}"
        + (f" ({product_digits} digits)" if product_digits <= PRINT_DIGIT_LIMIT else "")
    )

    oracle_payload = None
    exit_code = 0
    if options.get("oracle"):
        catalog_sizes = []
        agrees = True
        for block, block_pd in zip(report.blocks, partition.block_products):
            size = len(second_step_catalog(block_pd))
            catalog_sizes.append(size)
            if size != block.subtotal:
                agrees = False
                lines.append(
                    f"ORACLE MISMATCH at response profile "
                    f"{'|'.join(_answers_text(a, pd.labels) for a in block.answers)}: "
                    f"catalog has {size} subrules, formula says {block.subtotal}"
                )
        oracle_payload = {"agrees": agrees, "catalog_sizes": catalog_sizes}
        lines.append(f"oracle (explicit catalogs): {'agrees' if agrees else 'DISAGREES'}")
        if not agrees:
            exit_code = 3

    payload = {
        "command": "count-subrules",
        "alternatives": list(pd.labels),
        "agent_names": list(pd.agent_names),
        "profile_count": report.profile_count,
        "naive_digits": report.naive_digits,
        "blocks": blocks_payload,
        "product": report.product if product_digits <= JSON_DIGIT_LIMIT else None,
        "product_digits": product_digits,
        "oracle": oracle_payload,
    }
    _emit(options, payload, "\n".join(lines) + "\n")
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
    return tuple(ids)


def _brute_force_sp_count(
    pd: ProductDomain, range_filter: Optional[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """Independent check for enumerate-sp: try every outcome table."""
    outcomes = tuple(range(pd.m)) if range_filter is None else tuple(sorted(set(range_filter)))
    count = pd.profile_count
    total = len(outcomes) ** count
    if total > ORACLE_TABLE_LIMIT:
        raise SizeLimitError(
            f"oracle would scan {total} tables, over the cap of {ORACLE_TABLE_LIMIT}"
        )
    found = []
    for table in itertools.product(outcomes, repeat=count):
        if find_manipulation(Rule(pd, table)) is None:
            found.append(table)
    return found


def _cmd_enumerate_sp(options: dict[str, Any]) -> int:
    spec = _load_spec(options)
    pd = spec.product
    range_filter = _parse_range_filter(spec, options.get("range"))
    max_profiles = options["max_profiles"]
    rules = list(enumerate_sp_rules(pd, range_filter=range_filter, max_profiles=max_profiles))

    lines = [f"strategy-proof rules: {len(rules)}"]
    if range_filter is not None:
        lines[0] += f" (range within {{{', '.join(pd.labels[a] for a in range_filter)}}})"

    out_dir = options.get("out")
    if out_dir:
        directory = _out_dir(out_dir)
        for i, rule in enumerate(rules):
            _write_text(directory / f"rule_{i:04d}.rule", serialize_rule(rule))
        lines.append(f"wrote {len(rules)} rule file(s) to {directory}")

    oracle_payload = None
    exit_code = 0
    if options.get("oracle"):
        brute = _brute_force_sp_count(pd, range_filter)
        agrees = brute == [r.table for r in rules]
        oracle_payload = {"agrees": agrees, "count": len(brute)}
        lines.append(
            f"oracle (full table scan): {'agrees' if agrees else 'DISAGREES'} "
            f"({len(brute)} rules)"
        )
        if not agrees:
            exit_code = 3

    include_tables = len(rules) * pd.profile_count <= RULE_JSON_CELL_LIMIT
    payload = {
        "command": "enumerate-sp",
        "count": len(rules),
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
    _emit({**options, "out": None}, payload, "\n".join(lines) + "\n")
    return exit_code


def _cmd_check_rule(options: dict[str, Any]) -> int:
    spec = _load_spec(options)
    pd = spec.product
    rule = _load_rule(options, pd)
    max_profiles = options["max_profiles"]
    witness = find_manipulation(rule, max_profiles)
    audit = audit_sp_lemmas(rule, max_profiles)
    attained = range_of(rule)
    dictators = dictators_of(rule)

    dict_text = (
        ", ".join(pd.agent_names[i] for i in sorted(dictators)) if dictators else "none"
    )
    lines = [
        f"SP: {'yes' if witness is None else 'no'}; dictators: {dict_text}; "
        f"range: {len(attained)}"
    ]
    lines.append(f"range alternatives: {', '.join(pd.labels[a] for a in sorted(attained))}")
    if witness is not None:
        lines.append(f"witness: {_witness_text(pd, witness)}")
    lines.append(
        f"audit: {len(audit.maximality_faults)} maximality fault(s), "
        f"{len(audit.freeness_faults)} freeness fault(s)"
    )

    exit_code = 0 if witness is None else 3
    oracle_payload = None
    if options.get("oracle"):
        # Independent route: a rule is strategy-proof exactly when every realized
        # outcome is its reporter's best option-set member; and a strategy-proof
        # rule's option sets must be pairwise free.
        agrees = (witness is None) == (not audit.maximality_faults)
        if witness is None and audit.freeness_faults:
            agrees = False
        oracle_payload = {"agrees": agrees}
        lines.append(f"oracle (option-set audit): {'agrees' if agrees else 'DISAGREES'}")
        if not agrees:
            exit_code = 3

    payload = {
        "command": "check-rule",
        "strategy_proof": witness is None,
        "range": [pd.labels[a] for a in sorted(attained)],
        "range_size": len(attained),
        "dictators": [pd.agent_names[i] for i in sorted(dictators)],
        "witness": None if witness is None else _witness_json(pd, witness),
        "audit": {
            "maximality_faults": len(audit.maximality_faults),
            "freeness_faults": len(audit.freeness_faults),
            "clean": audit.clean,
        },
        "oracle": oracle_payload,
    }
    _emit(options, payload, "\n".join(lines) + "\n")
    return exit_code


def _cmd_decompose(options: dict[str, Any]) -> int:
    partition = _load_partition(options)
    pd = partition.product
    rule = _load_rule(options, pd)
    report = decompose(rule, partition)

    kinds = {"dictatorial": 0, "sp_range_le_2": 0, "violation": 0}
    for block in report.blocks:
        kinds[block.classification] += 1
    lines = [
        f"response profiles: {len(report.blocks)}; "
        f"dictatorial: {kinds['dictatorial']}; "
        f"two-outcome: {kinds['sp_range_le_2']}; "
        f"violations: {kinds['violation']}"
    ]
    blocks_payload = []
    for block in report.blocks:
        label = "|".join(_answers_text(a, pd.labels) for a in block.answers)
        sizes = "x".join(str(len(d)) for d in block.subrule.domain.agents)
        dict_text = (
            ", ".join(pd.agent_names[i] for i in sorted(block.dictators))
            if block.dictators
            else "none"
        )
        lines.append(
            f"{label} -> {block.classification}; range {block.range_size}; "
            f"dictators: {dict_text}; block {sizes}"
        )
        blocks_payload.append(
            {
                "answers": [_answers_json(a, pd.labels) for a in block.answers],
                "block_sizes": [len(d) for d in block.subrule.domain.agents],
                "classification": block.classification,
                "dictators": [pd.agent_names[i] for i in sorted(block.dictators)],
                "range_size": block.range_size,
            }
        )
    payload = {
        "command": "decompose",
        "alternatives": list(pd.labels),
        "blocks": blocks_payload,
        "violations": kinds["violation"],
    }
    _emit(options, payload, "\n".join(lines) + "\n")
    return 0 if kinds["violation"] == 0 else 3


def _theorem_instances(options: dict[str, Any]) -> list[ProductDomain]:
    domain_files = options.get("domain") or []
    family = options.get("family")
    if domain_files and family:
        raise DomainError("give either --domain files or --family, not both")
    if domain_files:
        return [parse_domain_file(_read_text(path)).product for path in domain_files]
    if not family:
        raise DomainError("verify-theorem needs --domain files or --family")
    if family != "nonconditional-pairs":
        raise DomainError(f"unknown family {family!r}")
    m = options["m"]
    agents = options["agents"]
    if agents < 1:
        raise DomainError(f"--agents must be at least 1, got {agents}")
    base = nonconditional_domains(m)
    labels = default_labels(m)
    return [
        ProductDomain.of(list(combo), labels=labels)
        for combo in itertools.product(base, repeat=agents)
    ]


def _cmd_verify_theorem(options: dict[str, Any]) -> int:
    instances = _theorem_instances(options)
    report = verify_impossibility(
        instances,
        max_profiles=options["max_profiles"],
        audit_sample=options["audit_sample"],
        seed=options.get("seed"),
    )
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
    for violation in report.violations[:20]:
        pd = violation.rule.domain
        dictators = dictators_of(violation.rule)
        dict_text = (
            ", ".join(pd.agent_names[i] for i in sorted(dictators)) if dictators else "none"
        )
        lines.append(
            f"violation: instance {violation.instance}, "
            f"range size {len(range_of(violation.rule))}, dictators: {dict_text}"
        )
    if len(report.violations) > 20:
        lines.append(f"... and {len(report.violations) - 20} more violation(s)")
    for fault in report.audit_faults[:20]:
        lines.append(f"audit fault: instance {fault.instance}: {fault.reason}")

    payload = {
        "command": "verify-theorem",
        "instances": report.instances,
        "rules_checked": report.rules_checked,
        "violations": [
            {
                "instance": v.instance,
                "range_size": len(range_of(v.rule)),
                "dictators": [
                    v.rule.domain.agent_names[i] for i in sorted(dictators_of(v.rule))
                ],
                "table": [v.rule.domain.labels[a] for a in v.rule.table],
            }
            for v in report.violations
        ],
        "audited": report.audited,
        "audit_faults": [
            {"instance": f.instance, "reason": f.reason} for f in report.audit_faults
        ],
    }
    _emit(options, payload, "\n".join(lines) + "\n")
    return 0 if report.ok else 3


def _cmd_search_two_step(options: dict[str, Any]) -> int:
    partition = _load_partition(options)
    result = search_sp_combinations(partition, budget=options["budget"])
    catalogs = result.catalogs
    sizes = "x".join(str(len(c)) for c in catalogs)

    lines = [
        f"response profiles: {len(catalogs)}; catalog sizes: {sizes}; "
        f"candidates: {result.candidates_total}; tried: {result.candidates_tried}; "
        f"complete: {'yes' if result.complete else 'no'}"
    ]
    lines.append(f"strategy-proof assignments: {len(result.assignments)}")

    out_dir = options.get("out")
    if out_dir:
        directory = _out_dir(out_dir)
        for i, indices in enumerate(result.assignments):
            subrules = tuple(catalogs[j][k] for j, k in enumerate(indices))
            assignment = TwoStepAssignment(partition, subrules)
            _write_text(
                directory / f"assignment_{i:04d}.assign", serialize_assignment(assignment)
            )
        lines.append(f"wrote {len(result.assignments)} assignment file(s) to {directory}")

    payload = {
        "command": "search-two-step",
        "response_profiles": len(catalogs),
        "candidates_total": result.candidates_total,
        "candidates_tried": result.candidates_tried,
        "complete": result.complete,
        "found": len(result.assignments),
        "assignments": [list(indices) for indices in result.assignments],
    }
    # --out is the assignment-file directory here; the report goes to stdout.
    _emit({**options, "out": None}, payload, "\n".join(lines) + "\n")
    return 0


_HANDLERS = {
    "classify": _cmd_classify,
    "closure": _cmd_closure,
    "partition": _cmd_partition,
    "count-subrules": _cmd_count_subrules,
    "enumerate-sp": _cmd_enumerate_sp,
    "check-rule": _cmd_check_rule,
    "decompose": _cmd_decompose,
    "verify-theorem": _cmd_verify_theorem,
    "search-two-step": _cmd_search_two_step,
}


def _add_common(parser: argparse.ArgumentParser, out_help: str) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    parser.add_argument("--out", metavar="PATH", help=out_help)


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse ``type=``: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def parse_args(argv: Optional[Sequence[str]] = None) -> CommandRequest:
    parser = argparse.ArgumentParser(
        prog="spdom",
        description="Strategy-proofness analysis on restricted preference domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def domain_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--domain", required=True, metavar="FILE", help="domain file")

    def scan_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--scan",
            choices=("default", "reversed"),
            default="default",
            help="deterministic scan order used when deriving restriction maps",
        )

    p = sub.add_parser("classify", help="derive each agent's restriction-map form")
    domain_arg(p)
    scan_arg(p)
    _add_common(p, "write the report (text form is a reparseable domain file) here")

    p = sub.add_parser("closure", help="fixed/free pairs and non-conditional closure")
    domain_arg(p)
    _add_common(p, "write the report here instead of stdout")

    p = sub.add_parser("partition", help="answer-set blocks per agent")
    domain_arg(p)
    scan_arg(p)
    _add_common(p, "write the report here instead of stdout")

    p = sub.add_parser(
        "count-subrules", help="closed-form count of strategy-proof two-step rules"
    )
    domain_arg(p)
    scan_arg(p)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check each block subtotal against an explicit subrule catalog",
    )
    _add_common(p, "write the report here instead of stdout")

    p = sub.add_parser("enumerate-sp", help="enumerate all strategy-proof rules")
    domain_arg(p)
    p.add_argument(
        "--range",
        metavar="LABELS",
        help="comma-separated alternatives the rules may attain (e.g. 'x,y')",
    )
    p.add_argument(
        "--max-profiles",
        type=_int_at_least(1),
        default=PROFILE_ENUMERATION_LIMIT,
        metavar="N",
        help="profile-count guard for enumeration",
    )
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against a brute-force scan of every outcome table (guarded)",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    p.add_argument(
        "--out", metavar="DIR", help="also write one .rule file per rule into DIR"
    )

    p = sub.add_parser("check-rule", help="audit one rule file for strategy-proofness")
    domain_arg(p)
    p.add_argument("--rule", required=True, metavar="FILE", help="rule file to audit")
    p.add_argument(
        "--max-profiles",
        type=_int_at_least(1),
        default=PROFILE_ENUMERATION_LIMIT,
        metavar="N",
        help="profile-count guard for the manipulation scan",
    )
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check the verdict against the option-set audit",
    )
    _add_common(p, "write the report here instead of stdout")

    p = sub.add_parser(
        "decompose", help="split a rule by response profile and classify each subrule"
    )
    domain_arg(p)
    p.add_argument("--rule", required=True, metavar="FILE", help="rule file to decompose")
    scan_arg(p)
    _add_common(p, "write the report here instead of stdout")

    p = sub.add_parser(
        "verify-theorem",
        help="sweep products of non-conditional domains for counterexamples",
    )
    p.add_argument(
        "--domain",
        action="append",
        metavar="FILE",
        help="a product-domain instance to check (repeatable)",
    )
    p.add_argument(
        "--family",
        choices=("nonconditional-pairs",),
        help="generate the instances: all products of non-conditional domains",
    )
    p.add_argument("--m", type=int, default=3, metavar="M", help="alternatives for --family")
    p.add_argument(
        "--agents", type=int, default=2, metavar="N", help="agents for --family"
    )
    p.add_argument(
        "--max-profiles",
        type=_int_at_least(1),
        default=PROFILE_ENUMERATION_LIMIT,
        metavar="N",
        help="profile-count guard per instance",
    )
    p.add_argument(
        "--audit-sample",
        type=_int_at_least(0),
        default=0,
        metavar="N",
        help="additionally audit N sampled strategy-proof rules in depth",
    )
    p.add_argument("--seed", type=int, metavar="S", help="seed for --audit-sample")
    _add_common(p, "write the report here instead of stdout")

    p = sub.add_parser(
        "search-two-step", help="search catalog assignments for strategy-proof rules"
    )
    domain_arg(p)
    scan_arg(p)
    p.add_argument(
        "--budget",
        type=_int_at_least(1),
        default=1_000_000,
        metavar="N",
        help="maximum candidate assignments to try",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    p.add_argument(
        "--out", metavar="DIR", help="write one .assign file per found rule into DIR"
    )

    namespace = parser.parse_args(argv)
    options = vars(namespace)
    command = options.pop("command")
    return CommandRequest(command=command, options=options)


def run_command(request: CommandRequest | Sequence[str]) -> int:
    """Execute one CLI invocation (a CommandRequest or raw argv) and return
    the exit code."""
    if not isinstance(request, CommandRequest):
        request = parse_args(list(request))
    handler = _HANDLERS[request.command]
    try:
        return handler(dict(request.options))
    except SizeLimitError as err:
        print(f"size limit: {err}", file=sys.stderr)
        return 2
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run_command(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
