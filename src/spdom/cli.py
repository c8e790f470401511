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
import os
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from .classify import classify, partition_by_answers
from .domfile import (
    DomainSpec,
    format_answer_set,
    format_pair,
    parse_domain_file,
    serialize_product_domain,
)
from .prefcore import (
    PROFILE_ENUMERATION_LIMIT,
    DomainError,
    SizeLimitError,
    nonconditional_closure,
    pair_sets,
)


# ---------------------------------------------------------------------------
# Rendering helpers


def _pair_json(pair, labels: Sequence[str]) -> list[str]:
    a, b = pair
    return [labels[a], labels[b]]


def _pairs_json(pairs, labels: Sequence[str]) -> list[list[str]]:
    """Pairs or an answer set as ``[[top, bottom], ...]``, ascending."""
    return [_pair_json(p, labels) for p in sorted(pairs)]


def _ranking_json(order: Sequence[int], labels: Sequence[str]) -> list[str]:
    return [labels[alt] for alt in order]


def _json_chunks(value: Any) -> Iterator[str]:
    """``json.dumps(value, indent=2)`` in chunks, for a report (a dict or a
    list) and what it holds (dicts with str keys, lists, str, int, bool and
    None), built on the C string escaper: ``json.dumps`` with an indent runs
    its pure-Python encoder.  An iterator is written as a list, item by
    item, so a report can stream a list it never holds whole.  Small parts
    are joined into a chunk as containers close."""
    from json.encoder import encode_basestring_ascii
    parts: list[str] = []
    append = parts.append

    def emit(value: Any, indent: str) -> Iterator[str]:
        inner = indent + "  "
        if isinstance(value, dict):
            opening, closing = "{", "}"
            labeled = ((encode_basestring_ascii(key) + ": ", item) for key, item in value.items())
        else:
            opening, closing = "[", "]"
            labeled = zip(itertools.repeat(""), value)
        separator = opening + "\n" + inner
        for label, item in labeled:
            append(separator + label)
            separator = ",\n" + inner
            if isinstance(item, str):
                append(encode_basestring_ascii(item))
            elif isinstance(item, (dict, list, tuple, Iterator)):
                yield from emit(item, inner)
            else:
                append(_json_scalar(item))
        append(opening + closing if separator[0] == opening else "\n" + indent + closing)
        if len(parts) > 1 << 16:
            yield "".join(parts)
            parts.clear()

    yield from emit(value, "")
    yield "".join(parts)


def _json_scalar(value: Any) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(
    options: dict[str, Any], payload: Optional[dict[str, Any]], lines: Iterable[str]
) -> None:
    """Write the report, as JSON or as its text lines, to stdout or ``--out``,
    chunk by chunk or line by line as it is rendered."""
    if options["format"] == "json":
        chunks: Iterable[str] = itertools.chain(_json_chunks(payload), ("\n",))
    else:
        chunks = (line + "\n" for line in lines)
    out = options["out"]
    if out:
        _write_text(Path(out), chunks)
    else:
        sys.stdout.writelines(chunks)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as err:
        raise DomainError(f"cannot read {path}: {err}") from err


def _write_text(path: Path, chunks: Iterable[str]) -> None:
    try:
        with path.open("w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as err:
        raise DomainError(f"cannot write {path}: {err}") from err


def _load_spec(options: dict[str, Any]) -> DomainSpec:
    return parse_domain_file(_read_text(options["domain"]))


# ---------------------------------------------------------------------------
# Handlers (each returns the process exit code)


def _cmd_classify(options: dict[str, Any]) -> int:
    spec = _load_spec(options)
    scan = options["scan"]
    pd = spec.product
    maps = tuple(classify(agent.domain, scan=scan) for agent in spec.agents)
    # Only the printed form is built.
    if options["format"] == "json":
        payload = {
            "command": "classify",
            "scan": scan,
            "alternatives": list(pd.labels),
            "agents": [
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
                for agent, map_ in zip(spec.agents, maps)
            ],
        }
        _emit(options, payload, ())
        return 0
    lines = [f"# classification (scan: {scan})"]
    for agent, map_ in zip(spec.agents, maps):
        kind = "non-conditional" if map_.is_non_conditional else "conditional"
        lines.append(
            f"# agent {agent.name}: {kind}, {len(map_.base)} fixed pair(s), "
            f"{len(map_.conditionals)} conditional statement(s)"
        )
    _emit(options, None, [*lines, *serialize_product_domain(pd, maps).splitlines()])
    return 0


def _cmd_closure(options: dict[str, Any]) -> int:
    spec = _load_spec(options)
    pd = spec.product
    agents = []
    for agent in spec.agents:
        sets = pair_sets(agent.domain)
        closure = nonconditional_closure(sets.fixed, agent.domain.m)
        agents.append((agent, sets, len(closure), closure == agent.domain))
    # Only the printed form is built.
    if options["format"] == "json":
        payload = {
            "command": "closure",
            "alternatives": list(pd.labels),
            "agents": [
                {
                    "agent": agent.name,
                    "fixed": _pairs_json(sets.fixed, pd.labels),
                    "free": _pairs_json(sets.free, pd.labels),
                    "closure_size": closure_size,
                    "domain_size": len(agent.domain),
                    "non_conditional": non_conditional,
                }
                for agent, sets, closure_size, non_conditional in agents
            ],
        }
        _emit(options, payload, ())
        return 0
    lines = []
    for agent, sets, closure_size, non_conditional in agents:
        fixed_text = (
            "; ".join(format_pair(p, pd.labels) for p in sorted(sets.fixed)) or "(none)"
        )
        free_text = (
            "; ".join("{%s, %s}" % (pd.labels[a], pd.labels[b]) for a, b in sorted(sets.free))
            or "(none)"
        )
        lines.append(f"agent {agent.name}:")
        lines.append(f"  fixed pairs: {fixed_text}")
        lines.append(f"  free pairs: {free_text}")
        lines.append(f"  domain size: {len(agent.domain)}")
        lines.append(f"  closure size: {closure_size}")
        lines.append(f"  non-conditional: {'yes' if non_conditional else 'no'}")
    _emit(options, None, lines)
    return 0


def _cmd_partition(options: dict[str, Any]) -> int:
    spec = _load_spec(options)
    pd = spec.product
    maps = spec.resolved_maps(options["scan"])
    agents = [
        (agent, partition_by_answers(agent.domain, map_)) for agent, map_ in zip(spec.agents, maps)
    ]
    # Only the printed form is built.
    if options["format"] == "json":
        payload = {
            "command": "partition",
            "alternatives": list(pd.labels),
            "agents": [
                {
                    "agent": agent.name,
                    "blocks": [
                        {
                            "answers": _pairs_json(answers, pd.labels),
                            "size": len(block),
                            "rankings": [_ranking_json(r.order, pd.labels) for r in block.rankings],
                        }
                        for answers, block in blocks
                    ],
                }
                for agent, blocks in agents
            ],
        }
        _emit(options, payload, ())
        return 0
    lines = []
    for agent, blocks in agents:
        lines.append(f"agent {agent.name}: {len(blocks)} block(s)")
        for answers, block in blocks:
            lines.append(f"  {format_answer_set(answers, pd.labels)} -> {len(block)} ranking(s)")
    _emit(options, None, lines)
    return 0


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


def _rulecli() -> Any:
    """The module of the rule commands' handlers, loaded on first use."""
    from . import rulecli

    return rulecli


# ---------------------------------------------------------------------------
# Command table: each flag is an ``add_argument`` call, listed in --help order.

_Flag = tuple[str, dict[str, Any]]


def _flag(name: str, **spec: Any) -> _Flag:
    return name, spec


def _max_profiles(help: str) -> _Flag:
    return _flag(
        "--max-profiles",
        type=_int_at_least(1),
        default=PROFILE_ENUMERATION_LIMIT,
        metavar="N",
        help=help,
    )


def _oracle(help: str) -> _Flag:
    return _flag("--oracle", action="store_true", help=help)


def _report_out(help: str = "write the report here instead of stdout") -> _Flag:
    return _flag("--out", metavar="PATH", help=help)


_DOMAIN = _flag("--domain", required=True, metavar="FILE", help="domain file")
_SCAN = _flag(
    "--scan",
    choices=("default", "reversed"),
    default="default",
    help="deterministic scan order used when deriving restriction maps",
)
_FORMAT = _flag("--format", choices=("text", "json"), default="text", help="output format")

# name -> (help, handler, flags)
_COMMANDS: dict[str, tuple[str, Callable[[dict[str, Any]], int], tuple[_Flag, ...]]] = {
    "classify": (
        "derive each agent's restriction-map form",
        _cmd_classify,
        (
            _DOMAIN,
            _SCAN,
            _FORMAT,
            _report_out("write the report (text form is a reparseable domain file) here"),
        ),
    ),
    "closure": (
        "fixed/free pairs and non-conditional closure",
        _cmd_closure,
        (_DOMAIN, _FORMAT, _report_out()),
    ),
    "partition": (
        "answer-set blocks per agent",
        _cmd_partition,
        (_DOMAIN, _SCAN, _FORMAT, _report_out()),
    ),
    "count-subrules": (
        "closed-form count of strategy-proof two-step rules",
        lambda options: _rulecli()._cmd_count_subrules(options),
        (
            _DOMAIN,
            _SCAN,
            _oracle("cross-check each block subtotal against an explicit subrule catalog"),
            _FORMAT,
            _report_out(),
        ),
    ),
    "enumerate-sp": (
        "enumerate all strategy-proof rules",
        lambda options: _rulecli()._cmd_enumerate_sp(options),
        (
            _DOMAIN,
            _flag(
                "--range",
                metavar="LABELS",
                help="comma-separated alternatives the rules may attain (e.g. 'x,y')",
            ),
            _max_profiles("profile-count guard for enumeration"),
            _oracle("cross-check against a brute-force scan of every outcome table (guarded)"),
            _FORMAT,
            _flag("--out", metavar="DIR", help="also write one .rule file per rule into DIR"),
        ),
    ),
    "check-rule": (
        "audit one rule file for strategy-proofness",
        lambda options: _rulecli()._cmd_check_rule(options),
        (
            _DOMAIN,
            _flag("--rule", required=True, metavar="FILE", help="rule file to audit"),
            _max_profiles("profile-count guard for the manipulation scan"),
            _oracle("cross-check the verdict against the option-set audit"),
            _FORMAT,
            _report_out(),
        ),
    ),
    "decompose": (
        "split a rule by response profile and classify each subrule",
        lambda options: _rulecli()._cmd_decompose(options),
        (
            _DOMAIN,
            _flag("--rule", required=True, metavar="FILE", help="rule file to decompose"),
            _SCAN,
            _FORMAT,
            _report_out(),
        ),
    ),
    "verify-theorem": (
        "sweep products of non-conditional domains for counterexamples",
        lambda options: _rulecli()._cmd_verify_theorem(options),
        (
            _flag(
                "--domain",
                action="append",
                metavar="FILE",
                help="a product-domain instance to check (repeatable)",
            ),
            _flag(
                "--family",
                choices=("nonconditional-pairs",),
                help="generate the instances: all products of non-conditional domains",
            ),
            _flag("--m", type=int, default=3, metavar="M", help="alternatives for --family"),
            _flag("--agents", type=int, default=2, metavar="N", help="agents for --family"),
            _max_profiles("profile-count guard per instance"),
            _flag(
                "--audit-sample",
                type=_int_at_least(0),
                default=0,
                metavar="N",
                help="additionally audit N sampled strategy-proof rules in depth",
            ),
            _flag("--seed", type=int, metavar="S", help="seed for --audit-sample"),
            _FORMAT,
            _report_out(),
        ),
    ),
    "search-two-step": (
        "search catalog assignments for strategy-proof rules",
        lambda options: _rulecli()._cmd_search_two_step(options),
        (
            _DOMAIN,
            _SCAN,
            _flag(
                "--budget",
                type=_int_at_least(1),
                default=1_000_000,
                metavar="N",
                help="maximum candidate assignments to try",
            ),
            _FORMAT,
            _flag("--out", metavar="DIR", help="write one .assign file per found rule into DIR"),
        ),
    ),
}


def _parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser of ``argv``: when it starts with a command, only that
    command's subparser and flags are built, else every command's."""
    parser = argparse.ArgumentParser(
        prog="spdom",
        description="Strategy-proofness analysis on restricted preference domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    names = argv[:1] if argv[:1] and argv[0] in _COMMANDS else _COMMANDS
    for name in names:
        summary, _, flags = _COMMANDS[name]
        command = sub.add_parser(name, help=summary)
        for flag, spec in flags:
            command.add_argument(flag, **spec)
    return parser


def run_command(argv: Optional[Sequence[str]] = None) -> int:
    """Parse one CLI invocation (``sys.argv[1:]`` when ``argv`` is None), run
    it and return the exit code."""
    argv = sys.argv[1:] if argv is None else argv
    options = vars(_parser(argv).parse_args(argv))
    handler = _COMMANDS[options.pop("command")][1]
    try:
        return handler(options)
    except SizeLimitError as err:
        print(f"size limit: {err}", file=sys.stderr)
        return 2
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """:func:`run_command` for the console script: a closed stdout ends the
    run with one ``error:`` line and exit code 1, like an unwritable
    ``--out``."""
    try:
        code = run_command(argv)
        sys.stdout.flush()
    except BrokenPipeError as err:
        # The reader has gone: send what is still buffered, and the
        # interpreter's final flush, to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write to stdout: {err}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
