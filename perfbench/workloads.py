"""The benchmark's workloads: generated inputs, CLI invocations and output checks.

Every input is written by this module into a fresh directory; the CLI only
ever sees file names (relative to that directory) and flags.  Each invocation
carries a check that returns the problems found in its stdout (an empty list
means the output is right).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("count", "sweep", "search", "maps")

# Same text as fixtures/ex1.spdom and fixtures/ex2.spdom, kept here so the
# benchmark's inputs do not move when the repository's fixtures do.
EX1 = """\
alternatives v w x y z

agent 1 {
  when x > y => z > v, z > w
}

agent 2 {
  when x > y => z > v, z > w
}
"""

EX2 = """\
alternatives v w x y z

agent 1 {
  when v > w => w > x
  when w > x => x > y
  when x > y => y > z
}

agent 2 {
  when v > w => w > x
  when w > x => x > y
  when x > y => y > z
}
"""

# One big block: 720 x 120 rankings, 86,400 profiles.  (720 x 720 would take
# about 6 s of the count workload's 9 s per pass and leave too few repeats
# in a run to take a steady median.)
UNIVERSAL_SELF_PREFERRING = """\
alternatives a b c d e f
agent 1 { universal }
agent 2 { self-preferring a }
"""

# Thousands of tiny blocks: 4,096 response profiles of 1x1x1 blocks.
SINGLE_PEAKED_3 = """\
alternatives a b c d e f
agent 1 { single-peaked a b c d e f }
agent 2 { single-peaked a b c d e f }
agent 3 { single-peaked a b c d e f }
"""

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

MAPS_LABELS = "abcdef"
MAPS_AGENTS = 2
MAPS_KEEP = 360  # of the 720 rankings of six alternatives

Check = Callable[[str], "list[str]"]


@dataclass(frozen=True)
class Invocation:
    """One `python -m spdom` call: its arguments and the check on its stdout."""

    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    inputs: dict  # file name -> sha256 of its bytes


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _has_lines(*expected: str) -> Check:
    def check(out: str) -> list[str]:
        present = set(out.splitlines())
        return [f"missing line {line!r}" for line in expected if line not in present]

    return check


def _all_of(*checks: Check) -> Check:
    def check(out: str) -> list[str]:
        return [problem for c in checks for problem in c(out)]

    return check


def _digit_count(value: int) -> int:
    digits = max(1, int(value.bit_length() * math.log10(2)))
    while 10**digits <= value:
        digits += 1
    while digits > 1 and 10 ** (digits - 1) > value:
        digits -= 1
    return digits


_SUBTOTAL = re.compile(r"^response profile .*; subtotal (\d+) = (\d+) constant \+ (\d+) two-outcome \+ (\d+) dictatorial$")
_PRODUCT = re.compile(r"^strategy-proof two-step rules: (?:(\d+) )?\((\d+) digits\)$")


def _count_is_consistent(blocks: int) -> Check:
    """Each subtotal is the sum of its parts, there are ``blocks`` of them,
    and the printed product (or its digit count) is their product."""

    def check(out: str) -> list[str]:
        problems = []
        product = 1
        seen = 0
        printed = None
        for line in out.splitlines():
            match = _SUBTOTAL.match(line)
            if match:
                total, *parts = (int(g) for g in match.groups())
                if total != sum(parts):
                    problems.append(f"subtotal is not the sum of its parts: {line!r}")
                product *= total
                seen += 1
            match = _PRODUCT.match(line)
            if match:
                printed = match.groups()
        if seen != blocks:
            problems.append(f"expected {blocks} response profile lines, got {seen}")
        if printed is None:
            problems.append("no product line")
        else:
            value, digits = printed
            if int(digits) != _digit_count(product):
                problems.append(f"product has {_digit_count(product)} digits, printed {digits}")
            if value is not None and int(value) != product:
                problems.append(f"printed product {value} is not the product of the subtotals")
        return problems

    return check


def _random_rankings(rng: random.Random) -> list[list[str]]:
    """Per agent, a random ``MAPS_KEEP`` of all rankings, in canonical order."""
    every = list(itertools.permutations(MAPS_LABELS))
    return [
        [" ".join(every[i]) for i in sorted(rng.sample(range(len(every)), MAPS_KEEP))]
        for _ in range(MAPS_AGENTS)
    ]


def _rankings_text(per_agent: list[list[str]]) -> str:
    lines = ["alternatives " + " ".join(MAPS_LABELS)]
    for agent, rankings in enumerate(per_agent, start=1):
        lines.append(f"agent {agent} {{")
        lines.append("  rankings {")
        lines.extend("    " + r for r in rankings)
        lines.append("  }")
        lines.append("}")
    return "\n".join(lines) + "\n"


def _classify_round_trips(per_agent: list[list[str]]) -> Check:
    """rebuild . classify = id: the classify text, parsed again, describes
    exactly the input rankings for every agent."""

    def check(out: str) -> list[str]:
        from spdom.domfile import ParseError, parse_domain_file

        try:
            spec = parse_domain_file(out)
        except ParseError as err:
            return [f"classify output does not parse: {err}"]
        if len(spec.agents) != len(per_agent):
            return [f"classify output has {len(spec.agents)} agents, input has {len(per_agent)}"]
        problems = []
        for number, (agent, expected) in enumerate(zip(spec.agents, per_agent), start=1):
            got = {" ".join(spec.labels[a] for a in r.order) for r in agent.domain.rankings}
            if got != set(expected):
                problems.append(f"agent {number}: classify output rebuilds a different domain")
        return problems

    return check


_PARTITION_AGENT = re.compile(r"^agent (\d+): (\d+) block\(s\)$")
_PARTITION_BLOCK = re.compile(r"^  \{.*\} -> (\d+) ranking\(s\)$")


def _partition_covers(sizes: list[int]) -> Check:
    """Per agent, the block sizes add up to the agent's domain size."""

    def check(out: str) -> list[str]:
        totals: list[int] = []
        blocks: list[int] = []
        for line in out.splitlines():
            match = _PARTITION_AGENT.match(line)
            if match:
                totals.append(0)
                blocks.append(int(match.group(2)))
                continue
            match = _PARTITION_BLOCK.match(line)
            if match and totals:
                totals[-1] += int(match.group(1))
                blocks[-1] -= 1
        problems = []
        if totals != sizes:
            problems.append(f"partition block sizes sum to {totals}, domains have {sizes}")
        if any(blocks):
            problems.append("partition block counts do not match the blocks listed")
        return problems

    return check


def build(name: str, seed: int, directory: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``directory``."""
    files: dict[str, str] = {}
    if name == "count":
        files = {
            "ex1.spdom": EX1,
            "ex2.spdom": EX2,
            "universal6.spdom": UNIVERSAL_SELF_PREFERRING,
            "single_peaked6.spdom": SINGLE_PEAKED_3,
        }
        invocations = (
            Invocation(
                ("count-subrules", "--domain", "ex1.spdom", "--oracle"),
                _all_of(
                    _has_lines(
                        "strategy-proof two-step rules: 4619228 (7 digits)",
                        "oracle (explicit catalogs): agrees",
                    ),
                    _count_is_consistent(4),
                ),
            ),
            Invocation(
                ("count-subrules", "--domain", "ex2.spdom", "--oracle"),
                _all_of(
                    _has_lines(
                        "strategy-proof two-step rules: 228245070327644160 (18 digits)",
                        "oracle (explicit catalogs): agrees",
                    ),
                    _count_is_consistent(16),
                ),
            ),
            Invocation(
                ("count-subrules", "--domain", "universal6.spdom"),
                _all_of(
                    # 6 constants; 4 vote rules on each of the 10 pairs both
                    # agents order freely and 1 on each of the 5 pairs with
                    # a; 42 + 16 steerable ranges of size >= 3.
                    _has_lines(
                        "response profile {}|{}: block sizes 720x120; subtotal 109 "
                        "= 6 constant + 45 two-outcome + 58 dictatorial",
                        "strategy-proof two-step rules: 109 (3 digits)",
                    ),
                    _count_is_consistent(1),
                ),
            ),
            Invocation(
                ("count-subrules", "--domain", "single_peaked6.spdom"),
                _all_of(
                    _has_lines("strategy-proof two-step rules: (4209 digits)"),
                    _count_is_consistent(4096),
                ),
            ),
        )
    elif name == "sweep":
        invocations = (
            Invocation(
                (
                    "verify-theorem", "--family", "nonconditional-pairs", "--m", "3",
                    "--agents", "3", "--audit-sample", "200", "--seed", str(seed),
                ),
                _has_lines(
                    "instances: 6859; rules checked: 70422; violations: 0; audited: 200; "
                    "audit faults: 0"
                ),
            ),
        )
    elif name == "search":
        files = {"xyz.spdom": SEARCH_XYZ, "abcd.spdom": SEARCH_ABCD, "ex1.spdom": EX1}
        invocations = (
            Invocation(
                ("search-two-step", "--domain", "xyz.spdom"),
                _has_lines(
                    "response profiles: 4; catalog sizes: 11x8x8x7; candidates: 4928; "
                    "tried: 4928; complete: yes",
                    "strategy-proof assignments: 21",
                ),
            ),
            Invocation(
                ("search-two-step", "--domain", "abcd.spdom"),
                _has_lines(
                    "response profiles: 2; catalog sizes: 32x27; candidates: 864; "
                    "tried: 864; complete: yes",
                    "strategy-proof assignments: 38",
                ),
            ),
            Invocation(
                ("search-two-step", "--domain", "ex1.spdom", "--budget", "60"),
                _has_lines(
                    "response profiles: 4; catalog sizes: 59x46x46x37; candidates: 4619228; "
                    "tried: 60; complete: no",
                    "strategy-proof assignments: 1",
                ),
            ),
        )
    elif name == "maps":
        per_agent = _random_rankings(random.Random(seed))
        files = {"rankings6.spdom": _rankings_text(per_agent)}
        sizes = [len(r) for r in per_agent]
        invocations = (
            Invocation(("classify", "--domain", "rankings6.spdom"), _classify_round_trips(per_agent)),
            Invocation(("partition", "--domain", "rankings6.spdom"), _partition_covers(sizes)),
            Invocation(
                ("closure", "--domain", "rankings6.spdom"),
                lambda out: (
                    []
                    if out.count(f"  domain size: {MAPS_KEEP}\n") == MAPS_AGENTS
                    else [f"closure does not report domain size {MAPS_KEEP} for every agent"]
                ),
            ),
        )
    else:
        raise ValueError(f"unknown workload {name!r}")

    inputs = {}
    for file_name, text in files.items():
        data = text.encode()
        (directory / file_name).write_bytes(data)
        inputs[file_name] = sha256(data)
    return Workload(name, invocations, inputs)
