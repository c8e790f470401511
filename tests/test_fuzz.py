"""Property test of the CLI's failure contract over arbitrary input.

Whatever the argv and the bytes of the domain and rule files, every command
must exit with 0, 1, 2 or 3, must not let an exception escape, and on a
nonzero exit must write exactly one stderr line, prefixed ``error:`` or
``size limit:``.  An argparse usage error is the one exception: argparse
prints its usage text before its ``spdom …: error:`` line.

Domain and ``.rule`` files are drawn three ways: raw bytes, a token soup over
the file format's vocabulary, and well-formed files that are then spliced
with soup or raw bytes.  Well-formed domain files stay at up to four
alternatives and two agents, so that one example (``--oracle`` included)
runs in milliseconds; the alternative-count guard gets its own explicit
example.  About one domain file in ten is instead one wide ``rankings``
agent (20-60 seeded rankings of five or six alternatives) next to at most
one agent with a few rankings, which still runs in milliseconds.  A ``verify-theorem`` sweep or an ``enumerate-sp --oracle`` scan
that could run longer gets a small ``--max-profiles``.  Numeric flags are
also drawn past ``sys.maxsize``; an example with such a ``--max-profiles``
gets a domain of at most two alternatives, which no guard can make slow.  A
search's work does not grow with its ``--budget``, so a huge budget keeps
the four-alternative domains.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import sys

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from spdom import Rule, SpdomError, parse_domain_file, serialize_rule
from spdom.cli import main

LABELS = ("a", "b", "c", "d")
VOCABULARY = LABELS + (
    "alternatives",
    "agent",
    "fix",
    "when",
    "universal",
    "single-peaked",
    "single-dipped",
    "self-preferring",
    "juror-bias",
    "over",
    "rankings",
    "{",
    "}",
    ",",
    ">",
    "=>",
    ";",
    "\n",
    "#",
    "q",
    "1",
    "é",
    "\x00",
)
COMMANDS = ("count-subrules", "partition", "classify", "closure")


def _soup(max_size: int = 12) -> st.SearchStrategy[str]:
    return st.lists(st.sampled_from(VOCABULARY), max_size=max_size).map(" ".join)


@st.composite
def _agent_body(draw, labels: list[str]) -> str:
    label = st.sampled_from(labels)
    kind = draw(st.sampled_from(("generator", "statements", "rankings", "soup")))
    if kind == "generator":
        keyword = draw(
            st.sampled_from(
                ("universal", "single-peaked", "single-dipped", "self-preferring", "juror-bias")
            )
        )
        if keyword in ("single-peaked", "single-dipped"):
            axis = draw(st.permutations(labels))
            return keyword + " " + " ".join(axis[: draw(st.integers(0, len(axis)))])
        if keyword == "self-preferring":
            return f"self-preferring {draw(label)}"
        if keyword == "juror-bias":
            high = draw(st.lists(label, max_size=3))
            low = draw(st.lists(label, max_size=3))
            return f"juror-bias {' '.join(high)} over {' '.join(low)}"
        return keyword
    if kind == "statements":
        # Mostly two distinct labels; a label against itself is an error case.
        distinct = st.lists(label, min_size=2, max_size=2, unique=True)
        pair = st.one_of(distinct, distinct, st.lists(label, min_size=2, max_size=2))
        pair = pair.map(" > ".join) if len(labels) > 1 else st.just(f"{labels[0]} > {labels[0]}")
        pairs = st.lists(pair, min_size=1, max_size=2).map(", ".join)
        statement = st.one_of(
            pair.map(lambda p: f"fix {p}"),
            st.builds(lambda lhs, rhs: f"when {lhs} => {rhs}", pairs, pairs),
        )
        return "\n".join(draw(st.lists(statement, max_size=3)))
    if kind == "rankings":
        rows = draw(st.lists(st.permutations(labels), max_size=4))
        return "rankings {\n" + "\n".join(" ".join(row) for row in rows) + "\n}"
    return draw(_soup())


@st.composite
def _valid_agent_body(draw, labels: list[str]) -> str:
    kind = draw(st.sampled_from(("universal", "single-peaked", "self-preferring", "when")))
    if kind == "single-peaked":
        keyword = draw(st.sampled_from(("single-peaked", "single-dipped")))
        return keyword + " " + " ".join(draw(st.permutations(labels)))
    if kind == "self-preferring":
        return f"self-preferring {draw(st.sampled_from(labels))}"
    if kind == "when" and len(labels) > 1:
        (a, b, *_), (c, d, *_) = draw(st.permutations(labels)), draw(st.permutations(labels))
        return f"when {a} > {b} => {c} > {d}"
    return "universal"


def _splice(draw, data: bytes, soup: st.SearchStrategy[str]) -> bytes:
    """``data`` as is, or with a little soup or a few raw bytes inserted."""
    splice = draw(st.sampled_from(("none", "none", "soup", "raw")))
    if splice == "none":
        return data
    at = draw(st.integers(0, len(data)))
    inserted = draw(soup).encode() if splice == "soup" else draw(st.binary(max_size=4))
    return data[:at] + inserted + data[at:]


@st.composite
def _wide_domain(draw) -> bytes:
    """One agent with 20-60 distinct rankings of 5-6 alternatives, drawn from
    a seed, and maybe one more agent with a few rankings."""
    labels = "abcdef"[: draw(st.integers(5, 6))]
    rng = random.Random(draw(st.integers(0, 2**32)))
    orders = rng.sample(list(itertools.permutations(labels)), draw(st.integers(20, 60)))
    bodies = [orders]
    if draw(st.booleans()):
        bodies.insert(draw(st.integers(0, 1)), draw(st.lists(st.permutations(labels), max_size=3)))
    lines = [f"alternatives {' '.join(labels)}"]
    for n, rows in enumerate(bodies):
        lines.append(f"agent {n + 1} {{ rankings {{ {'; '.join(map(' '.join, rows))} }} }}")
    return ("\n".join(lines) + "\n").encode()


@st.composite
def domain_bytes(draw, max_labels: int = 4, valid: bool = False) -> bytes:
    """A domain file.  With ``max_labels`` below four, a well-formed file
    stays over at most that many alternatives and is never spliced; with
    ``valid``, the file is a valid domain.  Otherwise about one file in ten
    has one wide agent (see :func:`_wide_domain`), unless ``max_labels`` is
    below four."""
    shapes = ("raw", "raw", "soup", "soup") + ("wellformed",) * 5 + ("wide",)
    shape = "wellformed" if valid else draw(st.sampled_from(shapes))
    if shape == "wide":
        if max_labels == len(LABELS):
            return draw(_wide_domain())
        shape = "wellformed"
    if shape == "raw":
        return draw(st.binary(max_size=64))
    if shape == "soup":
        return ("alternatives " + draw(_soup(40))).encode()
    labels = draw(
        st.lists(st.sampled_from(LABELS), min_size=1, max_size=max_labels, unique=True)
    )
    body = _valid_agent_body(labels) if valid else _agent_body(labels)
    lines = ["alternatives " + " ".join(labels)]
    for n in range(draw(st.integers(1, 2))):
        lines.append(f"agent {n + 1} {{\n{draw(body)}\n}}")
    data = ("\n".join(lines) + "\n").encode()
    if valid or max_labels < len(LABELS):
        return data
    return _splice(draw, data, _soup(3))


RULE_VOCABULARY = LABELS + ("alternatives:", "->", ",", "abcd", "ba", "\n", "#", "q", "é")


def _rule_soup(max_size: int) -> st.SearchStrategy[str]:
    return st.lists(st.sampled_from(RULE_VOCABULARY), max_size=max_size).map(" ".join)


@st.composite
def rule_bytes(draw, domain: bytes) -> bytes:
    """A ``.rule`` file: raw bytes, soup, or (when ``domain`` parses) a
    constant, dictatorial or random rule over it, maybe spliced."""
    shape = draw(st.sampled_from(("raw", "soup") + ("wellformed",) * 4))
    if shape == "raw":
        return draw(st.binary(max_size=64))
    try:
        pd = parse_domain_file(domain.decode()).product
    except (UnicodeDecodeError, SpdomError):
        shape = "soup"
    if shape == "soup":
        return ("alternatives: " + draw(_rule_soup(40))).encode()
    kind = draw(st.sampled_from(("constant", "dictator", "random")))
    if kind == "constant":
        table = [draw(st.integers(0, pd.m - 1))] * pd.profile_count
    elif kind == "dictator":
        agent = draw(st.integers(0, pd.n - 1))
        table = [pd.agents[agent].rankings[p[agent]].top for p in pd.iter_profiles()]
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        table = [rng.randrange(pd.m) for _ in range(pd.profile_count)]
    return _splice(draw, serialize_rule(Rule(pd, tuple(table))).encode(), _rule_soup(3))


def _argv(draw, domain: str, missing: str, outs: tuple[str, str]) -> list[str]:
    command = draw(st.sampled_from(COMMANDS))
    argv = [command, "--domain", draw(st.sampled_from((domain, domain, domain, missing)))]
    good = [
        ["--format", "json"],
        ["--format", "text"],
        ["--out", outs[0]],
        ["--out", outs[1]],
    ]
    if command != "closure":
        good += [["--scan", "reversed"], ["--scan", "default"]]
    if command == "count-subrules":
        good.append(["--oracle"])
    # Usage errors; --oracle is one outside count-subrules, --scan in closure.
    bad = [["--scan", "sideways"], ["--format", "xml"], ["--oracle"], ["--domain"], ["-x"]]
    if command == "closure":
        bad.append(["--scan", "default"])
    flags = st.one_of(st.sampled_from(good), st.sampled_from(good), st.sampled_from(bad))
    for flag in draw(st.lists(flags, max_size=3)):
        argv.extend(flag)
    return argv


def _run(argv: list[str]) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse usage errors
            code = exit_.code
    return code, stderr.getvalue()


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=domain_bytes(), choices=st.data())
@example(data=b"alternatives a b c d e f g h i\nagent 1 { universal }\n", choices=None)
@example(data=b"alternatives a b\nagent 1 {\n\xe9\xff\n}\n", choices=None)
def test_cli_failure_contract(tmp_path, data, choices):
    domain = tmp_path / "fuzz.spdom"
    domain.write_bytes(data)
    missing = str(tmp_path / "missing.spdom")
    outs = (str(tmp_path / "report.txt"), str(domain / "report.txt"))
    if choices is None:
        argv_list = [[command, "--domain", str(domain)] for command in COMMANDS]
    else:
        argv_list = [_argv(choices.draw, str(domain), missing, outs)]
    for argv in argv_list:
        _check_contract(argv)


def _check_contract(argv: list[str]) -> None:
    code, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code in (0, 3):
        assert err == "", (argv, code, err)
        return
    lines = err.splitlines()
    if code == 2 and lines and lines[-1].startswith("spdom") and ": error: " in lines[-1]:
        return  # argparse usage error: usage text, then "spdom ...: error: ..."
    assert len(lines) == 1, (argv, err)
    assert lines[0].startswith(("error:", "size limit:")), (argv, err)


@st.composite
def theorem_argv(draw, domain: str, missing: str) -> list[str]:
    """``verify-theorem`` argv.  A sweep that could take more than
    milliseconds (m >= 4, or m = 3 with two or more agents, or any domain
    file) always gets a ``--max-profiles`` small enough to bound it."""
    argv = ["verify-theorem"]
    source = draw(st.sampled_from(("family", "family", "domain", "both", "neither")))
    if source in ("domain", "both"):
        paths = st.lists(st.sampled_from((domain, domain, missing)), min_size=1, max_size=2)
        for path in draw(paths):
            argv += ["--domain", path]
    if source in ("family", "both"):
        argv += ["--family", draw(st.sampled_from(("nonconditional-pairs", "pairs")))]
    m = draw(st.integers(-1, 5))
    agents = draw(st.one_of(st.integers(-1, 4), st.integers(sys.maxsize - 1, 2**64)))
    if m != 3 or draw(st.booleans()):  # 3 and 2 are the defaults
        argv += ["--m", str(m)]
    if agents != 2 or draw(st.booleans()):
        argv += ["--agents", str(agents)]
    if source != "family" or m >= 4 or (m == 3 and agents >= 2):
        argv += ["--max-profiles", str(draw(st.integers(-1, 8)))]
    elif draw(st.booleans()):
        argv += ["--max-profiles", str(draw(st.integers(-1, 50)))]
    if draw(st.booleans()):
        argv += ["--audit-sample", str(draw(st.integers(-1, 3)))]
    if draw(st.booleans()):
        argv += ["--seed", draw(st.sampled_from(("0", "7", "-3", "x")))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(("text", "json", "xml")))]
    return argv


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=domain_bytes(), choices=st.data())
@example(data=b"", choices=None)
def test_verify_theorem_failure_contract(tmp_path, data, choices):
    domain = tmp_path / "fuzz.spdom"
    domain.write_bytes(data)
    missing = str(tmp_path / "missing.spdom")
    if choices is None:
        argv = ["verify-theorem", "--family", "nonconditional-pairs", "--agents", "100"]
    else:
        argv = choices.draw(theorem_argv(str(domain), missing))
    _check_contract(argv)


RULE_COMMANDS = ("enumerate-sp", "check-rule", "decompose", "search-two-step")


def _count(draw) -> str:
    """A numeric flag value: mostly small, sometimes past ``sys.maxsize``,
    and now and then not positive or not a number."""
    kind = draw(st.sampled_from(("small",) * 5 + ("huge",) * 2 + ("bad",)))
    if kind == "small":
        return str(draw(st.integers(1, 4)))
    if kind == "huge":
        return str(draw(st.integers(sys.maxsize - 1, 2**64)))
    return draw(st.sampled_from(("0", "-1", "x")))


def _rule_argv(draw, domain: str, rule: str, missing: str, outs: tuple[str, str]) -> list[str]:
    """argv for one of ``RULE_COMMANDS``.  ``search-two-step`` always ends
    with a ``--budget``, and ``enumerate-sp --oracle`` with a
    ``--max-profiles``: the last one counts, and it keeps the search or the
    table scan small."""
    command = draw(st.sampled_from(RULE_COMMANDS))
    argv = [command, "--domain", draw(st.sampled_from((domain,) * 5 + (missing,)))]
    if command in ("check-rule", "decompose"):
        argv += ["--rule", draw(st.sampled_from((rule,) * 4 + (missing, domain)))]
    good = [["--format", "json"], ["--format", "text"]]
    bad = [["--format", "xml"], ["--domain"], ["-x"], ["--scan", "sideways"]]
    if command in ("decompose", "search-two-step"):
        good += [["--scan", "reversed"], ["--scan", "default"]]
    else:
        bad.append(["--scan", "default"])
    if command == "search-two-step":
        good += [["--out", outs[0]], ["--out", outs[1]], ["--budget", _count(draw)]]
    else:
        bad.append(["--budget", "3"])
    if command in ("enumerate-sp", "check-rule"):
        good.append(["--max-profiles", _count(draw)])
    else:
        bad.append(["--max-profiles", "3"])
    if command == "enumerate-sp":
        good += [["--out", outs[0]], ["--out", outs[1]]]
        good.append(["--range", draw(st.sampled_from(("a,b", "a", "b,a,b", "x,q", "")))])
    if command != "decompose":
        good.append(["--oracle"])
    else:
        bad.append(["--oracle"])
    for flag in draw(st.lists(st.sampled_from(good * 4 + bad), max_size=3)):
        argv.extend(flag)
    if command == "search-two-step":
        argv += ["--budget", _count(draw)]
    if command == "enumerate-sp" and "--oracle" in argv:
        argv += ["--max-profiles", _count(draw)]
    return argv


def _is_huge(argv: list[str]) -> bool:
    """True when a ``--max-profiles`` is past the small range; such an
    example gets a domain of at most two alternatives."""
    return any(
        flag == "--max-profiles" and value.isdigit() and int(value) > 4
        for flag, value in zip(argv, argv[1:])
    )


# A conditional domain over four alternatives: 296,240 candidate assignments.
FOUR_ALTERNATIVE_SEARCH = """\
alternatives a b c d
agent 1 { when a > b => c > d }
agent 2 { when a > b => c > d }
"""


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(choices=st.data())
@example(choices=None)
@example(choices=FOUR_ALTERNATIVE_SEARCH)
def test_rule_commands_failure_contract(tmp_path, choices):
    domain = tmp_path / "fuzz.spdom"
    rule = tmp_path / "fuzz.rule"
    missing = str(tmp_path / "missing.spdom")
    outs = (str(tmp_path / "found"), str(domain / "found"))
    if choices is None:  # a budget past sys.maxsize on a search it completes
        sp3 = str(FIXTURES / "single_peaked3.spdom")
        assert _run(["search-two-step", "--domain", sp3, "--budget", str(2**63)]) == (0, "")
        return
    if choices == FOUR_ALTERNATIVE_SEARCH:  # a budget past every candidate
        domain.write_text(choices)
        argv = ["search-two-step", "--domain", str(domain), "--budget", str(2**64)]
        assert _run(argv) == (0, "")
        return
    argv = _rule_argv(choices.draw, str(domain), str(rule), missing, outs)
    max_labels = 2 if _is_huge(argv) else 4
    valid = domain_bytes(max_labels, valid=True)
    data = choices.draw(st.one_of(domain_bytes(max_labels), valid, valid))
    domain.write_bytes(data)
    rule.write_bytes(choices.draw(rule_bytes(data)))
    _check_contract(argv)
