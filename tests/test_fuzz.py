"""Property test of the CLI's failure contract over arbitrary input.

Whatever the argv and the bytes of the domain file, ``count-subrules``,
``partition``, ``classify``, ``closure`` and ``verify-theorem`` must exit
with 0, 1, 2 or 3, must not let an exception escape, and on a nonzero exit
must write exactly one stderr line, prefixed ``error:`` or ``size limit:``.
An argparse usage error is the one exception: argparse prints its usage text
before its ``spdom …: error:`` line.

Domain files are drawn three ways: raw bytes, a token soup over the file
format's vocabulary, and well-formed files that are then spliced with soup
or raw bytes.  Well-formed files stay at up to four alternatives and two
agents, so that one example (``--oracle`` included) runs in milliseconds;
the alternative-count guard gets its own explicit example.  A
``verify-theorem`` sweep that could run longer gets a small ``--max-profiles``.
"""

from __future__ import annotations

import contextlib
import io

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
def domain_bytes(draw) -> bytes:
    shape = draw(st.sampled_from(("raw", "soup", "wellformed", "wellformed", "wellformed")))
    if shape == "raw":
        return draw(st.binary(max_size=64))
    if shape == "soup":
        return ("alternatives " + draw(_soup(40))).encode()
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4, unique=True))
    lines = ["alternatives " + " ".join(labels)]
    for n in range(draw(st.integers(1, 2))):
        lines.append(f"agent {n + 1} {{\n{draw(_agent_body(labels))}\n}}")
    data = ("\n".join(lines) + "\n").encode()
    splice = draw(st.sampled_from(("none", "none", "soup", "raw")))
    if splice == "none":
        return data
    at = draw(st.integers(0, len(data)))
    inserted = draw(_soup(3)).encode() if splice == "soup" else draw(st.binary(max_size=4))
    return data[:at] + inserted + data[at:]


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
    agents = draw(st.integers(-1, 4))
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
