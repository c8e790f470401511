from __future__ import annotations

import hashlib
import itertools
import random
import re
from textwrap import dedent

import pytest

from conftest import FIXTURES
from spdom import (
    DomainError,
    OrderedPair,
    ParseError,
    RestrictionMap,
    SizeLimitError,
    classify,
    generate_domain,
    map_statement_lines,
    parse_domain_file,
    rebuild,
    serialize_product_domain,
)


# ---------------------------------------------------------------------------
# Fixture files


def test_fixture_two_agent_conditional(ex1_spec):
    assert ex1_spec.labels == ("v", "w", "x", "y", "z")
    assert [a.name for a in ex1_spec.agents] == ["1", "2"]
    expected_hint = RestrictionMap.of(5, [], [([(2, 3)], [(4, 0), (4, 1)])])
    for agent in ex1_spec.agents:
        assert agent.map_hint == expected_hint
        assert len(agent.domain) == 80
        assert rebuild(agent.map_hint) == agent.domain
    pd = ex1_spec.product
    assert pd.sizes == (80, 80) and pd.labels == ex1_spec.labels


def test_fixture_chain(ex2_spec):
    assert ex2_spec.labels == ("v", "w", "x", "y", "z")
    expected_hint = RestrictionMap.of(
        5, [], [([(0, 1)], [(1, 2)]), ([(1, 2)], [(2, 3)]), ([(2, 3)], [(3, 4)])]
    )
    for agent in ex2_spec.agents:
        assert agent.map_hint == expected_hint
        assert agent.domain == generate_domain("single_peaked", axis=[0, 1, 2, 3, 4])
    assert ex2_spec.resolved_maps() == (expected_hint, expected_hint)


def test_fixture_generators(sp3_spec, uni3_spec):
    assert sp3_spec.labels == ("x", "y", "z")
    for agent in sp3_spec.agents:
        assert agent.map_hint is None
        assert agent.domain == generate_domain("single_peaked", axis=[0, 1, 2])
    # Without hints, resolved maps fall back to classification.
    assert sp3_spec.resolved_maps() == tuple(
        classify(a.domain) for a in sp3_spec.agents
    )
    for agent in uni3_spec.agents:
        assert agent.domain == generate_domain("universal", m=3)


def test_fixture_files_on_disk_parse():
    for name in ("ex1", "ex2", "single_peaked3", "universal3"):
        spec = parse_domain_file((FIXTURES / f"{name}.spdom").read_text())
        assert len(spec.agents) == 2


# ---------------------------------------------------------------------------
# Statement bodies


def test_empty_body_is_universal():
    spec = parse_domain_file("alternatives x y z\nagent 1 {}\n")
    agent = spec.agents[0]
    assert agent.domain == generate_domain("universal", m=3)
    assert agent.map_hint == RestrictionMap.of(3, [], [])


def test_fix_statements_and_semicolons():
    spec = parse_domain_file("alternatives x y z\nagent 1 { fix x > y; fix y > z }\n")
    assert [r.order for r in spec.agents[0].domain.rankings] == [(0, 1, 2)]
    assert spec.agents[0].map_hint.base == frozenset(
        {OrderedPair(0, 1), OrderedPair(1, 2)}
    )


def test_comments_are_ignored():
    text = dedent(
        """\
        # leading comment
        alternatives x y z  # trailing comment
        agent 1 {
          # inside a body
          when x > y => y > z  # conditional
        }
        """
    )
    spec = parse_domain_file(text)
    assert spec.agents[0].domain == generate_domain("single_peaked", axis=[0, 1, 2])


def test_statement_roundtrip_through_serializer(ex1_spec):
    maps = ex1_spec.resolved_maps()
    text = serialize_product_domain(ex1_spec.product, maps)
    again = parse_domain_file(text)
    assert again.labels == ex1_spec.labels
    assert [a.map_hint for a in again.agents] == list(maps)
    assert [a.domain for a in again.agents] == [a.domain for a in ex1_spec.agents]


def test_map_statement_lines_rendering(ex1_spec):
    lines = map_statement_lines(ex1_spec.agents[0].map_hint, ex1_spec.labels)
    assert lines == ["when x > y => z > v, z > w"]
    chain = RestrictionMap.of(3, [(0, 2)], [([(0, 1)], [(1, 2)])])
    assert map_statement_lines(chain, ("x", "y", "z")) == [
        "fix x > z",
        "when x > y => y > z",
    ]


def test_serializer_validation():
    d = generate_domain("universal", m=3)
    pd = parse_domain_file("alternatives x y z\nagent 1 { universal }\n").product
    bad_map = RestrictionMap.of(3, [(0, 1)], [])
    with pytest.raises(DomainError):
        serialize_product_domain(pd, [bad_map])
    with pytest.raises(DomainError):
        serialize_product_domain(pd, [classify(d), classify(d)])


# ---------------------------------------------------------------------------
# Generator and rankings bodies


def test_generator_bodies():
    text = dedent(
        """\
        alternatives x y z
        agent a { single-dipped x y z }
        agent b { self-preferring y }
        agent c { juror-bias x over z }
        agent d { universal }
        """
    )
    spec = parse_domain_file(text)
    a, b, c, d = spec.agents
    assert a.domain == generate_domain("single_dipped", axis=[0, 1, 2])
    assert b.domain == generate_domain("self_preferring", m=3, owner=1)
    assert c.domain == generate_domain("juror_bias", m=3, high=[0], low=[2])
    assert d.domain == generate_domain("universal", m=3)
    assert all(agent.map_hint is None for agent in spec.agents)


def test_rankings_body():
    text = dedent(
        """\
        alternatives x y z
        agent 1 {
          rankings {
            z y x
            x y z
          }
        }
        """
    )
    agent = parse_domain_file(text).agents[0]
    assert agent.map_hint is None
    assert [r.order for r in agent.domain.rankings] == [(0, 1, 2), (2, 1, 0)]


# ---------------------------------------------------------------------------
# Errors


def _err(text: str) -> ParseError:
    with pytest.raises(ParseError) as info:
        parse_domain_file(text)
    return info.value


def test_parse_error_location_and_type():
    err = _err("alternatives x y z\nagent 1 {\n  fix x > q\n}\n")
    assert isinstance(err, DomainError)
    assert (err.line, err.col) == (3, 11)
    assert "line 3, column 11" in str(err) and "'q'" in str(err)


def test_parse_error_cases():
    assert "starts with 'alternatives'" in str(_err("agents x y\n"))
    assert "at least one label" in str(_err("alternatives\nagent 1 {}\n"))
    assert "duplicate alternative" in str(_err("alternatives x x\nagent 1 {}\n"))
    assert "at least one agent" in str(_err("alternatives x y z\n"))
    assert "expected 'agent'" in str(_err("alternatives x y z\nblah\n"))
    assert "duplicate agent name" in str(
        _err("alternatives x y z\nagent 1 {}\nagent 1 {}\n")
    )
    assert "unterminated body" in str(_err("alternatives x y z\nagent 1 {\n"))
    assert "compares 'x' with itself" in str(
        _err("alternatives x y z\nagent 1 { fix x > x }\n")
    )
    assert "expected '=>'" in str(
        _err("alternatives x y z\nagent 1 { when x > y }\n")
    )
    assert "expected 'fix', 'when'" in str(
        _err("alternatives x y z\nagent 1 { maximize x }\n")
    )
    assert "after statement" in str(
        _err("alternatives x y z\nagent 1 { fix x > y fix y > z }\n")
    )


def test_parse_error_body_mixing():
    assert "only statement" in str(
        _err("alternatives x y z\nagent 1 {\n  fix x > y\n  universal\n}\n")
    )
    assert "mixes statement" in str(
        _err("alternatives x y z\nagent 1 {\n  universal\n  fix x > y\n}\n")
    )


def test_parse_error_generators():
    assert "axis" in str(_err("alternatives x y z\nagent 1 { single-peaked x y }\n"))
    assert "axis" in str(
        _err("alternatives x y z\nagent 1 { single-peaked x y y }\n")
    )
    assert "'over'" in str(_err("alternatives x y z\nagent 1 { juror-bias x y }\n"))
    assert "both sides" in str(
        _err("alternatives x y z\nagent 1 { juror-bias x over }\n")
    )


def test_overlapping_juror_bias_sides_are_located():
    err = _err("alternatives a b c\nagent 1 {\n  juror-bias a b over b c\n}\n")
    assert "juror-bias names a label on both sides of 'over'" in str(err)
    assert (err.line, err.col) == (3, 3)


def test_parse_error_rankings():
    assert "exactly once" in str(
        _err("alternatives x y z\nagent 1 { rankings {\n  x y\n} }\n")
    )
    assert "duplicate ranking" in str(
        _err("alternatives x y z\nagent 1 { rankings {\n  x y z\n  x y z\n} }\n")
    )
    assert "at least one ranking" in str(
        _err("alternatives x y z\nagent 1 { rankings {\n} }\n")
    )
    assert "unterminated rankings" in str(
        _err("alternatives x y z\nagent 1 { rankings {\n  x y z\n")
    )


def test_duplicate_ranking_points_at_the_repeat():
    # All 120 rankings of five alternatives, then the first one again.
    rows = [" ".join(order) for order in itertools.permutations("vwxyz")]
    lines = ["alternatives v w x y z", "agent 1 {", "  rankings {"]
    lines += [f"    {row}" for row in rows + rows[:1]]
    lines += ["  }", "}"]
    err = _err("\n".join(lines) + "\n")
    assert "duplicate ranking line" in str(err)
    assert (err.line, err.col) == (3 + 121, 5)


def test_unsatisfiable_statements_report_agent():
    with pytest.raises(DomainError) as info:
        parse_domain_file("alternatives x y z\nagent 1 { fix x > y; fix y > x }\n")
    assert "agent '1'" in str(info.value)


@pytest.mark.parametrize(
    "body, line, col, message",
    [
        ("fix x > y; fix y > x", 2, 22, "base contains x > y and its reverse"),
        ("fix x > y; fix x > y; fix y > x", 2, 33, "base contains x > y and its reverse"),
        (
            "fix x > y\n  when z > x => y > x",
            3,
            3,
            "conclusion y > x contradicts a base fixed pair",
        ),
        (
            "fix x > y\n  when z > x => z > y\n  when z > x => y > x",
            4,
            3,
            "conclusion y > x contradicts a base fixed pair",
        ),
        ("when x > y, y > x => x > z", 2, 11, "antecedent contains x > y and its reverse"),
        ("fix x > y; fix y > z; fix z > x", 2, 1, "restriction map rebuilds to the empty domain"),
    ],
)
def test_statements_that_cannot_hold_are_located(body, line, col, message):
    # The later fix or the when that writes the fault; the agent keyword for a cycle.
    err = _err(f"alternatives x y z\nagent 1 {{ {body} }}\n")
    assert str(err) == f"line {line}, column {col}: agent '1': {message}"
    assert (err.line, err.col) == (line, col)


def test_too_many_alternatives():
    labels = " ".join(f"a{i}" for i in range(9))
    with pytest.raises(SizeLimitError):
        parse_domain_file(f"alternatives {labels}\nagent 1 {{}}\n")


# ---------------------------------------------------------------------------
# Pinned outcomes over a mutation corpus

# Every body kind, ``;`` and comments, for the mutations below to break.
EVERY_BODY_KIND = """\
alternatives w x y z  # four alternatives
agent s { fix x > y; when w > x, y > z => z > w }
agent u { universal }
agent p { single-peaked w x y z }
agent d { single-dipped z y x w }
agent o { self-preferring y }
agent j { juror-bias w x over z }
agent r {
  rankings {
    w x y z
    z y x w
  }
}
"""
_MUTATION_TOKEN_RE = re.compile(r"#[^\n]*|\n|=>|[{},>;]|[^\s{},>;#]+")
# A known label ("x") lets an insertion put one label on both sides of 'over'.
_MUTATION_VOCABULARY = (
    "\n", ";", "{", "}", ",", ">", "=>", "agent", "alternatives", "fix", "when",
    "universal", "juror-bias", "over", "rankings", "x", "q",
)  # fmt: skip


def _mutation_corpus() -> list[str]:
    """The fixtures and ``EVERY_BODY_KIND``, each with every token deleted,
    duplicated or preceded by one vocabulary token, and cut every 3 characters."""
    names = ("ex1", "ex2", "single_peaked3", "universal3")
    sources = [(FIXTURES / f"{name}.spdom").read_text() for name in names]
    corpus: list[str] = []
    for text in sources + [EVERY_BODY_KIND]:
        corpus.append(text)
        for match in _MUTATION_TOKEN_RE.finditer(text):
            start, end = match.span()
            corpus.append(text[:start] + text[end:])
            corpus.append(text[:end] + " " + text[start:])
            corpus.extend(text[:start] + word + " " + text[start:] for word in _MUTATION_VOCABULARY)
        corpus.extend(text[:cut] for cut in range(0, len(text), 3))
    return corpus


def _parse_outcome(text: str) -> str:
    """Each agent's rankings and map hint, or the error with its location."""
    try:
        spec = parse_domain_file(text)
    except DomainError as err:
        where = (getattr(err, "line", None), getattr(err, "col", None))
        return f"{type(err).__name__} {err} {where}"
    return repr([
        (agent.name, [r.order for r in agent.domain.rankings],
         None if agent.map_hint is None else map_statement_lines(agent.map_hint, spec.labels))
        for agent in spec.agents
    ])


def test_parse_outcomes_are_pinned():
    corpus = _mutation_corpus()
    digest = hashlib.sha256("\n".join(map(_parse_outcome, corpus)).encode()).hexdigest()
    assert (len(corpus), digest) == (
        5708, "5aaf8f6bece44667392d6198fef7257aa943b52470c4670933e50c279dc2c867"
    )


# ---------------------------------------------------------------------------
# Rankings rows

PLAIN_ROWS = (
    "alternatives w x y z\nagent 1 {\n  rankings {\n    w x y z\n    z y x w\n    x w z y\n  }\n}\n"
)

# The plain block's rows written in other ways the format allows.
ROW_FORMS = {
    "semicolons": "alternatives w x y z\nagent 1 {\n  rankings {\n"
    "    w x y z; z y x w;x w z y\n  }\n}\n",
    "comments": "alternatives w x y z\nagent 1 {\n  rankings {  # best first\n"
    "    w x y z  # one\n    z y x w# two\n    # none\n    x w z y #\n  }\n}\n",
    "tabs": "alternatives w x y z\nagent 1 {\n\trankings {\n"
    "\tw\tx y\t z\n\t\tz y x w\t\n x\tw z y\n\t}\n}\n",
    "crlf": PLAIN_ROWS.replace("\n", "\r\n"),
    "blank-lines": "alternatives w x y z\nagent 1 {\n  rankings {\n\n    w x y z\n\n\n"
    "    z y x w\n    x w z y\n\n  }\n}\n",
    "closing-brace": "alternatives w x y z\nagent 1 {\n  rankings {\n    w x y z\n    z y x w\n"
    "    x w z y }\n}\n",
    "one-line": "alternatives w x y z\nagent 1 { rankings { w x y z; z y x w; x w z y } }\n",
}


@pytest.mark.parametrize("form", list(ROW_FORMS))
def test_rankings_rows_in_other_forms(form):
    expected = parse_domain_file(PLAIN_ROWS).agents[0].domain
    assert parse_domain_file(ROW_FORMS[form]).agents[0].domain == expected


# Rows that fail, each put in place of the plain block's second row.
BAD_ROWS = (
    "z y x", "z y x w w", "z y y w", "z y x q", "q", "z y x w q", "z > y x w", "z y, x w",
    "z y x w {", "z { y x w", "z y => x w", "z y x w x y z", "w x y z", "\tz y\tx", "}z y x w",
    "z y x w }}", "z y x w ; x", "z y x w # w", "z-y x w", "z y x w alternatives",
)  # fmt: skip


def _with_second_row(row: str) -> str:
    return PLAIN_ROWS.replace("    z y x w\n", f"    {row}\n")


def test_rankings_row_errors_are_pinned():
    outcomes = [_parse_outcome(_with_second_row(row)) for row in BAD_ROWS]
    assert outcomes[0] == (
        "ParseError line 5, column 5: a ranking line must list all of w x y z exactly once (5, 5)"
    )
    assert outcomes[3] == "ParseError line 5, column 11: unknown alternative 'q' (5, 11)"
    assert outcomes[6] == (
        "ParseError line 5, column 7: expected alternative label, found '>' (5, 7)"
    )
    assert outcomes[12] == "ParseError line 5, column 5: duplicate ranking line (5, 5)"
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "11b9377e8bf44b8032773b6a135ed0c9ff4fd3238d2cc59f43722dac5ce4f2d1", outcomes


def test_every_ranking_of_eight_alternatives_parses():
    rows = [" ".join(order) for order in itertools.permutations("abcdefgh")]
    random.Random(8).shuffle(rows)
    text = "alternatives a b c d e f g h\nagent 1 {\n  rankings {\n"
    text += "".join(f"    {row}\n" for row in rows) + "  }\n}\n"
    domain = parse_domain_file(text).agents[0].domain
    assert (len(domain), domain.rankings[0].order, domain.rankings[-1].order) == (
        40320, (0, 1, 2, 3, 4, 5, 6, 7), (7, 6, 5, 4, 3, 2, 1, 0)
    )


def test_rankings_rows_of_symbol_labels():
    # "@a-b" is two tokens, so its row is read token by token.
    text = "alternatives @ a-b =\nagent 1 { rankings {\n  @a-b =\n  = a-b @\n  a-b\t= @ } }\n"
    orders = [r.order for r in parse_domain_file(text).agents[0].domain.rankings]
    assert orders == [(0, 1, 2), (1, 2, 0), (2, 1, 0)]
