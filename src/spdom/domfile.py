"""The ``.spdom`` domain-description format: parser and serializer.

A domain file names the shared alternatives and then gives one block per
agent.  An agent body is exactly one of:

- restriction *statements* — ``fix a > b`` lines and
  ``when a > b, c > d => e > f, g > h`` lines, read as conjunctive removal
  predicates applied to the universal domain (order-independent);
- a *generator* — ``universal``, ``single-peaked <axis labels>``,
  ``single-dipped <axis labels>``, ``self-preferring <label>``, or
  ``juror-bias <labels> over <labels>``;
- an explicit ``rankings { ... }`` block listing every member, best first.

``#`` starts a comment; ``;`` separates statements exactly like a newline.
Statement bodies double as declared restriction maps: the parser returns them
as per-agent map hints so downstream commands can honor the file's own
decomposition instead of re-deriving one.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Sequence

from .classify import AnswerSet, MapFault, RestrictionMap, classify, rebuild
from .prefcore import (
    MAX_ALTERNATIVES,
    DomainError,
    OrderedPair,
    PreferenceDomain,
    ProductDomain,
    Ranking,
    SizeLimitError,
    generate_domain,
)


class ParseError(DomainError):
    """Syntax or reference error in a text format, with 1-based location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(r"=>|[{},>;]|[A-Za-z0-9_][A-Za-z0-9_-]*|\S")

_NEWLINE = "\n"
_SYMBOLS = ("{", "}", ",", ">", "=>")
_GENERATOR_KEYWORDS = (
    "universal",
    "single-peaked",
    "single-dipped",
    "self-preferring",
    "juror-bias",
)


class _Token(NamedTuple):
    text: str
    line: int
    col: int


def _line_tokens(raw: str, lineno: int) -> list[_Token]:
    """One line's tokens, ending in a newline token at the line's end."""
    tokens = [
        _Token(_NEWLINE if (tok := match.group(0)) == ";" else tok, lineno, match.start() + 1)
        for match in _TOKEN_RE.finditer(raw.split("#", 1)[0])
    ]
    tokens.append(_Token(_NEWLINE, lineno, len(raw) + 1))
    return tokens


class _Cursor:
    """The tokens of a text, each line tokenized when the cursor reaches it."""

    def __init__(self, text: str):
        self._lines = text.splitlines()
        self._read = 0  # lines tokenized or read as rows so far
        self._tokens: list[_Token] = []  # the tokens of line ``_read``
        self._i = 0

    def at_eof(self, message: str) -> ParseError:
        """``message`` located at the last token: the last line's end, or 1:1."""
        lines = self._lines
        line, col = (len(lines), len(lines[-1]) + 1) if lines else (1, 1)
        return ParseError(message, line, col)

    def peek(self) -> Optional[_Token]:
        if self._i == len(self._tokens):
            if self._read == len(self._lines):
                return None
            self._read += 1
            self._tokens, self._i = _line_tokens(self._lines[self._read - 1], self._read), 0
        return self._tokens[self._i]

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise self.at_eof("unexpected end of file")
        self._i += 1
        return tok

    def skip_newlines(self) -> None:
        while (tok := self.peek()) is not None and tok.text == _NEWLINE:
            self._i += 1

    def expect(self, text: str, what: Optional[str] = None) -> _Token:
        tok = self.next()
        if tok.text != text:
            shown = "end of line" if tok.text == _NEWLINE else repr(tok.text)
            raise ParseError(f"expected {what or repr(text)}, found {shown}", tok.line, tok.col)
        return tok

    def expect_word(self, what: str) -> _Token:
        tok = self.next()
        if tok.text == _NEWLINE or tok.text in _SYMBOLS:
            shown = "end of line" if tok.text == _NEWLINE else repr(tok.text)
            raise ParseError(f"expected {what}, found {shown}", tok.line, tok.col)
        return tok

    def label(self, labels: dict[str, int], what: str) -> int:
        tok = self.expect_word(what)
        if tok.text not in labels:
            raise ParseError(f"unknown alternative {tok.text!r}", tok.line, tok.col)
        return labels[tok.text]

    def labels(self, labels: dict[str, int], what: str, stop: Optional[str] = None) -> list[int]:
        """Read labels up to the end of the line, a ``}`` or ``stop``.  No
        declared label is a symbol, so a token in ``labels`` needs no other check."""
        self.peek()
        tokens, i, found, ends = self._tokens, self._i, [], (_NEWLINE, "}", stop)
        while i < len(tokens) and (text := tokens[i].text) not in ends:
            if text not in labels:
                self._i = i
                self.label(labels, what)  # raises this token's error
            found.append(labels[text])
            i += 1
        self._i = i
        return found

    def rows(self, labels: dict[str, int], orders: dict[tuple[int, ...], None]) -> None:
        """At a line's end, read the lines that follow into ``orders`` while
        each, split at blanks, is a new ranking of every label, skipping blank
        lines.  The first other line is left to the tokens, which locate its error."""
        if self._i < len(self._tokens) - 1:
            return
        self._i = len(self._tokens)  # the line's newline, which the caller skips
        lines, n, m, get = self._lines, self._read, len(labels), labels.get
        while n < len(lines):
            words = lines[n].split("#", 1)[0].split()
            if words:
                order = tuple(map(get, words))
                if len(order) != m or None in order or len(set(order)) != m or order in orders:
                    break
                orders[order] = None
            n += 1
        self._read = n


class AgentSpec(NamedTuple):
    """One parsed agent: its domain plus the map its body declared, if any."""

    name: str
    domain: PreferenceDomain
    map_hint: Optional[RestrictionMap]


class DomainSpec(NamedTuple):
    """A parsed ``.spdom`` file."""

    labels: tuple[str, ...]
    agents: tuple[AgentSpec, ...]

    @property
    def product(self) -> ProductDomain:
        return ProductDomain.of(
            [a.domain for a in self.agents],
            labels=self.labels,
            agent_names=[a.name for a in self.agents],
        )

    def resolved_maps(self, scan: str = "default") -> tuple[RestrictionMap, ...]:
        """Per-agent maps: the declared hint where present, else classify."""
        return tuple(
            a.map_hint if a.map_hint is not None else classify(a.domain, scan=scan)
            for a in self.agents
        )


def _parse_pair(cursor: _Cursor, labels: dict[str, int]) -> OrderedPair:
    top_tok = cursor.peek()
    top = cursor.label(labels, "alternative label")
    cursor.expect(">")
    bottom = cursor.label(labels, "alternative label")
    if top == bottom:
        raise ParseError(f"pair compares {top_tok.text!r} with itself", top_tok.line, top_tok.col)
    return OrderedPair(top, bottom)


def _parse_pair_list(cursor: _Cursor, labels: dict[str, int]) -> list[OrderedPair]:
    pairs = [_parse_pair(cursor, labels)]
    while (tok := cursor.peek()) is not None and tok.text == ",":
        cursor.next()
        pairs.append(_parse_pair(cursor, labels))
    return pairs


def _end_statement(cursor: _Cursor) -> None:
    tok = cursor.peek()
    if tok is None or tok.text == "}":
        return
    if tok.text == _NEWLINE:
        cursor.skip_newlines()
        return
    raise ParseError(f"unexpected {tok.text!r} after statement", tok.line, tok.col)


def _parse_generator(cursor: _Cursor, keyword: _Token, labels: dict[str, int]) -> PreferenceDomain:
    m = len(labels)
    if keyword.text == "universal":
        return generate_domain("universal", m=m)
    if keyword.text in ("single-peaked", "single-dipped"):
        axis = cursor.labels(labels, "axis label")
        if len(axis) != m or sorted(axis) != list(range(m)):
            raise ParseError(
                f"{keyword.text} needs every alternative exactly once as its axis",
                keyword.line,
                keyword.col,
            )
        kind = "single_peaked" if keyword.text == "single-peaked" else "single_dipped"
        return generate_domain(kind, axis=axis)
    if keyword.text == "self-preferring":
        owner = cursor.label(labels, "owner label")
        return generate_domain("self_preferring", m=m, owner=owner)
    if keyword.text == "juror-bias":
        high = cursor.labels(labels, "label", stop="over")
        cursor.expect("over", "'over'")
        low = cursor.labels(labels, "label")
        if not high or not low:
            raise ParseError(
                "juror-bias needs labels on both sides of 'over'", keyword.line, keyword.col
            )
        if set(high) & set(low):
            raise ParseError(
                "juror-bias names a label on both sides of 'over'", keyword.line, keyword.col
            )
        return generate_domain("juror_bias", m=m, high=high, low=low)
    raise AssertionError(keyword.text)


def _parse_rankings_block(cursor: _Cursor, labels: dict[str, int]) -> PreferenceDomain:
    cursor.expect("{")
    orders: dict[tuple[int, ...], None] = {}  # in file order
    while True:
        cursor.rows(labels, orders)
        cursor.skip_newlines()
        start = cursor.peek()
        if start is None:
            raise cursor.at_eof("unterminated rankings block")
        if start.text == "}":
            cursor.next()
            break
        row = cursor.labels(labels, "alternative label")
        if sorted(row) != list(range(len(labels))):
            raise ParseError(
                f"a ranking line must list all of {' '.join(labels)} exactly once",
                start.line,
                start.col,
            )
        order = tuple(row)
        if order in orders:
            raise ParseError("duplicate ranking line", start.line, start.col)
        orders[order] = None
    if not orders:
        raise cursor.at_eof("rankings block must list at least one ranking")
    return PreferenceDomain.of(Ranking(o) for o in orders)


def _parse_agent(cursor: _Cursor, labels: dict[str, int], agent_kw: _Token) -> AgentSpec:
    name_tok = cursor.expect_word("agent name")
    name = name_tok.text
    cursor.expect("{")
    cursor.skip_newlines()

    fixes: list[OrderedPair] = []
    whens: list[tuple[list[OrderedPair], list[OrderedPair]]] = []
    fix_at: list[_Token] = []  # each statement's keyword, to locate a MapFault
    when_at: list[_Token] = []
    domain: Optional[PreferenceDomain] = None
    statement_count = 0

    while True:
        tok = cursor.peek()
        if tok is None:
            raise cursor.at_eof(f"unterminated body for agent {name!r}")
        if tok.text == "}":
            cursor.next()
            break
        statement_count += 1
        if tok.text == "fix":
            cursor.next()
            fixes.append(_parse_pair(cursor, labels))
            fix_at.append(tok)
        elif tok.text == "when":
            cursor.next()
            antecedent = _parse_pair_list(cursor, labels)
            cursor.expect("=>")
            conclusions = _parse_pair_list(cursor, labels)
            whens.append((antecedent, conclusions))
            when_at.append(tok)
        elif tok.text in _GENERATOR_KEYWORDS or tok.text == "rankings":
            cursor.next()
            rankings = tok.text == "rankings"
            if statement_count > 1:
                what = "a rankings block" if rankings else "a generator"
                raise ParseError(
                    f"{what} must be the only statement in an agent body", tok.line, tok.col
                )
            if rankings:
                domain = _parse_rankings_block(cursor, labels)
            else:
                domain = _parse_generator(cursor, tok, labels)
        else:
            raise ParseError(
                f"expected 'fix', 'when', a generator, or 'rankings', found {tok.text!r}",
                tok.line,
                tok.col,
            )
        _end_statement(cursor)
        cursor.skip_newlines()

    if domain is not None:
        if fixes or whens:
            raise ParseError(
                f"agent {name!r} mixes statement and non-statement body kinds",
                agent_kw.line,
                agent_kw.col,
            )
        return AgentSpec(name, domain, None)

    # Statement body (possibly empty, meaning the universal domain).
    try:
        hint = RestrictionMap.of(len(labels), fixes, whens)
        domain = rebuild(hint)
    except MapFault as fault:
        pair, where = fault.pair, fault.conditional
        if where is None:  # the later of the first fixes of the pair and of its reverse
            at = fix_at[max(fixes.index(pair), fixes.index(pair.swapped()))]
        else:  # the first when with the fault's antecedent and the pair in that part
            ante, part = where
            at = next(t for t, w in zip(when_at, whens) if set(w[0]) == ante and pair in w[part])
        message = fault.wording.format(format_pair(pair, list(labels)))
        raise ParseError(f"agent {name!r}: {message}", at.line, at.col) from fault
    except DomainError as err:  # the statements leave no ranking
        raise ParseError(f"agent {name!r}: {err}", agent_kw.line, agent_kw.col) from err
    return AgentSpec(name, domain, hint)


def parse_domain_file(text: str) -> DomainSpec:
    """Parse a ``.spdom`` document into its product domain and map hints."""
    cursor = _Cursor(text)
    cursor.skip_newlines()
    kw = cursor.expect_word("'alternatives'")
    if kw.text != "alternatives":
        raise ParseError(
            f"a domain file starts with 'alternatives', found {kw.text!r}", kw.line, kw.col
        )
    labels: dict[str, int] = {}
    while (tok := cursor.peek()) is not None and tok.text != _NEWLINE:
        word = cursor.expect_word("alternative label")
        if word.text in labels:
            raise ParseError(f"duplicate alternative {word.text!r}", word.line, word.col)
        labels[word.text] = len(labels)
    if not labels:
        raise ParseError("'alternatives' needs at least one label", kw.line, kw.col)
    if len(labels) > MAX_ALTERNATIVES:
        raise SizeLimitError(
            f"line {kw.line}: {len(labels)} alternatives exceeds the supported "
            f"maximum of {MAX_ALTERNATIVES}"
        )

    agents: list[AgentSpec] = []
    names: set[str] = set()
    cursor.skip_newlines()
    while cursor.peek() is not None:
        tok = cursor.next()
        if tok.text != "agent":
            raise ParseError(f"expected 'agent', found {tok.text!r}", tok.line, tok.col)
        agent = _parse_agent(cursor, labels, tok)
        if agent.name in names:
            raise ParseError(f"duplicate agent name {agent.name!r}", tok.line, tok.col)
        names.add(agent.name)
        agents.append(agent)
        cursor.skip_newlines()
    if not agents:
        raise ParseError("a domain file needs at least one agent", 1, 1)
    return DomainSpec(tuple(labels), tuple(agents))


def format_pair(p: OrderedPair, labels: Sequence[str]) -> str:
    return f"{labels[p.top]} > {labels[p.bottom]}"


def format_ranking(order: Sequence[int], labels: Sequence[str]) -> str:
    """A ranking as its labels run together, best first: ``bca``."""
    return "".join(labels[alt] for alt in order)


def format_profile(pd: ProductDomain, profile: Sequence[int]) -> str:
    """A profile (one ranking index per agent) as comma-joined rankings."""
    return ",".join(
        format_ranking(d.rankings[digit].order, pd.labels) for digit, d in zip(profile, pd.agents)
    )


def format_answer_set(answers: AnswerSet, labels: Sequence[str]) -> str:
    """An answer set as ``{a>b,c>d}``, pairs in ascending order."""
    inner = ",".join(f"{labels[p.top]}>{labels[p.bottom]}" for p in sorted(answers))
    return "{" + inner + "}"


def format_response(answers: Sequence[AnswerSet], labels: Sequence[str]) -> str:
    """A response profile (one answer set per agent) as ``{x>y}|{}``."""
    return "|".join(format_answer_set(a, labels) for a in answers)


def map_statement_lines(map_: RestrictionMap, labels: Sequence[str]) -> list[str]:
    """Render a restriction map as ``fix``/``when`` statement lines."""
    lines = [f"fix {format_pair(p, labels)}" for p in sorted(map_.base)]
    for antecedent, conclusions in map_.conditionals:
        left = ", ".join(format_pair(p, labels) for p in sorted(antecedent))
        right = ", ".join(format_pair(c, labels) for c in sorted(conclusions))
        lines.append(f"when {left} => {right}")
    return lines


def serialize_product_domain(pd: ProductDomain, maps: Sequence[RestrictionMap]) -> str:
    """Render a product domain as a ``.spdom`` document, each agent as the
    statement body of its map (which re-parses to the same domain with the
    same hint)."""
    if len(maps) != pd.n:
        raise DomainError("need one map per agent")
    out = ["alternatives " + " ".join(pd.labels)]
    for name, domain, map_ in zip(pd.agent_names, pd.agents, maps):
        if rebuild(map_) != domain:
            raise DomainError(f"map for agent {name!r} does not rebuild its domain")
        out.append("")
        out.append(f"agent {name} {{")
        for line in map_statement_lines(map_, pd.labels):
            out.append(f"  {line}")
        out.append("}")
    return "\n".join(out) + "\n"
