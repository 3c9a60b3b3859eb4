"""Recursive-descent parser for the SQL subset of :mod:`repro.query.ast`.

Grammar (case-insensitive keywords)::

    query      := SELECT select_list FROM name [where] [group] [order] [limit]
    select_list:= (name ',')* COUNT '(' '*' ')' [AS name]
    where      := WHERE condition (AND condition)*
    condition  := name cmp literal
                | name IN '(' literal (',' literal)* ')'
                | name BETWEEN literal AND literal
    group      := GROUP BY name (',' name)*
    order      := ORDER BY name (ASC|DESC)?
    limit      := LIMIT int
    literal    := number | 'string' | "string"
"""

from __future__ import annotations

import re

from repro.errors import QueryError
from repro.query.ast import COMPARISONS, Condition, CountQuery

#: One scan of the text: each match is a token after optional
#: whitespace — word, punctuation, string, number or operator, in order
#: of frequency (no two start with the same character) — or, where no
#: token starts, the rest of the text, which is an error unless it is a
#: trailing ``;``.
_TOKEN = re.compile(
    r"""
    \s*(?:
        ([A-Za-z_][A-Za-z0-9_.]*)
      | ([(),*])
      | ('(?:[^']|'')*'|"(?:[^"]|"")*")
      | (-?\d+(?:\.\d+)?)
      | (<=|>=|!=|<>|=|<|>)
    )
    | ([\s\S]+)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select", "from", "where", "and", "in", "between", "group", "by",
    "order", "limit", "count", "sum", "avg", "as", "asc", "desc", "or",
}

#: The fixed tokens, built once: keywords by their lower-case spelling,
#: punctuation and operators (``<>`` spelled ``!=``) by their text.
_FIXED = {
    **{keyword: ("keyword", keyword) for keyword in _KEYWORDS},
    **{punct: ("punct", punct) for punct in "(),*"},
    **{op: ("op", op) for op in ("<=", ">=", "!=", "=", "<", ">")},
    "<>": ("op", "!="),
}

#: The token after the last one; reading past it stays on it.
_EOF = ("eof", None)


class _Tokens:
    def __init__(self, text: str):
        tokens: list[tuple[str, object]] = []
        append = tokens.append
        fixed = _FIXED.get
        for word, punct, string, number, op, rest in _TOKEN.findall(text):
            if word:
                append(fixed(word.lower()) or ("name", word))
            elif punct or op:
                append(_FIXED[punct or op])
            elif string:
                quote = string[0]
                append(("literal", string[1:-1].replace(quote * 2, quote)))
            elif number:
                append(("literal", float(number) if "." in number else int(number)))
            elif rest.strip() != ";":
                raise QueryError(f"cannot tokenize query at: {rest[:20]!r}")
        append(_EOF)
        self.tokens = tokens
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        token = self.tokens[self.index]
        if token is not _EOF:
            self.index += 1
        return token

    def expect(self, kind, value=None):
        token = self.tokens[self.index]
        if token[0] != kind or (value is not None and token[1] != value):
            want = value if value is not None else kind
            raise QueryError(f"expected {want!r}, found {token[1]!r}")
        self.index += 1
        return token[1]

    def accept(self, kind, value=None) -> bool:
        token = self.tokens[self.index]
        if token[0] == kind and (value is None or token[1] == value):
            self.index += 1
            return True
        return False


def parse_query(text: str) -> CountQuery:
    """Parse one SQL counting query into a :class:`CountQuery`."""
    tokens = _Tokens(text)
    tokens.expect("keyword", "select")
    group_select, aggregate, aggregate_attr = _parse_select_list(tokens)
    tokens.expect("keyword", "from")
    table = tokens.expect("name")
    conditions = []
    if tokens.accept("keyword", "where"):
        conditions.append(_parse_condition(tokens))
        while True:
            if tokens.peek() == ("keyword", "or"):
                raise QueryError(
                    "unsupported token 'OR' after "
                    f"{conditions[-1]!r}: the engine answers conjunctive "
                    "queries only (AND of per-attribute predicates, "
                    "Eq. 16); split the query and add the counts instead"
                )
            if not tokens.accept("keyword", "and"):
                break
            conditions.append(_parse_condition(tokens))
    group_by: list[str] = []
    if tokens.accept("keyword", "group"):
        tokens.expect("keyword", "by")
        group_by.append(tokens.expect("name"))
        while tokens.accept("punct", ","):
            group_by.append(tokens.expect("name"))
    order = None
    if tokens.accept("keyword", "order"):
        tokens.expect("keyword", "by")
        tokens.expect("name")  # the count alias; any name accepted
        if tokens.accept("keyword", "desc"):
            order = "desc"
        elif tokens.accept("keyword", "asc"):
            order = "asc"
        else:
            order = "asc"
    limit = None
    if tokens.accept("keyword", "limit"):
        kind, value = tokens.next()
        if kind != "literal" or not isinstance(value, int):
            raise QueryError("LIMIT needs an integer")
        limit = value
    if tokens.peek()[0] != "eof":
        raise QueryError(f"unexpected trailing token {tokens.peek()[1]!r}")
    if group_select and group_by and set(group_select) != set(group_by):
        raise QueryError(
            "selected attributes must match the GROUP BY list; got "
            f"{group_select} vs {group_by}"
        )
    if group_select and not group_by:
        group_by = group_select
    return CountQuery(
        table,
        group_by=group_by,
        conditions=conditions,
        order=order,
        limit=limit,
        aggregate=aggregate,
        aggregate_attr=aggregate_attr,
    )


def _parse_select_list(tokens: _Tokens) -> tuple[list[str], str, str | None]:
    """Group attributes plus the aggregate: COUNT(*) | SUM(a) | AVG(a)."""
    names: list[str] = []
    while True:
        if tokens.accept("keyword", "count"):
            tokens.expect("punct", "(")
            tokens.expect("punct", "*")
            tokens.expect("punct", ")")
            if tokens.accept("keyword", "as"):
                tokens.expect("name")
            return names, "count", None
        for aggregate in ("sum", "avg"):
            if tokens.accept("keyword", aggregate):
                tokens.expect("punct", "(")
                attr = tokens.expect("name")
                tokens.expect("punct", ")")
                if tokens.accept("keyword", "as"):
                    tokens.expect("name")
                return names, aggregate, attr
        names.append(tokens.expect("name"))
        tokens.expect("punct", ",")


def _expect_literal(tokens: _Tokens, context: str):
    """Next token as a literal, with targeted messages for the classic
    mistakes (unquoted strings, keywords in literal position)."""
    kind, value = tokens.next()
    if kind == "literal":
        return value
    if kind == "name":
        raise QueryError(
            f"expected a literal {context}, found bare word {value!r} — "
            f"string literals must be quoted: '{value}'"
        )
    raise QueryError(f"expected a literal {context}, found {value!r}")


def _parse_condition(tokens: _Tokens) -> Condition:
    attribute = tokens.expect("name")
    kind, value = tokens.next()
    if kind == "op":
        if value not in COMPARISONS:
            raise QueryError(f"unsupported comparison {value!r}")
        literal = _expect_literal(tokens, f"after {value!r}")
        return Condition(attribute, value, [literal])
    if kind == "keyword" and value == "in":
        tokens.expect("punct", "(")
        literals = []
        while True:
            literals.append(
                _expect_literal(tokens, f"in the IN list of {attribute!r}")
            )
            if tokens.accept("punct", ")"):
                break
            tokens.expect("punct", ",")
        return Condition(attribute, "in", literals)
    if kind == "keyword" and value == "between":
        low = _expect_literal(tokens, f"as the BETWEEN lower bound of {attribute!r}")
        tokens.expect("keyword", "and")
        high = _expect_literal(tokens, f"as the BETWEEN upper bound of {attribute!r}")
        return Condition(attribute, "between", [low, high])
    raise QueryError(
        f"expected a condition operator after {attribute!r}, found {value!r}"
    )
