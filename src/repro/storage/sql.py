"""A mini SQL front end, sufficient for the paper's example query.

The introduction of the paper poses::

    SELECT name, preferencescore
    FROM Programs
    WHERE preferencescore > 0.5
    ORDER BY preferencescore DESC

"where the underlying context-aware database would dynamically assign a
preference score to each program".  This module parses and executes the
``SELECT``/``FROM``/``WHERE``/``ORDER BY``/``LIMIT`` fragment against a
:class:`~repro.storage.database.Database`, with *virtual columns*: a
:class:`SqlSession` lets the ranking layer register a provider that
computes ``preferencescore`` per row at query time, which is exactly the
paper's dynamically assigned attribute.

Supported grammar (keywords case-insensitive)::

    statement := SELECT select_list FROM name [WHERE cond]
                 [ORDER BY name [ASC|DESC] (, name [ASC|DESC])*]
                 [LIMIT int] [;]
    select_list := '*' | name (',' name)*
    cond       := disjunct (OR disjunct)*
    disjunct   := term (AND term)*
    term       := NOT term | '(' cond ')' | name op literal | name op name
    op         := = | != | <> | < | <= | > | >=
    literal    := number | 'string'
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ParseError, QueryError
from repro.storage.database import Database

__all__ = ["SelectStatement", "ResultSet", "SqlSession", "parse_sql"]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d+|\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<op><=|>=|!=|<>|=|<|>)
  | (?P<punct>[(),;*])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"SELECT", "FROM", "WHERE", "ORDER", "BY", "ASC", "DESC", "LIMIT", "AND", "OR", "NOT"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int

    @property
    def keyword(self) -> str | None:
        if self.kind == "ident" and self.text.upper() in _KEYWORDS:
            return self.text.upper()
        return None


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError(f"unexpected character {text[position]!r}", text, position)
        kind = match.lastgroup or ""
        if kind != "ws":
            tokens.append(_Token(kind, match.group(0), position))
        position = match.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# conditions (evaluated over row dictionaries)
# ---------------------------------------------------------------------------

class Condition:
    """Abstract WHERE condition over a row dictionary."""

    def matches(self, row: dict[str, object]) -> bool:
        raise NotImplementedError

    def columns(self) -> frozenset[str]:
        raise NotImplementedError


_CMP: dict[str, Callable[[object, object], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Compare(Condition):
    """``column op literal`` or ``column op column``."""

    column: str
    op: str
    value: object
    value_is_column: bool = False

    def matches(self, row: dict[str, object]) -> bool:
        left = row.get(self.column)
        right = row.get(str(self.value)) if self.value_is_column else self.value
        if left is None or right is None:
            return False
        try:
            return _CMP[self.op](left, right)
        except TypeError as exc:
            raise QueryError(f"cannot compare {left!r} {self.op} {right!r}") from exc

    def columns(self) -> frozenset[str]:
        names = {self.column}
        if self.value_is_column:
            names.add(str(self.value))
        return frozenset(names)


@dataclass(frozen=True)
class AndCondition(Condition):
    parts: tuple[Condition, ...]

    def matches(self, row: dict[str, object]) -> bool:
        return all(part.matches(row) for part in self.parts)

    def columns(self) -> frozenset[str]:
        return frozenset().union(*(part.columns() for part in self.parts))


@dataclass(frozen=True)
class OrCondition(Condition):
    parts: tuple[Condition, ...]

    def matches(self, row: dict[str, object]) -> bool:
        return any(part.matches(row) for part in self.parts)

    def columns(self) -> frozenset[str]:
        return frozenset().union(*(part.columns() for part in self.parts))


@dataclass(frozen=True)
class NotCondition(Condition):
    part: Condition

    def matches(self, row: dict[str, object]) -> bool:
        return not self.part.matches(row)

    def columns(self) -> frozenset[str]:
        return self.part.columns()


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectStatement:
    """A parsed SELECT statement."""

    columns: tuple[str, ...] | None  # None means '*'
    table: str
    where: Condition | None = None
    order_by: tuple[tuple[str, bool], ...] = ()  # (column, descending)
    limit: int | None = None

    def referenced_columns(self) -> frozenset[str]:
        names: set[str] = set(self.columns or ())
        if self.where is not None:
            names.update(self.where.columns())
        names.update(column for column, _desc in self.order_by)
        return frozenset(names)


@dataclass
class ResultSet:
    """Columns plus rows, as produced by :meth:`SqlSession.execute`."""

    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)

    def column(self, name: str) -> list:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def render(self) -> str:
        """Plain-text rendering (aligned columns) for examples/benches."""
        headers = list(self.columns)
        body = [
            ["" if value is None else (f"{value:.4f}" if isinstance(value, float) else str(value)) for value in row]
            for row in self.rows
        ]
        widths = [
            max(len(headers[i]), *(len(line[i]) for line in body)) if body else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            "  ".join(headers[i].ljust(widths[i]) for i in range(len(headers))),
            "  ".join("-" * widths[i] for i in range(len(headers))),
        ]
        for line in body:
            lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(headers))))
        return "\n".join(lines)


class _SqlParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_keyword(self, word: str) -> None:
        token = self.peek()
        if token.keyword != word:
            raise ParseError(f"expected {word}, found {token.text or 'end of input'!r}", self.text, token.position)
        self.advance()

    def expect_ident(self) -> str:
        token = self.peek()
        if token.kind != "ident" or token.keyword is not None:
            raise ParseError(f"expected identifier, found {token.text or 'end of input'!r}", self.text, token.position)
        self.advance()
        return token.text

    def parse(self) -> SelectStatement:
        self.expect_keyword("SELECT")
        columns = self.select_list()
        self.expect_keyword("FROM")
        table = self.expect_ident()
        where = None
        if self.peek().keyword == "WHERE":
            self.advance()
            where = self.condition()
        order_by: list[tuple[str, bool]] = []
        if self.peek().keyword == "ORDER":
            self.advance()
            self.expect_keyword("BY")
            while True:
                column = self.expect_ident()
                descending = False
                if self.peek().keyword in ("ASC", "DESC"):
                    descending = self.advance().keyword == "DESC"
                order_by.append((column, descending))
                if self.peek().kind == "punct" and self.peek().text == ",":
                    self.advance()
                    continue
                break
        limit = None
        if self.peek().keyword == "LIMIT":
            self.advance()
            token = self.peek()
            if token.kind != "number" or "." in token.text:
                raise ParseError("LIMIT requires an integer", self.text, token.position)
            limit = int(self.advance().text)
        if self.peek().kind == "punct" and self.peek().text == ";":
            self.advance()
        token = self.peek()
        if token.kind != "eof":
            raise ParseError(f"unexpected trailing input {token.text!r}", self.text, token.position)
        return SelectStatement(columns, table, where, tuple(order_by), limit)

    def select_list(self) -> tuple[str, ...] | None:
        token = self.peek()
        if token.kind == "punct" and token.text == "*":
            self.advance()
            return None
        columns = [self.expect_ident()]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.advance()
            columns.append(self.expect_ident())
        return tuple(columns)

    # -- conditions -----------------------------------------------------
    def condition(self) -> Condition:
        parts = [self.conjunction()]
        while self.peek().keyword == "OR":
            self.advance()
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else OrCondition(tuple(parts))

    def conjunction(self) -> Condition:
        parts = [self.term()]
        while self.peek().keyword == "AND":
            self.advance()
            parts.append(self.term())
        return parts[0] if len(parts) == 1 else AndCondition(tuple(parts))

    def term(self) -> Condition:
        token = self.peek()
        if token.keyword == "NOT":
            self.advance()
            return NotCondition(self.term())
        if token.kind == "punct" and token.text == "(":
            self.advance()
            inner = self.condition()
            closing = self.peek()
            if closing.kind != "punct" or closing.text != ")":
                raise ParseError("expected ')'", self.text, closing.position)
            self.advance()
            return inner
        column = self.expect_ident()
        op_token = self.peek()
        if op_token.kind != "op":
            raise ParseError(f"expected comparison operator, found {op_token.text!r}", self.text, op_token.position)
        self.advance()
        value_token = self.peek()
        if value_token.kind == "number":
            self.advance()
            value: object = float(value_token.text) if "." in value_token.text else int(value_token.text)
            return Compare(column, op_token.text, value)
        if value_token.kind == "string":
            self.advance()
            return Compare(column, op_token.text, value_token.text[1:-1].replace("''", "'"))
        if value_token.kind == "ident" and value_token.keyword is None:
            self.advance()
            return Compare(column, op_token.text, value_token.text, value_is_column=True)
        raise ParseError(f"expected literal or column, found {value_token.text!r}", self.text, value_token.position)


def parse_sql(text: str) -> SelectStatement:
    """Parse a SELECT statement (raises :class:`ParseError` on bad input)."""
    return _SqlParser(text).parse()


class SqlSession:
    """Executes SELECT statements with virtual-column support.

    Parameters
    ----------
    database:
        The database to resolve table names against.

    Examples
    --------
    >>> from repro.storage import Database, Schema, Column, ColumnType
    >>> db = Database()
    >>> programs = db.create_table("Programs", Schema([Column("name", ColumnType.TEXT)]))
    >>> programs.insert(("news",))
    >>> session = SqlSession(db)
    >>> session.register_virtual_column("Programs", "preferencescore", lambda row: 0.9)
    >>> session.execute("SELECT name, preferencescore FROM Programs").rows
    [('news', 0.9)]
    """

    def __init__(self, database: Database):
        self.database = database
        self._virtual: dict[str, dict[str, Callable[[dict[str, object]], object]]] = {}

    def register_virtual_column(
        self,
        table: str,
        column: str,
        provider: Callable[[dict[str, object]], object],
    ) -> None:
        """Attach a computed column to a table for this session."""
        self._virtual.setdefault(table, {})[column] = provider

    def execute(self, statement: str | SelectStatement) -> ResultSet:
        """Run a SELECT statement and return its result set."""
        if isinstance(statement, str):
            statement = parse_sql(statement)
        table = self.database.table(statement.table)
        providers = self._virtual.get(statement.table, {})

        available = set(table.schema.names) | set(providers)
        unknown = statement.referenced_columns() - available
        if unknown:
            raise QueryError(
                f"unknown column(s) {sorted(unknown)} for table {statement.table!r}"
            )

        rows: list[dict[str, object]] = []
        for row in table:
            row_dict = table.row_dict(row)
            for name, provider in providers.items():
                row_dict[name] = provider(dict(row_dict))
            if statement.where is None or statement.where.matches(row_dict):
                rows.append(row_dict)

        for column, descending in reversed(statement.order_by):
            rows.sort(key=lambda r: (r.get(column) is None, r.get(column)), reverse=descending)

        if statement.limit is not None:
            rows = rows[: statement.limit]

        output_columns = statement.columns or tuple(
            list(table.schema.names) + sorted(providers)
        )
        result = ResultSet(tuple(output_columns))
        for row_dict in rows:
            result.rows.append(tuple(row_dict.get(name) for name in output_columns))
        return result
