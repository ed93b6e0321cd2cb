"""Relational algebra with event-expression propagation.

The probabilistic relational algebra of Fuhr & Roelleke, as used by the
paper's view machinery:

* **selection** keeps a tuple's event unchanged;
* **projection** with duplicate elimination merges equal tuples by
  *disjoining* their events (several derivations, any one suffices);
* **join** *conjoins* the events of the participating tuples;
* **union** merges like projection;
* **difference** keeps left tuples under ``left.event AND NOT
  right.event``;
* **rename** is pure bookkeeping.

Operator trees are immutable values; :func:`evaluate` interprets a tree
against a :class:`~repro.storage.database.Database` and returns a
:class:`~repro.storage.table.Table`.  Virtual views are stored as trees
and re-evaluated on demand, which is exactly why "as the current context
develops, the probabilities of containment of tuples in the view
changes accordingly" (Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.errors import QueryError
from repro.events.expr import ALWAYS, EventExpr, conj, neg
from repro.storage.schema import EVENT_COLUMN, Column, ColumnType, Schema
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.database import Database

__all__ = [
    "Predicate",
    "Comparison",
    "ColumnComparison",
    "AndPredicate",
    "OrPredicate",
    "NotPredicate",
    "AlgebraNode",
    "Scan",
    "Constant",
    "Select",
    "Project",
    "Join",
    "Union",
    "Difference",
    "Rename",
    "evaluate",
    "union_all",
]

_OPERATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

class Predicate:
    """Abstract row predicate used by :class:`Select`."""

    def matches(self, schema: Schema, row: tuple) -> bool:
        raise NotImplementedError

    def validate(self, schema: Schema) -> None:
        """Raise :class:`QueryError` if the predicate references unknown columns."""
        raise NotImplementedError


def _check_operator(op: str) -> str:
    if op not in _OPERATORS:
        raise QueryError(f"unknown comparison operator {op!r}; use one of {sorted(_OPERATORS)}")
    return op


def _compare(op: str, left: object, right: object) -> bool:
    if left is None or right is None:
        return False  # SQL-style: comparisons with NULL never match
    try:
        return _OPERATORS[op](left, right)
    except TypeError as exc:
        raise QueryError(f"cannot compare {left!r} {op} {right!r}") from exc


def _require_column(schema: Schema, name: str) -> None:
    if name not in schema:
        raise QueryError(f"predicate references unknown column {name!r} (schema: {schema.names})")


@dataclass(frozen=True)
class Comparison(Predicate):
    """``column op literal``."""

    column: str
    op: str
    value: object

    def __post_init__(self) -> None:
        _check_operator(self.op)

    def matches(self, schema: Schema, row: tuple) -> bool:
        return _compare(self.op, row[schema.index_of(self.column)], self.value)

    def validate(self, schema: Schema) -> None:
        _require_column(schema, self.column)

    def __str__(self) -> str:
        return f"{self.column} {self.op} {self.value!r}"


@dataclass(frozen=True)
class ColumnComparison(Predicate):
    """``column op other_column``."""

    left: str
    op: str
    right: str

    def __post_init__(self) -> None:
        _check_operator(self.op)

    def matches(self, schema: Schema, row: tuple) -> bool:
        return _compare(self.op, row[schema.index_of(self.left)], row[schema.index_of(self.right)])

    def validate(self, schema: Schema) -> None:
        _require_column(schema, self.left)
        _require_column(schema, self.right)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class AndPredicate(Predicate):
    parts: tuple[Predicate, ...]

    def matches(self, schema: Schema, row: tuple) -> bool:
        return all(part.matches(schema, row) for part in self.parts)

    def validate(self, schema: Schema) -> None:
        for part in self.parts:
            part.validate(schema)

    def __str__(self) -> str:
        return "(" + " AND ".join(str(part) for part in self.parts) + ")"


@dataclass(frozen=True)
class OrPredicate(Predicate):
    parts: tuple[Predicate, ...]

    def matches(self, schema: Schema, row: tuple) -> bool:
        return any(part.matches(schema, row) for part in self.parts)

    def validate(self, schema: Schema) -> None:
        for part in self.parts:
            part.validate(schema)

    def __str__(self) -> str:
        return "(" + " OR ".join(str(part) for part in self.parts) + ")"


@dataclass(frozen=True)
class NotPredicate(Predicate):
    part: Predicate

    def matches(self, schema: Schema, row: tuple) -> bool:
        return not self.part.matches(schema, row)

    def validate(self, schema: Schema) -> None:
        self.part.validate(schema)

    def __str__(self) -> str:
        return f"NOT ({self.part})"


# ---------------------------------------------------------------------------
# operator tree
# ---------------------------------------------------------------------------

class AlgebraNode:
    """Abstract relational-algebra operator."""


@dataclass(frozen=True)
class Scan(AlgebraNode):
    """Read a base table or a named view."""

    table: str


@dataclass(frozen=True)
class Constant(AlgebraNode):
    """An inline relation (schema + rows), e.g. a nominal's members."""

    schema: Schema
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class Select(AlgebraNode):
    """σ — keep the rows matching a predicate."""

    child: AlgebraNode
    predicate: Predicate


@dataclass(frozen=True)
class Project(AlgebraNode):
    """π — keep the named columns; optional duplicate elimination.

    With ``distinct=True`` (the default) duplicate rows are merged; if
    the projection carries the event column the duplicates' events are
    disjoined, implementing the probabilistic projection.
    """

    child: AlgebraNode
    columns: tuple[str, ...]
    distinct: bool = True


@dataclass(frozen=True)
class Join(AlgebraNode):
    """⋈ — equi-join; events of matched tuples are conjoined.

    ``on`` lists (left column, right column) pairs.  The result carries
    the left columns followed by the right columns minus the right join
    columns and minus the right event column (whose content is folded
    into the single result event).
    """

    left: AlgebraNode
    right: AlgebraNode
    on: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Union(AlgebraNode):
    """∪ — schema-compatible union; duplicate tuples' events disjoin."""

    left: AlgebraNode
    right: AlgebraNode


@dataclass(frozen=True)
class Difference(AlgebraNode):
    """− — probabilistic difference.

    A left tuple matched by an equal-data right tuple survives under
    ``left.event AND NOT right.event``; unmatched left tuples survive
    unchanged.  (With certain events this is classical set difference.)
    """

    left: AlgebraNode
    right: AlgebraNode


@dataclass(frozen=True)
class Rename(AlgebraNode):
    """ρ — rename columns."""

    child: AlgebraNode
    mapping: tuple[tuple[str, str], ...]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(database: "Database", node: AlgebraNode) -> Table:
    """Interpret an operator tree against a database.

    Returns a fresh :class:`Table` (never a live base table), so callers
    may mutate the result freely.
    """
    if isinstance(node, Scan):
        source = database.table(node.table)
        result = Table(source.name, source.schema)
        result.insert_many(source.rows)
        return result
    if isinstance(node, Constant):
        return Table("constant", node.schema, node.rows)
    if isinstance(node, Select):
        child = evaluate(database, node.child)
        node.predicate.validate(child.schema)
        result = Table("select", child.schema)
        result.insert_many(row for row in child if node.predicate.matches(child.schema, row))
        return result
    if isinstance(node, Project):
        child = evaluate(database, node.child)
        schema = child.schema.project(node.columns)
        positions = [child.schema.index_of(name) for name in node.columns]
        result = Table("project", schema)
        if node.distinct:
            result.insert_many(tuple(row[p] for p in positions) for row in child)
            if not schema.has_event_column:
                deduped = Table("project", schema)
                seen: set[tuple] = set()
                for row in result:
                    if row not in seen:
                        seen.add(row)
                        deduped.insert(row)
                return deduped
            return result
        result.insert_many(tuple(row[p] for p in positions) for row in child)
        return result
    if isinstance(node, Join):
        return _evaluate_join(database, node)
    if isinstance(node, Union):
        left = evaluate(database, node.left)
        right = evaluate(database, node.right)
        if left.schema != right.schema:
            raise QueryError(
                f"union of incompatible schemas {left.schema!r} and {right.schema!r}"
            )
        result = Table("union", left.schema)
        result.insert_many(left)
        result.insert_many(right)
        return result
    if isinstance(node, Difference):
        return _evaluate_difference(database, node)
    if isinstance(node, Rename):
        child = evaluate(database, node.child)
        return child.renamed(columns=dict(node.mapping))
    raise QueryError(f"cannot evaluate unknown algebra node {node!r}")


def _evaluate_join(database: "Database", node: Join) -> Table:
    left = evaluate(database, node.left)
    right = evaluate(database, node.right)
    for left_col, right_col in node.on:
        left.schema.index_of(left_col)
        right.schema.index_of(right_col)

    right_join_columns = {right_col for _l, right_col in node.on}
    left_has_event = left.schema.has_event_column
    right_has_event = right.schema.has_event_column

    kept_right = [
        column
        for column in right.schema
        if column.name not in right_join_columns and column.name != EVENT_COLUMN
    ]
    left_columns = [column for column in left.schema if column.name != EVENT_COLUMN]
    result_columns: list[Column] = list(left_columns) + list(kept_right)
    overlap = {c.name for c in left_columns} & {c.name for c in kept_right}
    if overlap:
        raise QueryError(f"join would duplicate columns {sorted(overlap)}; rename first")
    carries_event = left_has_event or right_has_event
    if carries_event:
        result_columns.append(Column(EVENT_COLUMN, ColumnType.EVENT))
    schema = Schema(result_columns)
    result = Table("join", schema)

    # Hash join on the right side.
    right_key_positions = [right.schema.index_of(right_col) for _l, right_col in node.on]
    buckets: dict[tuple, list[tuple]] = {}
    for row in right:
        buckets.setdefault(tuple(row[p] for p in right_key_positions), []).append(row)

    left_key_positions = [left.schema.index_of(left_col) for left_col, _r in node.on]
    left_event_position = left.schema.index_of(EVENT_COLUMN) if left_has_event else None
    right_event_position = right.schema.index_of(EVENT_COLUMN) if right_has_event else None
    left_data_positions = [left.schema.index_of(column.name) for column in left_columns]
    right_data_positions = [right.schema.index_of(column.name) for column in kept_right]

    for left_row in left:
        key = tuple(left_row[p] for p in left_key_positions)
        for right_row in buckets.get(key, ()):
            values = [left_row[p] for p in left_data_positions]
            values.extend(right_row[p] for p in right_data_positions)
            if carries_event:
                events = []
                if left_event_position is not None:
                    events.append(left_row[left_event_position])
                if right_event_position is not None:
                    events.append(right_row[right_event_position])
                values.append(conj(events))
            result.insert(tuple(values))
    return result


def _evaluate_difference(database: "Database", node: Difference) -> Table:
    left = evaluate(database, node.left)
    right = evaluate(database, node.right)
    if left.schema.data_names != right.schema.data_names:
        raise QueryError(
            f"difference of incompatible schemas {left.schema!r} and {right.schema!r}"
        )
    left_has_event = left.schema.has_event_column
    right_has_event = right.schema.has_event_column

    right_data_positions = [right.schema.index_of(name) for name in right.schema.data_names]
    right_event_position = right.schema.index_of(EVENT_COLUMN) if right_has_event else None
    matched: dict[tuple, EventExpr] = {}
    for row in right:
        key = tuple(row[p] for p in right_data_positions)
        event = row[right_event_position] if right_event_position is not None else ALWAYS
        existing = matched.get(key)
        matched[key] = event if existing is None else (existing | event)

    left_data_positions = [left.schema.index_of(name) for name in left.schema.data_names]
    left_event_position = left.schema.index_of(EVENT_COLUMN) if left_has_event else None
    result = Table("difference", left.schema)
    for row in left:
        key = tuple(row[p] for p in left_data_positions)
        right_event = matched.get(key)
        if right_event is None:
            result.insert(row)
            continue
        left_event = row[left_event_position] if left_event_position is not None else ALWAYS
        survival = conj([left_event, neg(right_event)])
        if survival.is_impossible:
            continue
        if left_event_position is None:
            # Left side is certain but the right event is uncertain: the
            # tuple survives with the residual event, so the result needs
            # an event column — disallow instead of silently widening.
            raise QueryError(
                "difference with uncertain right side requires an event column on the left"
            )
        values = list(row)
        values[left_event_position] = survival
        result.insert(tuple(values))
    return result


def union_all(nodes: Iterable[AlgebraNode]) -> AlgebraNode:
    """Left-deep union of several nodes (empty input is an error)."""
    nodes = list(nodes)
    if not nodes:
        raise QueryError("union_all of zero relations")
    tree = nodes[0]
    for node in nodes[1:]:
        tree = Union(tree, node)
    return tree
