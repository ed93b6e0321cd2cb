"""In-memory tables of tuples, with event-aware duplicate merging.

A :class:`Table` is an ordered bag of rows conforming to a
:class:`~repro.storage.schema.Schema`.  Tables whose schema carries an
event column treat the *data* columns as the logical key: inserting a
row whose data columns equal an existing row's merges the two by
disjoining their event expressions (two derivations of the same tuple),
mirroring how the paper's views accumulate evidence for a tuple.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.errors import SchemaError
from repro.events.expr import EventExpr, disj
from repro.storage.schema import EVENT_COLUMN, Schema

__all__ = ["Table"]


class Table:
    """A named relation: a schema plus rows.

    Parameters
    ----------
    name:
        Table name (used by scans, error messages and the SQL layer).
    schema:
        The table's schema.
    rows:
        Optional initial rows (validated and merged like inserts).
    """

    def __init__(self, name: str, schema: Schema, rows: Iterable[tuple] = ()):
        self.name = name
        self.schema = schema
        self._rows: list[tuple] = []
        self._merge_index: dict[tuple, int] | None = {} if schema.has_event_column else None
        for row in rows:
            self.insert(row)

    # -- mutation -----------------------------------------------------
    def insert(self, row: tuple | list) -> None:
        """Insert a row; merges events with an existing equal-data row."""
        row = tuple(row)
        self.schema.validate_row(row)
        if self._merge_index is None:
            self._rows.append(row)
            return
        event_position = self.schema.index_of(EVENT_COLUMN)
        key = tuple(value for position, value in enumerate(row) if position != event_position)
        existing_position = self._merge_index.get(key)
        if existing_position is None:
            self._merge_index[key] = len(self._rows)
            self._rows.append(row)
            return
        existing = self._rows[existing_position]
        merged_event = disj([existing[event_position], row[event_position]])
        merged = list(existing)
        merged[event_position] = merged_event
        self._rows[existing_position] = tuple(merged)

    def insert_many(self, rows: Iterable[tuple | list]) -> None:
        """Insert several rows."""
        for row in rows:
            self.insert(row)

    # -- access ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows)

    @property
    def rows(self) -> list[tuple]:
        """A copy of the row list (mutating it does not affect the table)."""
        return list(self._rows)

    def column_values(self, name: str) -> list:
        """All values of one column, in row order."""
        position = self.schema.index_of(name)
        return [row[position] for row in self._rows]

    def row_dict(self, row: tuple) -> dict[str, object]:
        """View one row as a column-name-to-value mapping."""
        return dict(zip(self.schema.names, row))

    def iter_dicts(self) -> Iterator[dict[str, object]]:
        """Iterate rows as dictionaries."""
        for row in self._rows:
            yield self.row_dict(row)

    def event_of(self, **key_columns) -> EventExpr | None:
        """Event of the row matching the given data-column values.

        Only meaningful on tables with an event column; returns ``None``
        when no row matches.
        """
        if not self.schema.has_event_column:
            raise SchemaError(f"table {self.name!r} has no event column")
        event_position = self.schema.index_of(EVENT_COLUMN)
        positions = {name: self.schema.index_of(name) for name in key_columns}
        for row in self._rows:
            if all(row[pos] == key_columns[name] for name, pos in positions.items()):
                return row[event_position]
        return None

    def renamed(self, name: str | None = None, columns: Mapping[str, str] | None = None) -> "Table":
        """A copy with a new table name and/or renamed columns."""
        new_schema = self.schema.rename(columns) if columns else self.schema
        table = Table(name or self.name, new_schema)
        table._rows = list(self._rows)
        if table._merge_index is not None and self._merge_index is not None:
            table._merge_index = dict(self._merge_index)
        return table

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {self.schema!r}, rows={len(self)})"
