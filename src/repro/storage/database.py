"""The database: base tables, virtual views, and the DL table conventions.

Per the paper's naive implementation, "we view each concept as a table,
which uses the concept name as the table name and has an ID attribute
and an event expression attribute.  Similarly, we view each role as a
table [...] containing three attributes; SOURCE, DESTINATION, and an
event expression."  This module provides exactly those conventions on
top of the generic table/algebra machinery, plus:

* a domain table (``Individuals``) used to evaluate complements;
* virtual views (stored operator trees, re-evaluated on access) — the
  mechanism by which scores follow the developing context;
* an ABox loader that materialises an ABox into concept/role tables,
  giving the "uniform tabular view towards both static and dynamic
  contexts" of Section 5.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_module
from repro.errors import StorageError, UnknownTableError
from repro.events.expr import ALWAYS
from repro.dl.abox import ABox
from repro.dl.vocabulary import ConceptName, RoleName
from repro.storage.schema import EVENT_COLUMN, Column, ColumnType, Schema
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.storage.algebra import AlgebraNode

#: The algebra interpreter, loaded with the first operator tree evaluated:
#: a database of base tables (every served world) never needs it.
_algebra = lazy_module("repro.storage.algebra")

__all__ = [
    "Database",
    "CONCEPT_TABLE_PREFIX",
    "ROLE_TABLE_PREFIX",
    "INDIVIDUALS_TABLE",
    "concept_table_name",
    "role_table_name",
    "concept_schema",
    "role_schema",
]

CONCEPT_TABLE_PREFIX = "concept_"
ROLE_TABLE_PREFIX = "role_"
INDIVIDUALS_TABLE = "Individuals"


def concept_table_name(concept: str | ConceptName) -> str:
    """Name of the table holding one concept's members."""
    name = concept.name if isinstance(concept, ConceptName) else concept
    return f"{CONCEPT_TABLE_PREFIX}{name}"


def role_table_name(role: str | RoleName) -> str:
    """Name of the table holding one role's pairs."""
    name = role.name if isinstance(role, RoleName) else role
    return f"{ROLE_TABLE_PREFIX}{name}"


def concept_schema() -> Schema:
    """``(id TEXT, event EVENT)``."""
    return Schema([Column("id", ColumnType.TEXT), Column(EVENT_COLUMN, ColumnType.EVENT)])


def role_schema() -> Schema:
    """``(source TEXT, destination TEXT, event EVENT)``."""
    return Schema(
        [
            Column("source", ColumnType.TEXT),
            Column("destination", ColumnType.TEXT),
            Column(EVENT_COLUMN, ColumnType.EVENT),
        ]
    )


class Database:
    """A named collection of base tables and virtual views.

    Examples
    --------
    >>> from repro.storage import Database
    >>> db = Database()
    >>> table = db.create_concept_table("TvProgram")
    >>> table.insert(("oprah", ALWAYS))
    >>> len(db.table("concept_TvProgram"))
    1
    """

    def __init__(self, name: str = "db"):
        self.name = name
        self._tables: dict[str, Table] = {}
        self._views: dict[str, AlgebraNode] = {}

    # -- base tables ------------------------------------------------------
    def create_table(self, name: str, schema: Schema) -> Table:
        """Create an empty base table; the name must be unused."""
        self._check_fresh(name)
        table = Table(name, schema)
        self._tables[name] = table
        return table

    def add_table(self, table: Table) -> Table:
        """Register an existing table object under its own name."""
        self._check_fresh(table.name)
        self._tables[table.name] = table
        return table

    def create_concept_table(self, concept: str | ConceptName) -> Table:
        """Create the ``(id, event)`` table for a concept name."""
        return self.create_table(concept_table_name(concept), concept_schema())

    def create_role_table(self, role: str | RoleName) -> Table:
        """Create the ``(source, destination, event)`` table for a role."""
        return self.create_table(role_table_name(role), role_schema())

    def ensure_concept_table(self, concept: str | ConceptName) -> Table:
        name = concept_table_name(concept)
        if name not in self._tables:
            return self.create_concept_table(concept)
        return self._tables[name]

    def ensure_role_table(self, role: str | RoleName) -> Table:
        name = role_table_name(role)
        if name not in self._tables:
            return self.create_role_table(role)
        return self._tables[name]

    def ensure_individuals_table(self) -> Table:
        if INDIVIDUALS_TABLE not in self._tables:
            return self.create_table(INDIVIDUALS_TABLE, concept_schema())
        return self._tables[INDIVIDUALS_TABLE]

    def _check_fresh(self, name: str) -> None:
        if name in self._tables or name in self._views:
            raise StorageError(f"table or view {name!r} already exists")

    # -- views ------------------------------------------------------------
    def create_view(self, name: str, definition: AlgebraNode) -> None:
        """Register a virtual view (re-evaluated on every access)."""
        self._check_fresh(name)
        self._views[name] = definition

    def drop_view(self, name: str) -> None:
        if name not in self._views:
            raise UnknownTableError(f"no view named {name!r}")
        del self._views[name]

    # -- resolution ---------------------------------------------------
    def table(self, name: str) -> Table:
        """Resolve a name to a base table or an evaluated view."""
        base = self._tables.get(name)
        if base is not None:
            return base
        view = self._views.get(name)
        if view is not None:
            result = _algebra().evaluate(self, view)
            return result.renamed(name=name)
        raise UnknownTableError(f"no table or view named {name!r} in database {self.name!r}")

    def has_base_table(self, name: str) -> bool:
        return name in self._tables

    def evaluate(self, node: AlgebraNode) -> Table:
        """Evaluate an operator tree against this database."""
        return _algebra().evaluate(self, node)

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._tables))

    def total_rows(self) -> int:
        """Total number of base-table rows (the paper's "tuples")."""
        return sum(len(table) for table in self._tables.values())

    # -- ABox synchronisation ------------------------------------------
    def load_abox(self, abox: ABox, refresh: bool = False) -> None:
        """Materialise an ABox into concept/role/domain tables.

        With ``refresh=True`` existing concept/role/domain tables are
        cleared first, so the loader can be called after every context
        update (the "uniform tabular view" over dynamic context).
        """
        if refresh:
            for name, table in list(self._tables.items()):
                if name == INDIVIDUALS_TABLE or name.startswith(CONCEPT_TABLE_PREFIX) or name.startswith(ROLE_TABLE_PREFIX):
                    self._tables[name] = Table(name, table.schema)
        individuals = self.ensure_individuals_table()
        present = set(individuals.column_values("id"))
        for individual in sorted(abox.individuals, key=lambda ind: ind.name):
            if individual.name not in present:
                individuals.insert((individual.name, ALWAYS))
        for assertion in abox.concept_assertions():
            table = self.ensure_concept_table(assertion.concept)
            table.insert((assertion.individual.name, assertion.event))
        for assertion in abox.role_assertions():
            table = self.ensure_role_table(assertion.role)
            table.insert((assertion.source.name, assertion.target.name, assertion.event))

    def __repr__(self) -> str:
        return (
            f"Database({self.name!r}, tables={len(self._tables)}, "
            f"views={len(self._views)}, rows={self.total_rows()})"
        )
