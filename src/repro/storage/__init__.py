"""Probabilistic relational storage (S3).

The paper's naive implementation substrate: tables with event-expression
columns, the Fuhr–Roelleke probabilistic relational algebra, virtual
views, the DL-concept-to-view compiler, a mini SQL front end able to run
the paper's introduction query verbatim, and an sqlite3 backend whose
views perform event propagation inside real SQL.
"""

from repro._lazy import lazy_exports as _lazy_exports

#: Where each public name lives; a name's module loads on first use
#: (``Database`` and ``Table`` do not drag the SQL front end or sqlite3 in).
__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.storage.algebra": (
            "AlgebraNode",
            "AndPredicate",
            "ColumnComparison",
            "Comparison",
            "Constant",
            "Difference",
            "Join",
            "NotPredicate",
            "OrPredicate",
            "Predicate",
            "Project",
            "Rename",
            "Scan",
            "Select",
            "Union",
            "evaluate",
            "union_all",
        ),
        "repro.storage.database": (
            "CONCEPT_TABLE_PREFIX",
            "INDIVIDUALS_TABLE",
            "ROLE_TABLE_PREFIX",
            "Database",
            "concept_schema",
            "concept_table_name",
            "role_schema",
            "role_table_name",
        ),
        "repro.storage.mapping": ("compile_concept", "create_concept_view"),
        "repro.storage.optimizer": ("explain_plan", "optimize", "schema_of"),
        "repro.storage.schema": ("EVENT_COLUMN", "Column", "ColumnType", "Schema"),
        "repro.storage.sql": ("ResultSet", "SelectStatement", "SqlSession", "parse_sql"),
        "repro.storage.sqlite_backend": ("SqliteBackend",),
        "repro.storage.table": ("Table",),
    },
)
