"""Low-level performance helpers behind the scoring kernel.

:mod:`repro.perf.backend` picks the numeric backend — numpy when it is
importable (and not overridden), a pure-python fallback otherwise —
:mod:`repro.perf.flatops` holds the flat-array loops that fallback runs
on, and :mod:`repro.perf.columns` the name tables and the one
order/truncate step that turn a score vector into a ranking.  Nothing
in here knows about rules, documents or events: the kernel
(:mod:`repro.core.kernel`) compiles the scoring problem down to the
coefficient arrays these helpers consume.
"""

from repro.perf.backend import (
    BACKEND_ENV,
    BACKENDS,
    backend_name,
    numpy_or_none,
    reset_backend,
    resolve_backend,
)
from repro.perf.columns import NameTable, ScoreColumn, rank_columns
from repro.perf.flatops import (
    batch_row_scores,
    log_linear_rows,
    row_scores,
    topk_survivors,
)

__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "NameTable",
    "ScoreColumn",
    "backend_name",
    "batch_row_scores",
    "log_linear_rows",
    "numpy_or_none",
    "rank_columns",
    "reset_backend",
    "resolve_backend",
    "row_scores",
    "topk_survivors",
]
