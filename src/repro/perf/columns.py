"""Columnar building blocks of the rank path: name tables and ordering.

A ranking is a score vector plus an order over it.  The kernel already
produces the vector; this module holds what turns it into a ranking
without building one Python object per document:

* :class:`NameTable` — the per-candidate-set lookup tables every view
  over the set shares: ``name -> row``, the rows in name order (the
  tie-break of every ranking in the library) and the JSON encoding of
  each name (also as an object array a numpy ranking gathers from).
  All are built lazily, on first use, and never at start-up.
* :class:`ScoreColumn` — a read-only ``Mapping[str, float]`` over a
  table and an aligned float vector: what a relevance backend receives
  as its preference scores.
* :func:`rank_columns` — *the* order/truncate step: rows by score
  descending, ties by name ascending, cut at ``k``, and the columns
  gathered in that order.  numpy (one stable ``argsort`` over the
  name-ordered rows; for ``k`` under the row count, over only the rows
  a ``partition`` finds not worse than the k-th best) when the table
  was compiled for it, a stable ``sorted`` otherwise; both agree with
  ``sorted(..., key=lambda e: (-score, name))`` exactly.  A numpy
  ranking of :data:`VECTOR_MIN` rows or more stays in read-only
  ndarrays all the way to the rendered body; a shorter one (every small
  top-k) comes back as lists, by the same size rule as the compile.
"""

from __future__ import annotations

from collections import abc
from json.encoder import encode_basestring_ascii
from typing import Iterator, Sequence

__all__ = ["NameTable", "ScoreColumn", "VECTOR_MIN", "as_floats", "rank_columns"]

#: The one size threshold of the numeric backend: a candidate set of
#: fewer rows compiles, scores and ranks on flat lists, a longer one on
#: numpy (:func:`repro.perf.backend.resolve_backend` applies it at
#: compile and snapshot-restore time, the helpers below at rank time).
#: Below it the flat-list loops win: a numpy call costs a few
#: microseconds however short the array, and sorts and gathers drop the
#: GIL — under a serving fleet's threads every such hand-off can park a
#: four-document rank behind another request.  And a worker whose every
#: matrix is that short never imports numpy at all: 0.14 s of cold start
#: and 12-16 MB of resident memory the paper's four-program running
#: example has no use for.  The ledger keeps a workload on either side
#: (tvtouch: 4 rows; Section 5: 2 000).
VECTOR_MIN = 64


def as_floats(vector) -> list[float]:
    """A score vector (ndarray or sequence) as a fresh list of Python floats."""
    return vector.tolist() if hasattr(vector, "tolist") else list(vector)


class NameTable:
    """Lazily built lookup tables over one tuple of document names.

    ``np`` is the numpy module the owning candidate set was compiled
    against, or ``None`` on the flat-list backend; it decides the type
    of :attr:`by_name` (and with it which :func:`rank_columns` branch
    runs).  Tables under :data:`VECTOR_MIN` rows always take the
    flat-list branch.  Lazy builds race benignly: every builder computes the same
    value and the assignment is atomic.
    """

    __slots__ = ("names", "np", "_rows", "_by_name", "_json_names", "_json_name_array")

    def __init__(self, names: Sequence[str], np=None):
        self.names = names if isinstance(names, tuple) else tuple(names)
        self.np = np if len(self.names) >= VECTOR_MIN else None
        self._rows: dict[str, int] | None = None
        self._by_name = None
        self._json_names: tuple[str, ...] | None = None
        self._json_name_array = None

    @property
    def rows(self) -> dict[str, int]:
        """``name -> row``."""
        rows = self._rows
        if rows is None:
            rows = dict(zip(self.names, range(len(self.names))))
            self._rows = rows
        return rows

    @property
    def by_name(self):
        """Every row, in ascending name order (intp array or list)."""
        order = self._by_name
        if order is None:
            order = sorted(range(len(self.names)), key=self.names.__getitem__)
            if self.np is not None:
                order = self.np.array(order, dtype=self.np.intp)
                order.setflags(write=False)
            self._by_name = order
        return order

    @property
    def json_names(self) -> tuple[str, ...]:
        """Each name as a JSON string literal, in row order."""
        encoded = self._json_names
        if encoded is None:
            encoded = tuple(map(encode_basestring_ascii, self.names))
            self._json_names = encoded
        return encoded

    @property
    def json_name_array(self):
        """:attr:`json_names` as a read-only object array (numpy tables only):
        a ranking's names are one ``take`` on it."""
        encoded = self._json_name_array
        if encoded is None:
            encoded = self.np.array(self.json_names, dtype=object)
            encoded.setflags(write=False)
            self._json_name_array = encoded
        return encoded


class ScoreColumn(abc.Mapping):
    """``{name: score}`` read straight off a table and an aligned vector."""

    __slots__ = ("table", "vector")

    def __init__(self, table: NameTable, vector):
        self.table = table
        self.vector = vector

    def __getitem__(self, name: str) -> float:
        return float(self.vector[self.table.rows[name]])

    def __contains__(self, name: object) -> bool:
        return name in self.table.rows

    def __iter__(self) -> Iterator[str]:
        return iter(self.table.names)

    def __len__(self) -> int:
        return len(self.table.names)


def rank_columns(
    table: NameTable,
    scores,
    others: Sequence = (),
    k: int | None = None,
    keep: Sequence[int] | None = None,
) -> tuple[Sequence[int], Sequence[float], list[Sequence[float]]]:
    """Rank the rows of ``table`` and gather the columns in that order.

    The order is score descending, name ascending; ``keep`` restricts
    it to those rows and ``k`` truncates it.  ``scores`` and every
    vector in ``others`` are aligned with the table's rows (ndarray or
    sequence).  Returns the ranked rows, then ``scores`` and each of
    ``others`` gathered best-first: read-only ndarrays (``intp`` rows,
    ``float64`` columns) when a numpy table ranks :data:`VECTOR_MIN`
    rows or more, plain lists otherwise.

    Sorting the *name-ordered* rows stably by descending score is the
    library's total order — no per-row key tuples are built.
    """
    np = table.np
    if np is not None:
        ranked = table.by_name
        if keep is not None:
            mask = np.zeros(len(table.names), dtype=bool)
            mask[keep] = True
            ranked = ranked[mask[ranked]]
        scores = np.asarray(scores, dtype=np.float64)
        negated = -scores[ranked]
        if k is not None and 0 < k < len(ranked):
            # Selection before the sort: only the rows not worse than
            # the k-th best can make the cut, ties with it included, so
            # the stable sort of those rows cut at k is the full sort
            # cut at k.  A NaN bound (fewer than k numbers) keeps every
            # row; NaN rows kept beside a number bound sort last.
            bound = np.partition(negated, k - 1)[k - 1]
            contenders = ~(negated > bound)
            ranked = ranked[contenders]
            negated = negated[contenders]
        ranked = ranked[np.argsort(negated, kind="stable")]
        if k is not None:
            ranked = ranked[:k]
        scores = scores[ranked]
        gathered = [np.asarray(other, dtype=np.float64)[ranked] for other in others]
        if len(ranked) < VECTOR_MIN:  # a short cut: lists, as on the flat branch
            return ranked.tolist(), scores.tolist(), [other.tolist() for other in gathered]
        for column in (ranked, scores, *gathered):
            column.setflags(write=False)
        return ranked, scores, gathered
    if keep is None:
        rows = table.by_name
    else:
        rows = sorted(keep, key=table.names.__getitem__)
    # A short numpy-compiled set lands here with ndarray columns.
    scores = as_floats(scores) if hasattr(scores, "tolist") else scores
    others = [as_floats(other) if hasattr(other, "tolist") else other for other in others]
    negated = [-score for score in scores]
    rows = sorted(rows, key=negated.__getitem__)
    if k is not None:
        rows = rows[:k]
    return (
        rows,
        [scores[row] for row in rows],
        [[other[row] for row in rows] for other in others],
    )
