"""Frozen request/response dataclasses for the ranking pipeline.

A :class:`RankRequest` names *what* to rank — a SQL query (the paper's
Section 5 pipeline), an explicit candidate list, graded IR scores, or
nothing at all (rank every member of the target concept) — plus
response shaping (``top_k``, ``explain``).  A :class:`RankResponse`
carries the ranked items, the raw SQL result when a query ran, the
explanation when asked for, and whether the preference view came from
the engine's cache.

A ranking is held as **columns** (:class:`RankedItems`): the ranked
rows of a name table beside the score vectors gathered in that order.
It reads as the ``Sequence[RankedItem]`` it always was — indexing,
slicing, iteration and equality with a tuple of items all work — but a
:class:`RankedItem` is only built when someone looks at one, which the
serving pipeline never does: it renders the columns directly.  The
columns are whatever the relevance backend produced — ndarrays for a
long numpy ranking, lists otherwise — and every value handed out is a
plain Python scalar either way.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from repro.errors import EngineError
from repro.perf.columns import NameTable, as_floats

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.reporting.tables import TextTable
    from repro.storage.sql import ResultSet

__all__ = ["RankRequest", "RankResponse", "RankedItem", "RankedItems"]


def _cell(column: Sequence, index: int):
    """One value of a column; an ndarray's as a Python scalar.  A list's
    value is handed out as it is (an int score stays an int)."""
    return column.item(index) if hasattr(column, "item") else column[index]


@dataclass(frozen=True)
class RankedItem:
    """One ranked document: headline score plus its two parts.

    ``query_dependent`` is ``None`` for query-independent requests (no
    query part existed, as opposed to it scoring zero).
    """

    document: str
    score: float
    preference: float
    query_dependent: float | None = None
    position: int = 0

    def __str__(self) -> str:
        parts = f"{self.document}: {self.score:.4f}"
        if self.query_dependent is not None:
            parts += f" (qd={self.query_dependent:.3f}, pref={self.preference:.3f})"
        return parts


class RankedItems(abc.Sequence):
    """A ranking as columns; a lazy ``Sequence[RankedItem]``.

    ``rows`` are the ranked rows of ``table`` (best first); ``scores``,
    ``preferences`` and ``dependents`` (``None`` when the request had
    no query part) are the backend's vectors *in that order* — position
    ``i + 1`` is row ``rows[i]``: read-only ndarrays for a numpy ranking
    of :data:`~repro.perf.columns.VECTOR_MIN` rows or more, lists
    otherwise.  Items, :meth:`documents` and
    :meth:`RankResponse.scores` hand out Python strs and floats either
    way.  Equal to the tuple of :class:`RankedItem` it stands for;
    slices are such tuples.
    """

    __slots__ = ("table", "rows", "scores", "preferences", "dependents")

    def __init__(
        self,
        table: NameTable,
        rows: Sequence[int],
        scores: Sequence[float],
        preferences: Sequence[float],
        dependents: Sequence[float] | None = None,
    ):
        self.table = table
        self.rows = rows
        self.scores = scores
        self.preferences = preferences
        self.dependents = dependents

    @classmethod
    def of(cls, items: Iterable[RankedItem]) -> "RankedItems":
        """Columns from ready-made items (kept in the order given,
        positions renumbered from 1)."""
        if isinstance(items, cls):
            return items
        items = list(items)
        dependents = [item.query_dependent for item in items]
        return cls(
            NameTable([item.document for item in items]),
            range(len(items)),
            [item.score for item in items],
            [item.preference for item in items],
            None if all(value is None for value in dependents) else dependents,
        )

    def documents(self) -> list[str]:
        """Document ids, best first."""
        names = self.table.names
        return [names[row] for row in self.rows]

    def _item(self, index: int) -> RankedItem:
        return RankedItem(
            self.table.names[self.rows[index]],
            _cell(self.scores, index),
            _cell(self.preferences, index),
            None if self.dependents is None else _cell(self.dependents, index),
            index + 1,
        )

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._item, range(*index.indices(len(self.rows)))))
        if index < 0:
            index += len(self.rows)
        if not 0 <= index < len(self.rows):
            raise IndexError("ranking index out of range")
        return self._item(index)

    def __iter__(self) -> Iterator[RankedItem]:
        return map(self._item, range(len(self.rows)))

    def __eq__(self, other) -> bool:
        if isinstance(other, (RankedItems, tuple, list)):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))  # equal to that tuple, so hashed like it

    def __reduce__(self):
        return (tuple, (tuple(self),))

    def __repr__(self) -> str:
        return f"RankedItems({list(self)!r})"


@dataclass(frozen=True)
class RankRequest:
    """One ranking request against a :class:`RankingEngine`.

    Parameters
    ----------
    query:
        A SQL query to run through the storage backend with the
        ``preferencescore`` column attached (the paper's pipeline).
    documents:
        Explicit candidate ids to rank (any iterable; stored as a
        tuple).  Without ``query`` and ``documents`` the engine ranks
        every member of its target concept.
    query_scores:
        Graded query-dependent scores (e.g. from an IR ranker), fed to
        the engine's relevance backend.  Mutually exclusive with
        ``query`` (a query *produces* its own scores).
    top_k:
        Truncate the response to the best ``top_k`` items.
    explain:
        Thread through to :mod:`repro.core.explain`: the response's
        ``explanation`` carries per-rule motivations for every item.
    """

    query: str | None = None
    documents: tuple[str, ...] | None = None
    query_scores: tuple[tuple[str, float], ...] | None = None
    top_k: int | None = None
    explain: bool = False

    def __post_init__(self) -> None:
        if self.documents is not None and not isinstance(self.documents, tuple):
            object.__setattr__(self, "documents", tuple(self.documents))
        if self.query_scores is not None:
            if isinstance(self.query_scores, Mapping):
                pairs = self.query_scores.items()
            else:
                pairs = (tuple(pair) for pair in self.query_scores)
            object.__setattr__(
                self,
                "query_scores",
                tuple(sorted((str(doc), float(score)) for doc, score in pairs)),
            )
        if self.query is not None and self.query_scores is not None:
            raise EngineError(
                "a request cannot carry both a SQL query and explicit query_scores"
            )
        if self.top_k is not None and self.top_k < 1:
            raise EngineError(f"top_k must be a positive integer, got {self.top_k!r}")

    @property
    def query_score_map(self) -> dict[str, float] | None:
        """``query_scores`` as a dict (None when absent)."""
        if self.query_scores is None:
            return None
        return dict(self.query_scores)


@dataclass(frozen=True)
class RankResponse:
    """The ranked answer to one :class:`RankRequest`.

    ``fingerprint`` is the engine's ``(knowledge epoch, view signature)``
    pair captured *inside* the rank critical section — the exact state
    this response was scored under.  Response caches key on it: two
    responses with equal fingerprints (same tenant engine) are
    byte-identical by construction, and any context, rule or knowledge
    change produces a new fingerprint.  ``None`` when the request
    bypassed the preference view (e.g. group relevance over an explicit
    candidate list) — such responses are not safely cacheable by state.
    """

    request: RankRequest
    items: Sequence[RankedItem]
    from_cache: bool = False
    explanation: str | None = None
    result: ResultSet | None = field(default=None, compare=False)
    fingerprint: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        # One representation downstream: ready-made items become columns.
        object.__setattr__(self, "items", RankedItems.of(self.items))

    def __iter__(self) -> Iterator[RankedItem]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def top(self) -> RankedItem | None:
        """The best item (None for an empty ranking)."""
        return self.items[0] if self.items else None

    def scores(self) -> dict[str, float]:
        """Headline scores keyed by document id."""
        return dict(zip(self.items.documents(), as_floats(self.items.scores)))

    def documents(self) -> list[str]:
        """Document ids, best first."""
        return self.items.documents()

    def to_table(self, names: Mapping[str, str] | None = None) -> TextTable:
        """Render through the shared :func:`repro.reporting.ranking_table`
        (loaded here: text tables are for the CLI and examples, no
        serving path renders one)."""
        from repro.reporting.tables import ranking_table

        return ranking_table(self.items, names=names)

    def render(self, names: Mapping[str, str] | None = None) -> str:
        """The ranking as aligned text (one code path with CLI/examples)."""
        return self.to_table(names=names).render()

