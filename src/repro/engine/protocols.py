"""Backend protocols: the seams the :class:`RankingEngine` plugs into.

The facade composes four ``typing.Protocol``-typed backends, in the
style of production contextual rankers (one ranker object over
protocol-typed engagement/prior/ml backends):

* :class:`ContextBackend` — where the current context comes from and,
  crucially, *when it changed*: its :meth:`~ContextBackend.signature`
  keys the engine's preference-view memoization.
* :class:`PreferenceBackend` — where the scored preference rules come
  from; its :meth:`~PreferenceBackend.fingerprint` invalidates the
  cache when rules change.
* :class:`StorageBackend` — how user SQL runs with the
  ``preferencescore`` column attached (Section 5's pipeline).
* :class:`RelevanceBackend` — how the query-dependent and
  query-independent parts combine into one ranking (the paper's naive
  union, the Section 6 smoothed mixture, the IR log-linear mixture, or
  the multi-user group aggregation).

Anything structurally conforming works — no inheritance required.
Default implementations live in :mod:`repro.engine.backends` and
:mod:`repro.engine.relevance`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Mapping, Protocol, Sequence, runtime_checkable

from repro.rules.repository import RuleRepository

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.preference_view import PreferenceView
    from repro.engine.requests import RankedItem
    from repro.storage.sql import ResultSet

__all__ = [
    "ContextBackend",
    "PreferenceBackend",
    "StorageBackend",
    "RelevanceBackend",
]


@runtime_checkable
class ContextBackend(Protocol):
    """Supplies the situated user's current context."""

    def signature(self) -> Hashable:
        """A hashable token identifying the current context state.

        Two calls return equal signatures iff the context is unchanged;
        the engine memoizes the preference view per signature.
        """
        ...

    def refresh(self) -> None:
        """Bring the context up to date (may be a no-op for static contexts)."""
        ...


@runtime_checkable
class PreferenceBackend(Protocol):
    """Supplies the scored preference rules."""

    def repository(self) -> RuleRepository:
        """The current rule repository."""
        ...

    def fingerprint(self) -> Hashable:
        """A hashable token over the rule set; changes when rules change."""
        ...


@runtime_checkable
class StorageBackend(Protocol):
    """Runs user SQL against the data with the preference view attached."""

    def execute(self, sql: str, view: "PreferenceView") -> ResultSet:
        """Execute ``sql`` with ``preferencescore`` resolvable from ``view``."""
        ...

    def document_ids(self, result: ResultSet) -> list[str] | None:
        """Extract ranked-document ids from a query result.

        Returns ``None`` when the result carries no identifying column
        (the engine then answers with the raw result only, since the
        query's filter cannot be mapped back onto ranked items).
        """
        ...


@runtime_checkable
class RelevanceBackend(Protocol):
    """Combines preference scores with query-dependent scores."""

    def combine(
        self,
        preference_scores: Mapping[str, float],
        query_scores: Mapping[str, float] | None,
        documents: Sequence[str],
    ) -> "Sequence[RankedItem]":
        """Rank ``documents`` given both score maps.

        ``query_scores`` is ``None`` for query-independent requests
        (rank purely by context).  Implementations return items sorted
        best-first — any sequence of
        :class:`~repro.engine.requests.RankedItem`; the built-in
        strategies return the columnar
        :class:`~repro.engine.requests.RankedItems`, and the engine
        turns anything else into one.

        For the whole-target request ``preference_scores`` is a
        :class:`~repro.perf.columns.ScoreColumn` (a read-only mapping
        over the kernel's score vector) and ``documents`` is its name
        tuple; a backend that only uses the mapping surface never needs
        to know.

        Backends may additionally implement the optional
        ``combine_top_k(preference_scores, query_scores, documents, k)``.
        When present, the engine calls it for top-k requests instead of
        slicing ``combine``'s full ranking; it must return exactly
        ``combine(...)[:k]`` (same order, positions and tie-breaks).
        """
        ...
