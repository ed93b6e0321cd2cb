"""The "big preference view": per-tuple scores as a database relation.

Section 5: "to calculate the probability P(D=d|U=u_sit) for each tuple,
we use the formula from Section 3.3 to provide a big preference view.
This view contains all preferred tuples together with the probabilities
that they are ideal based on the current context and preference rules
in the repository.  The nice part of having such a view is that, as the
current context develops, the probabilities of containment of tuples in
the view changes accordingly."

:class:`PreferenceView` holds ``id -> preferencescore`` for the members
of a target concept and refreshes on demand (typically after a context
refresh).  It is never written into the database as a table: it plugs
into the SQL layer as the provider of the ``preferencescore`` virtual
column, so the paper's introduction query runs verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.dl.concepts import Concept
from repro.core.kernel import score_values
from repro.core.scorer import ContextAwareScorer
from repro.core.scoring import DocumentScore

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.storage.sql import SqlSession

__all__ = ["PreferenceView"]


@dataclass
class PreferenceView:
    """Maintains the scored view over a target concept's members.

    Parameters
    ----------
    scorer:
        The context-aware scorer to draw probabilities from.
    target:
        The concept whose members are scored (e.g. ``TvProgram``).
    """

    scorer: ContextAwareScorer
    target: Concept
    #: The scored view as last refreshed or loaded: an immutable
    #: :class:`~repro.core.kernel.ScoredView` on the kernel path (held
    #: by reference, never copied), a plain dict on the oracle paths.
    _scores: Mapping[str, DocumentScore] = field(default_factory=dict, repr=False)

    def refresh(self) -> dict[str, float]:
        """Recompute every member's score against the current context."""
        self._scores = self.scorer.score_view(self.scorer.member_names(self.target))
        return score_values(self._scores)

    def load_scores(self, scores: Mapping[str, DocumentScore]) -> None:
        """Install externally computed scores without rescoring.

        Used by the engine's preference-view cache: on a context
        signature the view has already been refreshed under, the cached
        scored view is loaded back instead of recomputed.  The mapping
        is held by reference (scored views are immutable) — callers
        must not mutate it afterwards.
        """
        self._scores = scores

    # -- lookups ----------------------------------------------------------
    def scored_view(self) -> Mapping[str, DocumentScore]:
        """The last refreshed scored view itself (read-only, no copy)."""
        return self._scores

    def ranking(self) -> list[DocumentScore]:
        """Last refreshed ranking, best first."""
        return sorted(self._scores.values(), key=lambda s: (-s.value, s.document))

    # -- SQL integration --------------------------------------------------
    def attach_to_session(
        self,
        session: SqlSession,
        data_table: str,
        id_column: str = "id",
        column: str = "preferencescore",
    ) -> None:
        """Register ``preferencescore`` as a virtual column on a table.

        Rows of ``data_table`` are matched to scored documents through
        ``id_column``; unmatched rows score 0.0 (they are never the
        ideal document).
        """

        def provider(row: dict[str, object]) -> float:
            key = row.get(id_column)
            score = self._scores.get(str(key)) if key is not None else None
            return score.value if score is not None else 0.0

        session.register_virtual_column(data_table, column, provider)
