"""Query integration: ordering user query results by preference score.

Section 5: "we have to adapt the query results of the user by ordering
the tuples in the result, based on the probability from the big
preference view.  This is done by doing a union of the preference view
and the results of [the] query of the user, where the results are
ordered by the probabilities in the preference view. [...] in this
naive approach, the probability of the query-dependent part is either
1, if the tuple was contained in the user query, or 0 if it was not."

:class:`ContextAwareRanker` implements that naive integration (binary
query relevance times preference score) and, as the Section 6
"weighting of the query-independent and query-dependent part"
extension, a smoothed mixture with graded IR scores (see
:mod:`repro.ir.combine`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.database import Database
from repro.storage.sql import ResultSet, SqlSession
from repro.core.preference_view import PreferenceView
from repro.core.scoring import mix_scores  # its home; kept importable from here

__all__ = ["RankedDocument", "ContextAwareRanker", "mix_scores"]


@dataclass(frozen=True)
class RankedDocument:
    """A document with its final (combined) relevance."""

    document: str
    combined: float
    query_dependent: float
    preference: float

    def __str__(self) -> str:
        return f"{self.document}: {self.combined:.4f} (qd={self.query_dependent:.3f}, pref={self.preference:.3f})"


@dataclass
class ContextAwareRanker:
    """Combines the preference view with user queries.

    Parameters
    ----------
    view:
        The preference view (refreshed on demand).
    database:
        The database user queries run against.
    data_table / id_column:
        The table the paper's example query targets (``Programs``) and
        the column joining its rows to scored documents.
    """

    view: PreferenceView
    database: Database
    data_table: str
    id_column: str = "id"

    def session(self) -> SqlSession:
        """A SQL session with ``preferencescore`` attached."""
        session = SqlSession(self.database)
        self.view.attach_to_session(session, self.data_table, self.id_column)
        return session

    def execute(self, sql: str, refresh: bool = True) -> ResultSet:
        """Refresh the view and run a user query (the paper's pipeline)."""
        if refresh:
            self.view.refresh()
        return self.session().execute(sql)

    # -- ranking semantics ------------------------------------------------
    def rank_query_results(self, query_documents: list[str], refresh: bool = True) -> list[RankedDocument]:
        """The paper's naive union: binary query relevance x preference.

        Documents in the query result carry query-dependent probability
        1 and are ordered by preference score; everything else scores 0
        and is omitted.
        """
        if refresh:
            self.view.refresh()
        ranked = []
        in_query = set(query_documents)
        for score in self.view.ranking():
            if score.document in in_query:
                ranked.append(
                    RankedDocument(score.document, score.value, 1.0, score.value)
                )
        return ranked

    def rank_mixed(
        self,
        query_scores: dict[str, float],
        mixing_weight: float = 0.5,
        refresh: bool = True,
    ) -> list[RankedDocument]:
        """Section 6 extension: smooth the two parts instead of gating.

        ``combined = qd^lambda * pref^(1-lambda)`` (log-linear mixture);
        ``mixing_weight`` = lambda is the weight of the query-dependent
        part.  The boundaries are exact: ``mixing_weight=1`` is pure IR
        (documents absent from ``query_scores`` score 0), ``0`` is pure
        context (``query_scores`` is ignored entirely).  See
        :func:`mix_scores` for the full boundary semantics.
        """
        if not 0.0 <= mixing_weight <= 1.0:
            raise ValueError(f"mixing weight must be in [0, 1], got {mixing_weight!r}")
        if refresh:
            self.view.refresh()
        ranked = []
        for score in self.view.ranking():
            query_dependent = query_scores.get(score.document, 0.0)
            combined = mix_scores(query_dependent, score.value, mixing_weight)
            ranked.append(RankedDocument(score.document, combined, query_dependent, score.value))
        ranked.sort(key=lambda r: (-r.combined, r.document))
        return ranked
