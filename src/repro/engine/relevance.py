"""Relevance strategies: how the two relevance parts become one ranking.

Equation (3) factors document relevance into a query-dependent part
``P(Q=q | D=d, U=u_sit)`` and the context-aware, query-independent part
``P(D=d | U=u_sit)``.  Each strategy here is a
:class:`~repro.engine.protocols.RelevanceBackend` plugin combining the
two:

* :class:`GatedRelevance` — the paper's Section 5 naive union (binary
  query relevance gates; preference orders);
* :class:`MixedRelevance` — the Section 6 smoothed power mixture
  (:func:`repro.core.scoring.mix_scores`, with exact λ boundaries);
* :class:`LogLinearRelevance` — the IR log-linear mixture, porting
  :func:`repro.ir.combined_ranking` into the engine;
* :class:`GroupRelevance` — the Section 6 multi-user extension,
  porting :class:`repro.multiuser.GroupRanker` into the engine: the
  preference part becomes the group-aggregated score.

Strategies resolve by name through :func:`resolve_relevance`, so
builders and config files can say ``"mixed"`` and engines can swap
strategies without touching the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.scoring import mix_scores
from repro.errors import EngineConfigError
from repro.perf.backend import resolve_backend
from repro.perf.columns import VECTOR_MIN, NameTable, ScoreColumn, as_floats, rank_columns
from repro.perf.flatops import LOG_FLOOR, log_linear_rows
from repro.engine.requests import RankedItems

if TYPE_CHECKING:  # pragma: no cover - types only; the engine does not load multiuser
    from repro.multiuser.group import GroupRanker

__all__ = [
    "GatedRelevance",
    "MixedRelevance",
    "LogLinearRelevance",
    "GroupRelevance",
    "RELEVANCE_STRATEGIES",
    "resolve_relevance",
]


def _gated(table: NameTable, preferences, dependents: list[float], k: int | None):
    """The naive union: query results carry probability 1 and are
    ordered by preference; everything else scores 0 and is omitted."""
    keep = [row for row, dependent in enumerate(dependents) if dependent > 0.0]
    rows, scores, _ = rank_columns(table, preferences, k=k, keep=keep)
    return RankedItems(table, rows, scores, scores, [1.0] * len(rows))


class _ColumnarRelevance:
    """What every strategy shares: columns in, one order/truncate step out.

    A strategy is its element-wise headline formula over the
    (preference, query-dependent) columns — :meth:`_mixture` — and
    nothing else.  Without a query part the headline *is* the
    preference column.  ``combine_top_k`` is the same ranking cut at
    ``k`` (:func:`repro.perf.columns.rank_columns` orders and
    truncates), so it equals ``combine(...)[:k]`` by construction.
    """

    def _preferences(self, preference_scores: Mapping[str, float], documents):
        """``(name table, aligned preference vector)`` for ``documents``.

        When ``documents`` is the very name tuple of the preference
        column (the whole-target request) the kernel's vector is used
        as it is — no per-document lookup."""
        if (
            isinstance(preference_scores, ScoreColumn)
            and documents is preference_scores.table.names
        ):
            return preference_scores.table, preference_scores.vector
        table = NameTable(documents)
        get = preference_scores.get
        return table, [get(name, 0.0) for name in table.names]

    def _mixture(self, dependents: list[float], preferences: Sequence[float]) -> list[float]:
        """Headline scores from the two aligned columns."""
        raise NotImplementedError

    def _with_query(self, table: NameTable, preferences, dependents: list[float], k):
        scores = self._mixture(dependents, as_floats(preferences))
        rows, scores, (preferences, dependents) = rank_columns(
            table, scores, (preferences, dependents), k=k
        )
        return RankedItems(table, rows, scores, preferences, dependents)

    def _rank(self, preference_scores, query_scores, documents, k: int | None):
        table, preferences = self._preferences(preference_scores, documents)
        if query_scores is None:
            rows, scores, _ = rank_columns(table, preferences, k=k)
            return RankedItems(table, rows, scores, scores)
        get = query_scores.get
        dependents = [get(name, 0.0) for name in table.names]
        return self._with_query(table, preferences, dependents, k)

    def combine(
        self,
        preference_scores: Mapping[str, float],
        query_scores: Mapping[str, float] | None,
        documents: Sequence[str],
    ) -> RankedItems:
        return self._rank(preference_scores, query_scores, documents, None)

    def combine_top_k(
        self,
        preference_scores: Mapping[str, float],
        query_scores: Mapping[str, float] | None,
        documents: Sequence[str],
        k: int,
    ) -> RankedItems:
        """``combine(...)[:k]``: the same order, truncated."""
        return self._rank(preference_scores, query_scores, documents, k)


@dataclass(frozen=True)
class GatedRelevance(_ColumnarRelevance):
    """The paper's naive union: binary query relevance × preference.

    Documents in the query result carry query-dependent probability 1
    and are ordered by preference score; everything else scores 0 and
    is omitted.  Without a query part, this is the pure preference
    ranking.
    """

    name: str = field(default="gated", init=False)

    def _with_query(self, table, preferences, dependents, k):
        return _gated(table, preferences, dependents, k)


@dataclass(frozen=True)
class MixedRelevance(_ColumnarRelevance):
    """Section 6 smoothing: ``combined = qd^λ · pref^(1-λ)``.

    Uses :func:`repro.core.scoring.mix_scores`, so the λ = 0 (pure
    context) and λ = 1 (pure IR) boundaries are exact.  Query-less
    requests fall back to the pure preference ranking.
    """

    mixing_weight: float = 0.5
    name: str = field(default="mixed", init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.mixing_weight <= 1.0:
            raise EngineConfigError(
                f"mixing weight must be in [0, 1], got {self.mixing_weight!r}"
            )

    def _mixture(self, dependents, preferences):
        weight = self.mixing_weight
        return [
            mix_scores(dependent, preference, weight)
            for dependent, preference in zip(dependents, preferences)
        ]


@dataclass(frozen=True)
class LogLinearRelevance(_ColumnarRelevance):
    """The IR combination, as an engine plugin.

    ``score = λ·log qd + (1-λ)·log pref`` with an epsilon floor — the
    semantics of :func:`repro.ir.combined_ranking`: documents missing
    one part are penalised, not dropped.  Scores are log-space (≤ 0).

    Large batches combine through the kernel's numeric backend
    (vectorised logs when numpy is importable), short ones through the
    :func:`repro.perf.flatops.log_linear_rows` loop — the arithmetic
    of :func:`repro.ir.combine.combine_log_linear`, pair by pair.
    """

    mixing_weight: float = 0.5
    name: str = field(default="log_linear", init=False)

    #: Below this many documents the loop wins (the kernel's size rule).
    _BATCH_MIN = VECTOR_MIN

    def __post_init__(self) -> None:
        if not 0.0 <= self.mixing_weight <= 1.0:
            raise EngineConfigError(
                f"mixing weight must be in [0, 1], got {self.mixing_weight!r}"
            )

    def _mixture(self, dependents, preferences):
        np = resolve_backend() if len(dependents) >= self._BATCH_MIN else None
        if np is None:
            return log_linear_rows(
                dependents, preferences, self.mixing_weight, LOG_FLOOR
            )
        qd = np.maximum(LOG_FLOOR, np.asarray(dependents, dtype=np.float64))
        qi = np.maximum(LOG_FLOOR, np.asarray(preferences, dtype=np.float64))
        mixed = self.mixing_weight * np.log(qd) + (1.0 - self.mixing_weight) * np.log(qi)
        return mixed.tolist()


@dataclass
class GroupRelevance(_ColumnarRelevance):
    """Multi-user ranking as an engine plugin.

    The preference part is replaced by the group-aggregated score from
    a :class:`~repro.multiuser.GroupRanker` (each member scoring the
    candidates under their own rules and the shared context); query
    results gate binarily, as in the naive union.  Each member's
    scorer batches its candidates through the compiled scoring kernel,
    so a group request costs one vectorised pass per member.

    ``uses_preference_view = False`` tells the engine not to compute
    its own single-user preference view for document-list requests —
    the members' scorers do all the scoring.  Group scores are
    recomputed per request (they span several rule sets, outside the
    engine's single-signature cache); per-rule explanations are
    likewise unavailable on the group path.
    """

    ranker: GroupRanker
    name: str = field(default="group", init=False)
    uses_preference_view: bool = field(default=False, init=False)

    def _preferences(self, preference_scores, documents):
        table = NameTable(documents)
        group_scores = {
            score.document: score.value for score in self.ranker.score(table.names)
        }
        return table, [group_scores.get(name, 0.0) for name in table.names]

    def _with_query(self, table, preferences, dependents, k):
        return _gated(table, preferences, dependents, k)


#: Name → zero-config strategy factory, for builders and config files.
RELEVANCE_STRATEGIES = {
    "gated": GatedRelevance,
    "mixed": MixedRelevance,
    "log_linear": LogLinearRelevance,
}


def resolve_relevance(spec: object, **options: object):
    """Resolve a relevance backend from a name, class or instance.

    ``options`` (e.g. ``mixing_weight``) are forwarded to named
    strategies; passing options alongside a ready-made instance is an
    error.
    """
    if isinstance(spec, str):
        try:
            factory = RELEVANCE_STRATEGIES[spec]
        except KeyError:
            raise EngineConfigError(
                f"unknown relevance strategy {spec!r}; "
                f"choose from {sorted(RELEVANCE_STRATEGIES)} or pass a RelevanceBackend"
            ) from None
        try:
            return factory(**options)  # type: ignore[arg-type]
        except TypeError as exc:
            raise EngineConfigError(
                f"invalid options for relevance strategy {spec!r}: {exc}"
            ) from exc
    if callable(getattr(spec, "combine", None)):
        if options:
            raise EngineConfigError(
                "options are only valid with a named relevance strategy"
            )
        return spec
    raise EngineConfigError(
        f"relevance must be a strategy name or a RelevanceBackend, got {spec!r}"
    )
