"""The unified ranking facade (the library's canonical public API).

One object — :class:`RankingEngine` — owns the paper's whole pipeline
(context capture → preference view → ranked query results) behind four
``typing.Protocol``-typed backends:

========================  ====================================================
:class:`ContextBackend`   where the context lives and when it changed
:class:`PreferenceBackend`  where the scored rules come from
:class:`StorageBackend`   how user SQL sees ``preferencescore``
:class:`RelevanceBackend` how the two relevance parts combine
========================  ====================================================

Requests are frozen :class:`RankRequest` values, answers are frozen
:class:`RankResponse` values, and the preference view is memoized per
context signature — repeated requests under an unchanged context and
rule set never rescore.

Assemble engines with :class:`EngineBuilder`, or the shortcuts
:meth:`RankingEngine.from_world` / :meth:`RankingEngine.from_config`.
"""

from repro.engine.backends import (
    AboxContext,
    DatabaseStorage,
    RepositoryPreferences,
    SensedContext,
)
from repro.engine.basis import SharedBasisPool, ViewBasis, build_view_basis, shared_basis_pool
from repro.engine.builder import EngineBuilder
from repro.engine.cache import CacheInfo, ViewCache
from repro.engine.engine import PreparedRank, RankingEngine, score_prepared_batch
from repro.engine.protocols import (
    ContextBackend,
    PreferenceBackend,
    RelevanceBackend,
    StorageBackend,
)
from repro.engine.relevance import (
    RELEVANCE_STRATEGIES,
    GatedRelevance,
    GroupRelevance,
    LogLinearRelevance,
    MixedRelevance,
    resolve_relevance,
)
from repro.engine.requests import RankedItem, RankedItems, RankRequest, RankResponse

__all__ = [
    "AboxContext",
    "CacheInfo",
    "ContextBackend",
    "DatabaseStorage",
    "EngineBuilder",
    "GatedRelevance",
    "GroupRelevance",
    "LogLinearRelevance",
    "MixedRelevance",
    "PreferenceBackend",
    "PreparedRank",
    "RELEVANCE_STRATEGIES",
    "RankRequest",
    "RankResponse",
    "RankedItem",
    "RankedItems",
    "RankingEngine",
    "RelevanceBackend",
    "RepositoryPreferences",
    "SensedContext",
    "StorageBackend",
    "ViewBasis",
    "ViewCache",
    "SharedBasisPool",
    "build_view_basis",
    "score_prepared_batch",
    "shared_basis_pool",
    "resolve_relevance",
]
