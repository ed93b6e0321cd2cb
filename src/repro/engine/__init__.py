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

Assemble engines with :class:`EngineBuilder`, or the shortcut
:meth:`RankingEngine.from_world`.
"""

from repro._lazy import lazy_exports as _lazy_exports

#: Where each public name lives; a name's module loads on first use.
__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.engine.backends": (
            "AboxContext",
            "DatabaseStorage",
            "RepositoryPreferences",
            "SensedContext",
        ),
        "repro.engine.basis": (
            "ViewBasis",
            "build_view_basis",
            "shared_basis_pool",
        ),
        "repro.engine.builder": ("EngineBuilder",),
        "repro.engine.cache": ("CacheInfo", "ViewCache"),
        "repro.engine.engine": ("PreparedRank", "RankingEngine"),
        "repro.engine.protocols": (
            "ContextBackend",
            "PreferenceBackend",
            "RelevanceBackend",
            "StorageBackend",
        ),
        "repro.engine.relevance": (
            "RELEVANCE_STRATEGIES",
            "GatedRelevance",
            "GroupRelevance",
            "LogLinearRelevance",
            "MixedRelevance",
            "resolve_relevance",
        ),
        "repro.engine.requests": (
            "RankedItem",
            "RankedItems",
            "RankRequest",
            "RankResponse",
        ),
    },
)
