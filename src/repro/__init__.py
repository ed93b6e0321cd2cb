"""repro — reproduction of "Ranking Query Results using Context-Aware Preferences".

A from-scratch Python implementation of van Bunningen, Fokkinga, Apers
and Feng's ICDE 2007 context-aware preference ranking system, including
every substrate it depends on: a probabilistic event-expression engine,
a Description Logic layer, a probabilistic relational store with a mini
SQL front end, context/sensor simulation, user history with the paper's
sigma semantics, scored preference rules, the context-aware scorer and
ranker, a language-model IR baseline, preference mining, and multi-user
ranking.

The canonical public API is the :class:`RankingEngine` facade: one
object owning the paper's whole pipeline (context capture → preference
view → ranked query results) over pluggable, protocol-typed backends,
with frozen request/response values and a per-context-signature cache
of the preference view.

Quickstart::

    from repro import (RankRequest, RankingEngine,
                       build_tvtouch, set_breakfast_weekend_context)

    world = build_tvtouch()
    set_breakfast_weekend_context(world)
    engine = RankingEngine.from_world(world)

    # Rank candidates by P(D=d | U=u_sit) under the current context.
    response = engine.rank(RankRequest(documents=world.program_ids))
    for item in response:
        print(item)          # channel5_news: 0.6006 ...

    # Or run the paper's SQL pipeline in one call.
    response = engine.rank(
        "SELECT name, preferencescore FROM Programs "
        "WHERE preferencescore > 0.5 ORDER BY preferencescore DESC")
    print(response.result.render())

Repeated requests under an unchanged context are served from the
engine's preference-view cache (``engine.cache_info()`` shows the
hits); changing the context or the rules invalidates it automatically.
Engines are assembled by :class:`EngineBuilder` — swap the scoring
method, the relevance strategy (naive union, smoothed mixture,
log-linear IR mixture, multi-user group aggregation) or any backend
without touching the call sites.  ``docs/API.md`` documents the facade
and the migration from the former entry points: the scorer now lives
only in :mod:`repro.core`, and the engine's ``"gated"`` and ``"mixed"``
relevance strategies are the one implementation of the Section 5 union
and the Section 6 mixture.

See ``docs/PERFORMANCE.md`` for what each layer costs and
``benchmarks/results/`` for the paper-versus-measured record of every
reproduced table and figure.
"""

from repro._lazy import lazy_exports as _lazy_exports

__version__ = "1.6.0"

#: Every public name and the package it is re-exported from.  Nothing
#: below is imported until a name is asked for: ``import repro`` loads
#: this module and the resolver, ``from repro import RankingEngine``
#: loads what the engine needs, and a serving worker never loads the
#: miner, the IR baseline or the SQL front end it does not use.
__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.cache": ("CacheAdapter", "InMemoryCacheAdapter", "NoCacheAdapter"),
        "repro.core": (
            "DocumentScore",
            "PreferenceView",
            "explain_ranking",
            "explain_score",
        ),
        "repro.dl": ("ABox", "Concept", "Individual", "LayeredABox", "TBox", "parse_concept"),
        "repro.engine": (
            "AboxContext",
            "ContextBackend",
            "DatabaseStorage",
            "EngineBuilder",
            "GatedRelevance",
            "GroupRelevance",
            "LogLinearRelevance",
            "MixedRelevance",
            "PreferenceBackend",
            "RankedItem",
            "RankingEngine",
            "RankRequest",
            "RankResponse",
            "RelevanceBackend",
            "RepositoryPreferences",
            "SensedContext",
            "StorageBackend",
        ),
        "repro.events": ("ALWAYS", "NEVER", "EventExpr", "EventSpace", "probability"),
        "repro.history": ("Candidate", "Episode", "HistoryLog", "estimate_sigma"),
        "repro.ir": ("Corpus", "LanguageModelRanker", "combined_ranking"),
        "repro.mining": ("MiningConfig", "mine_rules"),
        "repro.multiuser": ("GroupMember", "GroupRanker"),
        "repro.reason": ("CompiledKB", "ReasonerSession", "compiled_kb"),
        "repro.reporting": ("ranking_table",),
        "repro.rules": ("PreferenceRule", "RuleRepository", "load_rules", "parse_rules"),
        "repro.service": (
            "CircuitBreaker",
            "Deadline",
            "DeadlineExceeded",
            "FaultInjector",
            "RankingService",
            "ServiceConfig",
            "ServiceRequest",
            "ServiceResponse",
        ),
        "repro.storage": ("Database", "SqliteBackend", "SqlSession"),
        "repro.tenants": ("TenantRegistry", "UserSession"),
        "repro.workloads": (
            "build_tvtouch",
            "generate_test_database",
            "sample_workday_mornings",
            "set_breakfast_weekend_context",
        ),
    },
)

__all__ = sorted([*__all__, "__version__"])
