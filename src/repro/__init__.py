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
and the migration from the deprecated ``ContextAwareScorer`` /
``ContextAwareRanker`` entry points.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every reproduced table and figure.
"""

import warnings as _warnings
from importlib import import_module as _import_module

from repro._lazy import lazy_exports as _lazy_exports

__version__ = "1.6.0"

#: Every public name and the package it is re-exported from.  Nothing
#: below is imported until a name is asked for: ``import repro`` loads
#: this module and the resolver, ``from repro import RankingEngine``
#: loads what the engine needs, and a serving worker never loads the
#: miner, the IR baseline or the SQL front end it does not use.
_lazy_getattr, __dir__, __all__ = _lazy_exports(
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

#: Deprecated top-level names: still importable, but every access warns
#: with a :class:`DeprecationWarning` pointing at the engine facade.
#: The classes themselves live on (the engine wraps them); only the
#: top-level entry points are deprecated.
_DEPRECATED_SHIMS = {
    "ContextAwareScorer": (
        "repro.core",
        "assemble a repro.RankingEngine (EngineBuilder / RankingEngine.from_world) "
        "instead of constructing scorers directly",
    ),
    "ContextAwareRanker": (
        "repro.core",
        "use repro.RankingEngine with a relevance backend "
        "(gated / mixed / log_linear) instead",
    ),
}
__all__ = sorted([*__all__, *_DEPRECATED_SHIMS, "__version__"])


def __getattr__(name: str):
    shim = _DEPRECATED_SHIMS.get(name)
    if shim is None:
        return _lazy_getattr(name)
    module_name, hint = shim
    _warnings.warn(
        f"repro.{name} is deprecated; {hint}",
        DeprecationWarning,
        stacklevel=2,
    )
    return getattr(_import_module(module_name), name)
