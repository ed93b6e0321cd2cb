"""The paper's primary contribution (S7): context-aware scoring & ranking.

* :mod:`~repro.core.problem` — binding rules + candidates to a context;
* :mod:`~repro.core.scoring` — equation (4) and the Section 3.3
  expectation (naive enumeration, O(n) factorisation, correlation-aware
  exact scorer);
* :mod:`~repro.core.kernel` — the compiled batch-scoring kernel
  (vectorised one-pass ranking, top-k pruning, incremental rescoring);
* :mod:`~repro.core.scorer` — the high-level :class:`ContextAwareScorer`;
* :mod:`~repro.core.pruning` — Section 6 rule/document pruning;
* :mod:`~repro.core.preference_view` — the "big preference view" and
  its ``preferencescore`` SQL column;
* :mod:`~repro.core.naive_view` — the paper's exponential view-based
  implementation, reproduced on both storage backends (benchmark E3);
* :mod:`~repro.core.explain` — per-rule motivations and event lineage.

Query integration — the Section 5 union and the Section 6 mixtures —
is the engine's relevance strategies (:mod:`repro.engine.relevance`).
"""

from repro._lazy import lazy_exports as _lazy_exports

#: Where each public name lives; a name's module loads on first use.
__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.core.explain": (
            "explain_document_events",
            "explain_ranking",
            "explain_score",
        ),
        "repro.core.kernel": (
            "CompiledCandidates",
            "LazyContributions",
            "ScoredView",
            "ScoringKernel",
            "compile_candidates",
            "score_values",
        ),
        "repro.core.naive_view": (
            "MAX_NAIVE_RULES",
            "naive_scores_python",
            "naive_scores_sqlite",
            "subset_coefficient",
        ),
        "repro.core.preference_view": ("PreferenceView",),
        "repro.core.problem": (
            "DocumentBinding",
            "RuleBinding",
            "ScoringProblem",
            "bind_documents",
            "bind_problem",
            "bind_rules",
        ),
        "repro.core.pruning": (
            "PruneReport",
            "all_miss_score",
            "prune_rules",
            "split_trivial_documents",
        ),
        "repro.core.scorer": ("ContextAwareScorer",),
        "repro.core.scoring": (
            "SCORING_METHODS",
            "DocumentScore",
            "RuleContribution",
            "enumeration_score",
            "exact_event_score",
            "factorised_score",
            "score_certain",
            "score_document",
        ),
    },
)
