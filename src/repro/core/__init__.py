"""The paper's primary contribution (S7): context-aware scoring & ranking.

* :mod:`~repro.core.problem` — binding rules + candidates to a context;
* :mod:`~repro.core.scoring` — equation (4) and the Section 3.3
  expectation (naive enumeration, O(n) factorisation, correlation-aware
  exact scorer);
* :mod:`~repro.core.kernel` — the compiled batch-scoring kernel
  (vectorised one-pass ranking, top-k pruning, incremental rescoring);
* :mod:`~repro.core.scorer` — the high-level :class:`ContextAwareScorer`;
* :mod:`~repro.core.pruning` — Section 6 rule/document pruning;
* :mod:`~repro.core.preference_view` — the "big preference view";
* :mod:`~repro.core.naive_view` — the paper's exponential view-based
  implementation, reproduced on both storage backends (benchmark E3);
* :mod:`~repro.core.ranker` — union/mixed query integration;
* :mod:`~repro.core.explain` — per-rule motivations and event lineage.
"""

from repro.core.explain import explain_document_events, explain_ranking, explain_score
from repro.core.kernel import (
    CompiledCandidates,
    LazyContributions,
    ScoredView,
    ScoringKernel,
    compile_candidates,
    rank_top_k_batch,
    score_batch,
    score_documents_batch,
    score_values,
)
from repro.core.naive_view import (
    MAX_NAIVE_RULES,
    naive_scores_python,
    naive_scores_sqlite,
    subset_coefficient,
)
from repro.core.preference_view import PREFERENCE_VIEW_TABLE, PreferenceView
from repro.core.problem import (
    DocumentBinding,
    RuleBinding,
    ScoringProblem,
    bind_documents,
    bind_problem,
    bind_rules,
)
from repro.core.pruning import (
    PruneReport,
    all_miss_score,
    prune_rules,
    split_trivial_documents,
)
from repro.core.ranker import ContextAwareRanker, RankedDocument
from repro.core.scorer import ContextAwareScorer
from repro.core.scoring import (
    SCORING_METHODS,
    DocumentScore,
    RuleContribution,
    enumeration_score,
    exact_event_score,
    factorised_score,
    score_certain,
    score_document,
)

__all__ = [
    "CompiledCandidates",
    "ContextAwareRanker",
    "ContextAwareScorer",
    "DocumentBinding",
    "DocumentScore",
    "LazyContributions",
    "ScoredView",
    "ScoringKernel",
    "MAX_NAIVE_RULES",
    "PREFERENCE_VIEW_TABLE",
    "PreferenceView",
    "PruneReport",
    "RankedDocument",
    "RuleBinding",
    "RuleContribution",
    "SCORING_METHODS",
    "ScoringProblem",
    "all_miss_score",
    "bind_documents",
    "bind_problem",
    "bind_rules",
    "compile_candidates",
    "enumeration_score",
    "exact_event_score",
    "explain_document_events",
    "explain_ranking",
    "explain_score",
    "factorised_score",
    "naive_scores_python",
    "naive_scores_sqlite",
    "prune_rules",
    "rank_top_k_batch",
    "score_batch",
    "score_certain",
    "score_documents_batch",
    "score_document",
    "score_values",
    "split_trivial_documents",
    "subset_coefficient",
]
