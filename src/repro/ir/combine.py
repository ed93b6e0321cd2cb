"""Combining query-dependent and query-independent relevance.

Equation (3) of the paper factors document relevance into
``P(Q=q | D=d, U=u_sit) * P(D=d | U=u_sit)``.  The naive implementation
gates with a binary query-dependent part; Section 6 suggests exploring
"the weighting of the query-independent and query-dependent part [...]
using smoothing methods".  This module provides that weighting as a
log-linear mixture:

``score(d) = lambda * log P(q|d,u) + (1 - lambda) * log P(d|u)``

with ``lambda = 1`` pure IR and ``lambda = 0`` pure context.  Benchmark
E5 sweeps lambda against simulated users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ReproError
from repro.perf.flatops import LOG_FLOOR

__all__ = ["LOG_FLOOR", "CombinedScore", "combine_log_linear", "combined_ranking"]


@dataclass(frozen=True)
class CombinedScore:
    """A document's mixed relevance with its two components."""

    doc_id: str
    combined: float
    query_dependent: float
    query_independent: float


def combine_log_linear(
    query_dependent: float,
    query_independent: float,
    mixing_weight: float,
) -> float:
    """Log-linear mixture of the two probabilities (returns log-space score)."""
    if not 0.0 <= mixing_weight <= 1.0:
        raise ReproError(f"mixing weight must be in [0, 1], got {mixing_weight!r}")
    qd = max(LOG_FLOOR, query_dependent)
    qi = max(LOG_FLOOR, query_independent)
    return mixing_weight * math.log(qd) + (1.0 - mixing_weight) * math.log(qi)


def combined_ranking(
    query_scores: dict[str, float],
    preference_scores: dict[str, float],
    mixing_weight: float = 0.5,
) -> list[CombinedScore]:
    """Rank the union of both score maps by the log-linear mixture.

    Documents missing from one map get that component's floor (they are
    penalised but not dropped — unlike the naive binary gate).
    """
    doc_ids = sorted(set(query_scores) | set(preference_scores))
    results = []
    for doc_id in doc_ids:
        qd = query_scores.get(doc_id, 0.0)
        qi = preference_scores.get(doc_id, 0.0)
        results.append(
            CombinedScore(doc_id, combine_log_linear(qd, qi, mixing_weight), qd, qi)
        )
    results.sort(key=lambda score: (-score.combined, score.doc_id))
    return results
