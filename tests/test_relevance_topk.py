"""`combine_top_k` must be indistinguishable from `combine(...)[:k]`.

The engine answers every top-k request with the backend's cut of the
ranked columns at k, so any divergence from the full ranking — order,
positions, tie-breaks, dropped documents — would silently change
served rankings.
"""

import random

import pytest

from repro.engine.relevance import (
    GatedRelevance,
    LogLinearRelevance,
    MixedRelevance,
)

STRATEGIES = [GatedRelevance(), MixedRelevance(0.3), LogLinearRelevance(0.7)]


def score_maps(seed):
    rng = random.Random(seed)
    documents = [f"doc_{index:03d}" for index in range(rng.randrange(1, 120))]
    # Quantised scores so ties are common and tie-breaking is exercised.
    preference = {doc: rng.randrange(6) / 5.0 for doc in documents}
    query = None
    if seed % 2:
        query = {doc: rng.randrange(4) / 3.0 for doc in rng.sample(documents, len(documents) // 2)}
    rng.shuffle(documents)
    return preference, query, documents


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
def test_top_k_matches_sliced_full_ranking(strategy):
    for seed in range(40):
        preference, query, documents = score_maps(seed)
        full = strategy.combine(preference, query, documents)
        for k in (0, 1, 3, len(documents), len(documents) + 5):
            assert strategy.combine_top_k(preference, query, documents, k) == full[:k]


def test_engine_top_k_is_the_full_ranking_cut():
    from repro.engine import RankingEngine, RankRequest
    from repro.workloads import build_tvtouch, set_breakfast_weekend_context

    world = build_tvtouch()
    set_breakfast_weekend_context(world)
    engine = RankingEngine.from_world(world)
    reference = engine.rank(RankRequest()).items[:2]
    cut = engine.rank(RankRequest(top_k=2)).items
    assert cut == reference
