"""A stream of fresh context probabilities runs in bounded memory.

Sensed context is uncertain, so a sensor stream — or any client sending
``context=Breakfast:0.<random>`` — brings a never-seen probability on
almost every request.  An installed context atom belongs to the tenant
session that installed it, so 20 000 such ranks through the service
leave the shared event space as it was, keep the interned-expression
table and the base tier's probability memo under a bound that does not
depend on the number of ranks, and keep the traced heap flat over the
second half.

Slow (tens of seconds, most of it under ``tracemalloc``): ``make
test-fast`` skips this file, ``make test`` and CI run it.
"""

import gc
import random
import tracemalloc

from repro.cache import InMemoryCacheAdapter
from repro.events.expr import interned_node_count
from repro.reason import base_tier, clear_registry
from repro.service import RankingService
from repro.tenants import TenantRegistry
from repro.workloads import build_tvtouch

RANKS = 20_000
TENANTS = 20

#: Expression nodes the live sessions' contexts may intern between them.
INTERNED_BOUND = 2_000
#: Static probabilities the base tier may hold for tvtouch's rules.
MEMO_BOUND = 100
#: Traced heap growth allowed over the second half.
GROWTH_BOUND = 5 * 2**20


def test_fresh_probability_stream_runs_in_bounded_memory():
    clear_registry()
    gc.collect()
    world = build_tvtouch()
    cache = InMemoryCacheAdapter()
    service = RankingService(TenantRegistry(world), cache=cache)
    space_events = len(world.space)
    interned = interned_node_count()
    # Tracing starts one cache-fill before the midpoint: every entry the
    # full response cache holds there is then a traced block, so the
    # entries the second half evicts count as freed, not as growth.
    trace_from = RANKS // 2 - cache.info().max_entries
    rng = random.Random(7)
    half = 0
    try:
        for index in range(RANKS):
            if index == trace_from:
                tracemalloc.start()
            elif index == RANKS // 2:
                gc.collect()
                half = tracemalloc.get_traced_memory()[0]
            response = service.rank(
                {
                    "tenant": [f"t{index % TENANTS}"],
                    "context": [f"Breakfast:{rng.random()!r}", "Weekend"],
                    "top_k": ["3"],
                }
            )
            assert response.status == 200, response.body
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - half
        memo = base_tier(world.abox, world.tbox, world.space).memo_probabilities
        assert interned_node_count() - interned < INTERNED_BOUND
    finally:
        tracemalloc.stop()
        clear_registry()
    assert len(world.space) == space_events
    assert memo < MEMO_BOUND
    assert grown < GROWTH_BOUND, f"traced heap grew {grown / 2**20:.1f} MiB"
