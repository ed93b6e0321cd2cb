"""E9 — the engine facade's overhead over direct scorer calls.

Claim: routing ranking through :class:`RankingEngine` (signature
computation, cache lookup, request/response construction) costs less
than 5 % over calling the scorer directly for the same artifact — a
ranked view over every member of the target concept — and the cached
warm path is at least an order of magnitude faster than rescoring.

"Cold" means the state a context change actually produces: the view
cache misses *and* the compiled reasoner (:mod:`repro.reason`) is on a
fresh epoch — any ABox mutation moves both.  Both the facade and the
direct baseline therefore invalidate the shared KB per run; leaving
the reasoner warm under a cold view cache would compare a state that
cannot arise against one that can.

Measured on a Section 5 test database (scale 0.4, six rules), best of
seven runs per variant to shed scheduler noise.
"""

import os
import time

import pytest

from repro.core import ContextAwareScorer, PreferenceView
from repro.engine import RankingEngine, RankRequest
from repro.reporting import TextTable
from repro.workloads import (
    Section5Counts,
    generate_rule_series,
    generate_test_database,
    install_context_series,
)

#: CI smoke mode: tiny workload, no perf assertions (see conftest).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

RUNS = 2 if SMOKE else 7
SCALE = 0.1 if SMOKE else 0.4
RULES = 3 if SMOKE else 6
MAX_COLD_OVERHEAD = 0.05
MIN_WARM_SPEEDUP = 10.0


def best_of(function, runs: int = RUNS) -> float:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.fixture(scope="module")
def setup():
    counts = Section5Counts().scaled(SCALE)
    world = generate_test_database(seed=7, counts=counts)
    install_context_series(world, k=7, seed=11)
    repository = generate_rule_series(world, RULES, seed=13)
    scorer = ContextAwareScorer(
        abox=world.abox, tbox=world.tbox, user=world.user,
        repository=repository, space=world.space,
    )
    engine = RankingEngine.from_world(world, rules=repository)
    return world, scorer, engine


def test_e9_engine_overhead(setup, save_result, save_json):
    world, scorer, engine = setup

    # The same artifact three ways: the direct view refresh the facade
    # wraps (every member scored, held in memory — neither side writes
    # a table into the world's database), the facade with cold caches,
    # the facade with a warm cache.
    view = PreferenceView(scorer, world.target)

    def direct():
        scorer.kb.invalidate()
        view.refresh()

    direct_seconds = best_of(direct)

    def cold_rank():
        engine.invalidate_cache()
        engine.kb.invalidate()
        engine.rank()

    cold_seconds = best_of(cold_rank)
    warm_seconds = best_of(lambda: engine.rank())

    # Context: scoring an explicit candidate list skips the view's
    # member retrieval, so it is reported but not the overhead baseline.
    request = RankRequest(documents=world.programs)

    def direct_documents():
        scorer.kb.invalidate()
        scorer.score_map(world.programs)

    score_map_seconds = best_of(direct_documents)

    def cold_documents():
        engine.invalidate_cache()
        engine.kb.invalidate()
        engine.rank(request)

    cold_documents_seconds = best_of(cold_documents)

    overhead = cold_seconds / direct_seconds - 1.0
    speedup = direct_seconds / warm_seconds

    table = TextTable(["variant", "best (ms)", "vs direct"])
    table.add_row(["direct scorer (concept members)", direct_seconds * 1e3, "1.00x"])
    table.add_row(["engine, cold cache", cold_seconds * 1e3, f"{overhead:+.2%}"])
    table.add_row(["engine, warm cache", warm_seconds * 1e3, f"x{speedup:.0f} faster"])
    table.add_row(["direct scorer (document list)", score_map_seconds * 1e3, "-"])
    table.add_row(["engine, cold (document list)", cold_documents_seconds * 1e3, "-"])
    save_result("e9_engine_overhead", table.render())
    save_json(
        "e9_engine_overhead",
        {
            "experiment": "e9_engine_overhead",
            "variants": [
                {"variant": "direct scorer (concept members)", "best_ms": direct_seconds * 1e3},
                {"variant": "engine, cold cache", "best_ms": cold_seconds * 1e3},
                {"variant": "engine, warm cache", "best_ms": warm_seconds * 1e3},
                {"variant": "direct scorer (document list)", "best_ms": score_map_seconds * 1e3},
                {"variant": "engine, cold (document list)", "best_ms": cold_documents_seconds * 1e3},
            ],
            "cold_overhead": overhead,
            "warm_speedup": speedup,
        },
    )

    if SMOKE:
        return
    assert overhead < MAX_COLD_OVERHEAD, (
        f"facade overhead {overhead:.2%} exceeds {MAX_COLD_OVERHEAD:.0%} "
        f"(direct {direct_seconds * 1e3:.2f}ms vs cold {cold_seconds * 1e3:.2f}ms)"
    )
    assert speedup > MIN_WARM_SPEEDUP, (
        f"warm cache speedup x{speedup:.1f} below x{MIN_WARM_SPEEDUP:.0f}"
    )


def test_e9_cache_accounting(setup):
    _world, _scorer, engine = setup
    engine.invalidate_cache()
    engine.rank()
    before = engine.cache_info()
    engine.rank()
    after = engine.cache_info()
    assert after.hits == before.hits + 1
    assert after.misses == before.misses
