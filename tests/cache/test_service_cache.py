"""The response cache wired into the serving pipeline.

The contract under test: a cache hit is byte-identical to the rank it
replaces (scores within 1e-9 of an uncached service), and a stale hit
after *any* context change — per-request delta, ``POST /context``,
session eviction, explicit invalidation — is impossible.
"""

import pytest

from repro.cache import InMemoryCacheAdapter, NoCacheAdapter
from repro.reason import clear_registry
from repro.service import RankingService, ServiceConfig
from repro.tenants import TenantRegistry
from repro.workloads import build_tvtouch
from repro.workloads.traffic import CONTEXT_MENUS


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_service(cache=None, max_sessions=64, **config):
    clear_registry()
    registry = TenantRegistry(build_tvtouch(), max_sessions=max_sessions)
    return RankingService(
        registry,
        ServiceConfig(**config) if config else None,
        cache=cache if cache is not None else InMemoryCacheAdapter(),
    )


def rank(service, tenant="alice", context=None, top_k=None, explain=False):
    params = {"tenant": [tenant]}
    if context is not None:
        params["context"] = list(context)
    if top_k is not None:
        params["top_k"] = [str(top_k)]
    if explain:
        params["explain"] = ["1"]
    reply = service.rank(params)
    assert reply.ok, reply.body
    return reply


def scores(reply):
    return [(item["document"], item["score"]) for item in reply.body["items"]]


class TestHitIdentity:
    @pytest.mark.parametrize("menu", CONTEXT_MENUS + ((),))
    def test_cached_scores_identical_to_uncached(self, menu):
        cached_svc = make_service()
        uncached_svc = make_service(cache=NoCacheAdapter())
        first = rank(cached_svc, context=menu)
        second = rank(cached_svc, context=menu)
        reference = rank(uncached_svc, context=menu)
        assert second.body["cached"] is True
        assert "cached" not in first.body
        assert len(scores(second)) == len(scores(reference)) > 0
        for (doc_a, score_a), (doc_b, score_b) in zip(scores(second), scores(reference)):
            assert doc_a == doc_b
            assert abs(score_a - score_b) <= 1e-9
        assert scores(first) == scores(second)

    def test_standing_context_requests_hit_after_delta_rank(self):
        service = make_service()
        delta = rank(service, context=("Weekend",))
        standing = rank(service)  # no context param: the standing state
        assert standing.body["cached"] is True
        assert scores(standing) == scores(delta)
        assert "context" not in standing.body  # echo is per-request

    def test_outcomes_and_metrics_surface(self):
        service = make_service()
        rank(service, context=("Weekend",), top_k=3)
        rank(service, context=("Weekend",), top_k=3)
        snapshot = service.metrics_snapshot()
        assert snapshot["outcomes"] == {"ok": 1, "ok_cached": 1}
        cache_section = snapshot["cache"]
        assert cache_section["enabled"] is True
        assert cache_section["hits"] == 1
        assert cache_section["entries"] == 1
        assert 0.0 < cache_section["hit_ratio"] < 1.0
        assert snapshot["worker"]["pid"] > 0
        assert "uptime_seconds" in snapshot["worker"]
        # Stage latencies are split into cached/uncached populations.
        assert snapshot["stages"]["total.cached"]["count"] == 1
        assert snapshot["stages"]["total.uncached"]["count"] == 1
        assert snapshot["stages"]["cache"]["count"] == 2
        # A pure hit never touches resolve/rank.
        assert snapshot["stages"]["rank"]["count"] == 1

    def test_explain_and_topk_are_distinct_keys(self):
        service = make_service()
        rank(service, context=("Weekend",), explain=True)
        plain = rank(service, context=("Weekend",))
        assert "cached" not in plain.body
        assert "explanation" not in plain.body
        explained = rank(service, context=("Weekend",), explain=True)
        assert explained.body["cached"] is True
        assert "explanation" in explained.body
        topped = rank(service, context=("Weekend",), top_k=2)
        assert "cached" not in topped.body
        assert len(topped.body["items"]) == 2

    def test_spec_order_and_default_probability_share_one_entry(self):
        service = make_service()
        rank(service, context=("Weekend", "Breakfast"))
        reordered = rank(service, context=("Breakfast", "Weekend:1.0"))
        assert reordered.body["cached"] is True
        assert reordered.body["context"] == ["Breakfast", "Weekend:1.0"]

    def test_cached_timings_are_fresh(self):
        service = make_service()
        rank(service, context=("Weekend",))
        hit = rank(service, context=("Weekend",))
        assert hit.body["cached"] is True
        # The hit's stage table is its own (no rank stage ran), not a
        # replay of the filling request's.
        assert "rank" not in hit.timings
        assert "cache" in hit.timings


class TestInvalidation:
    def test_no_stale_hit_after_post_context_flip(self):
        service = make_service()
        weekend = rank(service, context=("Weekend",))
        rank(service)  # warm the standing entry
        assert service.install_context("alice", ["Breakfast"]).ok
        after = rank(service)
        assert "cached" not in after.body  # the flip moved the digest
        reference = rank(make_service(cache=NoCacheAdapter()), context=("Breakfast",))
        assert scores(after) == scores(reference)
        assert scores(after) != scores(weekend)
        # And the fresh state now caches under its own key.
        assert rank(service).body["cached"] is True

    def test_no_stale_hit_after_delta_flip(self):
        service = make_service()
        rank(service, context=("Weekend",))
        rank(service, context=("Breakfast",))  # delta replaces standing
        standing = rank(service)
        assert scores(standing) == scores(
            rank(make_service(cache=NoCacheAdapter()), context=("Breakfast",))
        )

    def test_delta_hit_still_installs_the_standing_context(self):
        service = make_service()
        rank(service, context=("Weekend",))
        rank(service, context=("Breakfast",))
        flip_back = rank(service, context=("Weekend",))  # hit + install
        assert flip_back.body["cached"] is True
        standing = rank(service)
        assert scores(standing) == scores(flip_back)

    def test_flipping_back_revalidates_old_entries(self):
        # Content-addressed keys: restoring a context restores its
        # still-valid entries instead of recomputing them.
        service = make_service()
        rank(service, context=("Weekend",))
        rank(service, context=("Breakfast",))
        assert rank(service, context=("Weekend",)).body["cached"] is True

    def test_session_eviction_purges_the_tenant(self):
        service = make_service(max_sessions=1)
        weekend = rank(service, context=("Weekend",))
        rank(service)  # standing entry for alice
        rank(service, tenant="bob")  # evicts alice's session (LRU of 1)
        after = rank(service)  # alice re-minted: empty standing context
        assert "cached" not in after.body
        assert scores(after) == scores(rank(make_service(cache=NoCacheAdapter())))
        assert scores(after) != scores(weekend)

    def test_explicit_invalidate_covers_out_of_band_mutation(self):
        service = make_service()
        rank(service, context=("Weekend",))
        stale = rank(service)
        assert stale.body["cached"] is True
        # Mutate the session directly, outside the service API — the
        # ledger cannot see this; invalidate_tenant is the contract.
        with service.registry.checkout("alice") as session:
            session.install_context("Breakfast")
        assert service.invalidate_tenant("alice") >= 1
        after = rank(service)
        assert "cached" not in after.body
        assert scores(after) == scores(
            rank(make_service(cache=NoCacheAdapter()), context=("Breakfast",))
        )

    def test_ttl_expiry_forces_a_recompute(self):
        clock = FakeClock()
        service = make_service(cache=InMemoryCacheAdapter(ttl=30.0, clock=clock))
        rank(service, context=("Weekend",))
        assert rank(service, context=("Weekend",)).body["cached"] is True
        clock.advance(31.0)
        expired = rank(service, context=("Weekend",))
        assert "cached" not in expired.body
        assert service.cache.info().expiries == 1
        assert rank(service, context=("Weekend",)).body["cached"] is True


class TestDisabledCache:
    def test_default_service_has_no_cache(self):
        clear_registry()
        registry = TenantRegistry(build_tvtouch(), max_sessions=64)
        service = RankingService(registry)
        assert service.cache.enabled is False
        rank(service, context=("Weekend",))
        repeat = rank(service, context=("Weekend",))
        assert "cached" not in repeat.body
        snapshot = service.metrics_snapshot()
        assert snapshot["outcomes"] == {"ok": 2}
        assert snapshot["cache"]["enabled"] is False
        assert "cache" not in snapshot["stages"]


class TestByteBudget:
    def test_small_body_hit_ratio_is_what_the_entry_bound_alone_gives(self, monkeypatch):
        import random

        from repro.cache import memory

        def replay(cache):
            service = make_service(cache=cache)
            rng = random.Random(42)
            tenants = [f"tenant_{index:02d}" for index in range(24)]
            for _ in range(600):
                context = rng.choice(CONTEXT_MENUS) if rng.random() < 0.5 else None
                rank(service, tenant=rng.choice(tenants), context=context, top_k=3)
            snapshot = service.metrics_snapshot()["cache"]
            service.close()
            return snapshot

        budgeted = replay(InMemoryCacheAdapter(max_entries=64))
        monkeypatch.setattr(memory, "MAX_CACHE_BYTES", 1 << 60)  # entries are the only bound
        unbounded = replay(InMemoryCacheAdapter(max_entries=64))
        for counter in ("hits", "misses", "hit_ratio", "evictions", "entries", "bytes"):
            assert budgeted[counter] == unbounded[counter], counter
        assert budgeted["hit_ratio"] > 0.5 and budgeted["evictions"] > 0
        assert 0 < budgeted["bytes"] < 64 * 1024  # 64 three-item bodies
        assert budgeted["max_bytes"] == 64 * 1024 * 1024
