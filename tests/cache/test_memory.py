"""The in-memory adapter: LRU bound, TTL, tenant purge, concurrency."""

import sys
import threading

import pytest

from repro.cache import InMemoryCacheAdapter, NoCacheAdapter
from repro.cache.memory import SMALL_BODY_BYTES
from repro.cache.protocol import CacheAdapter
from repro.errors import EngineConfigError


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestProtocol:
    def test_both_backends_satisfy_the_protocol(self):
        assert isinstance(InMemoryCacheAdapter(), CacheAdapter)
        assert isinstance(NoCacheAdapter(), CacheAdapter)

    def test_none_adapter_never_stores(self):
        cache = NoCacheAdapter()
        assert cache.enabled is False
        cache.put("k", {"v": 1}, tenant="alice")
        assert cache.get("k") is None
        assert cache.invalidate_tenant("alice") == 0
        assert cache.info().hits == 0


class TestValidation:
    def test_rejects_bad_settings(self):
        with pytest.raises(EngineConfigError):
            InMemoryCacheAdapter(max_entries=0)
        with pytest.raises(EngineConfigError):
            InMemoryCacheAdapter(ttl=-1.0)


class TestBasics:
    def test_round_trip_and_counters(self):
        cache = InMemoryCacheAdapter(max_entries=8)
        assert cache.get("k") is None
        cache.put("k", {"v": 1}, tenant="alice")
        assert cache.get("k") == {"v": 1}
        info = cache.info()
        assert (info.hits, info.misses, info.entries) == (1, 1, 1)
        assert info.hit_ratio == pytest.approx(0.5)

    def test_replace_updates_in_place(self):
        cache = InMemoryCacheAdapter(max_entries=8)
        cache.put("k", {"v": 1}, tenant="alice")
        cache.put("k", {"v": 2}, tenant="alice")
        assert cache.get("k") == {"v": 2}
        assert len(cache) == 1


class TestTTL:
    def test_entries_expire_on_lookup(self):
        clock = FakeClock()
        cache = InMemoryCacheAdapter(max_entries=8, ttl=30.0, clock=clock)
        cache.put("k", {"v": 1}, tenant="alice")
        clock.advance(29.9)
        assert cache.get("k") == {"v": 1}
        clock.advance(0.2)
        assert cache.get("k") is None
        info = cache.info()
        assert info.expiries == 1
        assert info.entries == 0
        # Expiry is also a miss: the requester did not get a body.
        assert info.misses == 1

    def test_ttl_zero_means_no_expiry(self):
        clock = FakeClock()
        cache = InMemoryCacheAdapter(max_entries=8, ttl=0, clock=clock)
        assert cache.ttl is None
        cache.put("k", {"v": 1})
        clock.advance(10_000_000)
        assert cache.get("k") == {"v": 1}


class TestLRU:
    def test_capacity_is_exact(self):
        cache = InMemoryCacheAdapter(max_entries=4, ttl=None)
        for index in range(10):
            cache.put(f"k{index}", {"v": index})
        assert len(cache) == 4
        assert cache.info().evictions == 6
        assert cache.get("k9") == {"v": 9}
        assert cache.get("k0") is None

    def test_get_refreshes_recency(self):
        cache = InMemoryCacheAdapter(max_entries=2, ttl=None)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}  # refresh a
        cache.put("c", {"v": 3})  # evicts b, not a
        assert cache.get("a") == {"v": 1}
        assert cache.get("b") is None

    def test_bound_holds_under_concurrent_hammer(self):
        cache = InMemoryCacheAdapter(max_entries=64, ttl=None)
        errors = []

        def hammer(worker):
            try:
                for index in range(500):
                    key = f"w{worker}-k{index % 90}"
                    cache.put(key, {"v": index}, tenant=f"tenant-{worker}")
                    cache.get(key)
                    cache.get(f"w{(worker + 1) % 8}-k{index % 90}")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        # One lock over the one table: switch threads as often as the
        # interpreter allows, so a lost counter update or a torn LRU
        # move would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert len(cache) == 64
        info = cache.info()
        assert info.hits + info.misses == 8 * 500 * 2
        assert info.bytes == 64 * SMALL_BODY_BYTES


class TestTenantPurge:
    def test_invalidate_tenant_is_targeted(self):
        cache = InMemoryCacheAdapter(max_entries=64, ttl=None)
        for index in range(6):
            cache.put(f"a{index}", {"v": index}, tenant="alice")
            cache.put(f"b{index}", {"v": index}, tenant="bob")
        assert cache.invalidate_tenant("alice") == 6
        assert len(cache) == 6
        assert cache.get("a0") is None
        assert cache.get("b0") == {"v": 0}
        assert cache.info().invalidations == 6
        assert cache.invalidate_tenant("alice") == 0

    def test_eviction_and_replace_keep_the_index_clean(self):
        cache = InMemoryCacheAdapter(max_entries=2, ttl=None)
        cache.put("a", {"v": 1}, tenant="alice")
        cache.put("b", {"v": 2}, tenant="alice")
        cache.put("c", {"v": 3}, tenant="alice")  # evicts a
        assert cache.invalidate_tenant("alice") == 2

    def test_clear_drops_everything(self):
        cache = InMemoryCacheAdapter(max_entries=16, ttl=None)
        for index in range(5):
            cache.put(f"k{index}", {"v": index}, tenant="alice")
        assert cache.clear() == 5
        assert len(cache) == 0
        assert cache.invalidate_tenant("alice") == 0


class _Sized:
    """A stand-in for the pipeline's ``RankBody``: a body that knows its size."""

    def __init__(self, nbytes):
        self.nbytes = nbytes


class TestByteBudget:
    def test_full_ranking_sized_puts_never_exceed_the_budget(self):
        from repro.cache.memory import MAX_CACHE_BYTES

        # 64 bodies of ~1.4 MB (a full ranking of ~14 000 programs):
        # 90 MB offered to a 64 MiB budget under the default 4 096 entries.
        body_bytes = MAX_CACHE_BYTES // 48
        cache = InMemoryCacheAdapter()
        for index in range(64):
            cache.put(f"alice|digest{index}|q", _Sized(body_bytes), tenant="alice")
            info = cache.info()
            assert info.bytes <= MAX_CACHE_BYTES
            assert info.bytes == len(cache) * body_bytes
        info = cache.info()
        assert info.max_bytes == MAX_CACHE_BYTES
        assert info.evictions > 0 and info.entries == 64 - info.evictions
        assert info.to_dict()["bytes"] == info.bytes
        # what survived is the most recent, and still answers
        assert cache.get("alice|digest63|q") is not None

    def test_bytes_follow_replace_purge_and_clear(self):
        from repro.cache.memory import SMALL_BODY_BYTES

        cache = InMemoryCacheAdapter(max_entries=8)
        cache.put("a", _Sized(1000), tenant="alice")
        cache.put("b", {"v": 1}, tenant="bob")  # no nbytes: the flat charge
        assert cache.info().bytes == 1000 + SMALL_BODY_BYTES
        cache.put("a", _Sized(300), tenant="alice")  # replace, not add
        assert cache.info().bytes == 300 + SMALL_BODY_BYTES
        assert cache.invalidate_tenant("alice") == 1
        assert cache.info().bytes == SMALL_BODY_BYTES
        cache.clear()
        assert cache.info().bytes == 0

    def test_a_body_over_the_budget_is_not_cached(self):
        from repro.cache.memory import MAX_CACHE_BYTES

        cache = InMemoryCacheAdapter()
        cache.put("small", _Sized(10))
        cache.put("huge", _Sized(MAX_CACHE_BYTES + 1))  # > the whole budget
        assert cache.get("huge") is None
        assert cache.info().bytes <= MAX_CACHE_BYTES
        cache.put("whole", _Sized(MAX_CACHE_BYTES))  # exactly the budget fits
        assert cache.get("whole") is not None
        assert cache.info().bytes == MAX_CACHE_BYTES

    def test_small_bodies_never_meet_the_budget(self):
        # 4 096 three-item bodies are ~1 MB: the entry bound is still
        # the only bound small-body traffic ever meets.
        cache = InMemoryCacheAdapter(max_entries=4096)
        for index in range(5000):
            cache.put(f"k{index}", _Sized(420))
        info = cache.info()
        assert info.evictions == 5000 - 4096 and info.entries == 4096
