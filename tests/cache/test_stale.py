"""Stale retention and the get_stale degraded-serving probe."""

import pytest

from repro.cache import InMemoryCacheAdapter, NoCacheAdapter, family_key
from repro.errors import EngineConfigError


class FakeClock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_cache(ttl=10.0, stale_max_age=60.0, **kwargs):
    clock = FakeClock()
    cache = InMemoryCacheAdapter(
        max_entries=16, ttl=ttl, clock=clock, stale_max_age=stale_max_age, **kwargs
    )
    return cache, clock


class TestStaleRetention:
    def test_expired_entry_misses_get_but_survives_for_stale(self):
        cache, clock = make_cache(ttl=10.0)
        cache.put("k", {"v": 1}, tenant="t")
        clock.advance(15.0)
        assert cache.get("k") is None  # expired: a miss
        hit = cache.get_stale("k")
        assert hit is not None
        assert hit.body == {"v": 1}
        assert hit.expired is True
        assert hit.exact is True
        assert hit.age == pytest.approx(5.0)

    def test_expiry_counted_once_and_entries_count_live_only(self):
        cache, clock = make_cache(ttl=10.0)
        cache.put("k", {"v": 1}, tenant="t")
        clock.advance(15.0)
        cache.get("k")
        cache.get("k")
        cache.get_stale("k")
        info = cache.info()
        assert info.expiries == 1
        assert info.entries == 0  # retained body is not live occupancy
        assert info.stale_hits == 1

    def test_hard_drop_past_the_bound(self):
        cache, clock = make_cache(ttl=10.0, stale_max_age=20.0)
        cache.put("k", {"v": 1})
        clock.advance(31.0)  # expired 21s ago > bound 20
        assert cache.get_stale("k") is None
        assert len(cache) == 0  # the probe reclaimed it

    def test_stale_max_age_bounds_the_serve(self):
        for bound, served in ((5.0, False), (10.0, True)):
            cache, clock = make_cache(ttl=10.0, stale_max_age=bound)
            cache.put("k", {"v": 1})
            clock.advance(18.0)  # 8s past expiry
            assert (cache.get_stale("k") is not None) is served

    def test_keeping_and_serving_share_one_bound(self):
        # One boundary for both: a stale body of age a is served exactly
        # when a < stale_max_age, and at a == stale_max_age it is neither
        # served nor kept.
        cache, clock = make_cache(ttl=10.0, stale_max_age=20.0)
        fam = family_key("alice", None, 3, False)
        cache.put("k", {"v": 1}, family=fam)
        clock.advance(29.5)  # expired 19.5s ago
        assert cache.get_stale("k").age == pytest.approx(19.5)
        clock.advance(0.5)  # expired exactly 20s ago
        assert cache.get_stale("k") is None
        assert len(cache) == 0  # dropped by the same bound that refused it
        # A family fallback's age is time since storage, same boundary.
        cache, clock = make_cache(ttl=None, stale_max_age=20.0)
        cache.put("kA", {"v": 1}, family=fam)
        clock.advance(19.5)
        assert cache.get_stale("kB", family=fam).age == pytest.approx(19.5)
        clock.advance(0.5)
        assert cache.get_stale("kB", family=fam) is None

    def test_fresh_exact_entry_has_age_zero(self):
        cache, _clock = make_cache(ttl=10.0)
        cache.put("k", {"v": 1})
        hit = cache.get_stale("k")
        assert hit is not None and hit.age == 0.0 and not hit.expired

    def test_stale_counters(self):
        cache, clock = make_cache(ttl=10.0)
        cache.put("k", {"v": 1})
        clock.advance(15.0)
        cache.get_stale("k")
        cache.get_stale("missing")
        info = cache.info()
        assert info.stale_hits == 1
        assert info.stale_misses == 1
        # Stale probes never pollute the live hit/miss counters.
        assert info.hits == 0 and info.misses == 0
        assert "stale_hits" in info.to_dict()

    def test_stale_max_age_zero_drops_on_expiry_and_serves_nothing(self):
        cache, clock = make_cache(ttl=10.0, stale_max_age=0.0)
        fam = family_key("alice", None, 3, False)
        cache.put("k", {"v": 1}, family=fam)
        assert cache.get_stale("k") is None  # not even a live exact body
        assert cache.get_stale("other", family=fam) is None  # nor a fallback
        clock.advance(11.0)
        assert cache.get("k") is None
        assert len(cache) == 0  # dropped on expiry
        assert cache.get_stale("k") is None

    def test_negative_stale_max_age_rejected(self):
        with pytest.raises(EngineConfigError, match="stale_max_age"):
            InMemoryCacheAdapter(stale_max_age=-1.0)


class TestFamilyFallback:
    def test_family_fallback_serves_the_most_recent_sibling(self):
        cache, _clock = make_cache(ttl=None)
        fam = family_key("alice", None, 3, False)
        cache.put("alice|digestA|q", {"v": "old"}, tenant="alice", family=fam)
        cache.put("alice|digestB|q", {"v": "new"}, tenant="alice", family=fam)
        hit = cache.get_stale("alice|digestC|q", family=fam)
        assert hit is not None
        assert hit.body == {"v": "new"}  # most recent family member
        assert hit.exact is False

    def test_family_age_is_time_since_storage(self):
        for bound, served in ((20.0, False), (60.0, True)):
            cache, clock = make_cache(ttl=None, stale_max_age=bound)
            fam = family_key("alice", None, 3, False)
            cache.put("alice|digestA|q", {"v": 1}, family=fam)
            clock.advance(30.0)
            hit = cache.get_stale("alice|digestB|q", family=fam)
            assert (hit is not None) is served
        assert hit.age == pytest.approx(30.0)

    def test_family_pointer_never_crosses_families(self):
        cache, _clock = make_cache(ttl=None)
        fam_a = family_key("alice", None, 3, False)
        fam_b = family_key("alice", None, 5, False)
        cache.put("kA", {"v": "a"}, family=fam_a)
        # The fam_b index has nothing: a fam_b probe must not serve kA.
        assert cache.get_stale("other", family=fam_b) is None

    def test_invalidation_drops_family_members(self):
        cache, _clock = make_cache(ttl=None)
        fam = family_key("alice", None, 3, False)
        cache.put("kA", {"v": 1}, tenant="alice", family=fam)
        cache.invalidate_tenant("alice")
        assert cache.get_stale("kB", family=fam) is None

    def test_clear_resets_family_index(self):
        cache, _clock = make_cache(ttl=None)
        fam = family_key("alice", None, 3, False)
        cache.put("kA", {"v": 1}, family=fam)
        cache.clear()
        assert cache.get_stale("kB", family=fam) is None


class TestKeyFamilies:
    def test_family_key_ignores_view_digest(self):
        # Same tenant + query shape => same family, whatever the context.
        assert family_key("t", ("a", "b"), 3, False) == family_key(
            "t", ("a", "b"), 3, False
        )
        assert family_key("t", ("a",), 3, False) != family_key("t", ("a",), 5, False)
        assert family_key("t", None, 3, False) != family_key("u", None, 3, False)


class TestNoCacheAdapter:
    def test_get_stale_always_misses(self):
        cache = NoCacheAdapter()
        cache.put("k", {"v": 1}, family="f")
        assert cache.get_stale("k", family="f") is None
        assert cache.stale_max_age == 0.0
