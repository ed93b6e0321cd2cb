"""The in-memory response cache: sharded LRU + TTL under per-shard locks.

The serving fleet's default backend.  Entries are rendered response
bodies keyed by the digests :mod:`repro.cache.keys` derives; each
worker process owns one instance, so no cross-process coherence is
needed — invalidation is per-worker and keys are content-addressed
(see the package docstring).

Design points:

* **Sharding.**  Keys hash onto ``shards`` independent segments, each
  an ``OrderedDict`` LRU under its own lock, so concurrent gateway
  threads hitting different keys never contend on one global lock
  (the same shape as the tenant registry's session table).  Capacity
  is distributed across shards the way the registry distributes
  ``max_sessions``, so the whole-cache bound is exact.
* **TTL with stale retention.**  Entries carry an absolute monotonic
  deadline; an expired entry stops answering :meth:`get` (counted as
  one expiry, the first time a lookup notices) but is *retained* for
  ``stale_grace`` seconds past expiry so the degraded-mode
  :meth:`get_stale` path can still serve it — a sweep is never
  needed, LRU pressure and the grace window reclaim cold entries.
  ``ttl=None`` (or ``0``) disables expiry: correctness never depends
  on TTL here (keys already die with the context signature), it only
  bounds staleness against *external* knowledge mutations.
* **A byte budget beside the entry bound.**  A body that knows its
  encoded size (``nbytes`` — the pipeline's ``RankBody`` reports the
  length of its ``items`` fragment) is charged for it; anything else is
  charged a flat :data:`SMALL_BODY_BYTES`.  Each shard evicts LRU until
  it is back under its share of :data:`MAX_CACHE_BYTES`, so 4 096
  entries of full rankings can no longer add up to a gigabyte.  The
  budget is a constant, not a tunable: it exists to bound the worst
  case, and the entry bound stays the knob.
* **Per-tenant purge.**  Each shard maintains a tenant → keys index,
  so :meth:`invalidate_tenant` is O(tenant's entries), not a scan.
* **Family fallback.**  ``put`` records the most recent key per
  response *family* (tenant + query shape, see
  :func:`repro.cache.keys.family_key`); :meth:`get_stale` falls back
  to it when the exact key has nothing — the digest-stale serve the
  resilience layer uses while the breaker is open.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import OrderedDict
from typing import Callable

from repro.cache.protocol import ResponseCacheInfo, StaleHit
from repro.errors import EngineConfigError

__all__ = ["InMemoryCacheAdapter", "MAX_CACHE_BYTES", "SMALL_BODY_BYTES"]

#: Whole-cache bound on stored body bytes (split evenly across shards).
MAX_CACHE_BYTES = 64 * 1024 * 1024

#: What a body that does not report ``nbytes`` is charged.
SMALL_BODY_BYTES = 512


class _Entry:
    __slots__ = (
        "body", "nbytes", "tenant", "expires_at", "stored_at", "family", "expiry_counted"
    )

    def __init__(
        self,
        body: object,
        tenant: str | None,
        expires_at: float | None,
        stored_at: float,
        family: str | None,
    ):
        self.body = body
        self.nbytes = getattr(body, "nbytes", SMALL_BODY_BYTES)
        self.tenant = tenant
        self.expires_at = expires_at
        self.stored_at = stored_at
        self.family = family
        self.expiry_counted = False


class _CacheShard:
    """One locked LRU segment with a tenant index."""

    __slots__ = (
        "lock",
        "entries",
        "by_tenant",
        "max_entries",
        "max_bytes",
        "bytes",
        "hits",
        "misses",
        "evictions",
        "expiries",
        "invalidations",
    )

    def __init__(self, max_entries: int, max_bytes: int):
        self.lock = threading.Lock()
        self.entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self.by_tenant: dict[str, set[str]] = {}
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expiries = 0
        self.invalidations = 0

    def _drop(self, key: str) -> None:
        entry = self.entries.pop(key, None)
        if entry is None:
            return
        self.bytes -= entry.nbytes
        if entry.tenant is not None:
            keys = self.by_tenant.get(entry.tenant)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self.by_tenant[entry.tenant]


class InMemoryCacheAdapter:
    """A sharded LRU + TTL response cache (one per worker process).

    Parameters
    ----------
    max_entries:
        Bound on stored bodies across all shards (exact).
    ttl:
        Seconds an entry may live; ``None`` or ``0`` disables expiry.
    shards:
        Independently locked LRU segments (clamped to ``max_entries``).
    clock:
        Monotonic time source (injectable so tests age entries without
        sleeping).
    stale_grace:
        Seconds an *expired* entry is retained for :meth:`get_stale`
        before lookups hard-drop it (``0`` restores drop-on-expiry).
    """

    enabled = True

    def __init__(
        self,
        max_entries: int = 4096,
        ttl: float | None = 300.0,
        shards: int = 8,
        clock: Callable[[], float] = time.monotonic,
        stale_grace: float = 300.0,
    ):
        if not isinstance(max_entries, int) or max_entries < 1:
            raise EngineConfigError(
                f"cache max_entries must be a positive integer, got {max_entries!r}"
            )
        if ttl is not None and ttl < 0:
            raise EngineConfigError(f"cache ttl must be non-negative, got {ttl!r}")
        if not isinstance(shards, int) or shards < 1:
            raise EngineConfigError(
                f"cache shards must be a positive integer, got {shards!r}"
            )
        if stale_grace < 0:
            raise EngineConfigError(
                f"cache stale_grace must be non-negative, got {stale_grace!r}"
            )
        self.max_entries = max_entries
        self.ttl = ttl if ttl else None
        self.shards = min(shards, max_entries)
        self.stale_grace = stale_grace
        self._clock = clock
        base, extra = divmod(max_entries, self.shards)
        self._shards = tuple(
            _CacheShard(base + (1 if index < extra else 0), MAX_CACHE_BYTES // self.shards)
            for index in range(self.shards)
        )
        # Most recent key per family; the degraded-mode fallback index.
        self._stats_lock = threading.Lock()
        self._families: "OrderedDict[str, str]" = OrderedDict()
        self._stale_hits = 0
        self._stale_misses = 0

    def _shard_for(self, key: str) -> _CacheShard:
        return self._shards[zlib.crc32(key.encode("utf-8")) % self.shards]

    # -- the per-request path ---------------------------------------------
    def get(self, key: str) -> object | None:
        shard = self._shard_for(key)
        now = self._clock()
        with shard.lock:
            entry = shard.entries.get(key)
            if entry is None:
                shard.misses += 1
                return None
            if entry.expires_at is not None and now >= entry.expires_at:
                # A miss, but the body is kept for get_stale until the
                # grace runs out; the expiry is counted exactly once.
                if not entry.expiry_counted:
                    entry.expiry_counted = True
                    shard.expiries += 1
                if now >= entry.expires_at + self.stale_grace:
                    shard._drop(key)
                shard.misses += 1
                return None
            shard.entries.move_to_end(key)
            shard.hits += 1
            return entry.body

    def put(
        self,
        key: str,
        body: object,
        *,
        tenant: str | None = None,
        family: str | None = None,
    ) -> None:
        now = self._clock()
        expires_at = now + self.ttl if self.ttl is not None else None
        shard = self._shard_for(key)
        with shard.lock:
            if key in shard.entries:
                shard._drop(key)
            entry = _Entry(body, tenant, expires_at, now, family)
            shard.entries[key] = entry
            shard.bytes += entry.nbytes
            if tenant is not None:
                shard.by_tenant.setdefault(tenant, set()).add(key)
            # LRU out until both bounds hold again (a body bigger than
            # the shard's whole budget evicts itself: it is not cached).
            while shard.entries and (
                len(shard.entries) > shard.max_entries or shard.bytes > shard.max_bytes
            ):
                victim = next(iter(shard.entries))
                shard._drop(victim)
                shard.evictions += 1
        if family is not None:
            with self._stats_lock:
                self._families[family] = key
                self._families.move_to_end(family)
                while len(self._families) > self.max_entries:
                    self._families.popitem(last=False)

    # -- degraded-mode serving ---------------------------------------------
    def _stale_probe(
        self, key: str, max_age: float, *, exact: bool, family: str | None = None
    ) -> StaleHit | None:
        shard = self._shard_for(key)
        now = self._clock()
        with shard.lock:
            entry = shard.entries.get(key)
            if entry is None:
                return None
            if family is not None and entry.family != family:
                return None  # stale family pointer; never serve across families
            expired = entry.expires_at is not None and now >= entry.expires_at
            if expired:
                if not entry.expiry_counted:
                    entry.expiry_counted = True
                    shard.expiries += 1
                if now >= entry.expires_at + self.stale_grace:
                    shard._drop(key)
                    return None
                age = now - entry.expires_at
            else:
                # A live body: fresh if it is the exact key, digest-stale
                # (age = time since storage) on a family fallback.
                age = 0.0 if exact else now - entry.stored_at
            if age > max_age:
                return None
            return StaleHit(body=entry.body, age=age, expired=expired, exact=exact)

    def get_stale(
        self, key: str, *, family: str | None = None, max_age: float = 0.0
    ) -> StaleHit | None:
        hit = self._stale_probe(key, max_age, exact=True)
        if hit is None and family is not None:
            with self._stats_lock:
                fallback = self._families.get(family)
            if fallback is not None and fallback != key:
                hit = self._stale_probe(fallback, max_age, exact=False, family=family)
        with self._stats_lock:
            if hit is None:
                self._stale_misses += 1
            else:
                self._stale_hits += 1
        return hit

    # -- management --------------------------------------------------------
    def invalidate_tenant(self, tenant: str) -> int:
        purged = 0
        for shard in self._shards:
            with shard.lock:
                keys = shard.by_tenant.get(tenant)
                if not keys:
                    continue
                for key in list(keys):
                    shard._drop(key)
                    shard.invalidations += 1
                    purged += 1
        return purged

    def clear(self) -> int:
        dropped = 0
        for shard in self._shards:
            with shard.lock:
                dropped += len(shard.entries)
                shard.invalidations += len(shard.entries)
                shard.entries.clear()
                shard.by_tenant.clear()
                shard.bytes = 0
        with self._stats_lock:
            self._families.clear()
        return dropped

    def info(self) -> ResponseCacheInfo:
        hits = misses = evictions = expiries = invalidations = entries = stored = 0
        now = self._clock()
        for shard in self._shards:
            with shard.lock:
                hits += shard.hits
                misses += shard.misses
                evictions += shard.evictions
                expiries += shard.expiries
                invalidations += shard.invalidations
                stored += shard.bytes
                # Live entries only: expired-but-retained bodies are
                # degraded-mode inventory, not cache occupancy.
                entries += sum(
                    1
                    for entry in shard.entries.values()
                    if entry.expires_at is None or now < entry.expires_at
                )
        with self._stats_lock:
            stale_hits, stale_misses = self._stale_hits, self._stale_misses
        return ResponseCacheInfo(
            hits=hits,
            misses=misses,
            evictions=evictions,
            expiries=expiries,
            invalidations=invalidations,
            entries=entries,
            max_entries=self.max_entries,
            shards=self.shards,
            ttl=self.ttl,
            stale_hits=stale_hits,
            stale_misses=stale_misses,
            bytes=stored,
            max_bytes=MAX_CACHE_BYTES,
        )

    def __len__(self) -> int:
        count = 0
        for shard in self._shards:
            with shard.lock:
                count += len(shard.entries)
        return count

    def __repr__(self) -> str:
        info = self.info()
        return (
            f"InMemoryCacheAdapter(entries={info.entries}/{info.max_entries}, "
            f"shards={info.shards}, ttl={info.ttl}, "
            f"hits={info.hits}, misses={info.misses})"
        )
