"""The in-memory response cache: one LRU + TTL under one lock.

The serving fleet's default backend.  Entries are rendered response
bodies keyed by the digests :mod:`repro.cache.keys` derives; each
worker process owns one instance, so no cross-process coherence is
needed — invalidation is per-worker and keys are content-addressed
(see the package docstring).

Design points:

* **One table, one lock.**  The entries are one
  :class:`~repro.perf.LRU` of exactly ``max_entries``, and every
  operation holds the cache's lock once.  A worker has two threads
  that touch it — the event loop and the gateway's one thread — so
  there is nothing to spread a lock over.
* **TTL with stale retention.**  Entries carry an absolute monotonic
  deadline; an expired entry stops answering :meth:`get` (counted as
  one expiry, the first time a lookup notices) but is *retained* while
  it is younger than ``stale_max_age`` seconds past expiry, so the
  degraded-mode :meth:`get_stale` path can still serve it — a sweep is
  never needed, LRU pressure and that bound reclaim cold entries.
  The one bound decides both what is kept and what is served: a stale
  body of age ``a`` is served exactly when ``a < stale_max_age``.
  ``ttl=None`` (or ``0``) disables expiry: correctness never depends
  on TTL here (keys already die with the context signature), it only
  bounds staleness against *external* knowledge mutations.
* **A byte budget beside the entry bound.**  A body that knows its
  encoded size (``nbytes`` — the pipeline's ``RankBody`` reports the
  length of its ``items`` fragment) is charged for it; anything else is
  charged a flat :data:`SMALL_BODY_BYTES`.  A put evicts LRU until the
  cache is back under :data:`MAX_CACHE_BYTES`, so 4 096 entries of
  full rankings can no longer add up to a gigabyte.  The
  budget is a constant, not a tunable: it exists to bound the worst
  case, and the entry bound stays the knob.
* **Per-tenant purge.**  A tenant → keys index makes
  :meth:`invalidate_tenant` O(tenant's entries), not a scan.
* **Family fallback.**  ``put`` records the most recent key per
  response *family* (tenant + query shape, see
  :func:`repro.cache.keys.family_key`); :meth:`get_stale` falls back
  to it when the exact key has nothing — the digest-stale serve the
  resilience layer uses while the breaker is open.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.cache.protocol import ResponseCacheInfo, StaleHit
from repro.errors import EngineConfigError
from repro.perf import LRU

__all__ = ["InMemoryCacheAdapter", "MAX_CACHE_BYTES", "SMALL_BODY_BYTES"]

#: Whole-cache bound on stored body bytes.
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


class InMemoryCacheAdapter:
    """An LRU + TTL response cache (one per worker process).

    Parameters
    ----------
    max_entries:
        Bound on stored bodies (exact).
    ttl:
        Seconds an entry may live; ``None`` or ``0`` disables expiry.
    clock:
        Monotonic time source (injectable so tests age entries without
        sleeping).
    stale_max_age:
        How old a body :meth:`get_stale` serves may be: seconds past
        expiry for an expired entry (which is dropped at that age),
        seconds since storage for a family fallback.  ``0`` serves
        nothing stale and drops entries on expiry.
    """

    enabled = True

    def __init__(
        self,
        max_entries: int = 4096,
        ttl: float | None = 300.0,
        clock: Callable[[], float] = time.monotonic,
        stale_max_age: float = 300.0,
    ):
        if not isinstance(max_entries, int) or max_entries < 1:
            raise EngineConfigError(
                f"cache max_entries must be a positive integer, got {max_entries!r}"
            )
        if ttl is not None and ttl < 0:
            raise EngineConfigError(f"cache ttl must be non-negative, got {ttl!r}")
        if stale_max_age < 0:
            raise EngineConfigError(
                f"cache stale_max_age must be non-negative, got {stale_max_age!r}"
            )
        self.max_entries = max_entries
        self.ttl = ttl if ttl else None
        self.stale_max_age = stale_max_age
        self._clock = clock
        self._lock = threading.Lock()
        self._entries = LRU(max_entries)
        self._by_tenant: dict[str, set[str]] = {}
        self._bytes = 0
        self._expiries = 0
        self._invalidations = 0
        # Most recent key per family; the degraded-mode fallback index.
        self._families = LRU(max_entries)
        self._stale_hits = 0
        self._stale_misses = 0

    def _unindex(self, key: str, entry: _Entry) -> None:
        """Forget a removed entry's bytes and tenant index (under the lock)."""
        self._bytes -= entry.nbytes
        if entry.tenant is not None:
            keys = self._by_tenant.get(entry.tenant)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_tenant[entry.tenant]

    def _expired(self, key: str, entry: _Entry, now: float) -> bool:
        """Whether ``entry`` has outlived its TTL (under the lock).  The
        expiry is counted once, and at ``stale_max_age`` past it the body
        is dropped."""
        if entry.expires_at is None or now < entry.expires_at:
            return False
        if not entry.expiry_counted:
            entry.expiry_counted = True
            self._expiries += 1
        if now - entry.expires_at >= self.stale_max_age:
            self._unindex(key, self._entries.pop(key))
        return True

    # -- the per-request path ---------------------------------------------
    def get(self, key: str) -> object | None:
        now = self._clock()
        with self._lock:
            entry = self._entries.peek(key)
            if entry is not None and not self._expired(key, entry, now):
                return self._entries.get(key).body
            # A miss — an expired body too: it is kept for get_stale until
            # it is too old to serve stale, but neither answers nor freshens.
            self._entries.misses += 1
            return None

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
        entry = _Entry(body, tenant, expires_at, now, family)
        with self._lock:
            entries = self._entries
            replaced = entries.pop(key)
            if replaced is not None:
                self._unindex(key, replaced)
            evicted = entries.put(key, entry)
            if evicted is not None:
                self._unindex(*evicted)
            self._bytes += entry.nbytes
            if tenant is not None:
                self._by_tenant.setdefault(tenant, set()).add(key)
            # LRU out until the byte budget holds again (a body bigger
            # than the whole budget evicts itself: it is not cached).
            while self._bytes > MAX_CACHE_BYTES:
                victim = next(iter(entries))
                self._unindex(victim, entries.evict(victim))
            if family is not None:
                self._families.put(family, key)

    # -- degraded-mode serving ---------------------------------------------
    def _stale_probe(
        self, key: str, now: float, *, exact: bool, family: str | None = None
    ) -> StaleHit | None:
        entry = self._entries.peek(key)
        if entry is None:
            return None
        if family is not None and entry.family != family:
            return None  # stale family pointer; never serve across families
        expired = self._expired(key, entry, now)
        if expired:
            age = now - entry.expires_at
        else:
            # A live body: fresh if it is the exact key, digest-stale
            # (age = time since storage) on a family fallback.
            age = 0.0 if exact else now - entry.stored_at
        if age >= self.stale_max_age:
            return None
        return StaleHit(body=entry.body, age=age, expired=expired, exact=exact)

    def get_stale(self, key: str, *, family: str | None = None) -> StaleHit | None:
        now = self._clock()
        with self._lock:
            hit = self._stale_probe(key, now, exact=True)
            if hit is None and family is not None:
                fallback = self._families.peek(family)
                if fallback is not None and fallback != key:
                    hit = self._stale_probe(fallback, now, exact=False, family=family)
            if hit is None:
                self._stale_misses += 1
            else:
                self._stale_hits += 1
        return hit

    # -- management --------------------------------------------------------
    def invalidate_tenant(self, tenant: str) -> int:
        with self._lock:
            keys = self._by_tenant.pop(tenant, ())
            for key in keys:
                self._bytes -= self._entries.pop(key).nbytes
            self._invalidations += len(keys)
        return len(keys)

    def clear(self) -> int:
        with self._lock:
            dropped = len(self._entries)
            self._invalidations += dropped
            self._entries.clear()
            self._by_tenant.clear()
            self._bytes = 0
            self._families.clear()
        return dropped

    def info(self) -> ResponseCacheInfo:
        now = self._clock()
        with self._lock:
            return ResponseCacheInfo(
                hits=self._entries.hits,
                misses=self._entries.misses,
                evictions=self._entries.evictions,
                expiries=self._expiries,
                invalidations=self._invalidations,
                # Live entries only: expired-but-retained bodies are
                # degraded-mode inventory, not cache occupancy.
                entries=sum(
                    1
                    for entry in self._entries.values()
                    if entry.expires_at is None or now < entry.expires_at
                ),
                max_entries=self.max_entries,
                ttl=self.ttl,
                stale_hits=self._stale_hits,
                stale_misses=self._stale_misses,
                bytes=self._bytes,
                max_bytes=MAX_CACHE_BYTES,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        info = self.info()
        return (
            f"InMemoryCacheAdapter(entries={info.entries}/{info.max_entries}, "
            f"ttl={info.ttl}, hits={info.hits}, misses={info.misses})"
        )
