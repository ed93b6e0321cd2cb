"""The response-cache adapter protocol.

The serving pipeline treats its response cache as a pluggable backend
behind one small protocol (the shape merino-py gives its suggestion
cache: ``protocol.py`` / ``none.py`` / a real store), so deployments
choose a policy, not an implementation detail:

* :class:`~repro.cache.none.NoCacheAdapter` — the disabled backend;
  every lookup misses, every fill is dropped.  The pipeline also skips
  its cache stage entirely when ``adapter.enabled`` is false, so "no
  cache" costs nothing.
* :class:`~repro.cache.memory.InMemoryCacheAdapter` — an LRU + TTL
  map under one lock; the per-worker default for the
  serving fleet.

An adapter stores **rendered response bodies** — opaque to it; the
pipeline's are ``RankBody`` objects (a small header plus one encoded
``items`` fragment), and a body that exposes ``nbytes`` is charged that
many bytes against the adapter's byte budget — under opaque string keys derived by :mod:`repro.cache.keys` from
``(tenant id, engine view fingerprint, canonicalised query, top_k)``.
Because the fingerprint covers the tenant's whole context (plus rules,
knowledge epochs and scoring configuration), a context change moves
every affected request to a new key — stale entries become unreachable
by construction, and :meth:`CacheAdapter.invalidate_tenant` exists for
the explicit path (administrative purges, direct session mutation
outside the service API).

Stored bodies are shared between the filler and every later hit: they
must be treated as immutable (the pipeline derives a new header around
the shared fragment when it decorates a hit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

__all__ = ["CacheAdapter", "ResponseCacheInfo", "StaleHit"]


@dataclass(frozen=True)
class StaleHit:
    """One degraded-mode answer from :meth:`CacheAdapter.get_stale`.

    ``age`` is how stale the body is, in seconds: time past TTL expiry
    for an expired entry, time since storage for a digest-stale family
    fallback (0.0 for a fresh exact body).  ``expired`` marks a body
    past its TTL (as opposed to merely digest-stale); ``exact``
    distinguishes the request's own key from a family fallback (same
    tenant and query shape, different — older — context digest).
    """

    body: object
    age: float
    expired: bool
    exact: bool


@dataclass(frozen=True)
class ResponseCacheInfo:
    """Counters of one response-cache adapter (JSON-able via ``to_dict``).

    ``evictions`` counts LRU displacements, ``expiries`` entries that
    died of TTL on lookup, ``invalidations`` entries purged explicitly
    (per-tenant or ``clear``); ``stale_hits``/``stale_misses`` count
    the degraded-mode :meth:`CacheAdapter.get_stale` probes.  ``bytes``
    is what the stored bodies currently weigh against ``max_bytes``.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expiries: int = 0
    invalidations: int = 0
    entries: int = 0
    max_entries: int = 0
    ttl: float | None = None
    stale_hits: int = 0
    stale_misses: int = 0
    bytes: int = 0
    max_bytes: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        """The ``GET /metrics`` rendering of these counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "evictions": self.evictions,
            "expiries": self.expiries,
            "invalidations": self.invalidations,
            "entries": self.entries,
            "max_entries": self.max_entries,
            "ttl_seconds": self.ttl,
            "stale_hits": self.stale_hits,
            "stale_misses": self.stale_misses,
            "bytes": self.bytes,
            "max_bytes": self.max_bytes,
        }


@runtime_checkable
class CacheAdapter(Protocol):
    """What the serving pipeline requires of a response cache."""

    #: False for the no-op backend: the pipeline skips the cache stage
    #: (no key derivation, no ledger bookkeeping) when disabled.
    enabled: bool

    #: How old a body :meth:`get_stale` serves may be, in seconds;
    #: ``0`` serves nothing stale.
    stale_max_age: float

    def get(self, key: str) -> object | None:
        """The stored body for ``key`` (None on miss/expiry).

        Implementations count a hit or a miss; the returned body is
        shared — callers must not mutate it.
        """
        ...

    def put(
        self,
        key: str,
        body: object,
        *,
        tenant: str | None = None,
        family: str | None = None,
    ) -> None:
        """Store a rendered body, tagged with its tenant for purges.

        ``family`` (see :func:`repro.cache.keys.family_key`) groups
        every key for one tenant + query shape so :meth:`get_stale`
        can fall back to the most recent family member.
        """
        ...

    def get_stale(self, key: str, *, family: str | None = None) -> StaleHit | None:
        """A degraded-mode body for ``key`` younger than
        ``stale_max_age`` (its :attr:`StaleHit.age`), and when the
        exact key misses, the most recently stored body of ``family``
        (same tenant + query shape, different context digest) may
        answer instead.  Never counts toward ``hits``/``misses`` —
        degraded serves must not inflate the healthy hit ratio.
        """
        ...

    def invalidate_tenant(self, tenant: str) -> int:
        """Purge every entry stored for ``tenant``; returns the count."""
        ...

    def clear(self) -> int:
        """Drop every entry; returns how many were live."""
        ...

    def info(self) -> ResponseCacheInfo:
        """Aggregate hit/miss/eviction/expiry counters."""
        ...
