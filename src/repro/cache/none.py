"""The disabled response-cache backend.

A :class:`NoCacheAdapter` satisfies the :class:`~repro.cache.protocol.
CacheAdapter` protocol while storing nothing: every ``get`` misses,
every ``put`` is dropped.  It exists so call sites can hold *an*
adapter unconditionally: it is :class:`~repro.service.RankingService`'s
default in process.  The pipeline additionally checks ``enabled`` and
skips key derivation entirely, so the disabled backend has zero
per-request cost.
"""

from __future__ import annotations

from repro.cache.protocol import ResponseCacheInfo, StaleHit

__all__ = ["NoCacheAdapter"]


class NoCacheAdapter:
    """The null response cache: never stores, never hits."""

    enabled = False
    stale_max_age = 0.0

    def get(self, key: str) -> object | None:
        return None

    def put(
        self,
        key: str,
        body: object,
        *,
        tenant: str | None = None,
        family: str | None = None,
    ) -> None:
        return None

    def get_stale(self, key: str, *, family: str | None = None) -> StaleHit | None:
        return None

    def invalidate_tenant(self, tenant: str) -> int:
        return 0

    def clear(self) -> int:
        return 0

    def info(self) -> ResponseCacheInfo:
        return ResponseCacheInfo(max_entries=0)

    def __repr__(self) -> str:
        return "NoCacheAdapter()"
