"""Per-context-signature memoization of the preference view.

Section 5's observation — "as the current context develops, the
probabilities of containment of tuples in the view changes accordingly"
— cuts both ways: while the context does *not* develop, the view does
not change either.  The engine therefore keys fully scored views by
``(context signature, rule fingerprint, scorer configuration)`` and
serves repeats from memory; any context or rule change produces a new
key, which is invalidation by construction.

A small LRU bound keeps memory flat under heavy traffic with many
distinct contexts (e.g. per-user sensor snapshots).

Besides fully scored views, the cache distinguishes a cheaper kind of
reuse: a **basis** (:class:`repro.engine.basis.ViewBasis`) keyed by
everything *except* the dynamic context — static-knowledge epoch, rule
fingerprint, scorer configuration, target.  On a context-only change
the signature misses but the basis hits, and the engine rescores on
the compiled candidate matrix instead of re-binding every document
(``context_refreshes`` counts these incremental refreshes).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Hashable, Mapping

from repro.core.scoring import DocumentScore
from repro.errors import EngineConfigError
from repro.perf import LRU

__all__ = ["ViewCache", "CacheInfo"]


@dataclass(frozen=True)
class CacheInfo:
    """Hit/miss counters plus occupancy, in the ``functools`` style.

    ``context_refreshes`` counts signature misses served incrementally
    from a cached basis (context-delta rescoring); ``bases`` is the
    number of compiled bases currently held.
    """

    hits: int
    misses: int
    entries: int
    max_entries: int
    context_refreshes: int = 0
    bases: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ViewCache:
    """An LRU map from engine signatures to scored preference views.

    Two :class:`~repro.perf.LRU` tables of ``max_entries`` each (views
    and bases) under one lock: every operation holds it once, so the
    LRU bookkeeping can never corrupt under concurrent readers — the
    engine's own lock already serialises one engine's requests, but
    diagnostic readers (``info()``, the service's ``/metrics``
    endpoint) observe the cache from other threads.
    """

    def __init__(self, max_entries: int = 16):
        if max_entries < 1:
            raise EngineConfigError(
                f"cache needs at least one entry, got max_entries={max_entries!r}"
            )
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries = LRU(max_entries)
        self._bases = LRU(max_entries)
        self._context_refreshes = 0

    def get(self, key: Hashable) -> Mapping[str, DocumentScore] | None:
        """The cached scores for ``key`` (counts a hit or a miss)."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: Hashable, scores: Mapping[str, DocumentScore]) -> None:
        """Store a scored view for ``key``, evicting the least recent if full.

        Held by reference: scored views are immutable (a columnar
        :class:`~repro.core.kernel.ScoredView` is ~8 bytes a document),
        so the cache, the preference view and every herd mate the
        scored-view memo served share one object."""
        with self._lock:
            self._entries.put(key, scores)

    # -- the incremental-rescoring basis ----------------------------------
    def basis_get(self, key: Hashable):
        """The cached basis for ``key`` (not counted in :meth:`info`)."""
        with self._lock:
            return self._bases.get(key)

    def basis_put(self, key: Hashable, basis: object) -> None:
        """Store a compiled basis, evicting the least recent if full."""
        with self._lock:
            self._bases.put(key, basis)

    def note_context_refresh(self) -> None:
        """Count one signature miss served incrementally from a basis."""
        with self._lock:
            self._context_refreshes += 1

    def invalidate(self) -> None:
        """Drop every entry and basis (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._bases.clear()

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                hits=self._entries.hits,
                misses=self._entries.misses,
                entries=len(self._entries),
                max_entries=self.max_entries,
                context_refreshes=self._context_refreshes,
                bases=len(self._bases),
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries
