"""Low-level performance helpers behind the scoring kernel and the caches.

:mod:`repro.perf.backend` picks the numeric backend — numpy when it is
importable (and not overridden), a pure-python fallback otherwise —
:mod:`repro.perf.flatops` holds the flat-array loops that fallback runs
on, and :mod:`repro.perf.columns` the name tables and the one
order/truncate step that turn a score vector into a ranking.  Nothing
in here knows about rules, documents or events: the kernel
(:mod:`repro.core.kernel`) compiles the scoring problem down to the
coefficient arrays these helpers consume.

:class:`LRU` is the one bounded table of the library: every cache,
pool and ledger a request passes through (view cache, basis pool,
scored-view memo, reasoner registries, response cache, response-key
ledger, circuit breaker, tenant registry, held contexts) is one, under
its owner's lock.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterator

from repro.perf.backend import (
    BACKEND_ENV,
    BACKENDS,
    backend_name,
    numpy_or_none,
    reset_backend,
    resolve_backend,
)
from repro.perf.columns import NameTable, ScoreColumn, rank_columns
from repro.perf.flatops import log_linear_rows, row_scores

__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "LRU",
    "NameTable",
    "ScoreColumn",
    "backend_name",
    "log_linear_rows",
    "numpy_or_none",
    "rank_columns",
    "reset_backend",
    "resolve_backend",
    "row_scores",
]

_MISSING = object()


class LRU:
    """A least-recently-used table with an exact entry bound.

    :meth:`get` counts a hit or a miss and freshens what it finds;
    :meth:`peek` and ``in`` do neither; :meth:`put` stores a value as the
    most recent and returns the ``(key, value)`` it evicted to keep the
    bound (``None`` when it evicted nothing); iteration runs oldest
    first.  ``max_entries=None`` leaves the bound to the owner, which
    then evicts by its own policy through :meth:`evict` (the tenant
    registry, whose sweep skips pinned sessions).

    Not locked: each owner takes its own lock around its tables, once
    per operation, so no request path locks twice.
    """

    __slots__ = ("max_entries", "_entries", "hits", "misses", "evictions")

    def __init__(self, max_entries: int | None):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"an LRU needs at least one entry, got {max_entries!r}")
        self.max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default=None):
        """The value under ``key``, freshened (a hit), or ``default`` (a miss)."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def peek(self, key: Hashable, default=None):
        """The value under ``key`` or ``default``: not counted, not freshened."""
        return self._entries.get(key, default)

    def put(self, key: Hashable, value) -> tuple | None:
        """Store ``value`` under ``key`` as the most recent entry; returns
        the evicted ``(key, value)`` when the bound took one."""
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        if self.max_entries is not None and len(entries) > self.max_entries:
            self.evictions += 1
            return entries.popitem(last=False)
        return None

    def pop(self, key: Hashable, default=None):
        """Remove ``key``; returns its value, or ``default`` (not an eviction)."""
        return self._entries.pop(key, default)

    def evict(self, key: Hashable):
        """Remove ``key`` by the owner's own policy, counted as an
        eviction; returns its value, or ``None`` when absent."""
        value = self._entries.pop(key, _MISSING)
        if value is _MISSING:
            return None
        self.evictions += 1
        return value

    def clear(self) -> None:
        """Drop every entry (the counters are kept)."""
        self._entries.clear()

    def items(self):
        """``(key, value)`` pairs, oldest first."""
        return self._entries.items()

    def values(self):
        """Values, oldest first."""
        return self._entries.values()

    def __iter__(self) -> Iterator:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries
