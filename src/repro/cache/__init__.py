"""The pluggable response-cache subsystem for the serving layer.

Layout (the merino-py ``cache/`` shape):

* :mod:`repro.cache.protocol` — the :class:`CacheAdapter` protocol and
  its :class:`ResponseCacheInfo` counters;
* :mod:`repro.cache.none` — the disabled backend;
* :mod:`repro.cache.memory` — the in-memory LRU + TTL backend;
* :mod:`repro.cache.keys` — key derivation from engine view
  fingerprints, and the :class:`ResponseKeyer` ledger the pipeline
  uses to answer "which key would this request rank under?" before
  the tenant's session is even resolved.

This is the *response* cache (whole rendered bodies, service layer);
the engine-level view/score memoisation lives in
:mod:`repro.engine.cache` and is unrelated machinery.
"""

from repro.cache.keys import (
    KeyLookup,
    QueryKey,
    ResponseKeyer,
    family_key,
    query_key,
    response_key,
    signature_digest,
)
from repro.cache.memory import InMemoryCacheAdapter
from repro.cache.none import NoCacheAdapter
from repro.cache.protocol import CacheAdapter, ResponseCacheInfo, StaleHit

__all__ = [
    "CacheAdapter",
    "InMemoryCacheAdapter",
    "KeyLookup",
    "NoCacheAdapter",
    "QueryKey",
    "ResponseCacheInfo",
    "ResponseKeyer",
    "StaleHit",
    "family_key",
    "query_key",
    "response_key",
    "signature_digest",
]
