"""Response-cache keys: stable digests of *what a ranked answer depends on*.

The paper's premise is that a ranked answer is a pure function of the
tenant's knowledge state and the query — between context changes there
is nothing request-specific left to compute.  "Predicting Preference
Flips in Commerce Search" (PAPERS.md) supplies the discipline: context
can flip a preference, so the cache key must carry the **full context
signature**, and a context mutation must make every previous key for
that tenant unreachable.

A response key is therefore::

    key = tenant id | view digest | query digest

* the **view digest** hashes the engine's view signature — context
  rendering (including static-knowledge epoch), TBox/space revisions,
  rule fingerprint, scoring configuration and target — exactly the key
  the engine's own view cache proves sufficient for score identity;
* the **query digest** hashes the canonicalised request shape
  (explicit candidate list, effective ``top_k``, ``explain``).

Everything a key takes from the request itself — the canonical
context's digest and the shape digest — is one :class:`QueryKey`,
derived by :func:`query_key`.  It is a pure function of the request, so
the service derives it once per distinct ``/rank`` query string
(``ServiceRequest.from_query`` memoises the parsed request, and the
request carries its ``QueryKey``); only the view digest is looked up
per request.

Invalidation is *by reachability*: any context flip changes the view
signature, so stale entries cannot be addressed at all (and, being
content-addressed, restoring an earlier context legitimately restores
its still-valid entries).  TTL and LRU in the adapter reclaim the
memory.

The :class:`ResponseKeyer` is the per-service **ledger** that makes
lookup possible *before* the tenant's session is resolved: it learns
``tenant → standing view digest`` and ``(tenant, context delta) →
view digest`` mappings from real engine fingerprints — the
``(knowledge epoch, signature)`` pairs captured inside the rank/install
critical sections — and applies them newest-epoch-wins, so thread
scheduling can never publish an older engine state over a newer one.
A lookup the ledger cannot answer is simply a miss; the fill after the
rank teaches it the true digest.  Direct session mutation *outside*
the service API (e.g. ``session.assert_fact`` on a handle you hold) is
invisible to the ledger — pair it with
:meth:`RankingService.invalidate_tenant`.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Iterable

from repro.engine.backends import (
    CanonicalContext,
    ContextValue,
    context_value,
)
from repro.perf import LRU

__all__ = [
    "CanonicalContext",
    "KeyLookup",
    "QueryKey",
    "ResponseKeyer",
    "family_key",
    "query_key",
    "response_key",
    "signature_digest",
    "SERVICE_TICK",
]

#: The tick the serving pipeline installs request contexts under: it
#: names their atoms, so it is part of every request's context value.
SERVICE_TICK = "svc"

#: Bound on remembered context-delta → digest mappings per tenant (the
#: most recently used are kept).
_MAX_DELTAS = 64

#: Bound on remembered verified signature → digest pairs per tenant: a
#: delta hit flips among a few contexts (the ledger's menus are 4), and
#: each flip back re-verifies a signature it verified before.
_MAX_VERIFIED = 8


def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:24]


def signature_digest(signature: Hashable) -> str:
    """A short stable digest of an engine view signature."""
    return _digest(signature)


def response_key(
    tenant: str,
    view_digest: str,
    documents: tuple[str, ...] | None,
    top_k: int | None,
    explain: bool,
) -> str:
    """The adapter key for one ``(tenant, view, query shape)`` triple."""
    return query_key(tenant, None, documents, top_k, explain).key(view_digest)


def family_key(
    tenant: str,
    documents: tuple[str, ...] | None,
    top_k: int | None,
    explain: bool,
) -> str:
    """The view-digest-independent half of a response key.

    Every response key for one ``(tenant, query shape)`` pair shares
    this family whatever context the body was ranked under.  The
    degraded-mode path uses it to find a *digest-stale* body — the
    tenant's most recently filled answer to the same query — when the
    exact key cannot be served (engine down, breaker open, deadline
    blown).  Such a body may reflect an older context; the pipeline
    flags it ``"stale": true`` and bounds its age.
    """
    return query_key(tenant, None, documents, top_k, explain).family


@lru_cache(maxsize=256)
def _shape_digest(
    documents: tuple[str, ...] | None, top_k: int | None, explain: bool
) -> str:
    # Few distinct shapes serve many requests: one digest (and one
    # string, shared by every key of that shape) each.
    return _digest((documents, top_k, explain))


@dataclass(frozen=True, slots=True)
class QueryKey:
    """What a response key takes from one request, derived once.

    ``canon_digest`` is the digest of the request's context delta
    (its :class:`~repro.engine.backends.ContextValue`; ``None`` for a
    request that keeps the standing context) and ``shape`` the
    request's shape — its ``(documents, top_k, explain)``.  :meth:`key`
    is the :func:`response_key` under one view digest and
    :attr:`family` the :func:`family_key`.
    """

    tenant: str
    canon_digest: str | None
    shape: str

    def key(self, view_digest: str) -> str:
        return f"{self.tenant}|{view_digest}|{self.shape}"

    @property
    def family(self) -> str:
        return f"{self.tenant}|{self.shape}"


def query_key(
    tenant: str,
    context: Iterable[str] | ContextValue | None,
    documents: tuple[str, ...] | None,
    top_k: int | None,
    explain: bool,
) -> QueryKey:
    """Derive a request's :class:`QueryKey`.

    ``context`` specs are taken as their :data:`SERVICE_TICK` value
    (:func:`~repro.engine.backends.context_value`).  Raises the
    underlying :class:`~repro.errors.EngineConfigError` when a context
    spec does not parse.
    """
    return QueryKey(
        tenant=tenant,
        canon_digest=(
            context_value(context, SERVICE_TICK).digest if context is not None else None
        ),
        shape=_shape_digest(documents, top_k, explain),
    )


@dataclass(slots=True)
class KeyLookup:
    """One resolved lookup attempt (everything the fill needs later).

    ``view_digest`` is the ledger's prediction of the engine state the
    request will rank under; when unlearned (None) the ``key`` falls
    back to a sentinel digest no fill can ever produce — a guaranteed
    miss, but one the adapter still *counts*, so the reported hit
    ratio reflects every cacheable request, not just the answerable
    ones.  ``needs_install`` marks a context-delta request whose
    cached body may be served only *after* the delta is installed as
    the tenant's standing context (the client-visible side effect of
    ``/rank`` with ``context=``).
    """

    query: QueryKey
    era: int
    view_digest: str | None
    needs_install: bool

    @property
    def tenant(self) -> str:
        return self.query.tenant

    @property
    def canon_digest(self) -> str | None:
        return self.query.canon_digest

    @property
    def key(self) -> str:
        digest = self.view_digest if self.view_digest is not None else "unlearned"
        return self.query.key(digest)

    @property
    def family(self) -> str:
        return self.query.family


class _TenantLedger:
    __slots__ = ("era", "standing_epoch", "standing_digest", "deltas", "verified")

    def __init__(self):
        self.era = 0
        self.reset()

    def reset(self) -> None:
        """Forget every learned digest (the caller moves the era)."""
        self.standing_epoch = -1
        self.standing_digest: str | None = None
        #: canonical context digest -> the view digest it installs, and
        #: view signature -> its digest for delta-hit verifications only
        #: (a miss's fill or a context post rarely signs the same twice):
        #: each made by its first entry, so a tenant that has not flipped
        #: contexts since its last reset holds neither.
        self.deltas: LRU | None = None
        self.verified: LRU | None = None


class ResponseKeyer:
    """The per-service ledger mapping tenants to learned view digests.

    Thread-safe under one small lock (operations are dict reads and
    writes).  ``max_tenants`` LRU-bounds remembered tenants; evicting a
    ledger entry only costs future lookups a relearning miss — the
    digests themselves are content-addressed, so a relearned mapping
    reaching an old cache entry is *correct* (equal signature ⇒ equal
    scores, the engine's own view-cache invariant).
    """

    def __init__(self, max_tenants: int = 16384):
        self._lock = threading.Lock()
        self._tenants = LRU(max_tenants)

    # -- the request path --------------------------------------------------
    def lookup(self, query: QueryKey) -> KeyLookup:
        """Resolve a derived request key to a (possibly unanswerable) cache key."""
        tenant = query.tenant
        canon_digest = query.canon_digest
        with self._lock:
            state = self._tenants.get(tenant)
            era = state.era if state is not None else 0
            standing = state.standing_digest if state is not None else None
            if canon_digest is None:
                view_digest = standing
                needs_install = False
            else:
                deltas = state.deltas if state is not None else None
                view_digest = deltas.get(canon_digest) if deltas is not None else None
                needs_install = view_digest is not None and view_digest != standing
        return KeyLookup(
            query=query, era=era, view_digest=view_digest, needs_install=needs_install
        )

    def learn(self, lookup: KeyLookup, fingerprint: tuple) -> str | None:
        """Teach the ledger a real engine fingerprint; returns its digest.

        ``fingerprint`` is ``(knowledge epoch, view signature)`` captured
        inside the engine's critical section.  The standing mapping is
        applied newest-epoch-wins (concurrent rank/install learns for
        one tenant may land in any order); a learn whose lookup predates
        an invalidation (era mismatch) is discarded — returning ``None``
        tells the caller to skip the cache fill too.
        """
        epoch, signature = fingerprint
        verifying = lookup.needs_install
        state = self._tenants.peek(lookup.tenant) if verifying else None
        verified = state.verified if state is not None else None
        view_digest = verified.peek(signature) if verified is not None else None
        remember = verifying and view_digest is None
        if view_digest is None:
            view_digest = signature_digest(signature)
        with self._lock:
            state = self._tenants.get(tenant := lookup.tenant)
            if state is None:
                state = _TenantLedger()
                # A recreated ledger entry forgets its era; the doomed
                # in-flight learns era guards against are bounded by
                # request latency, so a fresh entry is safe to trust.
                state.era = lookup.era
                self._tenants.put(tenant, state)
            if state.era != lookup.era:
                return None
            if remember:
                if state.verified is None:
                    state.verified = LRU(_MAX_VERIFIED)
                state.verified.put(signature, view_digest)
            if epoch >= state.standing_epoch:
                state.standing_epoch = epoch
                state.standing_digest = view_digest
            if lookup.canon_digest is not None:
                if state.deltas is None:
                    state.deltas = LRU(_MAX_DELTAS)
                state.deltas.put(lookup.canon_digest, view_digest)
        return view_digest

    # -- invalidation ------------------------------------------------------
    def forget(self, tenant: str) -> None:
        """Drop everything learned about ``tenant`` (keeps the era fence).

        Called on session eviction and explicit invalidation: the next
        request relearns from a real fingerprint, and any learn still
        in flight from before the forget is fenced off by the era bump.
        """
        with self._lock:
            state = self._tenants.peek(tenant)
            if state is None:
                return
            state.era += 1
            state.reset()

    def clear(self) -> None:
        with self._lock:
            for state in self._tenants.values():
                state.era += 1
                state.reset()

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)
