"""The multi-tenant serving layer: one world, thousands of user sessions.

The paper's tvtouch vision (Section 2) is a single static domain
ontology consulted by *many* users, each contributing only a small
volatile slice — their context and situational assertions.  A
:class:`TenantRegistry` is that shape made executable: it holds one
shared base world (frozen so no tenant can mutate it), and mints a
:class:`UserSession` per tenant — a copy-on-write
:class:`~repro.dl.abox.LayeredABox` overlay for the tenant's own
assertions, a situated user individual, their preference rules, and a
:class:`~repro.engine.RankingEngine` wired over the overlay through
:class:`~repro.engine.EngineBuilder`.

What the layering buys (see :mod:`repro.reason` and
:mod:`repro.engine.basis` for the mechanics):

* a new session costs O(overlay), not O(world) — the static knowledge,
  role indexes and the compiled reasoner's base tier are shared by
  reference across the whole fleet;
* tenants' engines exchange compiled scoring bases through the
  process-wide pool, so even the first request of a fresh tenant can
  rescore on a sibling's matrix instead of re-binding every document;
* eviction is safe and cheap: a session is just its overlay and caches,
  so the registry LRU-bounds live sessions and re-mints on demand.

**Sharding & thread safety.**  The registry fronts ``shards``
independent LRU segments hashed by tenant id, each with its own lock,
so concurrent checkouts of *different* tenants never contend on one
global lock.  The contract:

* ``session(tenant_id)`` / ``checkout(tenant_id)`` are linearisable per
  tenant: concurrent calls for one tenant return the same
  :class:`UserSession` object, and minting never races the LRU
  bookkeeping (both happen under the tenant's shard lock).
* ``checkout`` additionally *pins* the session for the duration of the
  ``with`` block: a pinned session is never chosen as an LRU victim,
  and an explicit :meth:`evict` of a pinned session is *deferred* — the
  tenant disappears from the table immediately (the next checkout mints
  afresh) but the in-flight holder keeps a fully working session.  An
  eviction can therefore never yank the overlay out from under a rank.
* ``checkout(tenant_id, blocking=False)`` is the non-waiting checkout:
  it pins an already live session, or yields ``None`` instead of
  minting or waiting for the shard lock.  ``resident(tenant_id)`` is
  the same try without a pin, for a short block that holds the shard
  lock itself.
* :meth:`info` and ``len``/``in``/iteration snapshot each shard under
  its lock, so the counters are internally consistent per shard and the
  aggregate is a sum of per-shard atomic snapshots (shards are read in
  sequence, so the aggregate can straddle concurrent checkouts — it is
  never a read of mutating dicts).
* ``max_sessions`` bounds the whole registry exactly: capacity is
  distributed ``floor(max_sessions / shards)`` per shard with the
  remainder spread one-per-shard, and ``shards`` is clamped to
  ``max_sessions`` so no shard has zero capacity.  With the default
  ``shards=1`` the bound (and the LRU order) is exactly global.

Examples
--------
>>> from repro.tenants import TenantRegistry
>>> from repro.workloads import build_tvtouch
>>> registry = TenantRegistry(build_tvtouch(), max_sessions=100)
>>> alice = registry.session("alice")
>>> alice.install_context("Weekend", "Breakfast")
>>> alice.rank().top().document
'channel5_news'
>>> bob = registry.session("bob")       # no context installed
>>> bob.overlay is not alice.overlay
True
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Mapping

from repro.dl.abox import ABox, LayeredABox
from repro.dl.vocabulary import Individual
from repro.errors import EngineConfigError, SnapshotError
from repro.rules.repository import RuleRepository
from repro.engine.builder import EngineBuilder
from repro.engine.engine import RankingEngine
from repro.engine.requests import RankRequest, RankResponse

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.multiuser.group import GroupMember
    from repro.store.journal import OverlayJournal

__all__ = ["TenantRegistry", "UserSession", "TenantRegistryInfo"]


@dataclass(frozen=True)
class TenantRegistryInfo:
    """Checkout counters of a :class:`TenantRegistry`.

    Snapshotted shard-by-shard under each shard's lock: every counter
    quadruple is internally consistent per shard, and the aggregate is
    the sum of those atomic snapshots.  ``pinned`` counts sessions
    currently checked out (in-flight requests holding them).
    """

    active: int
    max_sessions: int
    minted: int
    hits: int
    evictions: int
    shards: int = 1
    pinned: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.minted
        return self.hits / total if total else 0.0


class UserSession:
    """One tenant's live ranking session over the shared world.

    Carries the tenant's overlay (:class:`~repro.dl.abox.LayeredABox`),
    situated user individual and ranking engine.  The session is itself
    a valid ``world`` argument for :meth:`EngineBuilder.world` — it
    exposes the ``overlay``/``base`` pair, with everything else
    resolved from the base world — so ad-hoc engines (say, a different
    relevance strategy for one experiment) can be built over the same
    overlay.

    Lifecycle: the registry tracks a *pin count* (held checkouts) and a
    *doomed* flag (evicted while pinned) on each session; both are
    registry bookkeeping — a session object stays fully functional for
    whoever holds it even after eviction, it is just no longer served
    to new checkouts.
    """

    def __init__(
        self,
        tenant_id: str,
        user: Individual,
        overlay: LayeredABox,
        base: object,
        engine: RankingEngine,
        journal: "OverlayJournal | None" = None,
    ):
        self.tenant_id = tenant_id
        self.user = user
        self.overlay = overlay
        self.base = base
        self.engine = engine
        self.journal = journal
        #: Checkouts currently holding this session (registry-managed,
        #: mutated only under the owning shard's lock).
        self.pins = 0
        #: Evicted while pinned: drop for real once the pins release.
        self.doomed = False

    def _persist(self) -> None:
        """Journal the overlay after a mutation (best effort).

        Durability must never fail a rank: a full disk or unwritable
        journal degrades to in-memory-only sessions, exactly the
        pre-journal behaviour.
        """
        if self.journal is None:
            return
        try:
            self.journal.record(self.tenant_id, self.overlay)
        except OSError:
            pass

    # -- the per-tenant slice ---------------------------------------------
    @property
    def repository(self) -> RuleRepository:
        """The tenant's preference rules."""
        return self.engine.preferences.repository()

    def install_context(self, *specs: str, tick: str = "ctx") -> None:
        """Replace this tenant's dynamic context (``CONCEPT[:PROB]`` specs).

        Context lands in the overlay only — siblings and the shared
        base never see it.  With a registry journal attached, the new
        overlay state is persisted so the context survives a restart.
        """
        self.engine.install_context(*specs, tick=tick)
        self._persist()

    def install_and_fingerprint(
        self, specs, *, tick: str = "ctx", blocking: bool = True
    ) -> tuple | None:
        """Install a context and capture the engine fingerprint atomically.

        See :meth:`RankingEngine.install_and_fingerprint`; ``None``
        (nothing installed, nothing journaled) when ``blocking=False``
        finds the engine busy.
        """
        fingerprint = self.engine.install_and_fingerprint(
            specs, tick=tick, blocking=blocking
        )
        if fingerprint is not None:
            self._persist()
        return fingerprint

    def clear_context(self) -> int:
        """Drop this tenant's dynamic assertions (the base is untouched)."""
        dropped = self.overlay.clear_dynamic()
        self._persist()
        return dropped

    def assert_fact(self, concept: str, individual: str | Individual | None = None, **kwargs):
        """Assert a per-tenant concept fact into the overlay.

        Defaults to the session's own user as the individual — the
        common "this user is currently X" shape.
        """
        assertion = self.overlay.assert_concept(
            concept, individual if individual is not None else self.user, **kwargs
        )
        self._persist()
        return assertion

    # -- ranking ----------------------------------------------------------
    def rank(self, request=None):
        """Answer one ranking request (see :meth:`RankingEngine.rank`)."""
        return self.engine.rank(request)

    def rank_in_context(
        self,
        specs=None,
        request: RankRequest | str | None = None,
        *,
        tick: str = "ctx",
    ) -> RankResponse:
        """Atomically install a context delta, then rank.

        The serving primitive (see
        :meth:`RankingEngine.rank_in_context`): install + snapshot run
        under one hold of the engine lock, so a concurrent request on
        the same session can never score a half-installed context.
        """
        response = self.engine.rank_in_context(specs, request, tick=tick)
        if specs:
            self._persist()
        return response

    def rank_many(self, requests, contexts=None):
        return self.engine.rank_many(requests, contexts)

    def prepare_rank(
        self,
        specs=None,
        request: RankRequest | str | None = None,
        *,
        tick: str = "ctx",
        blocking: bool = True,
    ):
        """Snapshot install + rank (see :meth:`RankingEngine.prepare_rank`,
        ``blocking`` included): the context delta lands under the engine
        lock (and is journaled), the kernel pass runs outside it, so
        mates from other tenants never wait here."""
        prepared = self.engine.prepare_rank(specs, request, tick=tick, blocking=blocking)
        if specs and prepared is not None:
            self._persist()
        return prepared

    def preference_scores(self) -> dict[str, float]:
        return self.engine.preference_scores()

    def explain(self, document: str) -> str:
        return self.engine.explain(document)

    def as_member(self, name: str | None = None) -> "GroupMember":
        """This tenant as a :class:`~repro.multiuser.GroupMember`.

        Members minted from one registry score over overlays of one
        base, so group ranking shares the base reasoning tier while
        each member keeps a private context.
        """
        return self.engine.as_member(name if name is not None else self.tenant_id)

    def __repr__(self) -> str:
        return (
            f"UserSession({self.tenant_id!r}, user={self.user}, "
            f"overlay_assertions={len(self.overlay.overlay_snapshot())})"
        )


class _Shard:
    """One independently locked LRU segment of the session table."""

    __slots__ = ("lock", "sessions", "max_sessions", "minted", "hits", "evictions")

    def __init__(self, max_sessions: int):
        self.lock = threading.RLock()
        self.sessions: "OrderedDict[str, UserSession]" = OrderedDict()
        self.max_sessions = max_sessions
        self.minted = 0
        self.hits = 0
        self.evictions = 0

    def touch(self, tenant_id: str) -> "UserSession | None":
        """The live session, marked most recent and counted a hit (under the lock)."""
        session = self.sessions.get(tenant_id)
        if session is not None:
            self.sessions.move_to_end(tenant_id)
            self.hits += 1
        return session

    def evict_over_capacity(self, protect: "UserSession | None" = None) -> list[str]:
        """Evict least-recent *unpinned* sessions down to capacity.

        Pinned sessions are skipped, and so is ``protect`` (the
        session minted by the checkout currently running the sweep —
        evicting it would hand the caller a session a concurrent
        checkout of the same tenant cannot see, breaking per-tenant
        linearisability).  A shard whose residents are all
        pinned/protected temporarily overflows instead of yanking a
        live session; the overflow is bounded by the threads ranking at
        once (behind the gateway, its executor width) and shrinks back
        as pins release.

        Returns the evicted tenant ids so the caller can notify
        eviction listeners *after* releasing the shard lock.
        """
        over = len(self.sessions) - self.max_sessions
        if over <= 0:
            return []
        victims = [
            tenant_id
            for tenant_id, session in self.sessions.items()
            if session.pins == 0 and session is not protect
        ][:over]
        for tenant_id in victims:
            del self.sessions[tenant_id]
            self.evictions += 1
        return victims


class TenantRegistry:
    """Mints and pools per-tenant sessions over one shared base world.

    Parameters
    ----------
    world:
        The base world (duck-typed like :meth:`EngineBuilder.world`):
        ``abox`` and ``tbox`` are required; ``space``, ``target``,
        ``repository``, ``database``/``data_table`` are wired through
        when present.
    rules:
        Default preference rules for minted sessions: a shared
        :class:`RuleRepository`, or a ``tenant_id -> RuleRepository``
        factory for per-tenant rules.  ``None`` falls back to the
        world's repository.  A per-call ``rules=`` to :meth:`session`
        overrides this at mint time.
    max_sessions:
        Bound on live sessions across the whole registry (distributed
        over the shards); each shard LRU-evicts its least recently
        checked-out *unpinned* session beyond its share (an evicted
        tenant's overlay and caches are dropped — re-minting is cheap
        by design).
    shards:
        Number of independently locked LRU segments, hashed by tenant
        id (clamped to ``max_sessions``).  The default ``1`` preserves
        a single global LRU order; serving deployments use 8+ so
        concurrent checkouts of different tenants do not contend (see
        the module docstring for the full thread-safety contract).
    freeze:
        Freeze the base ABox (default).  Strongly recommended: a frozen
        base cannot be mutated by a stray tenant write, and its derived
        indexes are computed once and shared.
    journal:
        An :class:`~repro.store.OverlayJournal` (or a path to one) for
        per-tenant overlay durability.  Minting replays the tenant's
        journalled overlay before the engine builds, so a tenant's
        standing context survives eviction and fleet restarts; session
        mutations (context installs, fact assertions) append their new
        overlay state back to the journal, best-effort.
    engine_options:
        Builder options applied to every minted engine
        (``method=...``, ``relevance=...``, ``cache_size=...``, ...).
    """

    def __init__(
        self,
        world: object,
        *,
        rules: RuleRepository | Callable[[str], RuleRepository] | None = None,
        max_sessions: int = 1024,
        shards: int = 1,
        freeze: bool = True,
        journal: "OverlayJournal | str | None" = None,
        **engine_options: object,
    ):
        abox = getattr(world, "abox", None)
        tbox = getattr(world, "tbox", None)
        if not isinstance(abox, ABox) or tbox is None:
            raise EngineConfigError(
                f"TenantRegistry needs a base world with 'abox' and 'tbox', "
                f"got {type(world).__name__}"
            )
        if not isinstance(max_sessions, int) or max_sessions < 1:
            raise EngineConfigError(
                f"max_sessions must be a positive integer, got {max_sessions!r}"
            )
        if not isinstance(shards, int) or shards < 1:
            raise EngineConfigError(
                f"shards must be a positive integer, got {shards!r}"
            )
        self.world = world
        self.abox = abox
        self.tbox = tbox
        self.space = getattr(world, "space", None)
        self._target = getattr(world, "target", None)
        self._rules = rules
        if isinstance(journal, (str, bytes)) or hasattr(journal, "__fspath__"):
            from repro.store.journal import OverlayJournal

            journal = OverlayJournal(journal)
        self.journal = journal
        self._engine_options = dict(engine_options)
        self.max_sessions = max_sessions
        #: Callbacks fired with a tenant id whenever that tenant's
        #: session leaves the registry (LRU sweep, explicit evict,
        #: clear) — after the owning shard lock is released, so a
        #: listener may safely take its own locks.  The response-cache
        #: ledger subscribes here: an evicted session loses its
        #: standing context, so cached answers keyed on it must become
        #: unreachable the moment the session is gone.
        self._evict_listeners: list[Callable[[str], None]] = []
        # More shards than sessions would leave zero-capacity shards;
        # clamp so every shard holds at least one session and the
        # whole-registry bound stays exactly max_sessions.
        self.shards = min(shards, max_sessions)
        if freeze:
            abox.freeze()
        base_capacity, extra = divmod(max_sessions, self.shards)
        self._shards = tuple(
            _Shard(base_capacity + (1 if index < extra else 0))
            for index in range(self.shards)
        )

    def _shard_for(self, tenant_id: str) -> _Shard:
        # A stable string hash (PYTHONHASHSEED-independent), so a
        # tenant's shard survives restarts and is debuggable.
        return self._shards[zlib.crc32(tenant_id.encode("utf-8")) % self.shards]

    # -- checkout ----------------------------------------------------------
    def session(
        self,
        tenant_id: str,
        *,
        user: str | Individual | None = None,
        rules: RuleRepository | None = None,
        **options: object,
    ) -> UserSession:
        """The live session for ``tenant_id`` (minted on first checkout).

        ``user``, ``rules`` and builder ``options`` apply at *mint*
        time only; a checkout of an existing session returns it as-is.
        Thread-safe: concurrent checkouts of one tenant yield the same
        session object.  For request-scoped access that must not race
        eviction, prefer :meth:`checkout`.
        """
        return self._checkout(str(tenant_id), user, rules, options, pin=False)

    @contextmanager
    def checkout(
        self,
        tenant_id: str,
        *,
        blocking: bool = True,
        user: str | Individual | None = None,
        rules: RuleRepository | None = None,
        **options: object,
    ) -> Iterator[UserSession | None]:
        """A pinned, request-scoped checkout.

        While the ``with`` block runs, the session cannot be chosen as
        an LRU victim and an explicit :meth:`evict` is deferred until
        the last pin releases — an in-flight rank can never lose its
        overlay.  This is the checkout the serving pipeline uses.

        ``blocking=False`` never mints and only *tries* the tenant's
        shard lock: it yields ``None`` when the tenant has no live
        session or its shard is busy (minting or sweeping on another
        thread).  The pin it takes is released like any other.
        """
        tenant_id = str(tenant_id)
        if blocking:
            session = self._checkout(tenant_id, user, rules, options, pin=True)
        else:
            session = self._try_pin(tenant_id)
            if session is None:
                yield None
                return
        try:
            yield session
        finally:
            self._release(session)

    @contextmanager
    def resident(self, tenant_id: str) -> Iterator[UserSession | None]:
        """The tenant's live session, pinned for the block — or ``None``.

        The checkout of a thread that must never wait (the gateway's
        event loop): it never mints, and it only *tries* the tenant's
        shard lock.  ``None`` means the tenant has no live session or
        its shard is busy — minting or sweeping on another thread.  The
        pin is the shard lock itself, held for the block, so no sweep
        or :meth:`evict` can pick the session and there is no pin count
        to hand back under a lock later; the block must be short and
        must not wait either.
        """
        shard = self._shard_for(tenant_id)
        if not shard.lock.acquire(blocking=False):
            yield None
            return
        try:
            yield shard.touch(tenant_id)
        finally:
            shard.lock.release()

    def _try_pin(self, tenant_id: str) -> UserSession | None:
        """Pin the tenant's live session without minting or waiting."""
        shard = self._shard_for(tenant_id)
        if not shard.lock.acquire(blocking=False):
            return None
        try:
            session = shard.touch(tenant_id)
            if session is not None:
                session.pins += 1
            return session
        finally:
            shard.lock.release()

    def _checkout(
        self,
        tenant_id: str,
        user: str | Individual | None,
        rules: RuleRepository | None,
        options: Mapping[str, object],
        *,
        pin: bool,
    ) -> UserSession:
        shard = self._shard_for(tenant_id)
        evicted: list[str] = []
        with shard.lock:
            session = shard.touch(tenant_id)
            if session is not None:
                if pin:
                    session.pins += 1
            else:
                session = self._mint(tenant_id, user, rules, options)
                shard.sessions[tenant_id] = session
                shard.minted += 1
                if pin:
                    session.pins += 1
                # The sweep must never pick the just-minted session
                # (pinned or not): evicting it would return a session
                # no concurrent checkout of this tenant can see.
                evicted = shard.evict_over_capacity(protect=session)
        self._notify_evicted(evicted)
        return session

    def _release(self, session: UserSession) -> None:
        shard = self._shard_for(session.tenant_id)
        with shard.lock:
            session.pins = max(0, session.pins - 1)
            if session.pins == 0 and session.doomed:
                # Deferred explicit eviction: the table entry is long
                # gone (or replaced); nothing left to drop here.
                session.doomed = False
            # A shard that overflowed while everything was pinned can
            # shrink back now that a pin released.
            evicted = shard.evict_over_capacity()
        self._notify_evicted(evicted)

    def _mint(
        self,
        tenant_id: str,
        user: str | Individual | None,
        rules: RuleRepository | None,
        options: Mapping[str, object],
    ) -> UserSession:
        overlay = self.abox.overlay()
        if user is None:
            user = tenant_id
        individual = Individual(user) if isinstance(user, str) else user
        if individual not in self.abox.individuals:
            overlay.register_individual(individual)
        if self.journal is not None:
            # Rehydrate the tenant's journalled overlay before the
            # engine builds over it, so the first rank after a restart
            # already sees the persisted context.  A malformed record
            # degrades to a fresh overlay — durability is best-effort,
            # availability is not.
            try:
                self.journal.replay_into(tenant_id, overlay)
            except (SnapshotError, OSError):
                pass
        repository = rules if rules is not None else self._default_rules(tenant_id)
        builder = EngineBuilder().knowledge(overlay, self.tbox, individual, self.space)
        if self._target is not None:
            builder.target(self._target)
        if repository is not None:
            builder.preferences(repository)
        database = getattr(self.world, "database", None)
        data_table = getattr(self.world, "data_table", None)
        if database is not None and data_table is not None:
            builder.storage(database, data_table, getattr(self.world, "id_column", "id"))
        merged = dict(self._engine_options)
        merged.update(options)
        if merged:
            builder.options(**merged)
        return UserSession(
            tenant_id, individual, overlay, self.world, builder.build(), self.journal
        )

    def _default_rules(self, tenant_id: str) -> RuleRepository | None:
        if isinstance(self._rules, RuleRepository):
            return self._rules
        if callable(self._rules):
            return self._rules(tenant_id)
        return getattr(self.world, "repository", None)

    # -- pool management ---------------------------------------------------
    def add_evict_listener(self, listener: Callable[[str], None]) -> None:
        """Subscribe to session evictions (called with the tenant id).

        Listeners run after the owning shard lock is released, in
        eviction order; they must not raise (an exception would
        propagate into whichever checkout triggered the sweep).  The
        serving layer uses this to drop response-cache state the moment
        a session — and with it the tenant's standing context — dies.
        """
        self._evict_listeners.append(listener)

    def _notify_evicted(self, tenant_ids: list[str]) -> None:
        if not tenant_ids or not self._evict_listeners:
            return
        for tenant_id in tenant_ids:
            for listener in self._evict_listeners:
                listener(tenant_id)

    def evict(self, tenant_id: str) -> bool:
        """Drop a session (returns whether one was live).

        A *pinned* session is evicted lazily: it leaves the table now —
        the next checkout mints a fresh session — but in-flight holders
        keep a working session object until their pins release.
        """
        tenant_id = str(tenant_id)
        shard = self._shard_for(tenant_id)
        with shard.lock:
            session = shard.sessions.pop(tenant_id, None)
            if session is None:
                return False
            if session.pins > 0:
                session.doomed = True
            shard.evictions += 1
        self._notify_evicted([tenant_id])
        return True

    def clear(self) -> int:
        """Drop every live session; returns how many."""
        count = 0
        cleared: list[str] = []
        for shard in self._shards:
            with shard.lock:
                for session in shard.sessions.values():
                    if session.pins > 0:
                        session.doomed = True
                cleared.extend(shard.sessions)
                count += len(shard.sessions)
                shard.evictions += len(shard.sessions)
                shard.sessions.clear()
        self._notify_evicted(cleared)
        return count

    def info(self) -> TenantRegistryInfo:
        """Aggregate counters, snapshotted shard-by-shard under each lock."""
        active = minted = hits = evictions = pinned = 0
        for shard in self._shards:
            with shard.lock:
                active += len(shard.sessions)
                minted += shard.minted
                hits += shard.hits
                evictions += shard.evictions
                pinned += sum(
                    1 for session in shard.sessions.values() if session.pins > 0
                )
        return TenantRegistryInfo(
            active=active,
            max_sessions=self.max_sessions,
            minted=minted,
            hits=hits,
            evictions=evictions,
            shards=self.shards,
            pinned=pinned,
        )

    def __len__(self) -> int:
        count = 0
        for shard in self._shards:
            with shard.lock:
                count += len(shard.sessions)
        return count

    def __contains__(self, tenant_id: object) -> bool:
        tenant_id = str(tenant_id)
        shard = self._shard_for(tenant_id)
        with shard.lock:
            return tenant_id in shard.sessions

    def __iter__(self) -> Iterator[str]:
        tenant_ids: list[str] = []
        for shard in self._shards:
            with shard.lock:
                tenant_ids.extend(shard.sessions)
        return iter(tenant_ids)

    def __repr__(self) -> str:
        info = self.info()
        return (
            f"TenantRegistry(active={info.active}/{info.max_sessions}, "
            f"shards={info.shards}, minted={info.minted}, hits={info.hits}, "
            f"evictions={info.evictions})"
        )
