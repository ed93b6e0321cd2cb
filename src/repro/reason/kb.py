"""The compiled knowledge-base reasoner: memoised membership & probability.

PR 2 made *scoring* a compiled one-pass kernel; this module does the
same for *reasoning*, the cold-path cost that remained: every
``membership_event`` call used to rebuild the event tree from scratch
and every ``probability`` call re-ran Shannon expansion, with zero
sharing across documents, rules, or requests.

A :class:`CompiledKB` wraps one knowledge base ``(ABox, TBox[,
EventSpace])`` and hands out :class:`ReasonerSession` objects pinned to
the KB's current *epoch*::

    epoch = (abox.mutation_count, tbox.revision, space.revision)

Within an epoch a session memoises

* **concept expansion** (TBox unfolding, once per concept),
* **sorted name/role closures** (once per name),
* the **role-successor index** (one pass over the role tables, then
  every ``∃R.C`` / ``∀R.C`` walk is a dict lookup instead of a
  full-table scan),
* **membership events** per ``(individual, concept)`` — including every
  recursive sub-concept, so filler events of shared targets (all
  programs pointing at the same genre individuals) are computed once
  for the whole candidate set,
* **probabilities** per ``(engine, event)``, with one shared
  :class:`~repro.events.shannon.ShannonEngine` whose memo spans all
  events of the epoch.

Any ABox assertion/retraction, TBox axiom, or new mutex group moves the
epoch, and the next :meth:`CompiledKB.session` call starts a fresh
session — invalidation by construction, the same discipline as the
engine's view cache.  Sessions subclass
:class:`repro.dl.instances.MembershipEvaluator`, so the *semantics* is
shared with the uncached reference path and cannot drift.

:func:`compiled_kb` is the shared registry: engines, the binder,
instance retrieval and multi-user group ranking over the same world all
receive the *same* ``CompiledKB``, so a context event reasoned for one
group member (or one request) is a memo hit for the next.

**Multi-tenant split.**  When the knowledge base is a
:class:`~repro.dl.abox.LayeredABox` — one shared static base plus a
per-user copy-on-write overlay — the caches split into two tiers.  The
**base tier** (:func:`base_tier`) is one ReasonerSession over the base
world, shared read-only across *every* overlay of that base and keyed
by the base epoch alone: concept expansions, closures, the
role-successor index, static membership events and probabilities (one
Shannon memo for the whole tenant fleet) are computed once, not once
per user.  The **overlay tier** is the per-``CompiledKB`` session,
keyed by the combined epoch as before, which answers locally only for
individuals the overlay can actually affect — everything an overlay
assertion touches, expanded to whatever can *reach* a touched
individual through role edges — and delegates the rest to the base
tier.  A new user session therefore costs O(overlay), not O(world).
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Iterable

from repro.dl.abox import ABox, LayeredABox, RoleAssertion
from repro.dl.concepts import Concept
from repro.dl.instances import MembershipEvaluator
from repro.dl.tbox import TBox
from repro.dl.vocabulary import ConceptName, Individual, RoleName
from repro.events.expr import EventExpr
from repro.events.probability import DEFAULT_ENGINE, probability as engine_probability
from repro.events.shannon import ShannonEngine
from repro.events.space import EventSpace

__all__ = [
    "CompiledKB",
    "ReasonerSession",
    "ReasonerInfo",
    "base_tier",
    "compiled_kb",
    "query_session",
    "clear_registry",
]

#: Worlds kept alive by the shared registry (LRU beyond this bound).
MAX_REGISTRY_WORLDS = 8

#: Shared base-tier sessions kept alive (LRU beyond this bound).
MAX_BASE_TIERS = 8


class _ChainedMap:
    """Two adjacency maps read as one, without copying the big one.

    Base-tier reachability maps are O(world); an overlay adds a handful
    of edges.  Chaining serves ``get`` from both in O(1) so building an
    overlay session never copies the base maps.  Only the mapping
    surface the reachability walkers use (``get``) is provided.
    """

    __slots__ = ("below", "extra")

    def __init__(self, below, extra):
        self.below = below
        self.extra = extra

    def get(self, key, default=()):
        below = self.below.get(key)
        extra = self.extra.get(key)
        if extra is None:
            return below if below is not None else default
        if below is None:
            return extra
        return list(below) + list(extra)

    @property
    def frozen_base(self):
        """The map below when this one adds nothing to it, else ``None``.

        What is reachable through a chained map with no edges of its
        own is what is reachable through the (frozen, shared) map
        below — closures over it can be memoised on that map's identity.
        """
        return None if self.extra else self.below


@dataclass(frozen=True)
class ReasonerInfo:
    """Cache counters of a :class:`CompiledKB`, in the ``functools`` style.

    ``invalidations`` counts epoch moves that discarded a session;
    ``memo_events`` / ``memo_probabilities`` are current occupancy.
    """

    epoch: tuple
    membership_hits: int
    membership_misses: int
    probability_hits: int
    probability_misses: int
    memo_events: int
    memo_probabilities: int
    invalidations: int
    #: Membership events answered by the shared base tier (overlay KBs).
    base_events: int = 0
    #: Does this KB delegate to a shared base tier?
    shared_base: bool = False

    @property
    def membership_hit_rate(self) -> float:
        total = self.membership_hits + self.membership_misses
        return self.membership_hits / total if total else 0.0


class ReasonerSession(MembershipEvaluator):
    """A :class:`MembershipEvaluator` with per-epoch memo tables.

    Sessions are created by :meth:`CompiledKB.session` and are only
    valid for the epoch they were created at — the KB replaces them on
    any knowledge change.  All lookup hooks of the reference evaluator
    are overridden with caches; the semantics in ``_compute`` is
    inherited untouched.
    """

    def __init__(
        self,
        abox: ABox,
        tbox: TBox,
        space: EventSpace | None,
        epoch: tuple,
        base: "ReasonerSession | None" = None,
    ):
        super().__init__(abox, tbox)
        self.space = space
        self.epoch = epoch
        self.base = base
        self._expansions: dict[Concept, Concept] = {}
        self._descendants: dict[ConceptName, tuple[ConceptName, ...]] = {}
        self._role_descendants: dict[RoleName, tuple[RoleName, ...]] = {}
        self._adjacency: dict[RoleName, dict[Individual, tuple[RoleAssertion, ...]]] | None = None
        self._reachability: tuple[dict[str, list[str]], dict[str, list[str]]] | None = None
        self._affected: frozenset[str] | None = None
        self._events: dict[tuple[Individual, Concept], EventExpr] = {}
        self._probabilities: dict[tuple[str, EventExpr], float] = {}
        self._shannon = base._shannon if base is not None else ShannonEngine(space)
        self.membership_hits = 0
        self.membership_misses = 0
        self.probability_hits = 0
        self.probability_misses = 0
        self.base_events = 0

    # -- cached lookup hooks --------------------------------------------
    def expand_concept(self, concept: Concept) -> Concept:
        if self.base is not None:
            return self.base.expand_concept(concept)
        expanded = self._expansions.get(concept)
        if expanded is None:
            expanded = self.tbox.expand(concept)
            self._expansions[concept] = expanded
        return expanded

    def sorted_descendants(self, name: ConceptName) -> tuple[ConceptName, ...]:
        if self.base is not None:
            return self.base.sorted_descendants(name)
        names = self._descendants.get(name)
        if names is None:
            names = super().sorted_descendants(name)
            self._descendants[name] = names
        return names

    def sorted_role_descendants(self, role: RoleName) -> tuple[RoleName, ...]:
        if self.base is not None:
            return self.base.sorted_role_descendants(role)
        roles = self._role_descendants.get(role)
        if roles is None:
            roles = super().sorted_role_descendants(role)
            self._role_descendants[role] = roles
        return roles

    def role_successors(self, role: RoleName, individual: Individual) -> Iterable[RoleAssertion]:
        if self._adjacency is None:
            # For a LayeredABox this merges the base's cached index with
            # the overlay in O(roles + overlay) — see ABox.role_adjacency.
            self._adjacency = self.abox.role_adjacency()
        return self._adjacency.get(role, {}).get(individual, ())

    def reachability_maps(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        """Role-blind ``(forward, reverse)`` name adjacency, cached per epoch.

        The incremental-rescoring guard (:mod:`repro.engine.basis`)
        walks reachability closures on every context-change check;
        serving both directions from the session keeps that check
        O(touched region) instead of re-scanning every role assertion
        per request.  Overlay sessions chain the base tier's maps with
        the overlay's few edges instead of re-scanning the world.
        """
        if self._reachability is None:
            if self.base is not None:
                base_forward, base_reverse = self.base.reachability_maps()
                forward_extra: dict[str, list[str]] = {}
                reverse_extra: dict[str, list[str]] = {}
                for assertion in self.abox.overlay_assertions():
                    if isinstance(assertion, RoleAssertion):
                        source, target = assertion.source.name, assertion.target.name
                        forward_extra.setdefault(source, []).append(target)
                        reverse_extra.setdefault(target, []).append(source)
                self._reachability = (
                    _ChainedMap(base_forward, forward_extra),
                    _ChainedMap(base_reverse, reverse_extra),
                )
            else:
                forward: dict[str, list[str]] = {}
                reverse: dict[str, list[str]] = {}
                for assertion in self.abox.role_assertions():
                    source, target = assertion.source.name, assertion.target.name
                    forward.setdefault(source, []).append(target)
                    reverse.setdefault(target, []).append(source)
                self._reachability = (forward, reverse)
        return self._reachability

    def affected_names(self) -> frozenset[str]:
        """Individuals whose membership events the overlay may change.

        The overlay's touched individuals plus everything that can
        *reach* one through role edges (their events can embed the
        changed facts).  Everything outside this set is answered by the
        shared base tier.  Empty for sessions without a base.
        """
        if self._affected is None:
            if self.base is None:
                self._affected = frozenset()
            else:
                touched = set(self.abox.overlay_names())
                _forward, reverse = self.reachability_maps()
                queue = deque(touched)
                while queue:
                    for neighbour in reverse.get(queue.popleft(), ()):
                        if neighbour not in touched:
                            touched.add(neighbour)
                            queue.append(neighbour)
                self._affected = frozenset(touched)
        return self._affected

    def event(self, individual: Individual, concept: Concept) -> EventExpr:
        if self.base is not None and individual.name not in self.affected_names():
            # The overlay provably cannot change this individual's
            # events: serve (and memoise) on the shared base tier.
            self.base_events += 1
            return self.base.event(individual, concept)
        key = (individual, concept)
        cached = self._events.get(key)
        if cached is not None:
            self.membership_hits += 1
            return cached
        self.membership_misses += 1
        result = self._compute(individual, concept)
        self._events[key] = result
        return result

    # -- probabilities ---------------------------------------------------
    def probability(self, event: EventExpr, engine: str = DEFAULT_ENGINE) -> float:
        """Probability of ``event``, memoised per ``(engine, event)``.

        The default Shannon path additionally shares one expansion memo
        across every event of the epoch, so repeated *sub*-expressions
        are solved once even on first sight of a new event.
        """
        if event.is_certain:
            return 1.0
        if event.is_impossible:
            return 0.0
        if self.base is not None:
            # One probability memo (and one Shannon sub-expression memo)
            # for the whole tenant fleet: probabilities depend only on
            # the event structure and the shared space, both of which
            # are pinned by the base tier's epoch.
            return self.base.probability(event, engine)
        key = (engine, event)
        cached = self._probabilities.get(key)
        if cached is not None:
            self.probability_hits += 1
            return cached
        self.probability_misses += 1
        if engine == "shannon":
            value = self._shannon.probability(event)
        else:
            value = engine_probability(event, self.space, engine)
        self._probabilities[key] = value
        return value

    def membership_probability(
        self,
        individual: str | Individual,
        concept: Concept,
        engine: str = DEFAULT_ENGINE,
    ) -> float:
        """Memoised ``P(individual ∈ concept)``."""
        return self.probability(self.membership_event(individual, concept), engine)

    # -- set-at-a-time retrieval ----------------------------------------
    def retrieve(self, concept: Concept) -> dict[Individual, EventExpr]:
        """Every individual with a non-impossible membership event.

        One traversal: the concept is expanded once and all individuals
        are evaluated against the shared memo, so role walks and filler
        events are computed once for the whole domain.
        """
        expanded = self.expand_concept(concept)
        result: dict[Individual, EventExpr] = {}
        for individual in sorted(self.abox.individuals, key=lambda ind: ind.name):
            event = self.event(individual, expanded)
            if not event.is_impossible:
                result[individual] = event
        return result

    def retrieve_probabilities(
        self, concept: Concept, engine: str = DEFAULT_ENGINE
    ) -> dict[Individual, float]:
        """Instance retrieval with probabilities instead of raw events."""
        return {
            individual: self.probability(event, engine)
            for individual, event in self.retrieve(concept).items()
        }


class CompiledKB:
    """One knowledge base, compiled: epoch-guarded reasoning caches.

    Construct directly for a private cache (benchmarks measuring cold
    binds do), or through :func:`compiled_kb` to share one instance —
    and its memo tables — across every engine, scorer and group member
    over the same world.

    Examples
    --------
    >>> from repro.workloads import build_tvtouch
    >>> world = build_tvtouch()
    >>> kb = CompiledKB(world.abox, world.tbox, world.space)
    >>> kb.membership_probability(world.user, world.target)
    0.0
    >>> kb.info().membership_misses > 0
    True
    """

    def __init__(self, abox: ABox, tbox: TBox, space: EventSpace | None = None):
        self.abox = abox
        self.tbox = tbox
        self.space = space
        self._session: ReasonerSession | None = None
        # session() is a check-then-swap on the live session; KBs for a
        # flat world are shared across engines (compiled_kb), so two
        # threads must not race the retire-and-replace sequence.
        self._session_lock = threading.Lock()
        self._invalidations = 0
        self._hits = 0
        self._misses = 0
        self._probability_hits = 0
        self._probability_misses = 0
        self._base_events = 0

    # -- epochs ----------------------------------------------------------
    def epoch(self) -> tuple:
        """The current knowledge epoch; any change invalidates sessions."""
        space_revision = self.space.revision if self.space is not None else -1
        return (self.abox.mutation_count, self.tbox.revision, space_revision)

    def session(self) -> ReasonerSession:
        """The memoised session for the *current* epoch.

        Reuses the live session while the knowledge is unchanged;
        builds a fresh one (dropping every memo) the moment the ABox,
        TBox or mutex structure moved.
        """
        epoch = self.epoch()
        session = self._session
        if session is not None and session.epoch == epoch:
            return session
        with self._session_lock:
            session = self._session
            if session is None or session.epoch != epoch:
                if session is not None:
                    self._retire(session)
                    self._invalidations += 1
                session = _make_session(self.abox, self.tbox, self.space, epoch)
                self._session = session
            return session

    def invalidate(self) -> None:
        """Drop the current session unconditionally (memos are rebuilt)."""
        with self._session_lock:
            if self._session is not None:
                self._retire(self._session)
                self._invalidations += 1
                self._session = None

    def _retire(self, session: ReasonerSession) -> None:
        self._hits += session.membership_hits
        self._misses += session.membership_misses
        self._probability_hits += session.probability_hits
        self._probability_misses += session.probability_misses
        self._base_events += session.base_events

    # -- delegating conveniences -----------------------------------------
    def membership_event(self, individual: str | Individual, concept: Concept) -> EventExpr:
        """Memoised membership event under the current epoch."""
        return self.session().membership_event(individual, concept)

    def membership_probability(
        self,
        individual: str | Individual,
        concept: Concept,
        engine: str = DEFAULT_ENGINE,
    ) -> float:
        """Memoised membership probability under the current epoch."""
        return self.session().membership_probability(individual, concept, engine)

    def probability(self, event: EventExpr, engine: str = DEFAULT_ENGINE) -> float:
        """Memoised event probability under the current epoch."""
        return self.session().probability(event, engine)

    def retrieve(self, concept: Concept) -> dict[Individual, EventExpr]:
        """Set-at-a-time instance retrieval under the current epoch."""
        return self.session().retrieve(concept)

    def retrieve_probabilities(
        self, concept: Concept, engine: str = DEFAULT_ENGINE
    ) -> dict[Individual, float]:
        """Set-at-a-time retrieval with probabilities."""
        return self.session().retrieve_probabilities(concept, engine)

    # -- diagnostics ------------------------------------------------------
    def info(self) -> ReasonerInfo:
        """Lifetime cache counters (current session included)."""
        session = self._session
        return ReasonerInfo(
            epoch=self.epoch(),
            membership_hits=self._hits + (session.membership_hits if session else 0),
            membership_misses=self._misses + (session.membership_misses if session else 0),
            probability_hits=self._probability_hits
            + (session.probability_hits if session else 0),
            probability_misses=self._probability_misses
            + (session.probability_misses if session else 0),
            memo_events=len(session._events) if session else 0,
            memo_probabilities=len(session._probabilities) if session else 0,
            invalidations=self._invalidations,
            base_events=self._base_events + (session.base_events if session else 0),
            shared_base=isinstance(self.abox, LayeredABox),
        )

    def __repr__(self) -> str:
        info = self.info()
        return (
            f"CompiledKB(epoch={info.epoch}, events={info.memo_events}, "
            f"hits={info.membership_hits}, misses={info.membership_misses})"
        )


#: Shared base-tier sessions: one per (base world, TBox, space), keyed
#: by identity — valid while the entry lives, because the session holds
#: all three strongly.  Every overlay KB over the same base delegates
#: here, so the static world is reasoned once per base epoch for the
#: whole tenant fleet.
_BASE_TIERS: "OrderedDict[tuple, ReasonerSession]" = OrderedDict()
_BASE_TIERS_LOCK = threading.Lock()


def base_tier(
    abox: ABox, tbox: TBox, space: EventSpace | None = None
) -> ReasonerSession:
    """The shared read-only reasoner session over one static base world.

    Rebuilt only when the *base* epoch moves (which a frozen base never
    does); overlay epochs never invalidate it — that is the whole
    point.  Nested overlays chain: the base of a team overlay is itself
    served through its own base tier.  Lookup is thread-safe (tenant
    fleets check sessions out concurrently).
    """
    key = (id(abox), id(tbox), id(space))
    space_revision = space.revision if space is not None else -1
    epoch = (abox.mutation_count, tbox.revision, space_revision)
    with _BASE_TIERS_LOCK:
        session = _BASE_TIERS.get(key)
        if session is not None and session.epoch == epoch:
            _BASE_TIERS.move_to_end(key)
            return session
    session = _make_session(abox, tbox, space, epoch)
    with _BASE_TIERS_LOCK:
        # A losing racer adopts the winner's session: the whole fleet
        # must share one base-tier memo, not one per racing thread.
        existing = _BASE_TIERS.get(key)
        if existing is not None and existing.epoch == epoch:
            _BASE_TIERS.move_to_end(key)
            return existing
        _BASE_TIERS[key] = session
        _BASE_TIERS.move_to_end(key)
        while len(_BASE_TIERS) > MAX_BASE_TIERS:
            _BASE_TIERS.popitem(last=False)
    return session


def _make_session(
    abox: ABox, tbox: TBox, space: EventSpace | None, epoch: tuple
) -> ReasonerSession:
    """A session for ``abox``, wired to the shared base tier if layered."""
    base = base_tier(abox.base, tbox, space) if isinstance(abox, LayeredABox) else None
    return ReasonerSession(abox, tbox, space, epoch, base=base)


#: The shared registry: world identity -> the KBs compiled over it.
#: Keyed by ``id(abox)`` — valid while the entry lives, because the KB
#: holds the ABox strongly; a bounded LRU so long test runs with many
#: transient worlds do not accumulate them.  Guarded by a lock:
#: concurrent tenant mints register distinct overlay worlds, and the
#: multi-step get/insert/evict sequence must not interleave.
_REGISTRY: "OrderedDict[int, list[CompiledKB]]" = OrderedDict()
_REGISTRY_LOCK = threading.Lock()


def compiled_kb(abox: ABox, tbox: TBox, space: EventSpace | None = None) -> CompiledKB:
    """The shared :class:`CompiledKB` for a knowledge base.

    Engines, the binder and group ranking all call this, so reasoning
    over one world lands in one memo.  A KB's space is fixed at
    creation and matched by identity — ``space=None`` means
    independent-atom probability semantics and never aliases a KB that
    honours mutex groups (nor vice versa); each distinct space gets its
    own KB over the shared world entry.  Thread-safe: concurrent
    lookups of one world return the same ``CompiledKB`` object.
    """
    with _REGISTRY_LOCK:
        entries = _registry_entries(abox)
        for kb in entries:
            if kb.tbox is tbox and kb.space is space:
                return kb
        kb = CompiledKB(abox, tbox, space)
        entries.append(kb)
        return kb


def _registry_entries(abox: ABox) -> list[CompiledKB]:
    key = id(abox)
    entries = _REGISTRY.get(key)
    if entries is None:
        entries = []
        _REGISTRY[key] = entries
        while len(_REGISTRY) > MAX_REGISTRY_WORLDS:
            _REGISTRY.popitem(last=False)
    else:
        _REGISTRY.move_to_end(key)
    return entries


def query_session(
    abox: ABox,
    tbox: TBox,
    space: EventSpace | None = None,
    *,
    events_only: bool = False,
) -> ReasonerSession:
    """A memoised session for one-shot queries, with no side effects.

    Unlike :func:`compiled_kb` this never *registers* anything: a pure
    query (:func:`repro.dl.instances.retrieve`) over a world no engine
    holds gets a transient session that dies with the caller instead of
    pinning the ABox in the process-wide registry.  When a matching KB
    is already registered, its warm session is reused; ``events_only``
    relaxes the match to ignore the space (membership *events* are
    space-independent), so retrieval may piggyback on a spaced KB.
    """
    with _REGISTRY_LOCK:
        registered = list(_REGISTRY.get(id(abox), ()))
    for kb in registered:
        if kb.tbox is tbox and (events_only or kb.space is space):
            return kb.session()
    return CompiledKB(abox, tbox, space).session()


def clear_registry() -> None:
    """Forget every shared KB, base tier and pooled scoring basis
    (used by tests and long-lived processes).

    One documented cleanup entry point: the engine's cross-tenant
    basis pool pins base worlds through its keys, so it must drain
    together with the reasoning registries or a long-lived process
    that rebuilds worlds would leak them.
    """
    with _REGISTRY_LOCK:
        _REGISTRY.clear()
    with _BASE_TIERS_LOCK:
        _BASE_TIERS.clear()
    # Imported lazily: repro.engine sits above this layer.
    from repro.engine.basis import shared_basis_pool

    shared_basis_pool().clear()
