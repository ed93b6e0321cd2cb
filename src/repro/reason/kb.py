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
* **membership events** per ``(individual, concept)`` — the path for
  single memberships (a user's context events, the individuals an
  overlay touches),
* **concept columns** (:meth:`ReasonerSession.column`) — a concept's
  members *with* their events, evaluated once over the ABox tables by
  the algebra of :mod:`repro.storage.mapping` (a union of concept
  tables, joins on id, a role's incoming edges joined to the filler
  column) instead of once per individual; every sub-concept is its own
  memoised column, so ``TvProgram`` is read once for all rules.  This
  is what binding and instance retrieval read,
* **probabilities** per ``(engine, event)``, with one shared
  :class:`~repro.events.shannon.ShannonEngine` whose memo spans all
  events of the epoch.

Any ABox assertion/retraction, TBox axiom, or new mutex group moves the
epoch, and the next :meth:`CompiledKB.session` call hands out a new
session — invalidation by construction, the same discipline as the
engine's view cache.  When the move was dynamic concept assertions
alone (a context install) the new session is the old one advanced
(:meth:`ReasonerSession.advance`): it keeps the role indexes,
reachability maps and expansions such a delta cannot move and drops
every memo that reads concept assertions; any other move builds it
from scratch.  Sessions subclass
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
role indexes, static membership events, concept columns and
probabilities of static events (one Shannon memo for the whole tenant
fleet) are computed once, not once per user.  The **overlay tier** is the
per-``CompiledKB`` session, keyed by the combined epoch as before, which
answers locally only for individuals the overlay can actually affect —
everything an overlay assertion touches, expanded to whatever can
*reach* a touched individual through role edges — and delegates the
rest to the base tier: an overlay's column *is* the base tier's (the
same object) unless one of those individuals' events differs.  A new
user session therefore costs O(overlay), not O(world).  A probability
goes to the base tier only when every atom of its event is registered
in the space; a context atom is not, so what an install asks is
memoised on the overlay session and dropped with it.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from repro.dl.abox import ABox, LayeredABox, RoleAssertion
from repro.dl.concepts import And, Atomic, Bottom, Concept, Exists, HasValue, Not, OneOf, Or, Top
from repro.dl.instances import MembershipEvaluator
from repro.dl.tbox import TBox
from repro.dl.vocabulary import ConceptName, Individual, RoleName
from repro.events.expr import ALWAYS, NEVER, EventExpr, conj, disj, neg
from repro.events.probability import DEFAULT_ENGINE, probability as engine_probability
from repro.events.shannon import ShannonEngine
from repro.events.space import EventSpace
from repro.perf import LRU

__all__ = [
    "CompiledKB",
    "ReasonerSession",
    "ReasonerInfo",
    "base_tier",
    "compiled_kb",
    "query_session",
    "clear_registry",
    "session_counters",
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


def _possible(column: dict[Individual, EventExpr]) -> dict[Individual, EventExpr]:
    """``column`` without its ``NEVER`` entries (columns hold members only)."""
    return {
        individual: event for individual, event in column.items() if event is not NEVER
    }


def _union(tables: Iterable[Mapping[Individual, EventExpr]]) -> dict[Individual, EventExpr]:
    """Union of ``(id, event)`` tables, the events of one id OR-merged."""
    rows: dict[Individual, list[EventExpr]] = {}
    for table in tables:
        for individual, event in table.items():
            rows.setdefault(individual, []).append(event)
    return _possible({individual: disj(events) for individual, events in rows.items()})


def _reads(session: "ReasonerSession", concept: Concept) -> frozenset[ConceptName] | None:
    """:meth:`ReasonerSession.concept_reads` of an expanded concept."""
    if isinstance(concept, Atomic):
        return frozenset(session.sorted_descendants(concept.concept))
    if isinstance(concept, (Top, Bottom, OneOf)):
        return frozenset()
    if isinstance(concept, Not):
        return _reads(session, concept.child)
    if isinstance(concept, (And, Or)):
        names: set[ConceptName] = set()
        for child in concept.children:
            read = _reads(session, child)
            if read is None:
                return None
            names |= read
        return frozenset(names)
    return None  # a role constructor


@dataclass(frozen=True)
class ReasonerInfo:
    """Cache counters of a :class:`CompiledKB`, in the ``functools`` style.

    ``invalidations`` counts epoch moves that discarded a session's
    memos (``advances`` of them advanced it, the rest rebuilt it);
    ``memo_events`` / ``memo_probabilities`` / ``memo_columns`` are
    current occupancy.  The membership counters and ``memo_events``
    count the per-individual :meth:`ReasonerSession.event` path;
    ``memo_columns`` counts the concepts (sub-concepts included)
    answered by :meth:`ReasonerSession.column` — a bind that moved only
    the latter was answered by column.
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
    #: Concept columns held by the current session.
    memo_columns: int = 0
    #: Of the ``invalidations``, the epoch moves served by advancing
    #: the live session (:meth:`ReasonerSession.advance`); the rest
    #: rebuilt one.
    advances: int = 0


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
        structure: tuple | None = None,
    ):
        super().__init__(abox, tbox)
        self.space = space
        self.epoch = epoch
        self.base = base
        self._expansions: dict[Concept, Concept] = {}
        self._descendants: dict[ConceptName, tuple[ConceptName, ...]] = {}
        self._role_descendants: dict[RoleName, tuple[RoleName, ...]] = {}
        self._adjacency: dict[RoleName, dict[Individual, tuple[RoleAssertion, ...]]] | None = None
        self._incoming: dict[RoleName, dict[Individual, list[RoleAssertion]]] | None = None
        self._domain: frozenset[Individual] | None = None
        self._overlay_scope: tuple[Individual, ...] | None = None
        self._columns: dict[Concept, Mapping[Individual, EventExpr]] = {}
        # A column is built once even when a fleet of tenant threads
        # asks for it together (re-entrant: a column builds its
        # sub-concepts' columns).
        self._columns_lock = threading.RLock()
        self._reachability: tuple[dict[str, list[str]], dict[str, list[str]]] | None = None
        self._affected: frozenset[str] | None = None
        #: A superset of :meth:`affected_names` closed under reverse
        #: reachability, carried by :meth:`advance` from the epoch
        #: before; the walk extends it by the overlay's newer names.
        self._affected_seed: frozenset[str] = frozenset()
        #: What :meth:`CompiledKB.session` may advance across — see
        #: :func:`_structure`.
        self.structure = structure if structure is not None else _structure(abox)
        self._events: dict[tuple[Individual, Concept], EventExpr] = {}
        self._probabilities: dict[tuple[str, EventExpr], float] = {}
        self._shannon: ShannonEngine | None = None  # built on first use
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

    def concept_reads(self, concept: Concept) -> frozenset[ConceptName] | None:
        """The concept names one individual's membership in ``concept`` reads.

        Walks the *expanded* concept, so TBox definitions count: an
        atomic name reads itself and every name it subsumes, ``¬`` /
        ``⊓`` / ``⊔`` the union of their children, ``⊤`` / ``⊥`` /
        ``{a, b}`` nothing.  ``None`` when the concept walks a role
        (``∃`` / ``∀`` / ``≥n`` / ``VALUE``): its event can then read
        role edges and other individuals' facts, not just names.
        Assertions about the individual on any other name leave its
        membership event unchanged.
        """
        return _reads(self, self.expand_concept(concept))

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
                seed = self._affected_seed
                fresh = [name for name in self.abox.overlay_names() if name not in seed]
                if not fresh:
                    self._affected = seed
                    return seed
                touched = set(seed)
                touched.update(fresh)
                _forward, reverse = self.reachability_maps()
                queue = deque(fresh)
                while queue:
                    for neighbour in reverse.get(queue.popleft(), ()):
                        if neighbour not in touched:
                            touched.add(neighbour)
                            queue.append(neighbour)
                self._affected = frozenset(touched)
        return self._affected

    def advance(self, epoch: tuple) -> "ReasonerSession":
        """This session moved to ``epoch`` across dynamic concept
        assertions alone (:meth:`CompiledKB.session` checks that).

        Such a delta moves no role edge, static fact, base, TBox or
        space, so the new session keeps what only those determine —
        the base-tier link, concept expansions and closures, the role
        indexes and the reachability maps — by reference.  It drops
        what reads concept assertions: the per-individual events and
        probabilities (a context atom's probability dies with its
        epoch), the Shannon memo, the columns and the domain.  The
        affected set is re-walked, but only from the overlay names the
        last one had not reached: what it had reached is still a
        superset closed under the unchanged reverse map.
        """
        advanced = ReasonerSession(
            self.abox, self.tbox, self.space, epoch, base=self.base, structure=self.structure
        )
        advanced._expansions = self._expansions
        advanced._descendants = self._descendants
        advanced._role_descendants = self._role_descendants
        advanced._adjacency = self._adjacency
        advanced._incoming = self._incoming
        advanced._reachability = self._reachability
        affected = self._affected
        advanced._affected_seed = affected if affected is not None else self._affected_seed
        return advanced

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
        across every event of the memo's session, so repeated
        *sub*-expressions are solved once even on first sight of a new
        event.
        """
        if event.is_certain:
            return 1.0
        if event.is_impossible:
            return 0.0
        if self.base is not None and self._static(event):
            # Static world knowledge: one probability memo (and one
            # Shannon sub-expression memo) for the whole tenant fleet.
            # Anything else — an installed context atom — is memoised
            # here, and goes with this session at the next install.
            return self.base.probability(event, engine)
        key = (engine, event)
        cached = self._probabilities.get(key)
        if cached is not None:
            self.probability_hits += 1
            return cached
        self.probability_misses += 1
        if engine == "shannon":
            if self._shannon is None:
                self._shannon = ShannonEngine(self.space)
            value = self._shannon.probability(event)
        else:
            value = engine_probability(event, self.space, engine)
        self._probabilities[key] = value
        return value

    @property
    def memo_probabilities(self) -> int:
        """Probabilities memoised in this session."""
        return len(self._probabilities)

    def _static(self, event: EventExpr) -> bool:
        """Is every atom of ``event`` registered in the shared space?"""
        space = self.space
        return space is not None and all(space.registers(basic) for basic in event.atoms())

    def membership_probability(
        self,
        individual: str | Individual,
        concept: Concept,
        engine: str = DEFAULT_ENGINE,
    ) -> float:
        """Memoised ``P(individual ∈ concept)``."""
        return self.probability(self.membership_event(individual, concept), engine)

    # -- columns: one concept over the whole ABox ------------------------
    def column(self, concept: Concept) -> Mapping[Individual, EventExpr]:
        """``{individual: event}`` for every member of ``concept``.

        Holds each individual of the domain whose membership event is
        not ``NEVER``; the event is the identical interned object
        :meth:`membership_event` returns for that individual.  The
        column is evaluated once per epoch from the ABox tables — cost
        follows the matching assertions and edges, not documents x role
        fan-out — and is shared (read-only) by every caller; on an
        overlay session it is the base tier's own column unless an
        individual the overlay can affect reads differently.
        """
        return self._column(self.expand_concept(concept))

    def _column(self, concept: Concept) -> Mapping[Individual, EventExpr]:
        column = self._columns.get(concept)
        if column is None:
            with self._columns_lock:
                column = self._columns.get(concept)
                if column is None:
                    if self.base is not None:
                        column = self._overlay_column(concept)
                    else:
                        column = MappingProxyType(self._build_column(concept))
                    self._columns[concept] = column
        return column

    def _overlay_column(self, concept: Concept) -> Mapping[Individual, EventExpr]:
        """The base tier's column, re-read where the overlay can differ."""
        below = self.base._column(concept)
        if self._overlay_scope is None:
            names = self.affected_names() | {
                individual.name for individual in self.abox.overlay_individuals()
            }
            self._overlay_scope = tuple(Individual(name) for name in names)
        changed = {}
        for individual in self._overlay_scope:
            event = self.event(individual, concept)
            if event is not below.get(individual, NEVER):
                changed[individual] = event
        if not changed:
            return below
        column = dict(below)
        for individual, event in changed.items():
            if event is NEVER:
                column.pop(individual, None)
            else:
                column[individual] = event
        return MappingProxyType(column)

    def _build_column(self, concept: Concept) -> dict[Individual, EventExpr]:
        """Evaluate an expanded concept over the tables (no base tier).

        Mirrors ``MembershipEvaluator._compute`` node for node with the
        same ``conj`` / ``disj`` / ``neg`` — which order, flatten and
        intern their result, so the events are the reference's own.
        """
        if isinstance(concept, Bottom):
            return {}
        if isinstance(concept, Top):
            return dict.fromkeys(self._individuals(), ALWAYS)
        if isinstance(concept, OneOf):
            return dict.fromkeys(concept.members & self._individuals(), ALWAYS)
        if isinstance(concept, Atomic):
            return _union(
                {a.individual: a.event for a in self.abox.concept_members(name)}
                for name in self.sorted_descendants(concept.concept)
            )
        if isinstance(concept, Or):
            return _union(self._column(child) for child in concept.children)
        if isinstance(concept, And):
            # join on id, driven by the smallest child column
            smallest, *others = sorted(
                (self._column(child) for child in concept.children), key=len
            )
            joined = {
                individual: conj(
                    [event] + [other.get(individual, NEVER) for other in others]
                )
                for individual, event in smallest.items()
            }
            return _possible(joined)
        if isinstance(concept, Not):
            child = self._column(concept.child)
            negated = {
                individual: neg(child.get(individual, NEVER))
                for individual in self._individuals()
            }
            return _possible(negated)
        if isinstance(concept, HasValue):
            concept = concept.desugar()  # ∃R.{a}: the same key, the same events
        if isinstance(concept, Exists):
            filler = self._column(concept.filler)
            # source -> target -> the edge's events across the sub-roles
            edges: dict[Individual, dict[Individual, list[EventExpr]]] = {}
            for sub_role in self.sorted_role_descendants(concept.role):
                incoming = self.role_incoming().get(sub_role, {})
                for target in incoming.keys() & filler.keys():
                    for assertion in incoming[target]:
                        edges.setdefault(assertion.source, {}).setdefault(
                            target, []
                        ).append(assertion.event)
            return _possible(
                {
                    source: disj(
                        conj([disj(events), filler[target]])
                        for target, events in targets.items()
                    )
                    for source, targets in edges.items()
                }
            )
        # ∀R.C and ≥n R.C hold or fail by *all* of an individual's
        # successors (an individual with none is in ∀R.C): closed world
        # over the domain, one membership at a time.
        swept = {
            individual: self.event(individual, concept)
            for individual in self._individuals()
        }
        return _possible(swept)

    def _individuals(self) -> frozenset[Individual]:
        if self._domain is None:
            self._domain = self.abox.individuals
        return self._domain

    def role_incoming(self) -> dict[RoleName, dict[Individual, list[RoleAssertion]]]:
        """All role assertions grouped ``role -> target -> assertions``.

        The mirror of the successor index, built in one pass over the
        role tables on first use (a frozen base keeps its session, so
        once per process): ``∃R.C`` starts from the members of ``C`` and
        reads the edges that arrive there.
        """
        if self._incoming is None:
            incoming: dict[RoleName, dict[Individual, list[RoleAssertion]]] = {}
            for assertion in self.abox.role_assertions():
                incoming.setdefault(assertion.role, {}).setdefault(
                    assertion.target, []
                ).append(assertion)
            self._incoming = incoming
        return self._incoming

    # -- instance retrieval ------------------------------------------------
    def retrieve(self, concept: Concept) -> dict[Individual, EventExpr]:
        """Every individual with a non-impossible membership event.

        The concept's :meth:`column`, copied in name order.
        """
        column = self.column(concept)
        return {
            individual: column[individual]
            for individual in sorted(column, key=lambda ind: ind.name)
        }

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
        self._advances = 0
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

        Reuses the live session while the knowledge is unchanged.  When
        the epoch moved by dynamic concept assertions alone — a context
        install: no role edge, no static fact, the same base, TBox and
        space — it advances the live session
        (:meth:`ReasonerSession.advance`), keeping the memos such a
        delta cannot move and dropping those it can; after any other
        move it builds a fresh one, dropping every memo.
        """
        epoch = self.epoch()
        session = self._session
        if session is not None and session.epoch == epoch:
            return session
        with self._session_lock:
            session = self._session
            if session is None or session.epoch != epoch:
                if session is None:
                    session = _make_session(self.abox, self.tbox, self.space, epoch)
                else:
                    self._retire(session)
                    self._invalidations += 1
                    if session.epoch[1:] == epoch[1:] and session.structure == _structure(
                        self.abox
                    ):
                        session = session.advance(epoch)
                        self._advances += 1
                        _tally(advanced=1)
                    else:
                        session = _make_session(self.abox, self.tbox, self.space, epoch)
                        _tally(rebuilt=1)
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

    def column(self, concept: Concept) -> Mapping[Individual, EventExpr]:
        """The concept's members and events under the current epoch."""
        return self.session().column(concept)

    def retrieve(self, concept: Concept) -> dict[Individual, EventExpr]:
        """Instance retrieval (the column, name-ordered) under the current epoch."""
        return self.session().retrieve(concept)

    def retrieve_probabilities(
        self, concept: Concept, engine: str = DEFAULT_ENGINE
    ) -> dict[Individual, float]:
        """Instance retrieval with probabilities instead of raw events."""
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
            memo_probabilities=session.memo_probabilities if session else 0,
            invalidations=self._invalidations,
            advances=self._advances,
            base_events=self._base_events + (session.base_events if session else 0),
            shared_base=isinstance(self.abox, LayeredABox),
            memo_columns=len(session._columns) if session else 0,
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
_BASE_TIERS = LRU(MAX_BASE_TIERS)
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
            return session
    session = _make_session(abox, tbox, space, epoch)
    with _BASE_TIERS_LOCK:
        # A losing racer adopts the winner's session: the whole fleet
        # must share one base-tier memo, not one per racing thread.
        existing = _BASE_TIERS.get(key)
        if existing is not None and existing.epoch == epoch:
            return existing
        _BASE_TIERS.put(key, session)
    return session


def _structure(abox: ABox) -> tuple:
    """What a session's role indexes, reachability and base tier rest on.

    The static and role epochs, and for an overlay the base's whole
    epoch: while this is unchanged, every epoch move was a dynamic
    concept assertion or retraction.
    """
    base = abox.base.mutation_count if isinstance(abox, LayeredABox) else None
    return (abox.static_mutation_count, abox.role_mutation_count, base)


#: Process-wide session moves: ``advanced`` (a dynamic concept delta)
#: and ``rebuilt`` (any other epoch move of a live session).
_SESSION_MOVES = {"advanced": 0, "rebuilt": 0}
_SESSION_MOVES_LOCK = threading.Lock()


def _tally(advanced: int = 0, rebuilt: int = 0) -> None:
    with _SESSION_MOVES_LOCK:
        _SESSION_MOVES["advanced"] += advanced
        _SESSION_MOVES["rebuilt"] += rebuilt


def session_counters() -> dict[str, int]:
    """How live sessions moved epochs, process-wide:
    ``sessions_advanced`` / ``sessions_rebuilt``."""
    with _SESSION_MOVES_LOCK:
        return {f"sessions_{name}": count for name, count in _SESSION_MOVES.items()}


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
_REGISTRY = LRU(MAX_REGISTRY_WORLDS)
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
        entries = _REGISTRY.get(id(abox))
        if entries is None:
            entries = []
            _REGISTRY.put(id(abox), entries)
        for kb in entries:
            if kb.tbox is tbox and kb.space is space:
                return kb
        kb = CompiledKB(abox, tbox, space)
        entries.append(kb)
        return kb


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
        registered = list(_REGISTRY.peek(id(abox), ()))
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
    from repro.engine.basis import POOL_LOCK, shared_basis_pool

    with POOL_LOCK:
        shared_basis_pool().clear()
