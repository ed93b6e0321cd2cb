"""ABox: assertional knowledge weighted by event expressions.

Following the paper's naive implementation, "we view each concept as a
table, which uses the concept name as the table name and has an ID
attribute and an event expression attribute. Similarly, we view each
role as a table [...] containing three attributes; SOURCE, DESTINATION,
and an event expression."

The ABox is the in-memory form of exactly those tables: each concept
assertion ``A(i)`` and role assertion ``R(i, j)`` carries the event
expression under which it holds.  Certain facts carry :data:`ALWAYS`.
Dynamic context (sensor-fed) assertions are ordinary assertions whose
events come from fresh sensor measurements; they are replaced wholesale
on every context refresh through the ``dynamic`` tag.

Multi-tenant layering (the paper's tvtouch vision is one static domain
ontology consulted by *many* users, each contributing only a small
volatile slice): :meth:`ABox.freeze` seals a box as the immutable
shared world, and :meth:`ABox.overlay` mints a :class:`LayeredABox` —
a copy-on-write view that shares every static table of the base by
reference and stores only the tenant's own assertions locally.  A
thousand user sessions then cost a thousand overlays, not a thousand
worlds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping

from repro.errors import ABoxError
from repro.events.expr import ALWAYS, EventExpr, disj
from repro.dl.vocabulary import ConceptName, Individual, RoleName

__all__ = ["ConceptAssertion", "RoleAssertion", "ABox", "LayeredABox", "content_digest"]


def content_digest(value: Hashable) -> str:
    """A SHA-256 hex digest of ``repr(value)``.

    Stands in for a large canonical rendering inside a signature: equal
    renderings give equal digests, different ones (bar a SHA-256
    collision) different digests.
    """
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ConceptAssertion:
    """``A(individual)`` holding under ``event``."""

    concept: ConceptName
    individual: Individual
    event: EventExpr
    dynamic: bool = False

    def __str__(self) -> str:
        return f"{self.concept}({self.individual}) [{self.event}]"


@dataclass(frozen=True)
class RoleAssertion:
    """``R(source, target)`` holding under ``event``."""

    role: RoleName
    source: Individual
    target: Individual
    event: EventExpr
    dynamic: bool = False

    def __str__(self) -> str:
        return f"{self.role}({self.source}, {self.target}) [{self.event}]"


class ABox:
    """A set of event-weighted concept and role assertions.

    Assertions about the same fact accumulate disjunctively: asserting
    ``A(i)`` twice with events ``e1`` and ``e2`` means ``A(i)`` holds
    under ``e1 OR e2`` (two independent reasons to believe the fact).

    Examples
    --------
    >>> from repro.events import EventSpace
    >>> box = ABox()
    >>> space = EventSpace()
    >>> _ = box.assert_concept("TvProgram", "oprah")
    >>> _ = box.assert_role("hasGenre", "oprah", "HUMAN-INTEREST",
    ...                     space.atom("genre:oprah", 0.85))
    >>> len(list(box.role_assertions()))
    1
    """

    def __init__(self) -> None:
        self._concepts: dict[ConceptName, dict[Individual, ConceptAssertion]] = {}
        self._roles: dict[RoleName, dict[tuple[Individual, Individual], RoleAssertion]] = {}
        self._individuals: set[Individual] = set()
        self._dynamic: set[ConceptAssertion | RoleAssertion] = set()
        self._mutations = 0
        self._static_mutations = 0
        self._role_mutations = 0
        self._frozen = False
        self._adjacency_cache: (
            dict[RoleName, dict[Individual, tuple[RoleAssertion, ...]]] | None
        ) = None
        self._signature_cache: tuple[int, tuple] | None = None
        self._digest_cache: tuple[int, str] | None = None

    # -- layering ---------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """Is this box sealed as an immutable shared base?"""
        return self._frozen

    def freeze(self) -> "ABox":
        """Seal the box: every further mutation raises :class:`ABoxError`.

        A frozen box is the safe *static base* of tenant overlays — its
        epoch can never move underneath them, and derived indexes (the
        role adjacency) are computed once and shared by reference.
        Freezing is idempotent and returns the box for chaining.
        """
        self._frozen = True
        return self

    def overlay(self) -> "LayeredABox":
        """A copy-on-write view over this box for one tenant's assertions.

        The overlay shares every table of this base by reference and
        stores only its own assertions; see :class:`LayeredABox`.
        Freezing the base first (:meth:`freeze`) is recommended so no
        tenant can mutate the shared world by accident.
        """
        return LayeredABox(self)

    def _check_mutable(self) -> None:
        if self._frozen:
            raise ABoxError(
                "this ABox is frozen (a shared static base); per-user assertions "
                "belong in an overlay — ABox.overlay(), or a repro.tenants."
                "TenantRegistry session for a full per-user engine"
            )

    @property
    def mutation_count(self) -> int:
        """Monotonic counter bumped on every assertion or retraction.

        Cheap change detection for callers that cache derived state
        (e.g. the engine's context signature): an unchanged counter
        guarantees an unchanged ABox.
        """
        return self._mutations

    @property
    def static_mutation_count(self) -> int:
        """Monotonic counter bumped only by *static* knowledge changes.

        Dynamic (context) assertions come and go on every refresh
        without touching this counter, so it distinguishes "the
        catalogue changed" from "the context changed" — the engine's
        cache key combines this epoch with a content rendering of the
        dynamic assertions.
        """
        return self._static_mutations

    @property
    def role_mutation_count(self) -> int:
        """Monotonic counter bumped whenever a role edge appears or goes.

        Static or dynamic alike: an unchanged count (with an unchanged
        :attr:`static_mutation_count`) means every change since was a
        dynamic *concept* assertion, which moves no reachability — what
        lets the compiled reasoner advance a session instead of
        rebuilding it (:meth:`repro.reason.CompiledKB.session`).
        """
        return self._role_mutations

    def has_individual(self, individual: Individual) -> bool:
        """Is ``individual`` in the domain?  O(1): :attr:`individuals`
        copies the whole domain."""
        return individual in self._individuals

    # -- assertion entry --------------------------------------------------
    def register_individual(self, individual: str | Individual) -> Individual:
        """Add an individual to the domain (idempotent)."""
        self._check_mutable()
        individual = Individual(individual) if isinstance(individual, str) else individual
        self._individuals.add(individual)
        return individual

    def assert_concept(
        self,
        concept: str | ConceptName,
        individual: str | Individual,
        event: EventExpr = ALWAYS,
        dynamic: bool = False,
    ) -> ConceptAssertion:
        """Assert ``concept(individual)`` under ``event``."""
        self._check_mutable()
        concept = ConceptName(concept) if isinstance(concept, str) else concept
        individual = self.register_individual(individual)
        if not isinstance(event, EventExpr):
            raise ABoxError(f"assertion event must be an EventExpr, got {event!r}")
        table = self._concepts.setdefault(concept, {})
        local = table.get(individual)
        existing = local or self._inherited_concept(concept, individual)
        # Merged into a static fact of this layer, a dynamic assertion
        # takes that fact with it on the next clear_dynamic: count the
        # static change now, or the cleared state would sign like the
        # state before the merge.  (A base fact stays in the base.)
        static = not dynamic or (local is not None and not local.dynamic)
        if existing is not None:
            event = disj([existing.event, event])
            dynamic = dynamic or existing.dynamic
            self._dynamic.discard(existing)
        assertion = ConceptAssertion(concept, individual, event, dynamic)
        table[individual] = assertion
        if dynamic:
            self._dynamic.add(assertion)
        self._mutations += 1
        if static:
            self._static_mutations += 1
        return assertion

    def assert_role(
        self,
        role: str | RoleName,
        source: str | Individual,
        target: str | Individual,
        event: EventExpr = ALWAYS,
        dynamic: bool = False,
    ) -> RoleAssertion:
        """Assert ``role(source, target)`` under ``event``."""
        self._check_mutable()
        role = RoleName(role) if isinstance(role, str) else role
        source = self.register_individual(source)
        target = self.register_individual(target)
        if not isinstance(event, EventExpr):
            raise ABoxError(f"assertion event must be an EventExpr, got {event!r}")
        table = self._roles.setdefault(role, {})
        key = (source, target)
        local = table.get(key)
        existing = local or self._inherited_role(role, key)
        static = not dynamic or (local is not None and not local.dynamic)  # see assert_concept
        if existing is not None:
            event = disj([existing.event, event])
            dynamic = dynamic or existing.dynamic
            self._dynamic.discard(existing)
        assertion = RoleAssertion(role, source, target, event, dynamic)
        table[key] = assertion
        if dynamic:
            self._dynamic.add(assertion)
        self._mutations += 1
        self._role_mutations += 1
        if static:
            self._static_mutations += 1
        return assertion

    # -- layering hooks ---------------------------------------------------
    def _inherited_concept(
        self, concept: ConceptName, individual: Individual
    ) -> ConceptAssertion | None:
        """The assertion a lower layer contributes (none for a flat box).

        :class:`LayeredABox` overrides this so re-asserting a base fact
        OR-merges with the base event while the merged assertion lands
        in the overlay.
        """
        return None

    def _inherited_role(
        self, role: RoleName, key: tuple[Individual, Individual]
    ) -> RoleAssertion | None:
        """Role counterpart of :meth:`_inherited_concept`."""
        return None

    def _concept_table(self, concept: ConceptName) -> Mapping[Individual, ConceptAssertion]:
        """The effective (layer-merged) assertion table of one concept."""
        return self._concepts.get(concept, {})

    def _role_table(
        self, role: RoleName
    ) -> Mapping[tuple[Individual, Individual], RoleAssertion]:
        """The effective (layer-merged) assertion table of one role."""
        return self._roles.get(role, {})

    # -- retraction ----------------------------------------------------
    def clear_dynamic(self) -> int:
        """Drop every assertion tagged dynamic; returns how many.

        Called by the context refresh cycle before loading the new
        snapshot's assertions.  On a :class:`LayeredABox` this drops
        only the *overlay's* dynamic assertions — the base is never
        touched (its dynamic facts, if any, shine through again once an
        overlay shadow is removed).
        """
        self._check_mutable()
        # The dynamic set holds exactly this layer's dynamic rows, so the
        # sweep is O(context), not O(tables); a table it empties goes too.
        roles = False
        for assertion in self._dynamic:
            if type(assertion) is ConceptAssertion:
                tables, name, key = self._concepts, assertion.concept, assertion.individual
            else:
                tables, name = self._roles, assertion.role
                key = (assertion.source, assertion.target)
                roles = True
            table = tables[name]
            del table[key]
            if not table:
                del tables[name]
        removed = len(self._dynamic)
        self._dynamic.clear()
        if roles:
            self._role_mutations += 1
        if removed:
            self._mutations += 1
        return removed

    def splice_dynamic(
        self,
        rows: Mapping[ConceptAssertion, int],
        signature: tuple[tuple[str, str, str], ...],
        *,
        merge_check: bool = True,
    ) -> int:
        """Add prebuilt dynamic concept rows as asserting them would.

        Each row ``assertion -> count`` stands for ``count`` dynamic
        ``assert_concept`` calls about one ``(concept, individual)`` key,
        its event already their merge; ``signature`` is the rows'
        :meth:`dynamic_signature` rendering.  A row whose key holds a
        fact in this layer or below would merge with it, so it takes
        :meth:`assert_concept`.  The rest land as they are, moving the
        epochs as the calls would.  ``merge_check=False`` skips that
        check, for a caller who knows no key holds a fact (the same rows
        spliced in cleanly after a :meth:`clear_dynamic` at the same
        static and base epochs).  Returns how many rows took the general
        path.
        """
        self._check_mutable()
        clean = not self._dynamic
        tables = self._concepts
        merging = []
        registered = None
        for assertion, count in rows.items():
            concept, individual = assertion.concept, assertion.individual
            if merge_check:
                table = tables.get(concept)
                if (
                    table is not None and individual in table
                ) or self._inherited_concept(concept, individual) is not None:
                    merging.append(assertion)
                    continue
            tables.setdefault(concept, {})[individual] = assertion
            if individual is not registered:
                self._individuals.add(individual)
                registered = individual
            self._mutations += count
        if not merging:
            self._dynamic.update(rows)  # by their stored hashes
            if clean:  # this layer's dynamic rows are exactly the prebuilt ones
                self._signature_cache = (self._mutations, (signature, ()))
            return 0
        self._dynamic.update(row for row in rows if row not in merging)
        for assertion in merging:
            self.assert_concept(
                assertion.concept, assertion.individual, assertion.event, dynamic=True
            )
            self._mutations += rows[assertion] - 1
        return len(merging)

    def dynamic_assertions(self) -> frozenset:
        """The dynamic assertions as a set, maintained incrementally.

        The content equals filtering :meth:`concept_assertions` /
        :meth:`role_assertions` on ``dynamic``, without the full scan —
        the incremental-rescoring snapshot (:mod:`repro.engine.basis`)
        takes this on every cold refresh and reuse check.
        """
        return frozenset(self._dynamic)

    def context_signature(self) -> tuple:
        """Canonical rendering of this box's sensed (dynamic) context.

        The content half of the engine's context signature: equal
        dynamic content gives an equal signature.  A flat box renders
        its rows (:meth:`dynamic_signature`); a :class:`LayeredABox`
        stands its base in as one :meth:`context_digest`.
        """
        return self.dynamic_signature()

    def context_digest(self) -> str:
        """:func:`content_digest` of :meth:`context_signature`.

        Cached per mutation epoch, so a frozen shared base digests its
        (possibly large) sensed context once per process, and every
        tenant overlay signs with the 64-character digest instead of
        the rows.
        """
        epoch = self.mutation_count
        cached = self._digest_cache
        if cached is not None and cached[0] == epoch:
            return cached[1]
        digest = content_digest(self.context_signature())
        self._digest_cache = (epoch, digest)
        return digest

    def dynamic_signature(self) -> tuple[tuple, tuple]:
        """Canonical string rendering of this layer's own dynamic set.

        Returns ``(concepts, roles)`` as sorted tuples of stringified
        assertion rows.  Cached per mutation epoch of this layer, so an
        overlay re-renders only its own rows, and only after it changed.
        """
        cached = self._signature_cache
        if cached is not None and cached[0] == self._mutations:
            return cached[1]
        concepts = []
        roles = []
        for assertion in self._dynamic:
            if isinstance(assertion, ConceptAssertion):
                concepts.append(
                    (
                        str(assertion.concept),
                        str(assertion.individual),
                        str(assertion.event),
                    )
                )
            else:
                roles.append(
                    (
                        str(assertion.role),
                        str(assertion.source),
                        str(assertion.target),
                        str(assertion.event),
                    )
                )
        signature = (tuple(sorted(concepts)), tuple(sorted(roles)))
        self._signature_cache = (self._mutations, signature)
        return signature

    # -- lookups ----------------------------------------------------------
    @property
    def individuals(self) -> frozenset[Individual]:
        return frozenset(self._individuals)

    @property
    def concept_names(self) -> frozenset[ConceptName]:
        return frozenset(self._concepts)

    @property
    def role_names(self) -> frozenset[RoleName]:
        return frozenset(self._roles)

    def concept_event(self, concept: ConceptName, individual: Individual) -> EventExpr | None:
        """Event of the direct assertion ``concept(individual)``, if any."""
        assertion = self._concepts.get(concept, {}).get(individual)
        if assertion is None:
            assertion = self._inherited_concept(concept, individual)
        return assertion.event if assertion is not None else None

    def concept_members(self, concept: ConceptName) -> Iterator[ConceptAssertion]:
        """All direct assertions of one concept name."""
        return iter(self._concept_table(concept).values())

    def role_event(self, role: RoleName, source: Individual, target: Individual) -> EventExpr | None:
        assertion = self._roles.get(role, {}).get((source, target))
        if assertion is None:
            assertion = self._inherited_role(role, (source, target))
        return assertion.event if assertion is not None else None

    def role_successors(self, role: RoleName, source: Individual) -> Iterator[RoleAssertion]:
        """All role assertions leaving ``source`` via ``role``."""
        for (src, _dst), assertion in self._role_table(role).items():
            if src == source:
                yield assertion

    def role_adjacency(self) -> dict[RoleName, dict[Individual, tuple[RoleAssertion, ...]]]:
        """All role assertions grouped ``role -> source -> assertions``.

        One pass over the role tables; the compiled reasoner
        (:mod:`repro.reason`) builds this once per ABox epoch and then
        answers every successor walk from the index, instead of paying
        :meth:`role_successors`'s full-table scan per (individual, role)
        — the naive per-call path stays as the uncached reference.

        On a frozen box the index is computed once and shared by
        reference across every overlay and reasoner session over it.
        """
        if self._adjacency_cache is not None:
            return self._adjacency_cache
        adjacency: dict[RoleName, dict[Individual, tuple[RoleAssertion, ...]]] = {}
        for role, table in self._roles.items():
            by_source: dict[Individual, list[RoleAssertion]] = {}
            for (source, _target), assertion in table.items():
                by_source.setdefault(source, []).append(assertion)
            adjacency[role] = {
                source: tuple(assertions) for source, assertions in by_source.items()
            }
        if self._frozen:
            self._adjacency_cache = adjacency
        return adjacency

    def role_pairs(self, role: RoleName) -> Iterator[RoleAssertion]:
        """All assertions of one role."""
        return iter(self._role_table(role).values())

    def concept_assertions(self) -> Iterator[ConceptAssertion]:
        """Every concept assertion in the ABox."""
        for table in self._concepts.values():
            yield from table.values()

    def role_assertions(self) -> Iterator[RoleAssertion]:
        """Every role assertion in the ABox."""
        for table in self._roles.values():
            yield from table.values()

    def __len__(self) -> int:
        """Total number of assertions (the paper's "tuple" count)."""
        concept_count = sum(len(table) for table in self._concepts.values())
        role_count = sum(len(table) for table in self._roles.values())
        return concept_count + role_count

    def __repr__(self) -> str:
        return (
            f"ABox(individuals={len(self._individuals)}, "
            f"concepts={len(self._concepts)}, roles={len(self._roles)}, assertions={len(self)})"
        )

    # -- bulk load ------------------------------------------------------
    def adopt(
        self,
        concepts: Iterable[ConceptAssertion],
        roles: Iterable[RoleAssertion],
        individuals: Iterable[Individual] = (),
        *,
        individuals_complete: bool = False,
    ) -> None:
        """Install pre-merged assertion rows directly, skipping merge work.

        The snapshot loader's fast path: the rows come from a box that
        already OR-merged duplicate facts, so each ``(concept,
        individual)`` / ``(role, source, target)`` key appears exactly
        once and the per-assertion :func:`~repro.events.expr.disj`
        merge of :meth:`assert_concept` would only burn time proving
        there is nothing to merge.  Epoch counters advance exactly as
        if each row had been asserted individually, so every downstream
        cache key sees the same epochs either way.  Keys already
        present raise :class:`ABoxError` — adopt restores into a fresh
        (or disjoint) box, it does not merge.

        ``individuals_complete=True`` promises that ``individuals``
        already names every individual appearing in the rows, so the
        per-row domain registration is skipped.
        """
        self._check_mutable()
        for individual in individuals:
            self.register_individual(individual)
        # This is the snapshot-restore hot loop over ~10^5 rows, so the
        # per-row attribute dereferences are hoisted into locals and the
        # epoch counters are applied once at the end (same final values
        # as per-row increments — downstream cache keys only ever see
        # the post-adopt epochs).
        known = self._individuals
        dynamic_set = self._dynamic
        concept_tables = self._concepts
        role_tables = self._roles
        total = 0
        dynamic_total = 0
        # Snapshot rows arrive sorted, so consecutive assertions share
        # a predicate; caching the current inner table turns ~10^5
        # setdefault probes into one per distinct name.
        last_concept = last_role = None
        table: dict = {}
        role_table: dict = {}
        for assertion in concepts:
            if assertion.concept is not last_concept:
                table = concept_tables.setdefault(assertion.concept, {})
                last_concept = assertion.concept
            individual = assertion.individual
            if individual in table:
                raise ABoxError(
                    f"adopt collision on {assertion.concept}({individual}); "
                    "adopt() requires pre-merged rows over fresh keys"
                )
            table[individual] = assertion
            if not individuals_complete:
                known.add(individual)
            if assertion.dynamic:
                dynamic_set.add(assertion)
                dynamic_total += 1
            total += 1
        for assertion in roles:
            if assertion.role is not last_role:
                role_table = role_tables.setdefault(assertion.role, {})
                last_role = assertion.role
            key = (assertion.source, assertion.target)
            if key in role_table:
                raise ABoxError(
                    f"adopt collision on {assertion.role}{key}; "
                    "adopt() requires pre-merged rows over fresh keys"
                )
            role_table[key] = assertion
            if not individuals_complete:
                known.add(assertion.source)
                known.add(assertion.target)
            if assertion.dynamic:
                dynamic_set.add(assertion)
                dynamic_total += 1
            total += 1
        self._mutations += total
        self._static_mutations += total - dynamic_total
        if last_role is not None:  # some edge was adopted
            self._role_mutations += 1

    def update(self, assertions: Iterable[ConceptAssertion | RoleAssertion]) -> None:
        """Re-play a stream of assertions into this ABox."""
        for assertion in assertions:
            if isinstance(assertion, ConceptAssertion):
                self.assert_concept(assertion.concept, assertion.individual, assertion.event, assertion.dynamic)
            elif isinstance(assertion, RoleAssertion):
                self.assert_role(assertion.role, assertion.source, assertion.target, assertion.event, assertion.dynamic)
            else:
                raise ABoxError(f"cannot load {assertion!r} into an ABox")


class LayeredABox(ABox):
    """A copy-on-write overlay over a shared static base ABox.

    Reads see the union of base and overlay, with overlay assertions
    shadowing base assertions about the same fact; writes, retractions
    (:meth:`clear_dynamic`) and the dynamic set touch only the overlay.
    Re-asserting a base fact OR-merges with the base event — exactly
    the accumulation semantics of a flat box — but the merged assertion
    lives in the overlay, so dropping it reveals the base fact again.

    The base is shared *by reference*: a thousand overlays over one
    world cost a thousand small dictionaries, not a thousand copies of
    the catalogue.  Epoch counters combine both layers
    (``mutation_count = base + overlay``), so every existing cache key
    — the engine's context signature, the compiled reasoner's epoch —
    keeps working unchanged; :attr:`overlay_mutation_count` exposes the
    overlay's own epoch for base-tier sharing.  The context signature
    (:meth:`context_signature`) stands the base's sensed context in as
    one digest, cached on the base per mutation epoch, so signing a
    tenant's context costs its own slice, not the world's.

    Overlays nest: ``base.overlay().overlay()`` builds a chain (e.g.
    shared world → team context → user context), each layer shadowing
    the ones below.

    Examples
    --------
    >>> base = ABox()
    >>> _ = base.assert_concept("TvProgram", "oprah")
    >>> user_box = base.freeze().overlay()
    >>> _ = user_box.assert_concept("Weekend", "peter", dynamic=True)
    >>> len(base), len(user_box)
    (1, 2)
    >>> user_box.clear_dynamic()
    1
    >>> len(user_box)
    1
    """

    def __init__(self, base: ABox) -> None:
        super().__init__()
        if not isinstance(base, ABox):
            raise ABoxError(f"overlay base must be an ABox, got {base!r}")
        self._base = base

    @property
    def base(self) -> ABox:
        """The shared static base this overlay reads through to."""
        return self._base

    # -- epochs -----------------------------------------------------------
    @property
    def mutation_count(self) -> int:
        return self._base.mutation_count + self._mutations

    @property
    def static_mutation_count(self) -> int:
        return self._base.static_mutation_count + self._static_mutations

    @property
    def role_mutation_count(self) -> int:
        return self._base.role_mutation_count + self._role_mutations

    def has_individual(self, individual: Individual) -> bool:
        return individual in self._individuals or self._base.has_individual(individual)

    @property
    def overlay_mutation_count(self) -> int:
        """The overlay's own epoch (base changes excluded)."""
        return self._mutations

    # -- layering hooks ---------------------------------------------------
    def _inherited_concept(
        self, concept: ConceptName, individual: Individual
    ) -> ConceptAssertion | None:
        found = self._base._concepts.get(concept, {}).get(individual)
        if found is None:
            found = self._base._inherited_concept(concept, individual)
        return found

    def _inherited_role(
        self, role: RoleName, key: tuple[Individual, Individual]
    ) -> RoleAssertion | None:
        found = self._base._roles.get(role, {}).get(key)
        if found is None:
            found = self._base._inherited_role(role, key)
        return found

    def _concept_table(self, concept: ConceptName) -> Mapping[Individual, ConceptAssertion]:
        local = self._concepts.get(concept)
        below = self._base._concept_table(concept)
        if not local:
            return below
        if not below:
            return local
        merged = dict(below)
        merged.update(local)
        return merged

    def _role_table(
        self, role: RoleName
    ) -> Mapping[tuple[Individual, Individual], RoleAssertion]:
        local = self._roles.get(role)
        below = self._base._role_table(role)
        if not local:
            return below
        if not below:
            return local
        merged = dict(below)
        merged.update(local)
        return merged

    # -- the overlay's own slice -----------------------------------------
    def overlay_assertions(self) -> Iterator[ConceptAssertion | RoleAssertion]:
        """Every assertion stored in this layer (static and dynamic)."""
        for table in self._concepts.values():
            yield from table.values()
        for role_table in self._roles.values():
            yield from role_table.values()

    def overlay_snapshot(self) -> frozenset:
        """This layer's assertions as a diffable set.

        The engine's incremental-rescoring basis snapshots this instead
        of just the dynamic assertions: two tenants over one base then
        diff by their *entire* per-user slice, so a basis compiled for
        one tenant is provably reusable by another.
        """
        return frozenset(self.overlay_assertions())

    def overlay_names(self) -> frozenset[str]:
        """Names of the individuals this layer asserts anything about."""
        names: set[str] = set()
        for table in self._concepts.values():
            for assertion in table.values():
                names.add(assertion.individual.name)
        for role_table in self._roles.values():
            for assertion in role_table.values():
                names.add(assertion.source.name)
                names.add(assertion.target.name)
        return frozenset(names)

    def overlay_individuals(self) -> frozenset[Individual]:
        """The individuals this layer registered (asserted about or not)."""
        return frozenset(self._individuals)

    # -- merged reads -----------------------------------------------------
    def dynamic_assertions(self) -> frozenset:
        base_dynamic = self._base.dynamic_assertions()
        if not base_dynamic:
            return frozenset(self._dynamic)
        live = {
            assertion
            for assertion in base_dynamic
            if not self._shadows(assertion)
        }
        return frozenset(live | self._dynamic)

    def context_signature(self) -> tuple:
        """The base's :meth:`context_digest`, this layer's own dynamic
        rows, and the keys of this layer that shadow a base dynamic row.

        O(this layer) after the base's digest is cached: nothing here
        walks a base row.  Equal base content, equal own rows and equal
        shadows mean equal merged content, so equal state via the same
        layering signs equal.  One merged state reached through two
        layerings (an overlay re-asserting a base row verbatim, say)
        may sign differently — a cache miss, never a wrong hit.
        """
        concepts, roles = self.dynamic_signature()
        shadows = []
        for concept, table in self._concepts.items():
            for individual in table:
                below = self._inherited_concept(concept, individual)
                if below is not None and below.dynamic:
                    shadows.append((str(concept), str(individual)))
        for role, role_table in self._roles.items():
            for source, target in role_table:
                below = self._inherited_role(role, (source, target))
                if below is not None and below.dynamic:
                    shadows.append((str(role), str(source), str(target)))
        shadows.sort()
        return (self._base.context_digest(), concepts, roles, tuple(shadows))

    def _shadows(self, assertion: ConceptAssertion | RoleAssertion) -> bool:
        if isinstance(assertion, ConceptAssertion):
            return assertion.individual in self._concepts.get(assertion.concept, {})
        return (assertion.source, assertion.target) in self._roles.get(assertion.role, {})

    @property
    def individuals(self) -> frozenset[Individual]:
        return self._base.individuals | frozenset(self._individuals)

    @property
    def concept_names(self) -> frozenset[ConceptName]:
        return self._base.concept_names | frozenset(self._concepts)

    @property
    def role_names(self) -> frozenset[RoleName]:
        return self._base.role_names | frozenset(self._roles)

    def role_successors(self, role: RoleName, source: Individual) -> Iterator[RoleAssertion]:
        local = self._roles.get(role)
        if not local:
            yield from self._base.role_successors(role, source)
            return
        merged: dict[tuple[Individual, Individual], RoleAssertion] = {}
        for assertion in self._base.role_successors(role, source):
            merged[(assertion.source, assertion.target)] = assertion
        for (src, dst), assertion in local.items():
            if src == source:
                merged[(src, dst)] = assertion
        yield from merged.values()

    def role_adjacency(self) -> dict[RoleName, dict[Individual, tuple[RoleAssertion, ...]]]:
        """Base adjacency (cached once on a frozen base) plus the overlay.

        Only the outer map and the (role, source) groups the overlay
        touches are copied — O(roles + overlay), not O(world).
        """
        adjacency = dict(self._base.role_adjacency())
        for role, local in self._roles.items():
            role_map = dict(adjacency.get(role, {}))
            touched_sources: dict[Individual, dict[tuple[Individual, Individual], RoleAssertion]] = {}
            for (source, target), assertion in local.items():
                touched_sources.setdefault(source, {})[(source, target)] = assertion
            for source, entries in touched_sources.items():
                merged = {
                    (assertion.source, assertion.target): assertion
                    for assertion in role_map.get(source, ())
                }
                merged.update(entries)
                role_map[source] = tuple(merged.values())
            adjacency[role] = role_map
        return adjacency

    def concept_assertions(self) -> Iterator[ConceptAssertion]:
        for assertion in self._base.concept_assertions():
            if assertion.individual not in self._concepts.get(assertion.concept, {}):
                yield assertion
        for table in self._concepts.values():
            yield from table.values()

    def role_assertions(self) -> Iterator[RoleAssertion]:
        for assertion in self._base.role_assertions():
            if (assertion.source, assertion.target) not in self._roles.get(assertion.role, {}):
                yield assertion
        for table in self._roles.values():
            yield from table.values()

    def __len__(self) -> int:
        shadowed = 0
        for concept, table in self._concepts.items():
            shadowed += sum(
                1 for individual in table
                if self._inherited_concept(concept, individual) is not None
            )
        for role, role_table in self._roles.items():
            shadowed += sum(
                1 for key in role_table if self._inherited_role(role, key) is not None
            )
        local = sum(len(table) for table in self._concepts.values()) + sum(
            len(table) for table in self._roles.values()
        )
        return len(self._base) + local - shadowed

    def __repr__(self) -> str:
        local = sum(len(table) for table in self._concepts.values()) + sum(
            len(table) for table in self._roles.values()
        )
        return f"LayeredABox(base={self._base!r}, overlay_assertions={local})"
