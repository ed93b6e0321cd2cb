"""Probabilistic instance checking: from concept expressions to events.

The bridge between the DL layer and the uncertainty layer: for an
individual ``i`` and concept expression ``C``, :func:`membership_event`
computes the *event expression* under which ``i ∈ C`` holds, given the
ABox assertions and the TBox name hierarchy.  The probability of that
event (via :func:`repro.events.probability`) is then the probability
the paper's model needs — e.g. "the probability that Channel 5 news has
a human-interest genre is 0.95".

Semantics (closed-world over the ABox, as in any database-backed
implementation, including the paper's):

* ``A`` (atomic): the disjunction of the events of the assertions
  ``B(i)`` for every ``B ⊑ A`` in the TBox closure.  Defined names are
  unfolded first.
* ``¬C``: the negation of the membership event of ``C`` (absence of
  evidence is evidence of absence — the database view).
* ``C ⊓ D`` / ``C ⊔ D``: conjunction / disjunction of the events.
* ``{a, b}``: certain if ``i`` is one of the named individuals.
* ``∃R.C``: the disjunction over asserted ``R(i, j)`` of
  ``event(R(i,j)) AND event(j ∈ C)``.
* ``∀R.C``: the conjunction over asserted ``R(i, j)`` of
  ``NOT event(R(i,j)) OR event(j ∈ C)`` (every potential successor is
  either absent or in ``C``).
* ``R VALUE a``: the event of the assertion ``R(i, a)``.

The semantics lives in :class:`MembershipEvaluator`, whose lookup
methods (``expand_concept``, ``sorted_descendants``,
``role_successors``, ``event``) are overridable hooks.  The base class
caches *nothing* — it is the uncached reference the compiled reasoner
(:class:`repro.reason.CompiledKB`) is benchmarked and property-tested
against; the reasoner subclasses it with per-epoch memo tables, so both
paths share one implementation of the semantics and can never drift.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from repro.errors import ComplexityLimitError, DLError
from repro.events.expr import ALWAYS, NEVER, EventExpr, conj, disj, neg
from repro.events.probability import probability
from repro.events.space import EventSpace
from repro.dl.abox import ABox, RoleAssertion
from repro.dl.concepts import (
    And,
    AtLeast,
    Atomic,
    Bottom,
    Concept,
    Exists,
    ForAll,
    HasValue,
    Not,
    OneOf,
    Or,
    Top,
)
from repro.dl.tbox import TBox
from repro.dl.vocabulary import ConceptName, Individual, RoleName

#: Guard for qualified number restrictions: C(successors, n) subsets.
MAX_AT_LEAST_SUBSETS = 50000

__all__ = [
    "MembershipEvaluator",
    "membership_event",
    "membership_probability",
    "retrieve",
    "retrieve_probabilities",
]


class MembershipEvaluator:
    """Computes membership events; lookups are overridable hooks.

    The base class recomputes everything on every call — the uncached
    reference.  :class:`repro.reason.ReasonerSession` overrides the
    hooks with per-epoch caches (concept expansion, sorted closures, a
    role-successor index, a per-(individual, concept) event memo)
    without touching the semantics below, and evaluates whole concepts
    over the ABox tables (``ReasonerSession.column``) to the very events
    this class returns one individual at a time — it is that path's
    oracle.
    """

    def __init__(self, abox: ABox, tbox: TBox):
        self.abox = abox
        self.tbox = tbox

    # -- overridable lookups -------------------------------------------
    def expand_concept(self, concept: Concept) -> Concept:
        """Unfold the TBox definitions in ``concept``."""
        return self.tbox.expand(concept)

    def sorted_descendants(self, name: ConceptName) -> tuple[ConceptName, ...]:
        """Sub-concepts of a name in deterministic (name) order."""
        return tuple(sorted(self.tbox.descendants(name), key=lambda n: n.name))

    def sorted_role_descendants(self, role: RoleName) -> tuple[RoleName, ...]:
        """Sub-roles of a role in deterministic (name) order."""
        return tuple(sorted(self.tbox.role_descendants(role), key=lambda r: r.name))

    def role_successors(self, role: RoleName, individual: Individual) -> Iterable[RoleAssertion]:
        """Role assertions leaving ``individual`` via exactly ``role``."""
        return self.abox.role_successors(role, individual)

    def event(self, individual: Individual, concept: Concept) -> EventExpr:
        """Membership event of an already-expanded concept (memo hook)."""
        return self._compute(individual, concept)

    # -- entry point ----------------------------------------------------
    def membership_event(self, individual: str | Individual, concept: Concept) -> EventExpr:
        """Event under which ``individual`` is an instance of ``concept``."""
        individual = Individual(individual) if isinstance(individual, str) else individual
        return self.event(individual, self.expand_concept(concept))

    # -- the semantics (shared by reference and compiled paths) ---------
    def _compute(self, individual: Individual, concept: Concept) -> EventExpr:
        if isinstance(concept, Top):
            return ALWAYS
        if isinstance(concept, Bottom):
            return NEVER
        if isinstance(concept, Atomic):
            alternatives = []
            for sub_name in self.sorted_descendants(concept.concept):
                event = self.abox.concept_event(sub_name, individual)
                if event is not None:
                    alternatives.append(event)
            return disj(alternatives)
        if isinstance(concept, Not):
            return neg(self.event(individual, concept.child))
        if isinstance(concept, And):
            return conj(self.event(individual, child) for child in concept.children)
        if isinstance(concept, Or):
            return disj(self.event(individual, child) for child in concept.children)
        if isinstance(concept, OneOf):
            return ALWAYS if individual in concept.members else NEVER
        if isinstance(concept, HasValue):
            alternatives = []
            for sub_role in self.sorted_role_descendants(concept.role):
                event = self.abox.role_event(sub_role, individual, concept.value)
                if event is not None:
                    alternatives.append(event)
            return disj(alternatives)
        if isinstance(concept, Exists):
            alternatives = []
            for _target, edge_event, filler_event in self._successors(
                individual, concept.role, concept.filler
            ):
                alternatives.append(conj([edge_event, filler_event]))
            return disj(alternatives)
        if isinstance(concept, ForAll):
            obligations = []
            for _target, edge_event, filler_event in self._successors(
                individual, concept.role, concept.filler
            ):
                obligations.append(disj([neg(edge_event), filler_event]))
            return conj(obligations)
        if isinstance(concept, AtLeast):
            # "Has at least n distinct successors in C": the disjunction
            # over n-subsets of distinct targets of the conjunction of their
            # membership events.
            per_target = [
                conj([edge_event, filler_event])
                for _target, edge_event, filler_event in self._successors(
                    individual, concept.role, concept.filler
                )
                if not conj([edge_event, filler_event]).is_impossible
            ]
            if len(per_target) < concept.count:
                return NEVER
            subset_count = 1
            for step in range(concept.count):
                subset_count = subset_count * (len(per_target) - step) // (step + 1)
            if subset_count > MAX_AT_LEAST_SUBSETS:
                raise ComplexityLimitError(
                    f"AtLeast({concept.count}) over {len(per_target)} successors needs "
                    f"{subset_count} subsets (> limit {MAX_AT_LEAST_SUBSETS})"
                )
            return disj(
                conj(subset) for subset in combinations(per_target, concept.count)
            )
        raise DLError(f"cannot evaluate unknown concept node {concept!r}")

    def _successors(
        self,
        individual: Individual,
        role: RoleName,
        filler: Concept,
    ) -> list[tuple[Individual, EventExpr, EventExpr]]:
        """Distinct targets reachable via the role (or any sub-role).

        Returns ``(target, edge event, filler membership event)`` with the
        edge event OR-merged across the contributing sub-roles.
        """
        edges: dict[Individual, list[EventExpr]] = {}
        for sub_role in self.sorted_role_descendants(role):
            for assertion in self.role_successors(sub_role, individual):
                edges.setdefault(assertion.target, []).append(assertion.event)
        result = []
        for target in sorted(edges, key=lambda t: t.name):
            edge_event = disj(edges[target])
            filler_event = self.event(target, filler)
            result.append((target, edge_event, filler_event))
        return result


def membership_event(
    abox: ABox,
    tbox: TBox,
    individual: str | Individual,
    concept: Concept,
) -> EventExpr:
    """Event expression under which ``individual`` is an instance of ``concept``.

    This is the uncached reference path: a fresh
    :class:`MembershipEvaluator` with no memo tables.  Hot paths
    (binding, retrieval) go through :mod:`repro.reason` instead.

    Examples
    --------
    >>> from repro.events import EventSpace, probability
    >>> from repro.dl import ABox, TBox, parse_concept
    >>> box, tbox, space = ABox(), TBox(), EventSpace()
    >>> _ = box.assert_concept("TvProgram", "oprah")
    >>> _ = box.assert_role("hasGenre", "oprah", "HUMAN-INTEREST",
    ...                     space.atom("g", 0.85))
    >>> event = membership_event(box, tbox, "oprah",
    ...     parse_concept("TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST}"))
    >>> probability(event, space)
    0.85
    """
    return MembershipEvaluator(abox, tbox).membership_event(individual, concept)


def membership_probability(
    abox: ABox,
    tbox: TBox,
    individual: str | Individual,
    concept: Concept,
    space: EventSpace | None = None,
    engine: str = "shannon",
) -> float:
    """Probability that ``individual`` is an instance of ``concept``."""
    return probability(membership_event(abox, tbox, individual, concept), space, engine)


def retrieve(abox: ABox, tbox: TBox, concept: Concept) -> dict[Individual, EventExpr]:
    """Instance retrieval: every individual with a non-impossible event.

    The concept is evaluated once over the ABox tables — unions of
    concept tables, joins on id, a role's incoming edges joined to the
    filler's members: the algebra :mod:`repro.storage.mapping` compiles
    for a database — as a column of a compiled reasoner session
    (:func:`repro.reason.query_session` — the warm shared one when the
    world is registered, a transient one otherwise).  Each event is the
    one :func:`membership_event` returns for that individual — the
    reference semantics the relational view compiler is tested against.
    """
    from repro.reason import query_session  # deferred: repro.reason imports this module

    return query_session(abox, tbox, events_only=True).retrieve(concept)


def retrieve_probabilities(
    abox: ABox,
    tbox: TBox,
    concept: Concept,
    space: EventSpace | None = None,
    engine: str = "shannon",
) -> dict[Individual, float]:
    """Instance retrieval with probabilities instead of raw events."""
    from repro.reason import query_session  # deferred: repro.reason imports this module

    return query_session(abox, tbox, space).retrieve_probabilities(concept, engine)
