"""TBox: terminological axioms, classification and subsumption checking.

The reproduction needs two things from the TBox:

1. **Atomic classification** — the subsumption hierarchy over concept
   names (e.g. ``WeatherBulletinSubject ⊑ NewsSubject``), used by the
   instance checker so that asserting an individual into a sub-concept
   makes it an instance of every super-concept.  This is how Table 1's
   "weather bulletin" subject satisfies rule R2's News preference.

2. **Structural subsumption over expressions** — a sound (but, as usual
   for structural algorithms, incomplete) ``entails`` check used by rule
   pruning and mining dedup.  It never answers "yes" wrongly; a "no"
   means "not derivable structurally".

Definitions (``name ≡ expression``) are supported with acyclicity
checking and unfolding, so high-level context events ("HavingBreakfast")
can be defined in terms of sensed concepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import TBoxError
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
    at_least,
    complement,
    every,
    intersect,
    some,
    union,
)
from repro.dl.vocabulary import ConceptName, RoleName

__all__ = ["TBox", "SubsumptionAxiom", "Definition", "DisjointnessAxiom", "RoleSubsumptionAxiom"]


@dataclass(frozen=True)
class SubsumptionAxiom:
    """``sub ⊑ sup`` for two concept names."""

    sub: ConceptName
    sup: ConceptName

    def __str__(self) -> str:
        return f"{self.sub} SUBCLASS-OF {self.sup}"


@dataclass(frozen=True)
class RoleSubsumptionAxiom:
    """``sub ⊑ sup`` for two role names (a role hierarchy edge)."""

    sub: RoleName
    sup: RoleName

    def __str__(self) -> str:
        return f"{self.sub} SUBROLE-OF {self.sup}"


@dataclass(frozen=True)
class Definition:
    """``name ≡ concept`` (an acyclic concept definition)."""

    name: ConceptName
    concept: Concept

    def __str__(self) -> str:
        return f"{self.name} EQUIV {self.concept}"


@dataclass(frozen=True)
class DisjointnessAxiom:
    """Pairwise disjointness of a set of concept names.

    Used to model the paper's disjoint program kinds ("a television
    program is either a traffic bulletin, or a weather bulletin, or
    something else").
    """

    names: frozenset[ConceptName]

    def __str__(self) -> str:
        return "DISJOINT(" + ", ".join(sorted(n.name for n in self.names)) + ")"


class TBox:
    """A terminology: subsumptions, definitions and disjointness axioms.

    Examples
    --------
    >>> tbox = TBox()
    >>> tbox.add_subsumption("WeatherBulletinSubject", "NewsSubject")
    >>> tbox.subsumes_name("NewsSubject", "WeatherBulletinSubject")
    True
    """

    def __init__(self) -> None:
        self._supers: dict[ConceptName, set[ConceptName]] = {}
        self._definitions: dict[ConceptName, Concept] = {}
        self._disjointness: list[DisjointnessAxiom] = []
        self._closure: dict[ConceptName, frozenset[ConceptName]] | None = None
        self._role_supers: dict[RoleName, set[RoleName]] = {}
        self._role_closure: dict[RoleName, frozenset[RoleName]] | None = None
        self._revision = 0

    @property
    def revision(self) -> int:
        """Monotonic counter bumped on every axiom or definition change.

        The terminological twin of :attr:`repro.dl.abox.ABox.mutation_count`:
        caches of derived state (the compiled reasoner's membership and
        probability memos) key on it, so a TBox edit invalidates them
        by construction.
        """
        return self._revision

    # -- axiom entry ------------------------------------------------------
    def add_subsumption(self, sub: str | ConceptName, sup: str | ConceptName) -> SubsumptionAxiom:
        """Assert ``sub ⊑ sup`` between two concept names."""
        sub = ConceptName(sub) if isinstance(sub, str) else sub
        sup = ConceptName(sup) if isinstance(sup, str) else sup
        if sub == sup:
            raise TBoxError(f"self-subsumption {sub} is vacuous")
        self._supers.setdefault(sub, set()).add(sup)
        self._supers.setdefault(sup, set())
        self._closure = None
        self._revision += 1
        return SubsumptionAxiom(sub, sup)

    def define(self, name: str | ConceptName, concept: Concept) -> Definition:
        """Define ``name ≡ concept``; definitions must stay acyclic."""
        name = ConceptName(name) if isinstance(name, str) else name
        if name in self._definitions:
            raise TBoxError(f"concept {name} already has a definition")
        self._definitions[name] = concept
        try:
            self._check_definition_acyclic(name)
        except TBoxError:
            del self._definitions[name]
            raise
        self._revision += 1
        return Definition(name, concept)

    def add_role_subsumption(self, sub: str | RoleName, sup: str | RoleName) -> RoleSubsumptionAxiom:
        """Assert ``sub ⊑ sup`` between two role names.

        An edge asserted through a sub-role counts for every super-role
        (e.g. ``hasMainGenre ⊑ hasGenre``): the instance checker and
        the view compilers consult the closure.
        """
        sub = RoleName(sub) if isinstance(sub, str) else sub
        sup = RoleName(sup) if isinstance(sup, str) else sup
        if sub == sup:
            raise TBoxError(f"self-subsumption {sub} is vacuous")
        self._role_supers.setdefault(sub, set()).add(sup)
        self._role_supers.setdefault(sup, set())
        self._role_closure = None
        self._revision += 1
        return RoleSubsumptionAxiom(sub, sup)

    def declare_disjoint(self, names: Iterable[str | ConceptName]) -> DisjointnessAxiom:
        """Declare a set of concept names pairwise disjoint."""
        resolved = frozenset(ConceptName(n) if isinstance(n, str) else n for n in names)
        if len(resolved) < 2:
            raise TBoxError("disjointness needs at least two distinct concept names")
        axiom = DisjointnessAxiom(resolved)
        self._disjointness.append(axiom)
        self._revision += 1
        return axiom

    # -- classification ---------------------------------------------------
    def _classify(self) -> dict[ConceptName, frozenset[ConceptName]]:
        """Reflexive-transitive closure of the name hierarchy."""
        if self._closure is not None:
            return self._closure
        closure: dict[ConceptName, frozenset[ConceptName]] = {}

        def ancestors(name: ConceptName, trail: tuple[ConceptName, ...]) -> frozenset[ConceptName]:
            if name in closure:
                return closure[name]
            if name in trail:
                cycle = " -> ".join(n.name for n in trail + (name,))
                raise TBoxError(f"subsumption cycle: {cycle}")
            result = {name}
            for parent in self._supers.get(name, ()):
                result.update(ancestors(parent, trail + (name,)))
            closure[name] = frozenset(result)
            return closure[name]

        for name in list(self._supers):
            ancestors(name, ())
        self._closure = closure
        return closure

    def ancestors(self, name: str | ConceptName) -> frozenset[ConceptName]:
        """All super-concepts of a name, including itself."""
        name = ConceptName(name) if isinstance(name, str) else name
        return self._classify().get(name, frozenset({name}))

    def descendants(self, name: str | ConceptName) -> frozenset[ConceptName]:
        """All sub-concepts of a name, including itself."""
        name = ConceptName(name) if isinstance(name, str) else name
        closure = self._classify()
        result = {name}
        for candidate, supers in closure.items():
            if name in supers:
                result.add(candidate)
        return frozenset(result)

    def subsumes_name(self, sup: str | ConceptName, sub: str | ConceptName) -> bool:
        """True when ``sub ⊑ sup`` is derivable in the name hierarchy."""
        sup = ConceptName(sup) if isinstance(sup, str) else sup
        sub = ConceptName(sub) if isinstance(sub, str) else sub
        return sup in self.ancestors(sub)

    def disjoint_names(self, first: ConceptName, second: ConceptName) -> bool:
        """True when the two names are declared (or inherited) disjoint."""
        first_up = self.ancestors(first)
        second_up = self.ancestors(second)
        for axiom in self._disjointness:
            hits_first = axiom.names & first_up
            hits_second = axiom.names & second_up
            if any(a != b for a in hits_first for b in hits_second):
                return True
        return False

    @property
    def concept_names(self) -> frozenset[ConceptName]:
        """Every concept name mentioned in subsumptions or definitions."""
        names = set(self._supers)
        names.update(self._definitions)
        return frozenset(names)

    # -- role classification --------------------------------------------
    def _classify_roles(self) -> dict[RoleName, frozenset[RoleName]]:
        if self._role_closure is not None:
            return self._role_closure
        closure: dict[RoleName, frozenset[RoleName]] = {}

        def ancestors(role: RoleName, trail: tuple[RoleName, ...]) -> frozenset[RoleName]:
            if role in closure:
                return closure[role]
            if role in trail:
                cycle = " -> ".join(r.name for r in trail + (role,))
                raise TBoxError(f"role subsumption cycle: {cycle}")
            result = {role}
            for parent in self._role_supers.get(role, ()):
                result.update(ancestors(parent, trail + (role,)))
            closure[role] = frozenset(result)
            return closure[role]

        for role in list(self._role_supers):
            ancestors(role, ())
        self._role_closure = closure
        return closure

    def role_ancestors(self, role: str | RoleName) -> frozenset[RoleName]:
        """All super-roles of a role, including itself."""
        role = RoleName(role) if isinstance(role, str) else role
        return self._classify_roles().get(role, frozenset({role}))

    def role_descendants(self, role: str | RoleName) -> frozenset[RoleName]:
        """All sub-roles of a role, including itself."""
        role = RoleName(role) if isinstance(role, str) else role
        closure = self._classify_roles()
        result = {role}
        for candidate, supers in closure.items():
            if role in supers:
                result.add(candidate)
        return frozenset(result)

    def subsumes_role(self, sup: str | RoleName, sub: str | RoleName) -> bool:
        """True when ``sub ⊑ sup`` is derivable in the role hierarchy."""
        sup = RoleName(sup) if isinstance(sup, str) else sup
        sub = RoleName(sub) if isinstance(sub, str) else sub
        return sup in self.role_ancestors(sub)

    # -- definitions ----------------------------------------------------
    def _check_definition_acyclic(self, start: ConceptName) -> None:
        seen: set[ConceptName] = set()

        def visit(name: ConceptName, trail: tuple[ConceptName, ...]) -> None:
            if name in trail:
                cycle = " -> ".join(n.name for n in trail + (name,))
                raise TBoxError(f"definitional cycle: {cycle}")
            definition = self._definitions.get(name)
            if definition is None or name in seen:
                return
            for used in definition.concept_names():
                visit(used, trail + (name,))
            seen.add(name)

        visit(start, ())

    def expand(self, concept: Concept) -> Concept:
        """Unfold every defined name in ``concept`` (recursively)."""
        if isinstance(concept, Atomic):
            definition = self._definitions.get(concept.concept)
            return self.expand(definition) if definition is not None else concept
        if isinstance(concept, Not):
            return complement(self.expand(concept.child))
        if isinstance(concept, And):
            return intersect(self.expand(child) for child in concept.children)
        if isinstance(concept, Or):
            return union(self.expand(child) for child in concept.children)
        if isinstance(concept, Exists):
            return some(concept.role, self.expand(concept.filler))
        if isinstance(concept, ForAll):
            return every(concept.role, self.expand(concept.filler))
        if isinstance(concept, AtLeast):
            return at_least(concept.count, concept.role, self.expand(concept.filler))
        return concept

    # -- structural subsumption over expressions -----------------------
    def entails(self, sub: Concept, sup: Concept) -> bool:
        """Sound structural check for ``sub ⊑ sup``.

        Complete for the name hierarchy plus the obvious structural
        rules (⊤/⊥, ⊓/⊔ introduction and elimination, monotonicity of
        ∃/∀ in the filler, nominal subsets); incomplete in general —
        a ``False`` answer means "not structurally derivable".
        """
        return self._entails(self.expand(sub), self.expand(sup))

    def _entails(self, sub: Concept, sup: Concept) -> bool:
        if sub == sup:
            return True
        if isinstance(sup, Top) or isinstance(sub, Bottom):
            return True
        if isinstance(sub, Top) and not isinstance(sup, Top):
            return False

        # HasValue is identical to its desugared Exists form.
        if isinstance(sub, HasValue):
            return self._entails(sub.desugar(), sup)
        if isinstance(sup, HasValue):
            return self._entails(sub, sup.desugar())

        # sup = D1 ⊓ D2: must entail every conjunct.
        if isinstance(sup, And):
            return all(self._entails(sub, part) for part in sup.children)
        # sub = C1 ⊔ C2: every disjunct must entail sup.
        if isinstance(sub, Or):
            return all(self._entails(part, sup) for part in sub.children)
        # sub = C1 ⊓ C2: some conjunct entailing sup suffices.
        if isinstance(sub, And):
            if any(self._entails(part, sup) for part in sub.children):
                return True
        # sup = D1 ⊔ D2: entailing some disjunct suffices.
        if isinstance(sup, Or):
            if any(self._entails(sub, part) for part in sup.children):
                return True

        if isinstance(sub, Atomic) and isinstance(sup, Atomic):
            return self.subsumes_name(sup.concept, sub.concept)
        if isinstance(sub, OneOf) and isinstance(sup, OneOf):
            return sub.members <= sup.members
        if isinstance(sub, Exists) and isinstance(sup, Exists):
            return self.subsumes_role(sup.role, sub.role) and self._entails(sub.filler, sup.filler)
        if isinstance(sub, ForAll) and isinstance(sup, ForAll):
            # ∀ is antitone in the role: restricting a *larger* role set
            # entails restricting a smaller one.
            return self.subsumes_role(sub.role, sup.role) and self._entails(sub.filler, sup.filler)
        if isinstance(sub, AtLeast) and isinstance(sup, AtLeast):
            return (
                sub.count >= sup.count
                and self.subsumes_role(sup.role, sub.role)
                and self._entails(sub.filler, sup.filler)
            )
        if isinstance(sub, AtLeast) and isinstance(sup, Exists):
            return self.subsumes_role(sup.role, sub.role) and self._entails(sub.filler, sup.filler)
        if isinstance(sub, Not) and isinstance(sup, Not):
            return self._entails(sup.child, sub.child)
        return False

    def __repr__(self) -> str:
        return (
            f"TBox(subsumptions={sum(len(s) for s in self._supers.values())}, "
            f"definitions={len(self._definitions)}, disjointness={len(self._disjointness)})"
        )
