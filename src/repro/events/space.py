"""Event spaces: registries of basic events and their correlations.

The paper stresses that "correlations and constraints that exist among
concepts and roles [are] highly desirable (e.g., a person can only be at
a single place at one moment)" and that these must be captured "without
approximations".  An :class:`EventSpace` therefore records, next to the
marginal probability of every basic event, *mutual-exclusion groups*:
sets of basic events of which at most one can occur.

All basic events are pairwise independent except within a mutex group.
The exact probability engines consult the space to honour these
constraints; expressions evaluated without a space treat all atoms as
independent.

The space also provides the *chain encoding* that rewrites mutex-group
members into combinations of fresh independent variables, which lets
engines that require independent variables (the BDD weighted model
counter) remain exact in the presence of mutex groups.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.errors import EventSpaceError, UnknownEventError
from repro.events.atoms import BasicEvent, validate_probability
from repro.events.expr import ALWAYS, Atom, EventExpr, atom as make_atom, conj, disj, neg

__all__ = ["EventSpace", "MutexGroup", "chain_encode"]

#: Tolerance for "the probabilities of a mutex group sum to at most 1".
_MUTEX_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class MutexGroup:
    """A set of pairwise mutually exclusive basic events.

    At most one member occurs; the residual probability
    ``1 - sum(member probabilities)`` is the chance that none does.
    """

    name: str
    members: tuple[BasicEvent, ...] = field(default_factory=tuple)

    @property
    def member_names(self) -> tuple[str, ...]:
        return tuple(event.name for event in self.members)

    @property
    def total_probability(self) -> float:
        return sum(event.probability for event in self.members)

    @property
    def none_probability(self) -> float:
        """Probability that no member of the group occurs."""
        return max(0.0, 1.0 - self.total_probability)


class EventSpace:
    """Registry of basic events, their probabilities and mutex groups.

    Parameters
    ----------
    name:
        Optional label used in error messages and reprs.

    Examples
    --------
    >>> space = EventSpace()
    >>> sunny = space.atom("weather:sunny", 0.6)
    >>> rainy = space.atom("weather:rainy", 0.3)
    >>> _ = space.declare_mutex("weather", ["weather:sunny", "weather:rainy"])
    >>> from repro.events import probability
    >>> probability(sunny | rainy, space)
    0.9
    """

    def __init__(self, name: str = "events"):
        self.name = name
        self._events: dict[str, BasicEvent] = {}
        self._group_of: dict[str, str] = {}
        self._groups: dict[str, MutexGroup] = {}
        self._fresh_counter = 0
        self._revision = 0
        # The serial-name index of :meth:`serial_atom`, beside _events:
        # (base, probability) -> allocated name, and per base the lowest
        # serial not known to be taken.  Allocation is check-then-act on
        # a space every tenant's engine shares, hence the lock.
        self._serial_names: dict[tuple[str, float], str] = {}
        self._next_serial: dict[str, int] = {}
        self._serial_lock = threading.Lock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_serial_lock"]  # locks neither pickle nor deep-copy
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._serial_lock = threading.Lock()

    @property
    def revision(self) -> int:
        """Counter bumped when the *correlation structure* changes.

        Registering a new independent event leaves probabilities of
        existing expressions untouched; declaring a mutex group does
        not.  Probability caches (the compiled reasoner's memo, a
        long-lived :class:`~repro.events.shannon.ShannonEngine`) key on
        this to invalidate when a group appears.
        """
        return self._revision

    # -- registration ----------------------------------------------------
    def event(self, name: str, probability: float) -> BasicEvent:
        """Register (or re-fetch) a basic event.

        Registering an existing name with the same probability is a
        no-op; with a different probability it is an error, since a
        basic event is a single random variable.
        """
        probability = validate_probability(probability, f"probability of event {name!r}")
        existing = self._events.get(name)
        if existing is not None:
            if abs(existing.probability - probability) > 1e-12:
                raise EventSpaceError(
                    f"event {name!r} already registered with probability "
                    f"{existing.probability!r}, cannot re-register with {probability!r}"
                )
            return existing
        event = BasicEvent(name, probability)
        self._events[name] = event
        return event

    def atom(self, name: str, probability: float | None = None) -> Atom:
        """Register an event (if needed) and return it as an expression.

        When ``probability`` is omitted the event must already exist.
        """
        if probability is None:
            return make_atom(self.get(name))
        return make_atom(self.event(name, probability))

    def fresh_atom(self, probability: float, prefix: str = "e") -> Atom:
        """Register a new basic event under a generated unique name."""
        while True:
            self._fresh_counter += 1
            name = f"{prefix}#{self._fresh_counter}"
            if name not in self._events:
                return self.atom(name, probability)

    def serial_atom(self, base: str, probability: float) -> Atom:
        """The atom standing for ``base`` at ``probability``, in O(1).

        A basic event is one random variable, so the same name cannot
        be re-registered at another probability: the first probability
        seen for ``base`` gets the name ``base``, each later *distinct*
        one the next free of ``base#1``, ``base#2``, ...; asking again
        for a probability already seen returns the name it got then.
        The names are those a linear probe ``base``, ``base#1``, ...
        for the first free-or-equal name would find (events already in
        the space under those names are indexed on the base's first
        use), but a never-seen probability costs one dict miss instead
        of a walk over every serial allocated so far.  Probabilities
        are matched exactly, as parsed — not within the re-registration
        tolerance of :meth:`event`.
        """
        probability = validate_probability(probability, f"probability of event {base!r}")
        key = (base, probability)
        with self._serial_lock:
            name = self._serial_names.get(key)
            if name is None:
                # Every serial below _next_serial is taken and indexed,
                # none of them at this probability: probe on from there.
                serial = self._next_serial.get(base, 0)
                while name is None:
                    candidate = base if serial == 0 else f"{base}#{serial}"
                    taken = self._events.get(candidate)
                    if taken is None:
                        name = self.event(candidate, probability).name
                    elif taken.probability == probability:
                        name = candidate
                    else:
                        # Registered behind the index's back (a restored
                        # space, a direct event() call): index it, move on.
                        self._serial_names.setdefault((base, taken.probability), candidate)
                    serial += 1
                self._serial_names[key] = name
                self._next_serial[base] = serial
        return self.atom(name)

    def get(self, name: str) -> BasicEvent:
        """Look up a registered basic event by name."""
        try:
            return self._events[name]
        except KeyError as exc:
            raise UnknownEventError(f"unknown event {name!r} in space {self.name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[BasicEvent]:
        return iter(self._events.values())

    def __repr__(self) -> str:
        return f"EventSpace({self.name!r}, events={len(self._events)}, groups={len(self._groups)})"

    # -- mutex groups ------------------------------------------------------
    def declare_mutex(self, group_name: str, member_names: Sequence[str]) -> MutexGroup:
        """Declare that the named events are pairwise mutually exclusive.

        All members must already be registered, belong to no other
        group, and their probabilities must sum to at most 1.
        """
        if group_name in self._groups:
            raise EventSpaceError(f"mutex group {group_name!r} already declared")
        if len(set(member_names)) != len(member_names):
            raise EventSpaceError(f"mutex group {group_name!r} has duplicate members")
        if len(member_names) < 2:
            raise EventSpaceError(f"mutex group {group_name!r} needs at least two members")
        members = tuple(self.get(name) for name in member_names)
        for event in members:
            existing_group = self._group_of.get(event.name)
            if existing_group is not None:
                raise EventSpaceError(
                    f"event {event.name!r} already belongs to mutex group {existing_group!r}"
                )
        total = sum(event.probability for event in members)
        if total > 1.0 + _MUTEX_SUM_TOLERANCE:
            raise EventSpaceError(
                f"mutex group {group_name!r} probabilities sum to {total:g} > 1"
            )
        group = MutexGroup(group_name, members)
        self._groups[group_name] = group
        for event in members:
            self._group_of[event.name] = group_name
        self._revision += 1
        return group

    def mutex_choice(self, group_name: str, outcomes: dict[str, float], prefix: str = "") -> dict[str, Atom]:
        """Register a family of mutually exclusive outcomes in one call.

        ``outcomes`` maps outcome labels to probabilities; each label is
        registered as the event ``f"{prefix}{label}"``.  Returns the
        label-to-atom mapping.
        """
        atoms = {label: self.atom(f"{prefix}{label}", prob) for label, prob in outcomes.items()}
        self.declare_mutex(group_name, [a.name for a in atoms.values()])
        return atoms

    def group_of(self, event_name: str) -> MutexGroup | None:
        """Return the mutex group containing the event, if any."""
        group_name = self._group_of.get(event_name)
        return self._groups[group_name] if group_name is not None else None

    @property
    def groups(self) -> tuple[MutexGroup, ...]:
        return tuple(self._groups.values())

    def are_exclusive(self, first: str, second: str) -> bool:
        """True when two distinct events share a mutex group."""
        if first == second:
            return False
        group = self._group_of.get(first)
        return group is not None and group == self._group_of.get(second)

    # -- analysis ------------------------------------------------------
    def partition_atoms(self, atoms: Iterable[BasicEvent]) -> tuple[list[BasicEvent], list[tuple[MutexGroup, list[BasicEvent]]]]:
        """Split atoms into independent singletons and per-group clusters.

        Returns ``(independent, grouped)`` where ``grouped`` pairs each
        mutex group with the subset of its members that appear in
        ``atoms``.  The engines branch over groups jointly and over
        independent atoms individually.
        """
        independent: list[BasicEvent] = []
        by_group: dict[str, list[BasicEvent]] = {}
        for event in sorted(set(atoms), key=lambda e: e.name):
            group_name = self._group_of.get(event.name)
            if group_name is None:
                independent.append(event)
            else:
                by_group.setdefault(group_name, []).append(event)
        grouped = [(self._groups[name], members) for name, members in sorted(by_group.items())]
        return independent, grouped


def chain_encode(expr: EventExpr, space: EventSpace | None) -> tuple[EventExpr, dict[str, float]]:
    """Rewrite mutex-group members into independent chain variables.

    For a mutex group with members ``m1..mk`` (marginals ``p1..pk``)
    appearing in ``expr``, fresh independent variables ``c1..ck`` are
    introduced with conditional probabilities
    ``P(ci) = pi / (1 - p1 - ... - p_{i-1})`` and every occurrence of
    ``mi`` is replaced by ``NOT c1 AND ... AND NOT c_{i-1} AND ci``.
    The rewritten expression mentions only independent variables and has
    exactly the same probability as the original under the mutex
    semantics, which lets independence-assuming engines (the BDD
    weighted model counter) stay exact.

    Returns the rewritten expression together with the map from variable
    name to marginal probability for *all* variables in the result.
    """
    probabilities: dict[str, float] = {}
    if space is None:
        for event in expr.atoms():
            probabilities[event.name] = event.probability
        return expr, probabilities

    independent, grouped = space.partition_atoms(expr.atoms())
    for event in independent:
        probabilities[event.name] = event.probability

    substitution: dict[str, EventExpr] = {}
    for group, _present_members in grouped:
        # Encode over the full group so the conditional probabilities are
        # well defined regardless of which members appear in ``expr``.
        prefix_not: list[EventExpr] = []
        remaining = 1.0
        for index, member in enumerate(group.members):
            if remaining <= 1e-15:
                conditional = 0.0
            else:
                conditional = min(1.0, member.probability / remaining)
            chain_name = f"__chain:{group.name}:{index}:{member.name}"
            probabilities[chain_name] = conditional
            chain_atom = make_atom(BasicEvent(chain_name, conditional))
            substitution[member.name] = conj(prefix_not + [chain_atom])
            prefix_not.append(neg(chain_atom))
            remaining -= member.probability

    if not substitution:
        return expr, probabilities

    return _replace_atoms(expr, substitution), probabilities


def _replace_atoms(expr: EventExpr, substitution: dict[str, EventExpr]) -> EventExpr:
    """Structurally replace atoms by expressions (bottom-up rebuild)."""
    from repro.events.expr import And, FalseEvent, Not, Or, TrueEvent

    if isinstance(expr, (TrueEvent, FalseEvent)):
        return expr
    if isinstance(expr, Atom):
        return substitution.get(expr.name, expr)
    if isinstance(expr, Not):
        return neg(_replace_atoms(expr.child, substitution))
    if isinstance(expr, And):
        return conj(_replace_atoms(child, substitution) for child in expr.children)
    if isinstance(expr, Or):
        return disj(_replace_atoms(child, substitution) for child in expr.children)
    raise EventSpaceError(f"cannot rewrite unknown expression node {expr!r}")
