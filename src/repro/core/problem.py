"""Scoring problems: rules bound to a concrete situation and candidates.

Following Section 4.1 — "we consider only those features important for
relevance that are mentioned in the preference rules" — the feature
space of a scoring problem is exactly the rule set:

* per rule ``r``, the *context feature* is the event under which the
  situated user satisfies ``r.context`` (one event for the whole
  problem);
* per rule ``r`` and candidate document ``d``, the *document feature*
  is the event under which ``d`` satisfies ``r.preference``.

:func:`bind_problem` computes all of these through the *compiled*
probabilistic instance checker (:mod:`repro.reason`): the context
features are single memberships of the user, and each rule's document
features are one *column* — the preference concept evaluated once over
the ABox tables (:meth:`repro.reason.ReasonerSession.column`), the
paper's "database view for each concept expression" — which the
candidates are then looked up in.  A column belongs to the static world,
not to a candidate set or a user, so through the shared KB registry it
serves every request, engine, tenant and group member over the same
world.  Pass an explicit ``kb`` to control sharing; the uncached
reference path remains :func:`repro.dl.instances.membership_event`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ScoringError
from repro.events.expr import NEVER, EventExpr
from repro.events.space import EventSpace
from repro.dl.abox import ABox
from repro.dl.tbox import TBox
from repro.dl.vocabulary import Individual
from repro.reason import CompiledKB, compiled_kb
from repro.rules.repository import RuleRepository
from repro.rules.rule import PreferenceRule

__all__ = [
    "RuleBinding",
    "DocumentBinding",
    "ScoringProblem",
    "bind_problem",
    "bind_rules",
    "bind_documents",
]

#: Candidates bound between two deadline checks: a cold row costs ~8 µs
#: (10 000 programs x 12 rules), so a block is ~4 ms of unchecked work.
_BIND_BLOCK = 512


def _active_deadline():
    """The serving layer's per-request deadline, when one is active.

    Resolved through ``sys.modules`` so the core never imports the
    service layer (no import cycle, no import cost): if
    ``repro.service.resilience`` was never loaded there cannot be a
    deadline, and the probe is one dict lookup.  Returns an object
    with a ``check()`` raising the service's ``DeadlineExceeded``, or
    ``None``.  The one probe of the core and the engine: the kernel
    once before each scoring pass, :func:`bind_documents` between rule
    columns and candidate blocks, the engine while it waits for its
    lock.
    """
    resilience = sys.modules.get("repro.service.resilience")
    if resilience is None:
        return None
    return resilience.current_deadline()


@dataclass(frozen=True)
class RuleBinding:
    """One rule with its context event in the current situation."""

    rule: PreferenceRule
    context_event: EventExpr
    context_probability: float

    @property
    def sigma(self) -> float:
        return self.rule.sigma


@dataclass(frozen=True)
class DocumentBinding:
    """One candidate with its per-rule preference events.

    ``preference_events[i]`` / ``preference_probabilities[i]`` line up
    with the problem's ``bindings[i]``.
    """

    document: Individual
    preference_events: tuple[EventExpr, ...]
    preference_probabilities: tuple[float, ...]


@dataclass
class ScoringProblem:
    """Everything the scorers need for one ranking round.

    Attributes
    ----------
    bindings:
        The rules (with context events), in repository order.
    documents:
        Per-candidate bindings, in candidate order.
    space:
        The event space (mutex groups) behind all events.
    """

    bindings: tuple[RuleBinding, ...]
    documents: tuple[DocumentBinding, ...] = ()
    space: EventSpace | None = None

    def __post_init__(self) -> None:
        width = len(self.bindings)
        for document in self.documents:
            if len(document.preference_events) != width:
                raise ScoringError(
                    f"document {document.document} has {len(document.preference_events)} "
                    f"preference events for {width} rules"
                )

    @property
    def rule_count(self) -> int:
        return len(self.bindings)

    @property
    def covered(self) -> bool:
        """Is any rule's context possible?  (Section 4.1's coverage check.)"""
        return any(not binding.context_event.is_impossible for binding in self.bindings)

    def document(self, individual: Individual) -> DocumentBinding:
        for binding in self.documents:
            if binding.document == individual:
                return binding
        raise ScoringError(f"document {individual} is not part of this problem")


def bind_rules(
    abox: ABox,
    tbox: TBox,
    user: Individual,
    rules: Sequence[PreferenceRule],
    space: EventSpace | None = None,
    engine: str = "shannon",
    kb: CompiledKB | None = None,
) -> tuple[RuleBinding, ...]:
    """The context half of a binding: each rule's context event for ``user``.

    This is the cheap half — one membership event per rule — and the
    only half that changes when the situation develops; the incremental
    rescoring path (:meth:`repro.core.kernel.ScoringKernel.with_context`)
    recomputes just this vector on an unchanged candidate matrix.
    """
    user = Individual(user) if isinstance(user, str) else user
    session = (kb if kb is not None else compiled_kb(abox, tbox, space)).session()
    bindings = []
    for rule in rules:
        event = session.event(user, session.expand_concept(rule.context))
        bindings.append(RuleBinding(rule, event, session.probability(event, engine)))
    return tuple(bindings)


def bind_documents(
    abox: ABox,
    tbox: TBox,
    rules: Sequence[PreferenceRule],
    documents: Iterable[Individual | str],
    space: EventSpace | None = None,
    engine: str = "shannon",
    kb: CompiledKB | None = None,
) -> tuple[DocumentBinding, ...]:
    """The candidate half: per document, every rule's preference event.

    Bound by column: each rule's preference concept is evaluated once
    over the ABox tables (a memoised column per epoch, sub-concepts
    shared between rules), and a candidate's row is one lookup per
    rule — ``NEVER`` where the column does not hold it.  Each distinct
    event is priced once.  The result is what the scoring kernel
    compiles into the ``P(f)`` matrix.  A serving deadline is checked
    before each rule's column and each block of ``_BIND_BLOCK``
    candidates, so a cold bind stops near it.
    """
    session = (kb if kb is not None else compiled_kb(abox, tbox, space)).session()
    deadline = _active_deadline()
    columns = []
    for rule in rules:
        if deadline is not None:
            deadline.check()
        columns.append(session.column(rule.preference))
    priced: dict[EventExpr, float] = {NEVER: 0.0}
    document_bindings = []
    for count, document in enumerate(documents):
        if deadline is not None and not count % _BIND_BLOCK:
            deadline.check()
        individual = Individual(document) if isinstance(document, str) else document
        events = tuple([column.get(individual, NEVER) for column in columns])
        for event in events:
            if event not in priced:
                priced[event] = session.probability(event, engine)
        probabilities = tuple([priced[event] for event in events])
        document_bindings.append(DocumentBinding(individual, events, probabilities))
    return tuple(document_bindings)


def bind_problem(
    abox: ABox,
    tbox: TBox,
    user: Individual,
    repository: RuleRepository | Sequence[PreferenceRule],
    documents: Iterable[Individual | str],
    space: EventSpace | None = None,
    engine: str = "shannon",
    kb: CompiledKB | None = None,
) -> ScoringProblem:
    """Bind a repository to the current context and candidate documents.

    Examples
    --------
    >>> # See repro.workloads.tvtouch for a fully worked binding.
    """
    rules = list(repository)
    if kb is None:
        kb = compiled_kb(abox, tbox, space)
    bindings = bind_rules(abox, tbox, user, rules, space, engine, kb)
    document_bindings = bind_documents(abox, tbox, rules, documents, space, engine, kb)
    return ScoringProblem(bindings, document_bindings, space)
