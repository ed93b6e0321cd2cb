"""Shannon expansion: the workhorse exact probability engine.

``P(e) = P(x) * P(e[x:=T]) + (1 - P(x)) * P(e[x:=F])`` for any atom
``x``.  Conditioning is performed jointly per mutex group (one branch
per member that appears in the expression, plus a "none of them"
branch), so mutex constraints are honoured exactly.  Memoisation on the
simplified sub-expressions keeps repeated sub-problems cheap; with a
sensible branching order this engine comfortably handles the event
expressions produced by the view machinery.
"""

from __future__ import annotations

from collections import Counter

from repro.events.atoms import BasicEvent
from repro.events.expr import Atom, EventExpr
from repro.events.space import EventSpace

__all__ = ["probability_by_shannon", "ShannonEngine"]


class ShannonEngine:
    """Reusable Shannon-expansion evaluator with a shared memo table.

    Reuse one engine across many related expressions (e.g. the per-tuple
    events of one view) to share memoised sub-results.

    Parameters
    ----------
    space:
        Event space supplying mutex-group structure; ``None`` treats all
        atoms as independent.
    """

    def __init__(self, space: EventSpace | None = None):
        self._space = space
        self._memo: dict[EventExpr, float] = {}

    def probability(self, expr: EventExpr) -> float:
        """Exact probability of ``expr``."""
        return self._probability(expr)

    def clear(self) -> None:
        """Drop the memo table (e.g. after the space gains new groups)."""
        self._memo.clear()

    # -- internals -----------------------------------------------------
    def _probability(self, expr: EventExpr) -> float:
        if expr.is_certain:
            return 1.0
        if expr.is_impossible:
            return 0.0
        if isinstance(expr, Atom):
            # A basic event's marginal, in a mutex group or not: what
            # branching on it would sum to, without a memo entry.
            return expr.event.probability
        # Expressions hash by their cached structural hash and compare
        # identity-first, so with interned nodes (repro.events.expr) a
        # memo lookup is one dict probe — no deep tuple rehash.
        cached = self._memo.get(expr)
        if cached is not None:
            return cached

        branch_atom = self._pick_atom(expr)
        value = self._branch(expr, branch_atom)
        value = min(1.0, max(0.0, value))
        self._memo[expr] = value
        return value

    def _pick_atom(self, expr: EventExpr) -> BasicEvent:
        """Choose the most frequently occurring atom as the pivot.

        Branching on frequent atoms simplifies the expression fastest,
        which keeps the recursion shallow in practice.
        """
        counts: Counter[BasicEvent] = Counter()
        _count_atoms(expr, counts)
        # Deterministic tie-break on name keeps memo behaviour stable.
        return max(counts, key=lambda event: (counts[event], event.name))

    def _branch(self, expr: EventExpr, pivot: BasicEvent) -> float:
        group = self._space.group_of(pivot.name) if self._space is not None else None
        if group is None:
            positive = expr.substitute({pivot.name: True})
            negative = expr.substitute({pivot.name: False})
            return (
                pivot.probability * self._probability(positive)
                + pivot.complement_probability * self._probability(negative)
            )

        # Joint conditioning over the mutex group: exactly one appearing
        # member occurs, or none of them does.
        appearing = [event for event in group.members if event in expr.atoms()]
        member_names = [event.name for event in appearing]
        value = 0.0
        for chosen in appearing:
            assignment = {name: name == chosen.name for name in member_names}
            value += chosen.probability * self._probability(expr.substitute(assignment))
        none_probability = 1.0 - sum(event.probability for event in appearing)
        if none_probability > 0.0:
            assignment = {name: False for name in member_names}
            value += none_probability * self._probability(expr.substitute(assignment))
        return value


def _count_atoms(expr: EventExpr, counts: Counter) -> None:
    from repro.events.expr import And, Not, Or

    if isinstance(expr, Atom):
        counts[expr.event] += 1
    elif isinstance(expr, Not):
        _count_atoms(expr.child, counts)
    elif isinstance(expr, (And, Or)):
        for child in expr.children:
            _count_atoms(child, counts)


def probability_by_shannon(expr: EventExpr, space: EventSpace | None = None) -> float:
    """One-shot convenience wrapper around :class:`ShannonEngine`."""
    return ShannonEngine(space).probability(expr)
