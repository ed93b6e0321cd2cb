"""Facade over the exact probability engines.

Four engines compute the same value in different ways:

========== ============================================  ==================
engine     algorithm                                     complexity
========== ============================================  ==================
"shannon"  Shannon expansion with memoisation (default)  good in practice
"bdd"      ROBDD weighted model counting                 good in practice
"worlds"   possible-world enumeration                    2^atoms (guarded)
"dnf"      DNF + inclusion-exclusion                     2^terms (guarded)
========== ============================================  ==================

All are exact; the exponential two exist as independent oracles for the
test-suite and for lineage display.
"""

from __future__ import annotations

from collections import abc
from importlib import import_module
from typing import Callable

from repro.errors import EventError
from repro.events.expr import EventExpr
from repro.events.shannon import probability_by_shannon
from repro.events.space import EventSpace

__all__ = ["probability", "conditional_probability", "ENGINES", "DEFAULT_ENGINE"]

_Engine = Callable[[EventExpr, "EventSpace | None"], float]

#: Engine name -> where its function lives.  The default engine is
#: imported with this module; the other three are oracles, loaded when
#: first asked for by name.
_ENGINE_HOMES: dict[str, tuple[str, str]] = {
    "shannon": ("repro.events.shannon", "probability_by_shannon"),
    "bdd": ("repro.events.bdd", "probability_by_bdd"),
    "worlds": ("repro.events.worlds", "probability_by_enumeration"),
    "dnf": ("repro.events.dnf", "probability_by_dnf"),
}


class _Engines(abc.Mapping):
    """``name -> engine`` over :data:`_ENGINE_HOMES`, importing on first use."""

    def __init__(self) -> None:
        self._loaded: dict[str, _Engine] = {"shannon": probability_by_shannon}

    def __getitem__(self, name: str) -> _Engine:
        compute = self._loaded.get(name)
        if compute is None:
            module, function = _ENGINE_HOMES[name]
            compute = self._loaded[name] = getattr(import_module(module), function)
        return compute

    def __iter__(self):
        return iter(_ENGINE_HOMES)

    def __len__(self) -> int:
        return len(_ENGINE_HOMES)


ENGINES: abc.Mapping[str, _Engine] = _Engines()

DEFAULT_ENGINE = "shannon"


def probability(expr: EventExpr, space: EventSpace | None = None, engine: str = DEFAULT_ENGINE) -> float:
    """Exact probability of an event expression.

    Parameters
    ----------
    expr:
        The event expression to evaluate.
    space:
        Event space carrying mutex-group declarations.  ``None`` treats
        every atom as independent.
    engine:
        One of ``"shannon"``, ``"bdd"``, ``"worlds"``, ``"dnf"``.

    Examples
    --------
    >>> from repro.events import EventSpace
    >>> space = EventSpace()
    >>> a = space.atom("a", 0.5)
    >>> b = space.atom("b", 0.5)
    >>> probability(a | b, space)
    0.75
    """
    try:
        compute = ENGINES[engine]
    except KeyError as exc:
        raise EventError(f"unknown probability engine {engine!r}; choose from {sorted(ENGINES)}") from exc
    return compute(expr, space)


def conditional_probability(
    expr: EventExpr,
    given: EventExpr,
    space: EventSpace | None = None,
    engine: str = DEFAULT_ENGINE,
) -> float:
    """``P(expr | given)``; raises if the condition is impossible."""
    denominator = probability(given, space, engine)
    if denominator <= 0.0:
        raise EventError("conditional probability on an impossible event")
    joint = probability(expr & given, space, engine)
    return min(1.0, joint / denominator)
