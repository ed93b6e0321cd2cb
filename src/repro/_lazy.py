"""Import-on-use package facades (PEP 562).

A package ``__init__`` that imports every submodule to re-export its
names makes ``import repro.engine`` mean "load the SQL front end, the
IR baseline and the multi-user ranker too".  The facades instead hand
:func:`lazy_exports` a table of *where each public name lives* and get
back the module-level ``__getattr__`` / ``__dir__`` pair that resolves
a name — and imports its home module — the first time someone asks for
it.  ``from package import name``, ``package.name``, ``dir(package)``
and ``package.submodule`` after a bare ``import package`` all behave as
they did when the imports were eager; only the loading is deferred.

The modules themselves keep ordinary module-level imports: laziness
lives at the package edges, never on a request path.  A module edge
into a subsystem most processes never touch is deferred one of two
ways.  Code that runs once per process or per report (a constructor, a
CLI handler, ``to_table``) uses a plain function-local ``import``.
:func:`lazy_module` is only for the three edges used *per request* —
the SQL front end behind ``DatabaseStorage.session``, the algebra
interpreter behind ``Database.evaluate``, the explainer behind
``RankingEngine.explain`` — where the rule "no ``import`` statement in
a per-request function" rules the plain form out.
"""

from __future__ import annotations

import sys
from functools import cache
from importlib import import_module
from types import ModuleType
from typing import Callable, Mapping, Sequence

__all__ = ["lazy_exports", "lazy_module"]


def lazy_module(name: str) -> Callable[[], ModuleType]:
    """An accessor for module ``name`` that imports it on its first call.

    Bound at module level (``_sql = lazy_module("repro.storage.sql")``)
    and called where the module is used (``_sql().SqlSession``): later
    calls are one memo lookup.  For per-request call sites only (see
    the module docstring); anywhere else, import inside the function.
    """

    @cache
    def load() -> ModuleType:
        return import_module(name)

    return load


def lazy_exports(
    package: str, homes: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package named ``package``.

    ``homes`` maps a module's dotted name to the public names the
    package re-exports from it.  A resolved name is stored on the
    package, so ``__getattr__`` runs once per name.  Any other public
    attribute is tried as a submodule, which is what ``package.sub``
    relied on when ``__init__`` imported everything.
    """
    home_of = {name: module for module, names in homes.items() for name in names}
    exported = sorted(home_of)

    def __getattr__(name: str) -> object:
        module = home_of.get(name)
        if module is not None:
            value = getattr(import_module(module), name)
            setattr(sys.modules[package], name, value)
            return value
        if not name.startswith("_"):
            qualified = f"{package}.{name}"
            try:
                return import_module(qualified)
            except ModuleNotFoundError as exc:
                if exc.name != qualified:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        module = sys.modules[package]
        return sorted(set(vars(module)) | set(module.__all__))

    return __getattr__, __dir__, exported
