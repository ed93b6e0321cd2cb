"""Probabilistic event expressions — the uncertainty substrate (S1).

This package implements the "event expression datatype" the paper adds
to PostgreSQL in its naive implementation (Section 5), following the
probabilistic relational algebra of Fuhr & Roelleke and the context
uncertainty model of van Bunningen et al.:

* :class:`~repro.events.atoms.BasicEvent` — atomic Bernoulli variables;
* :class:`~repro.events.space.EventSpace` — registry with
  mutual-exclusion groups ("a person is at a single place at a time");
* :mod:`~repro.events.expr` — Boolean event expressions with lineage;
* four exact probability engines (Shannon expansion, BDD weighted model
  counting, possible-world enumeration, DNF inclusion-exclusion);
* serialisation to TEXT for the sqlite backend, and lineage rendering.
"""

from repro._lazy import lazy_exports as _lazy_exports

# ``probability`` the function shares its name with the submodule that
# defines it; importing it eagerly binds the function here once and for
# all (a lazy table would lose to the submodule attribute the import
# system sets).  The facade module is light: it loads one engine.
from repro.events.probability import (
    DEFAULT_ENGINE,
    ENGINES,
    conditional_probability,
    probability,
)

#: Where every other public name lives; its module loads on first use
#: (the BDD, DNF, possible-world and sampling engines are oracles a
#: serving worker never calls).
__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.events.atoms": ("BasicEvent", "validate_probability"),
        "repro.events.bdd": ("Bdd", "probability_by_bdd"),
        "repro.events.dnf": ("DnfTerm", "Literal", "probability_by_dnf", "to_dnf"),
        "repro.events.expr": (
            "ALWAYS",
            "NEVER",
            "And",
            "Atom",
            "EventExpr",
            "FalseEvent",
            "Not",
            "Or",
            "TrueEvent",
            "atom",
            "conj",
            "disj",
            "neg",
        ),
        "repro.events.lineage": (
            "Derivation",
            "derivations",
            "explain_probability",
            "render_tree",
        ),
        "repro.events.montecarlo": ("MonteCarloEstimate", "probability_by_sampling"),
        "repro.events.serialize": ("dump_lines", "dumps", "load_lines", "loads"),
        "repro.events.shannon": ("ShannonEngine", "probability_by_shannon"),
        "repro.events.space": ("EventSpace", "MutexGroup", "chain_encode"),
        "repro.events.worlds": ("enumerate_worlds", "probability_by_enumeration"),
    },
)
__all__ = sorted(
    [*__all__, "DEFAULT_ENGINE", "ENGINES", "conditional_probability", "probability"]
)
