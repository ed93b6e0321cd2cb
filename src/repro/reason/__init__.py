"""The compiled reasoning layer (S11).

Hash-consed events (:mod:`repro.events.expr`), epoch-guarded membership
and probability memos, and concept columns evaluated over the ABox
tables (not per individual) behind one facade:
:class:`CompiledKB`.  The engine, the problem binder, instance
retrieval and multi-user group ranking all route through the shared
registry (:func:`compiled_kb`), so reasoning work over one world is
done once per knowledge epoch — not once per document, rule, member or
request.
"""

from repro.reason.kb import (
    CompiledKB,
    ReasonerInfo,
    ReasonerSession,
    base_tier,
    clear_registry,
    compiled_kb,
    query_session,
    session_counters,
)

__all__ = [
    "CompiledKB",
    "ReasonerInfo",
    "ReasonerSession",
    "base_tier",
    "clear_registry",
    "compiled_kb",
    "query_session",
    "session_counters",
]
