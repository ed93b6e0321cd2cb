"""The incremental-rescoring basis: context deltas without re-binding.

Binding cost is dominated by the documents x rules sweep that computes
every candidate's preference events (:func:`repro.core.problem.bind_documents`).
But those events read the *documents'* side of the knowledge base; a
context change — dynamic assertions about the situated user — normally
leaves them untouched.  A :class:`ViewBasis` therefore snapshots the
kernel compiled on a cold refresh together with the dynamic assertions
that held at compile time (the assertion objects themselves — frozen,
hashable, structurally compared — so the snapshot is one cheap set
build on the cold path).

:meth:`ViewBasis.reusable_for` diffs the dynamic assertions, expands
the touched individuals to everything that can *reach* them through
role edges (their membership events may embed the changed facts), and
reuses the matrix only when that affected set neither intersects the
candidates' support closure (everything reachable *from* a candidate —
the closed world its preference and target-membership events can read)
nor (possibly) belongs to the target concept.  Anything else falls
back to a cold re-bind; the guard is conservative, never unsound.

Both closures run over the *current* role assertions, at reuse time
rather than on the cold path.  That is sound under the basis key:
static role edges cannot change without bumping the static mutation
epoch (a different basis), and a dynamic edge that appeared or
vanished since compile time is itself part of the snapshot delta — its
endpoints are in the touched set, and every candidate is in its own
support closure, so any delta that could rewire reachability around
the candidates is caught before the closures are trusted.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Iterable

from repro.core.kernel import ScoringKernel
from repro.dl.abox import ABox, ConceptAssertion
from repro.dl.concepts import Concept
from repro.dl.instances import membership_event
from repro.dl.tbox import TBox

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.reason import CompiledKB

__all__ = [
    "ViewBasis",
    "build_view_basis",
    "dynamic_snapshot",
    "support_closure",
    "shared_basis_pool",
    "SharedBasisPool",
]


def dynamic_snapshot(abox: ABox) -> frozenset:
    """The dynamic assertions as a diffable set (the objects themselves).

    Served from the ABox's incrementally maintained dynamic set — O(of
    the dynamic context), not a scan over the whole knowledge base.

    For a :class:`~repro.dl.abox.LayeredABox` the snapshot is the whole
    overlay (static per-user facts included): the static epoch of the
    basis key only covers the shared base, so everything per-user must
    be part of the diffable delta — that is what lets one tenant's
    compiled basis be (guardedly) reused by a sibling tenant.
    """
    overlay_snapshot = getattr(abox, "overlay_snapshot", None)
    if overlay_snapshot is not None:
        return overlay_snapshot()
    return abox.dynamic_assertions()


def support_closure(
    abox: ABox,
    names: Iterable[str],
    adjacency: dict[str, list[str]] | None = None,
) -> frozenset[str]:
    """``names`` plus everything reachable from them via role assertions.

    Membership events recurse through role successors
    (``EXISTS R.C`` / ``FORALL R.C``), so a document's events can only
    read assertions about individuals in this closure.  Pass a
    prebuilt forward ``adjacency`` (the compiled reasoner caches one
    per epoch) to skip the role-table scan.
    """
    if adjacency is None:
        adjacency = {}
        for assertion in abox.role_assertions():
            adjacency.setdefault(assertion.source.name, []).append(assertion.target.name)
    return frozenset(_reachable(adjacency, names))


def _reverse_reachable(
    abox: ABox,
    targets: set[str],
    reverse: dict[str, list[str]] | None = None,
) -> set[str]:
    """``targets`` plus every individual that can reach them via roles."""
    if reverse is None:
        reverse = {}
        for assertion in abox.role_assertions():
            reverse.setdefault(assertion.target.name, []).append(assertion.source.name)
    return _reachable(reverse, targets)


def _reachable(adjacency: dict[str, list[str]], names: Iterable[str]) -> set[str]:
    seen = set(names)
    queue = deque(seen)
    while queue:
        for neighbour in adjacency.get(queue.popleft(), ()):
            if neighbour not in seen:
                seen.add(neighbour)
                queue.append(neighbour)
    return seen


def _touched_names(delta: Iterable) -> set[str]:
    """Individuals named by changed assertions."""
    touched: set[str] = set()
    for assertion in delta:
        if isinstance(assertion, ConceptAssertion):
            touched.add(assertion.individual.name)
        else:
            touched.add(assertion.source.name)
            touched.add(assertion.target.name)
    return touched


@dataclass
class ViewBasis:
    """A compiled kernel plus the evidence needed to reuse it safely."""

    kernel: ScoringKernel
    snapshot: frozenset
    #: ``(frozen base forward map, support closure over it)`` — see
    #: :meth:`_support`.  One tuple, replaced whole: the basis is shared
    #: across tenants' threads through the pool.
    _support_memo: tuple | None = field(default=None, repr=False, compare=False)

    def _support(self, abox: ABox, forward) -> frozenset[str]:
        """The candidates' support closure under ``forward``.

        An overlay session's forward map chains the frozen base tier's
        map with the overlay's own role edges.  When the overlay adds
        none — the serving fleet's case: context is concept
        assertions — the closure depends only on that base map and
        ``kernel.names``, so it is walked once per base map (memoised
        on its identity; the memo keeps the map alive, so the identity
        cannot be recycled) instead of on every cache-missing rank.
        """
        base = getattr(forward, "frozen_base", None)
        if base is None:
            return support_closure(abox, self.kernel.names, forward)
        memo = self._support_memo
        if memo is None or memo[0] is not base:
            memo = self._support_memo = (
                base,
                support_closure(abox, self.kernel.names, base),
            )
        return memo[1]

    def reusable_for(
        self,
        abox: ABox,
        tbox: TBox,
        target: Concept,
        kb: "CompiledKB | None" = None,
    ) -> bool:
        """May the compiled matrix serve the ABox's *current* state?

        True when the dynamic delta since compile time provably cannot
        have changed any candidate's preference events or the target
        concept's membership.  With a ``kb`` the membership probes run
        memoised on the compiled reasoner (correctly so: the probes ask
        about the ABox's *current* state, which is exactly the KB's
        current epoch).
        """
        delta = self.snapshot ^ dynamic_snapshot(abox)
        if not delta:
            return True
        forward = reverse = None
        if kb is not None:
            forward, reverse = kb.session().reachability_maps()
        affected = _reverse_reachable(abox, _touched_names(delta), reverse)
        if affected & self._support(abox, forward):
            return False
        # An affected individual outside the support set was not a view
        # member at compile time (members are in the support); it must
        # also not have *become* a possible target member since.
        if kb is not None:
            check = kb.membership_event
        else:
            check = lambda name, concept: membership_event(abox, tbox, name, concept)  # noqa: E731
        for name in affected:
            if not check(name, target).is_impossible:
                return False
        return True


def build_view_basis(abox: ABox, kernel: ScoringKernel) -> ViewBasis:
    """Snapshot a freshly compiled kernel as a reusable basis.

    Deliberately cheap — it runs on every cold refresh; the closures
    are deferred to :meth:`ViewBasis.reusable_for` on the (already
    winning) incremental path.
    """
    return ViewBasis(kernel=kernel, snapshot=dynamic_snapshot(abox))


class SharedBasisPool:
    """Cross-engine pool of compiled bases for overlay-backed tenants.

    Engines over overlays of the same base world produce byte-identical
    candidate matrices whenever their static epoch, rules and scorer
    configuration agree — the per-user delta is exactly the snapshot
    the reuse guard already diffs.  Pooling the bases process-wide
    means tenant #2's first request rescans nothing: it rescores on
    tenant #1's compiled matrix (after the guard proves the overlays
    interchangeable).

    Keys embed the base ``ABox`` object itself (identity-hashed), so a
    pooled entry pins its world — the bounded LRU keeps that from
    accumulating, and a live key can never collide with a recycled
    ``id()``.

    One LRU map under one lock: a serving process ranks one world, so
    its whole tenant fleet lands on a single pool key — splitting the
    lock by key would spread nothing.  ``max_entries`` is an exact
    bound (pooled entries pin their base worlds).
    """

    def __init__(self, max_entries: int = 32):
        if max_entries < 1:
            raise ValueError(f"pool needs at least one entry, got {max_entries!r}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, ViewBasis]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> ViewBasis | None:
        with self._lock:
            basis = self._entries.get(key)
            if basis is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return basis

    def put(self, key: Hashable, basis: ViewBasis) -> None:
        with self._lock:
            self._entries[key] = basis
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide pool every overlay-backed engine shares.
_SHARED_POOL = SharedBasisPool()


def shared_basis_pool() -> SharedBasisPool:
    """The process-wide :class:`SharedBasisPool`."""
    return _SHARED_POOL
