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

A verdict also *carries*.  Eq. 4 sees the context only through each
rule's ``P(g)``, and a rule's context event for the user reads only the
concept names its expanded context reads
(:meth:`~repro.reason.ReasonerSession.concept_reads`).  Each basis
therefore keeps a :class:`DependencyIndex` — name → the rules (a
bitmask) whose context reads it, plus a bit for the target — built once
on first use.  An engine that proved the basis reusable for one
snapshot, with its user among the individuals that proof cleared, asks
:meth:`ViewBasis.stale_rules` about the next one: when the delta is
only concept assertions about that user on names the (role-free)
target does not read, the reachability maps, every target event and the
cleared region are those of the proven snapshot, so the verdict holds
without a walk, and only the rules indexed under a changed name need a
re-bind.  Any other delta answers ``None``, and the engine walks
:meth:`ViewBasis.reusable_for`.

A binding can also be *shared*.  When no rule context walks a role or
names an individual (:attr:`DependencyIndex.blind`) and the base
asserts nothing about the user, each rule's context event for the user
is one function of the user's own concept assertions — whoever the
user is.  :meth:`ViewBasis.share_slice` returns those assertions as
``(concept, event)`` pairs: engines over one basis with equal slices
bind bit-identically, so a herd mate takes the first one's bound
kernel (through the service's scored-view memo) once its own reuse
verdict holds.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, Sequence

from repro.core.kernel import ScoringKernel
from repro.dl.abox import ABox, ConceptAssertion
from repro.dl.concepts import And, Concept, Not, OneOf, Or
from repro.dl.instances import membership_event
from repro.dl.tbox import TBox
from repro.dl.vocabulary import ConceptName, Individual
from repro.perf import LRU

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.reason import CompiledKB
    from repro.rules.rule import PreferenceRule

__all__ = [
    "DependencyIndex",
    "ViewBasis",
    "build_view_basis",
    "dynamic_snapshot",
    "support_closure",
    "shared_basis_pool",
    "POOL_LOCK",
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


@dataclass(frozen=True)
class DependencyIndex:
    """Which concept names the rule contexts and the target read.

    ``masks[name]`` has bit ``i`` set when rule ``i``'s context reads
    ``name`` for one individual, and :attr:`target_bit` set when the
    target does.  ``always`` holds the rules whose context walks a role:
    any non-empty delta re-binds them.  ``carries`` is false when the
    target walks a role — no verdict is ever carried then.  ``blind``
    is true when no rule context walks a role or names an individual
    (``{a}``): every context event is then one function of the
    individual's own concept assertions, whoever it is.
    """

    masks: Mapping[ConceptName, int]
    always: int
    target_bit: int
    carries: bool
    blind: bool = False


def _names_individual(concept: Concept) -> bool:
    """Does a role-free expanded concept hold a nominal (``{a}``)?"""
    if isinstance(concept, OneOf):
        return True
    if isinstance(concept, Not):
        return _names_individual(concept.child)
    if isinstance(concept, (And, Or)):
        return any(_names_individual(child) for child in concept.children)
    return False


def _dependency_index(
    kb: "CompiledKB", rules: Sequence[PreferenceRule], target: Concept
) -> DependencyIndex:
    """The :class:`DependencyIndex` of ``rules`` (in order) and ``target``."""
    session = kb.session()
    masks: dict[ConceptName, int] = {}
    always = 0
    nominal = False
    for position, rule in enumerate(rules):
        names = session.concept_reads(rule.context)
        if names is None:
            always |= 1 << position
            continue
        nominal = nominal or _names_individual(session.expand_concept(rule.context))
        for name in names:
            masks[name] = masks.get(name, 0) | 1 << position
    target_bit = 1 << len(rules)
    names = session.concept_reads(target)
    for name in names or ():
        masks[name] = masks.get(name, 0) | target_bit
    return DependencyIndex(
        MappingProxyType(masks), always, target_bit, names is not None,
        blind=not (always or nominal),
    )


@dataclass
class ViewBasis:
    """A compiled kernel plus the evidence needed to reuse it safely."""

    kernel: ScoringKernel
    snapshot: frozenset
    #: ``(frozen base forward map, support closure over it)`` — see
    #: :meth:`_support`.  One tuple, replaced whole: the basis is shared
    #: across tenants' threads through the pool.
    _support_memo: tuple | None = field(default=None, repr=False, compare=False)
    #: The :class:`DependencyIndex`, built on first use and never
    #: changed: rules and target are fixed by the basis key.
    _dependencies: DependencyIndex | None = field(default=None, repr=False, compare=False)

    def dependencies(self, kb: "CompiledKB", target: Concept) -> DependencyIndex:
        """This basis's :class:`DependencyIndex` (built once, then shared)."""
        index = self._dependencies
        if index is None:
            rules = [binding.rule for binding in self.kernel.bindings]
            index = self._dependencies = _dependency_index(kb, rules, target)
        return index

    def clears(self, snapshot: frozenset, user: Individual) -> bool:
        """Does a true :meth:`reusable_for` at ``snapshot`` vouch for ``user``?

        True when the delta from the compiled snapshot names the user:
        the verdict then walked everything that reaches the user (none
        of it in the candidates' support, none of it a possible target
        member) — the precondition :meth:`stale_rules` carries.
        """
        return user.name in _touched_names(self.snapshot ^ snapshot)

    def stale_rules(
        self,
        previous: frozenset,
        snapshot: frozenset,
        user: Individual,
        kb: "CompiledKB",
        target: Concept,
    ) -> int | None:
        """The rules whose context binding ``snapshot`` may have moved.

        ``previous`` must be a snapshot this basis was proven reusable
        for, with :meth:`clears` true for ``user``.  Returns the bitmask
        of rules (bit ``i`` = the basis's rule ``i``) to re-bind for
        ``user`` — ``0`` when the delta is empty — with the reuse verdict
        carried over; ``None`` when the delta is anything but concept
        assertions about ``user`` on names the target does not read (or
        the target walks a role): walk :meth:`reusable_for` instead.
        One dict probe per changed assertion.
        """
        delta = previous ^ snapshot
        if not delta:
            return 0
        index = self.dependencies(kb, target)
        if not index.carries:
            return None
        masks = index.masks
        name = user.name
        stale = index.always
        for assertion in delta:
            if type(assertion) is not ConceptAssertion or assertion.individual.name != name:
                return None
            stale |= masks.get(assertion.concept, 0)
        if stale & index.target_bit:
            return None
        return stale

    def share_slice(
        self,
        abox: ABox,
        snapshot: frozenset,
        user: Individual,
        kb: "CompiledKB",
        target: Concept,
    ) -> frozenset | None:
        """The tenant-blind key of ``user``'s context binding, or ``None``.

        ``abox`` must be an overlay and ``snapshot`` its current
        :func:`dynamic_snapshot`.  When every rule context reads
        concept names only (:attr:`DependencyIndex.blind`) and the base
        asserts nothing about ``user``, each rule's context event for
        ``user`` is one function of the overlay's concept assertions
        about ``user`` — the ``(concept name, event)`` pairs returned.  Two
        engines over this basis with equal pairs bind bit-identically,
        whoever their users are and whatever else their overlays hold.
        """
        if not self.dependencies(kb, target).blind or abox.base.has_individual(user):
            return None
        name = user.name
        return frozenset([
            (assertion.concept.name, assertion.event)
            for assertion in snapshot
            if type(assertion) is ConceptAssertion and assertion.individual.name == name
        ])

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


#: The process-wide pool of compiled bases for overlay-backed tenants:
#: engines over overlays of one base world compile byte-identical
#: matrices whenever their static epoch, rules and scorer configuration
#: agree, so tenant #2's first request rescores on tenant #1's matrix
#: (after the reuse guard proves the overlays interchangeable).  Keys
#: embed the base ``ABox`` itself, so an entry pins its world: the exact
#: bound keeps that from accumulating, and no live key can collide with
#: a recycled ``id()``.
_SHARED_POOL = LRU(32)
#: The pool's one lock: engines of different tenants reach it from the
#: event loop and the gateway thread at once.
POOL_LOCK = threading.Lock()


def shared_basis_pool() -> LRU:
    """The process-wide basis pool (read and write it under :data:`POOL_LOCK`)."""
    return _SHARED_POOL
