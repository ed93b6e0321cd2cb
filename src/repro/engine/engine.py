"""The :class:`RankingEngine` facade: one-call context-aware ranking.

The paper's pipeline — context capture → preference view → ranked query
results (Section 5) — previously required wiring ABox/TBox, EventSpace,
RuleRepository, Database and PreferenceView by hand.  The engine owns
that wiring behind four protocol-typed backends and a cached
request/response pipeline::

    from repro import RankRequest, RankingEngine, build_tvtouch, \
        set_breakfast_weekend_context

    world = build_tvtouch()
    set_breakfast_weekend_context(world)
    engine = RankingEngine.from_world(world)
    response = engine.rank(RankRequest(query=(
        "SELECT name, preferencescore FROM Programs "
        "WHERE preferencescore > 0.5 ORDER BY preferencescore DESC"
    )))

Repeated requests under an unchanged context are served from a
per-context-signature memo of the preference view; any context or rule
change invalidates it by construction (the signature changes).

**Thread safety.**  Every public entry point that reads or writes the
engine's knowledge base (``rank``, ``rank_in_context``,
``prepare_rank``, ``preference_scores``, ``explain``,
``install_context``, ``install_and_fingerprint``, ``context_covered``)
serialises on one per-engine reentrant lock, so a context install can
never interleave with a rank's snapshot — the failure the serving
hammer test reproduces on an unlocked engine is a half-cleared dynamic
context being scored and memoized under a stale signature.  Every rank
is :meth:`RankingEngine.prepare_rank` then
:meth:`PreparedRank.complete`: the install, the signature, the
fingerprint and the context-bound kernel are captured under the lock;
the kernel pass and the response assembly run outside it, reading only
immutable compiled data.  Different engines never share the lock:
sibling tenants rank fully in parallel, coordinating only through the
internally synchronised shared structures (the basis pool, the
compiled-KB base tier).  Under a serving deadline, the rank entry
points and a blocking ``install_and_fingerprint`` wait for the lock no
longer than the deadline's remaining budget.

A warm-only, non-blocking :meth:`RankingEngine.prepare_rank`
(``blocking=False``) is what a thread that must never wait — a serving
event loop — calls: it tries the lock once and hands back a cold
snapshot instead of binding or compiling anything.  Scored views (and
their ranked cuts) are shared across engines by
:class:`ScoredViewMemo`, keyed on :attr:`PreparedRank.memo_key` (the
compiled candidates and the context binding's coefficients); so are
context-bound kernels, keyed on a tenant-blind slice of the context
(:meth:`ViewBasis.share_slice`).
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, Optional, Sequence

from repro._lazy import lazy_module
from repro.core.kernel import ScoredView, ScoringKernel, score_values
from repro.core.preference_view import PreferenceView
from repro.core.problem import _active_deadline, bind_rules
from repro.core.scorer import ContextAwareScorer
from repro.core.scoring import DocumentScore
from repro.dl.abox import ABox
from repro.dl.concepts import Concept
from repro.dl.tbox import TBox
from repro.dl.vocabulary import Individual
from repro.errors import EngineError, ScoringError
from repro.events.space import EventSpace
from repro.engine.backends import ContextValue
from repro.engine.basis import (
    POOL_LOCK,
    ViewBasis,
    build_view_basis,
    dynamic_snapshot,
    shared_basis_pool,
)
from repro.engine.cache import CacheInfo, ViewCache
from repro.engine.requests import RankedItems, RankRequest, RankResponse
from repro.perf import LRU
from repro.reason import CompiledKB, ReasonerInfo, compiled_kb

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.engine.builder import EngineBuilder
    from repro.engine.protocols import (
        ContextBackend,
        PreferenceBackend,
        RelevanceBackend,
        StorageBackend,
    )
    from repro.multiuser.group import GroupMember

#: The explanation renderer, loaded by the first ``explain`` request.
_explain = lazy_module("repro.core.explain")

__all__ = [
    "PreparedRank",
    "RankingEngine",
    "ScoredViewMemo",
    "context_bind_counters",
]

#: What :meth:`RankingEngine._resolve` finds for a signature:
#: ``(signature, cached view, kernel)`` — at most one of the last two
#: set, neither when the view must be computed cold.
_Resolved = tuple[Hashable, Optional[Mapping[str, DocumentScore]], Optional[ScoringKernel]]


@dataclass
class PreparedRank:
    """A rank request snapshotted under the engine lock, scorable outside it.

    :meth:`RankingEngine.prepare_rank` either answers the request on the
    spot (``response`` set — view-cache hit, cold path, or a shape the
    kernel alone cannot serve), finds it :attr:`cold` (a warm-only
    prepare only), or captures everything a kernel pass needs: the
    context-bound ``kernel`` (sharing the compiled candidate matrix
    with every other request over the same basis), the view
    ``signature`` and the ``fingerprint`` response caches key on.
    Scoring the kernel and calling :meth:`complete` never touches the
    engine lock, so neither a concurrent install on this engine nor
    herd mates from other tenants wait on the pass.
    """

    engine: "RankingEngine"
    request: RankRequest
    kernel: ScoringKernel | None = None
    signature: Hashable = None
    fingerprint: tuple | None = field(default=None)
    prune_documents: bool = True
    response: RankResponse | None = None
    #: The ranked cuts of the scored view, shared by every request the
    #: :class:`ScoredViewMemo` served that view to: ``{(relevance,
    #: top_k): items}`` (set by :meth:`ScoredViewMemo.execute`).
    cuts: dict | None = field(default=None, repr=False)

    @property
    def cold(self) -> bool:
        """Neither answered nor scorable: a warm-only prepare met work
        (a bind, a compile, ad-hoc scoring) it leaves to a blocking one."""
        return self.kernel is None and self.response is None

    @property
    def memo_key(self) -> Hashable:
        """What equal scored views are matched on, tenant-blind: the
        compiled candidates — held, so a later matrix at a recycled
        address can never match — the pruning flag and the context
        binding's coefficients (:attr:`ScoringKernel.coalesce_key`)."""
        kernel = self.kernel
        return (kernel.candidates, self.prune_documents, kernel.coalesce_key)

    def complete(self, view: ScoredView | None = None) -> RankResponse:
        """The response: immediate if prepare already answered, else
        assembled lock-free from the scored view for this kernel — the
        memo's ``view``, or, when none is given, a pass of its own."""
        if self.response is not None:
            return self.response
        if self.kernel is None:
            raise EngineError("a cold snapshot has nothing to score: prepare it blocking")
        if view is None:
            view = score_documents_batch(self.kernel, self.prune_documents)
        return self.engine._complete_prepared(self, view)


def score_documents_batch(kernel: ScoringKernel, prune_documents: bool = True) -> ScoredView:
    """The one kernel pass: ``kernel``'s scored view.

    :meth:`ScoredViewMemo.execute` and :meth:`PreparedRank.complete`
    score through this.  It does what
    :meth:`ScoringKernel.score_documents` does without calling it, so a
    pass is one span to a tracer that wraps both; the name is the
    serving ledger's trace target until ROADMAP item 3(2) renames it.
    """
    return ScoredView(kernel, kernel.score_vector(), prune_documents)


#: Entries a :class:`ScoredViewMemo` keeps: scored views and bound
#: kernels alike.  Mates of one herd are answered one after another, so
#: a handful covers them; a view entry pins a float per document and
#: its candidates, a bound entry one kernel over them.
MEMO_ENTRIES = 8

#: Tags the keys of bound-kernel entries in :class:`ScoredViewMemo`.
_BOUND = object()


class ScoredViewMemo:
    """One bind and one kernel pass per distinct context, shared across tenants.

    Two kinds of entry share one bounded LRU (:data:`MEMO_ENTRIES`):

    * **bound kernels** — :meth:`bound` / :meth:`remember`: the
      context-bound kernel of a reusable basis, keyed on the basis, the
      rule objects and the tenant-blind context slice
      :meth:`ViewBasis.share_slice` vouches for.  A herd mate whose own
      reuse verdict holds takes its mate's kernel — and its bindings —
      instead of binding and rebuilding one;
    * **scored views** — :meth:`execute`: the view of an earlier request
      with an equal :attr:`PreparedRank.memo_key`, or a fresh
      :func:`score_documents_batch` pass, together with its ranked cuts
      (:attr:`PreparedRank.cuts`), so a mate skips the order step too.

    A thundering herd of one context over many tenants thus costs one
    bind, one pass, one cut and one immutable
    :class:`~repro.core.kernel.ScoredView`, which every mate's view
    cache then holds by reference — with no window and nobody waiting
    for a mate: two mates that miss at once both do the work.
    Thread-safe; the lock guards the table and the counters, never a
    pass.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries = LRU(MEMO_ENTRIES)
        self.requests = 0
        self.hits = 0
        self.passes = 0
        self.binds_shared = 0

    def execute(self, prepared: PreparedRank) -> ScoredView:
        """The scored view for ``prepared`` (which must carry a kernel);
        sets :attr:`PreparedRank.cuts` to that view's cuts."""
        key = prepared.memo_key
        with self._lock:
            self.requests += 1
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                view, prepared.cuts = entry
                return view
        view = score_documents_batch(prepared.kernel, prepared.prune_documents)
        prepared.cuts = {}
        with self._lock:
            self.passes += 1
            self._entries.put(key, (view, prepared.cuts))
        return view

    @staticmethod
    def bound_key(basis: ViewBasis, rules: tuple, context: Hashable) -> Hashable:
        """The key of the kernel bound on ``basis`` for ``rules`` in
        ``context`` (a :meth:`ViewBasis.share_slice`)."""
        # Identities: an entry pins its basis and rules, so no id in a
        # live key can be recycled.
        return (_BOUND, id(basis), tuple(map(id, rules)), context)

    def bound(self, key: Hashable) -> ScoringKernel | None:
        """The kernel a mate bound under ``key`` (:meth:`bound_key`)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self.binds_shared += 1
            return entry[2]

    def remember(
        self, key: Hashable, basis: ViewBasis, rules: tuple, kernel: ScoringKernel
    ) -> None:
        """Offer ``kernel``, bound on ``basis`` for ``rules``, to mates under ``key``."""
        with self._lock:
            self._entries.put(key, (basis, rules, kernel))

    def info(self) -> dict:
        """Counters: requests, memo hits, kernel passes, binds served to
        mates and entries held."""
        with self._lock:
            return {
                "requests": self.requests,
                "hits": self.hits,
                "passes": self.passes,
                "binds_shared": self.binds_shared,
                "entries": len(self._entries),
                "capacity": MEMO_ENTRIES,
            }


#: What :func:`context_bind_counters` reports, in tally order.
_BIND_COUNTER_NAMES = ("rules_rebound", "rules_carried", "verdicts_carried", "verdicts_walked")


class _BindCounts(threading.local):
    """Per-thread tallies of the context half of warm misses.

    Each thread adds to its own list, so no update races another and
    none takes a lock; :func:`context_bind_counters` sums every
    thread's list.
    """

    lists: list[list[int]] = []

    def __init__(self):
        self.counts = [0] * len(_BIND_COUNTER_NAMES)
        self.lists.append(self.counts)

    def add(self, rebound: int, carried: int, verdicts_carried: int, walked: int) -> None:
        counts = self.counts
        counts[0] += rebound
        counts[1] += carried
        counts[2] += verdicts_carried
        counts[3] += walked


_BIND_COUNTS = _BindCounts()


def context_bind_counters() -> dict[str, int]:
    """Process-wide counts of how warm misses bound their context.

    ``rules_rebound`` / ``rules_carried``: rules bound afresh / carried
    from the engine's last binding; ``verdicts_carried`` /
    ``verdicts_walked``: basis reuse verdicts carried over a context
    delta / decided by the :meth:`ViewBasis.reusable_for` walk.
    """
    totals = [0] * len(_BIND_COUNTER_NAMES)
    for counts in list(_BindCounts.lists):
        for index, count in enumerate(counts):
            totals[index] += count
    return dict(zip(_BIND_COUNTER_NAMES, totals))


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


def _same_rules(carried: tuple, rules: tuple) -> bool:
    """The same rule objects in the same order?"""
    return len(carried) == len(rules) and all(map(operator.is_, carried, rules))


class RankingEngine:
    """The canonical public entry point for context-aware ranking.

    Engines are assembled by :class:`~repro.engine.EngineBuilder` (or
    the :meth:`from_world` shortcut) — construct one per knowledge base
    and reuse it across requests; the preference-view cache only pays
    off on a live engine.

    Parameters (normally supplied by the builder)
    ---------------------------------------------
    abox / tbox / user / space:
        The knowledge base and the situated user.
    context / preferences / storage / relevance:
        The four protocol backends.  ``storage`` may be ``None`` for
        engines that never run SQL.
    target:
        The concept whose members the preference view scores.
    method / rule_threshold / prune_documents:
        Scoring configuration (see
        :class:`~repro.core.scorer.ContextAwareScorer`).
    cache_size:
        LRU bound on remembered context signatures (and on compiled
        rescoring bases).
    incremental:
        Serve context-only changes by rescoring on the cached compiled
        candidate matrix (:mod:`repro.engine.basis`) instead of
        re-binding every document.  Safe to leave on: reuse is guarded
        by a conservative ABox delta analysis.
    kb:
        The compiled reasoner (:class:`repro.reason.CompiledKB`) cold
        binds run through.  Defaults to the shared registry instance
        for the knowledge base, so several engines over one world — the
        multi-user scenario — reason each membership event once per
        knowledge epoch.
    """

    def __init__(
        self,
        *,
        abox: ABox,
        tbox: TBox,
        user: Individual,
        space: EventSpace | None,
        context: ContextBackend,
        preferences: PreferenceBackend,
        relevance: RelevanceBackend,
        target: Concept,
        storage: StorageBackend | None = None,
        method: str = "factorised",
        rule_threshold: float = 0.0,
        prune_documents: bool = True,
        cache_size: int = 16,
        incremental: bool = True,
        kb: CompiledKB | None = None,
    ):
        self.abox = abox
        self.tbox = tbox
        self.user = user
        self.space = space
        self.context = context
        self.preferences = preferences
        self.relevance = relevance
        self.storage = storage
        self.target = target
        self._target_text = (target, str(target))
        self.method = method
        self.rule_threshold = rule_threshold
        self.prune_documents = prune_documents
        self.incremental = incremental
        self.kb = kb if kb is not None else compiled_kb(abox, tbox, space)
        #: Overlay-backed engines exchange compiled bases process-wide.
        self._shares_bases = isinstance(getattr(abox, "base", None), ABox)
        #: One reentrant lock serialises every context write and rank on
        #: *this* engine (see the module docstring); reentrant so that
        #: ``rank_in_context`` can compose install + rank atomically.
        self._lock = threading.RLock()
        self._cache = ViewCache(max_entries=cache_size)
        #: ``(basis, snapshot, rules, bindings)`` of the last context
        #: binding on a basis proven reusable — see :meth:`_bind_on`.
        #: This engine's alone (it binds this engine's user); read and
        #: written under the lock.
        self._carried: tuple | None = None
        self._scorer = self._build_scorer(preferences.repository())
        self._view = PreferenceView(self._scorer, target)

    # -- construction shortcuts ------------------------------------------
    @staticmethod
    def builder() -> "EngineBuilder":
        """A fresh :class:`~repro.engine.EngineBuilder`."""
        from repro.engine.builder import EngineBuilder

        return EngineBuilder()

    @classmethod
    def from_world(cls, world: object, **options: object) -> "RankingEngine":
        """An engine over a ready-made world (TVTouch, Section 5, ...).

        ``world`` is duck-typed: it must carry ``abox``, ``tbox``,
        ``user`` and ``target``, and may carry ``space``,
        ``repository``, ``database`` and ``data_table`` /
        ``id_column``.  Builder options (``method``, ``relevance``,
        ``rules`` for worlds without a repository, ...) pass through as
        keyword arguments.
        """
        return cls.builder().world(world).options(**options).build()

    # -- scoring internals ------------------------------------------------
    def _build_scorer(self, repository) -> ContextAwareScorer:
        return ContextAwareScorer(
            abox=self.abox,
            tbox=self.tbox,
            user=self.user,
            repository=repository,
            space=self.space,
            method=self.method,
            rule_threshold=self.rule_threshold,
            prune_documents=self.prune_documents,
            kb=self.kb,
        )

    def _target_key(self) -> str:
        """``str(target)``, rendered once per target concept (every
        signature and basis key carries it)."""
        target, text = self._target_text
        if target is not self.target:
            text = str(self.target)
            self._target_text = (self.target, text)
        return text

    def _signature(self) -> Hashable:
        return (
            self.context.signature(),
            self.tbox.revision,
            self.space.revision if self.space is not None else -1,
            self.preferences.fingerprint(),
            self.method,
            self.rule_threshold,
            self.prune_documents,
            self._target_key(),
        )

    def _static_epoch(self) -> Hashable:
        """The static-knowledge component of the basis key.

        For an overlay world this is the *base* identity and epoch —
        shared by every tenant over that base, so their bases land on
        one pool key; the per-user slice is covered by the snapshot
        diff in :meth:`ViewBasis.reusable_for`.  Because the pool spans
        engines, the key must also carry the TBox and space *identity*
        (two fresh TBoxes both sit at revision 0 — revisions alone
        would alias engines over different ontologies).  The key holds
        the objects themselves: identity-hashed and kept alive by the
        pool, so recycled ``id()`` values can never alias.
        """
        base = getattr(self.abox, "base", None)
        if isinstance(base, ABox):
            return (base, base.mutation_count, self.tbox, self.space)
        return self.abox.static_mutation_count

    def _basis_key(self) -> Hashable:
        """Everything the compiled candidate matrix depends on *except*
        the dynamic context — the key of the incremental-rescoring basis."""
        return (
            self._static_epoch(),
            self.tbox.revision,
            self.space.revision if self.space is not None else -1,
            self.preferences.fingerprint(),
            self.method,
            self.rule_threshold,
            self.prune_documents,
            self._target_key(),
        )

    def _sync_scorer(self):
        """Rebuild the scorer when the preference backend swapped repositories."""
        repository = self.preferences.repository()
        if repository is not self._scorer.repository:
            self._scorer = self._build_scorer(repository)
            self._view.scorer = self._scorer
        return repository

    def _resolve(self, memo: ScoredViewMemo | None = None) -> _Resolved:
        """Where the current signature's view comes from (under the lock).

        One of three: the cached view (a counted hit); a kernel bound
        to the current context on a reusable compiled basis — only the
        rule-context vector is recomputed, the documents x rules matrix
        is reused as compiled, and a herd mate's kernel from ``memo``
        is taken as it is (:meth:`_bind_on`); or neither — cold: no
        basis exists, or the dynamic delta might have touched document
        events or target membership.
        """
        repository = self._sync_scorer()
        key = self._signature()
        cached = self._cache.get(key)
        if cached is not None or not self.incremental:
            return key, cached, None
        basis_key = self._basis_key()
        basis = self._cache.basis_get(basis_key)
        if basis is None and self._shares_bases:
            # Another tenant over the same base may have compiled the
            # matrix already; the reuse guard below decides safety.
            with POOL_LOCK:
                basis = shared_basis_pool().get(basis_key)
        if basis is None:
            self._carried = None
            return key, None, None
        try:
            return key, None, self._bind_on(basis, repository.rules, memo)
        except ScoringError:  # pragma: no cover - fingerprint should prevent this
            return key, None, None

    def _bind_on(
        self, basis: ViewBasis, rules: tuple, memo: ScoredViewMemo | None = None
    ) -> ScoringKernel | None:
        """The kernel of ``basis`` bound to the current context, or
        ``None`` when ``basis`` cannot serve it (under the lock).

        The reuse verdict comes first, always this engine's own: carried
        from the last binding on the same basis and rules when the
        snapshot delta allows it (:meth:`ViewBasis.stale_rules`), else
        walked (:meth:`ViewBasis.reusable_for`).  Then, when the
        context is tenant-blind (:meth:`ViewBasis.share_slice`), a herd
        mate's kernel for the same slice is taken from ``memo`` as it
        is.  Otherwise the stale rules — every rule after a walk — go
        through :func:`bind_rules` and are spliced into the carried
        tuple, and the kernel is rebuilt (and offered to mates).  The
        carry is re-seeded whenever the verdict vouches for the user.
        """
        snapshot = dynamic_snapshot(self.abox)
        carried = self._carried
        stale = None
        if carried is not None and carried[0] is basis and _same_rules(carried[2], rules):
            stale = basis.stale_rules(carried[1], snapshot, self.user, self.kb, self.target)
        walked = stale is None
        if walked:
            if not basis.reusable_for(self.abox, self.tbox, self.target, kb=self.kb):
                self._carried = None
                _BIND_COUNTS.add(0, 0, 0, 1)
                return None
            keep = basis.clears(snapshot, self.user)
        else:
            keep = True
        share = None
        if memo is not None and self._shares_bases:
            context = basis.share_slice(self.abox, snapshot, self.user, self.kb, self.target)
            if context is not None:
                share = memo.bound_key(basis, rules, context)
                kernel = memo.bound(share)
                if kernel is not None:
                    self._carried = (basis, snapshot, rules, kernel.bindings) if keep else None
                    _BIND_COUNTS.add(0, 0, int(not walked), int(walked))
                    return kernel
        if walked:
            positions = range(len(rules))
            bindings = bind_rules(self.abox, self.tbox, self.user, rules, self.space, kb=self.kb)
        else:
            positions = _bits(stale)
            bindings = carried[3]
            if positions:
                fresh = bind_rules(
                    self.abox, self.tbox, self.user,
                    [rules[index] for index in positions], self.space, kb=self.kb,
                )
                spliced = list(bindings)
                for index, binding in zip(positions, fresh):
                    spliced[index] = binding
                bindings = tuple(spliced)
        kernel = basis.kernel.with_context(bindings)
        if share is not None:
            memo.remember(share, basis, rules, kernel)
        self._carried = (basis, snapshot, rules, bindings) if keep else None
        _BIND_COUNTS.add(len(positions), len(rules) - len(positions), int(not walked), int(walked))
        return kernel

    def _refresh_view(
        self, resolved: _Resolved | None = None
    ) -> tuple[Mapping[str, DocumentScore], bool]:
        """The scored view for the current signature, loaded into the
        preference view: cached, scored now on the resolved kernel, or
        computed cold (which compiles and publishes the basis)."""
        key, scores, kernel = self._resolve() if resolved is None else resolved
        if scores is not None:
            self._view.load_scores(scores)
            return scores, True
        if kernel is not None:
            scores = kernel.score_documents(prune_documents=self.prune_documents)
            self._cache.note_context_refresh()
            self._view.load_scores(scores)
        else:
            self._view.refresh()
            scores = self._view.scored_view()
            compiled = self._scorer.last_kernel
            if self.incremental and compiled is not None:
                basis_key = self._basis_key()
                basis = build_view_basis(self.abox, compiled)
                self._cache.basis_put(basis_key, basis)
                if self._shares_bases:
                    with POOL_LOCK:
                        shared_basis_pool().put(basis_key, basis)
        self._cache.put(key, scores)
        return scores, False

    def _scores_for(
        self, documents: Iterable[str], view_scores: Mapping[str, DocumentScore]
    ) -> dict[str, DocumentScore]:
        """View scores for ``documents``; non-members are scored ad hoc."""
        missing = [doc for doc in documents if doc not in view_scores]
        scores = {doc: view_scores[doc] for doc in documents if doc in view_scores}
        if missing:
            for score in self._scorer.score(missing):
                scores[score.document] = score
        return scores

    # -- the request/response pipeline ------------------------------------
    def rank(self, request: RankRequest | str | None = None) -> RankResponse:
        """Answer one ranking request.

        Accepts a :class:`RankRequest`, a bare SQL string (shorthand
        for ``RankRequest(query=...)``), or nothing (rank every member
        of the target concept by preference).

        SQL requests gate the ranked items by the query answer when the
        projection includes the storage backend's id column; without it
        the response carries the raw ``result`` only (empty ``items``),
        because the query's filter cannot be mapped back onto documents.
        """
        return self.prepare_rank(None, request).complete()

    def _rank_locked(
        self, request: RankRequest, resolved: _Resolved | None
    ) -> RankResponse:
        """Answer under the lock: ``resolved`` is the view's source, or
        ``None`` when the relevance backend scores on its own."""
        if resolved is not None:
            view_scores, from_cache = self._refresh_view(resolved)
        else:
            view_scores, from_cache = None, False

        result = None
        query_scores = request.query_score_map
        id_less_query = False
        if request.query is not None:
            if self.storage is None:
                raise EngineError(
                    "this engine has no storage backend; build one with "
                    ".storage(database, data_table) to run SQL requests"
                )
            result = self.storage.execute(request.query, self._view)
            ids = self.storage.document_ids(result)
            if ids is not None:
                query_scores = {document: 1.0 for document in ids}
            else:
                # The projection carries no document ids (e.g. the
                # paper's `SELECT name, preferencescore ...`), so the
                # query's answer cannot be mapped back onto ranked
                # items.  The response ships the raw result and an
                # empty item list rather than a ranking the WHERE
                # clause never filtered — select the id column to get
                # gated items.
                id_less_query = True

        return self._respond(
            request,
            view_scores,
            query_scores=query_scores,
            gated_out=id_less_query,
            from_cache=from_cache,
            result=result,
            # Captured inside the lock, so the epoch/signature pair can
            # never describe a state other than the one just scored —
            # response caches (repro.cache) key and order on it.
            fingerprint=(
                (self.abox.mutation_count, self._signature())
                if resolved is not None
                else None
            ),
        )

    def _respond(
        self,
        request: RankRequest,
        view: Mapping[str, DocumentScore] | None,
        *,
        query_scores: Mapping[str, float] | None,
        from_cache: bool,
        fingerprint: tuple | None,
        gated_out: bool = False,
        result=None,
        cuts: dict | None = None,
    ) -> RankResponse:
        """The one tail of every rank: scored view in, response out.

        Shared by the answers :meth:`prepare_rank` gives on the spot
        (under the engine lock) and the kernel-path completion
        (lock-free — it only reads the immutable view, and
        :meth:`prepare_rank` hands out no kernel for a request naming a
        document outside it, so the ad-hoc scorer is never reached).

        ``view`` is ``None`` when the relevance backend scores on its
        own; ``gated_out`` marks a SQL answer that cannot be mapped
        back onto documents (no items).  The whole-target shape — no
        explicit documents, no query part — hands the view's columns
        to the relevance backend as they are: the ranking key is a
        total order, so neither a name sort nor a per-document score
        map is built first.  That shape's ranking is a function of the
        view, the relevance backend and ``top_k`` alone, so with
        ``cuts`` (a view's shared cuts) it is ranked once per hashable
        backend and ``top_k`` and then read back.
        """
        documents: Sequence[str]
        document_scores: Mapping[str, DocumentScore]
        preferences: Mapping[str, float]
        cut = None
        if (
            isinstance(view, ScoredView)
            and not gated_out
            and request.documents is None
            and query_scores is None
        ):
            documents, document_scores, preferences = view.names, view, view.column()
            if cuts is not None and isinstance(self.relevance, Hashable):
                cut = (self.relevance, request.top_k)
        else:
            if gated_out:
                documents = ()
            elif request.documents is not None:
                documents = tuple(dict.fromkeys(request.documents))
            elif query_scores is not None:
                documents = sorted(set(view) | set(query_scores))
            else:
                documents = tuple(view)  # an oracle method's plain dict
            document_scores = {} if view is None else self._scores_for(documents, view)
            preferences = score_values(document_scores)

        items = cuts.get(cut) if cut is not None else None
        if items is None:
            items = RankedItems.of(
                self._combine_items(preferences, query_scores, documents, request.top_k)
            )
            if cut is not None:
                cuts[cut] = items
        explanation = None
        if request.explain:
            explanation = self._explain_items(items, document_scores)
        return RankResponse(
            request=request,
            items=items,
            from_cache=from_cache,
            explanation=explanation,
            result=result,
            fingerprint=fingerprint,
        )

    def _acquire(self, blocking: bool = True) -> bool:
        """Take the engine lock; a serving deadline bounds the wait.

        Under an active deadline the wait lasts at most its remaining
        budget, then raises its ``DeadlineExceeded`` — the one wait on
        the rank path the kernel's own checks never see.
        ``blocking=False`` never waits.  The caller releases.
        """
        if not blocking:
            return self._lock.acquire(blocking=False)
        deadline = _active_deadline()
        if deadline is None:
            return self._lock.acquire()
        while not self._lock.acquire(timeout=max(0.0, deadline.remaining())):
            deadline.check()
        return True

    def prepare_rank(
        self,
        specs: Iterable[str] | ContextValue | None = None,
        request: RankRequest | str | None = None,
        *,
        tick: str = "ctx",
        blocking: bool = True,
        memo: ScoredViewMemo | None = None,
    ) -> PreparedRank | None:
        """Snapshot a request under the lock; score it outside.

        The one route from a request to an answer (:meth:`rank` and
        :meth:`rank_in_context` are this plus
        :meth:`PreparedRank.complete`).  Installs ``specs`` (when given)
        and resolves the view's source atomically, then releases the
        lock.  A signature miss on a reusable basis comes back as a
        context-bound kernel: the matrix pass and the response assembly
        happen in :func:`score_documents_batch` /
        :meth:`PreparedRank.complete`, serialising nothing on this
        engine.  Everything else is answered on the spot (inside the
        lock, ``response`` set): view-cache hits, cold starts with no
        reusable basis, SQL requests, relevance backends that bypass
        the preference view, and requests naming documents outside the
        compiled candidate set (those are scored ad hoc through the
        engine's scorer — lock-bound work).

        ``blocking=False`` is warm-only and never waits: ``None``
        (nothing installed) when another thread holds the lock, and a
        :attr:`PreparedRank.cold` snapshot — the delta installed,
        nothing bound, compiled or scored — when the answer is not a
        kernel pass or a view-cache hit over documents it covers.

        ``memo`` is the :class:`ScoredViewMemo` the kernel will be
        scored through: a miss then takes a herd mate's bound kernel
        from it when its context is tenant-blind, and offers its own.
        """
        if request is None:
            request = RankRequest()
        elif isinstance(request, str):
            request = RankRequest(query=request)
        elif not isinstance(request, RankRequest):
            raise EngineError(f"expected RankRequest or SQL string, got {request!r}")
        if not self._acquire(blocking):
            return None
        try:
            if specs is not None:
                self._install(specs, tick)
            self.context.refresh()
            # A relevance backend that scores on its own (e.g. group
            # aggregation) opts out of the engine's preference view for
            # plain document-list requests; SQL and target-member
            # requests still need the view (for `preferencescore` / the
            # candidates).
            uses_view = getattr(self.relevance, "uses_preference_view", True)
            resolved = None
            warm = False  # a view-cache hit covering the request: no cold work
            if uses_view or request.query is not None or request.documents is None:
                resolved = self._resolve(memo)
                key, cached, kernel = resolved
                scorable = uses_view and request.query is None
                if kernel is not None and scorable and self._covers(kernel.names, request):
                    return PreparedRank(
                        engine=self,
                        request=request,
                        kernel=kernel,
                        signature=key,
                        fingerprint=(self.abox.mutation_count, key),
                        prune_documents=self.prune_documents,
                    )
                warm = cached is not None and scorable and self._covers(cached, request)
            if not (blocking or warm):
                return PreparedRank(engine=self, request=request)
            return PreparedRank(
                engine=self, request=request, response=self._rank_locked(request, resolved)
            )
        finally:
            self._lock.release()

    @staticmethod
    def _covers(documents: Iterable[str], request: RankRequest) -> bool:
        """Do ``documents`` (candidate names, a view's keys) include every
        document the request names?"""
        named = []
        if request.documents is not None:
            named.extend(request.documents)
        if request.query_score_map is not None:
            named.extend(request.query_score_map)
        if not named:
            return True
        names = set(documents)
        return all(document in names for document in named)

    def _combine_items(
        self,
        preference_scores: Mapping[str, float],
        query_scores: Mapping[str, float] | None,
        documents: Sequence[str],
        top_k: int | None,
    ) -> Sequence:
        """The relevance step: the backend's ranking, cut at ``top_k``.

        A top-k request takes the backend's ``combine_top_k`` when it
        offers one (the built-in strategies truncate inside their one
        order step); otherwise the full ranking is sliced.
        """
        if top_k is not None:
            fast = getattr(self.relevance, "combine_top_k", None)
            if fast is not None:
                return fast(preference_scores, query_scores, documents, top_k)
        items = self.relevance.combine(preference_scores, query_scores, documents)
        if top_k is not None:
            items = items[:top_k]
        return items

    def _complete_prepared(self, prepared: PreparedRank, view: ScoredView) -> RankResponse:
        """Assemble a prepared request's response from its scored view.

        Runs without the engine lock: the view cache is internally
        locked, the kernel and the view are immutable, and the
        relevance backends on this path are pure functions of their
        inputs.  The view is cached by reference — coalesced mates
        share one object, and its ranked cuts (:attr:`PreparedRank.cuts`).
        """
        self._cache.note_context_refresh()
        self._cache.put(prepared.signature, view)
        return self._respond(
            prepared.request,
            view,
            query_scores=prepared.request.query_score_map,
            from_cache=False,
            fingerprint=prepared.fingerprint,
            cuts=prepared.cuts,
        )

    def rank_in_context(
        self,
        specs: Iterable[str] | None = None,
        request: RankRequest | str | None = None,
        *,
        tick: str = "ctx",
    ) -> RankResponse:
        """Atomically install a context delta, then rank.

        The serving primitive: ``specs`` (``CONCEPT[:PROB]`` strings,
        replacing the current dynamic context; ``None`` keeps it)
        and the snapshot of what to score run under one hold of the
        engine lock (:meth:`prepare_rank`), so no concurrent request can
        observe — or score under — a half-installed context.  The kernel
        pass and the response assembly run after the lock is released.
        """
        return self.prepare_rank(specs, request, tick=tick).complete()

    def _explain_items(
        self,
        items: RankedItems,
        document_scores: Mapping[str, DocumentScore],
    ) -> str:
        """Per-rule motivations for the preference part, in item order."""
        ordered = [
            document_scores[document]
            for document in items.documents()
            if document in document_scores
        ]
        return _explain().explain_ranking(ordered, self.preferences.repository())

    # -- conveniences ------------------------------------------------------
    def preference_scores(self) -> dict[str, float]:
        """The (cached) preference view as plain ``{document: score}``."""
        with self._lock:
            self.context.refresh()
            view_scores, _cached = self._refresh_view()
            return score_values(view_scores)

    def explain(self, document: str) -> str:
        """One document's per-rule motivation under the current context."""
        with self._lock:
            self.context.refresh()
            view_scores, _cached = self._refresh_view()
            scores = self._scores_for([document], view_scores)
            return _explain().explain_score(scores[document], self.preferences.repository())

    def view_fingerprint(self) -> tuple:
        """The ``(knowledge epoch, view signature)`` pair, atomically.

        The signature covers everything a scored view depends on —
        context rendering, TBox/space revisions, rule fingerprint,
        scoring configuration, target — and the epoch
        (:attr:`ABox.mutation_count`) orders successive states of one
        engine, so observers that learn fingerprints out of band (the
        response-cache ledger in :mod:`repro.cache`) can apply them
        newest-wins regardless of thread scheduling.
        """
        with self._lock:
            return (self.abox.mutation_count, self._signature())

    def install_and_fingerprint(
        self, specs: Iterable[str] | ContextValue, *, tick: str = "ctx", blocking: bool = True
    ) -> tuple | None:
        """Install ``specs``, then :meth:`view_fingerprint`, under one hold of the lock.

        The fingerprint therefore describes exactly the state these
        specs installed — no concurrent install can land in between —
        which is what lets a response cache confirm a stored body for
        them.  ``blocking=False`` never waits: ``None`` (nothing
        installed) when another thread holds the lock.
        """
        if not self._acquire(blocking):
            return None
        try:
            self._install(specs, tick)
            return (self.abox.mutation_count, self._signature())
        finally:
            self._lock.release()

    def context_covered(self) -> bool:
        """Does any rule apply in the current context? (Section 4.1.)"""
        with self._lock:
            return self.preferences.repository().covers_context(
                self.abox, self.tbox, self.user
            )

    def install_context(self, *specs: str | ContextValue, tick: str = "ctx") -> None:
        """Install ``CONCEPT[:PROB]`` specs through the context backend.

        The specs may come as their one
        :class:`~repro.engine.backends.ContextValue`, which carries its
        own tick.  Only available when the context backend supports
        installation (:class:`~repro.engine.backends.AboxContext` does).
        """
        install = getattr(self.context, "install", None)
        if install is None:
            raise EngineError(
                f"context backend {type(self.context).__name__} does not support install()"
            )
        if len(specs) == 1 and isinstance(specs[0], ContextValue):
            specs = specs[0]
        with self._lock:
            install(self.user, specs, tick=tick)

    def _install(self, specs: Iterable[str] | ContextValue, tick: str) -> None:
        """:meth:`install_context` for a spec iterable or a value."""
        if isinstance(specs, ContextValue):
            self.install_context(specs)
        else:
            self.install_context(*specs, tick=tick)

    def as_member(self, name: str) -> "GroupMember":
        """This engine's user as a :class:`~repro.multiuser.GroupMember`.

        Plugs the engine into :class:`~repro.multiuser.GroupRanker` /
        :class:`~repro.engine.relevance.GroupRelevance` for the
        Section 6 multi-user extension.
        """
        from repro.multiuser.group import GroupMember

        return GroupMember(name, self._scorer)

    @property
    def view(self) -> PreferenceView:
        """The engine's preference view (attached to SQL sessions)."""
        return self._view

    # -- cache management --------------------------------------------------
    def cache_info(self) -> CacheInfo:
        """Hit/miss counters of the preference-view cache."""
        return self._cache.info()

    def reasoner_info(self) -> ReasonerInfo:
        """Cache counters of the compiled reasoner behind cold binds."""
        return self.kb.info()

    def invalidate_cache(self) -> None:
        """Drop this engine's memoized views, its compiled bases and its
        carried context binding (the next request recomputes).

        The process-wide basis pool is not touched: an overlay-backed
        engine finds the pooled basis again on its next miss, behind the
        full reuse walk.
        """
        with self._lock:
            self._cache.invalidate()
            self._carried = None

    def __repr__(self) -> str:
        info = self._cache.info()
        return (
            f"RankingEngine(target={self.target}, method={self.method!r}, "
            f"relevance={getattr(self.relevance, 'name', type(self.relevance).__name__)!r}, "
            f"cache={info.hits}h/{info.misses}m)"
        )
