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
snapshot instead of binding or compiling anything.  Scored views are
shared across engines by :class:`ScoredViewMemo`, keyed on what
:func:`score_prepared_batch` coalesces on.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, Optional, Sequence

from repro._lazy import lazy_module
from repro.core.kernel import (
    ScoredView,
    ScoringKernel,
    score_documents_batch,
    score_values,
)
from repro.core.preference_view import PreferenceView
from repro.core.problem import _active_deadline, bind_rules
from repro.core.scorer import ContextAwareScorer
from repro.core.scoring import DocumentScore
from repro.dl.abox import ABox, content_digest
from repro.dl.concepts import Concept
from repro.dl.tbox import TBox
from repro.dl.vocabulary import Individual
from repro.errors import EngineError, ScoringError
from repro.events.space import EventSpace
from repro.engine.basis import build_view_basis, shared_basis_pool
from repro.engine.cache import CacheInfo, ViewCache
from repro.engine.requests import RankedItems, RankRequest, RankResponse, as_requests
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

__all__ = ["PreparedRank", "RankingEngine", "ScoredViewMemo", "score_prepared_batch"]

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
    batch-mates from other tenants wait on the pass.
    """

    engine: "RankingEngine"
    request: RankRequest
    kernel: ScoringKernel | None = None
    signature: Hashable = None
    fingerprint: tuple | None = field(default=None)
    prune_documents: bool = True
    response: RankResponse | None = None

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
            (view,), _rows = score_prepared_batch([self])
        return self.engine._complete_prepared(self, view)


def score_prepared_batch(
    prepared: Sequence[PreparedRank],
) -> tuple[list[ScoredView | None], int]:
    """Score every batchable :class:`PreparedRank` in fused kernel passes.

    Kernels are grouped by compiled-candidates identity (only those may
    share a pass) and, within a group, requests whose kernels carry an
    equal :attr:`~repro.core.kernel.ScoringKernel.coalesce_key` — the
    value identity of the context-bound coefficient vector — coalesce
    onto one scored row.  The key is tenant-blind: the same context
    installed for two different tenants over a shared basis produces
    distinct view signatures but equal coefficients, so a thundering
    herd of identical contexts costs one row — and one immutable
    :class:`~repro.core.kernel.ScoredView`, shared by every coalesced
    mate.  Returns the per-request views (``None`` where
    ``prepare_rank`` already answered) and the number of kernel rows
    actually scored — the coalescing win is ``batchable_requests - rows``.
    """
    results: list[ScoredView | None] = [None] * len(prepared)
    groups: dict[tuple[int, bool], list[int]] = {}
    rows = 0
    for index, item in enumerate(prepared):
        if item.kernel is not None:
            groups.setdefault(
                (id(item.kernel.candidates), item.prune_documents), []
            ).append(index)
    for indices in groups.values():
        unique: dict[Hashable, int] = {}
        kernels: list[ScoringKernel] = []
        slots: list[tuple[int, int]] = []
        for index in indices:
            item = prepared[index]
            position = unique.get(item.kernel.coalesce_key)
            if position is None:
                position = len(kernels)
                unique[item.kernel.coalesce_key] = position
                kernels.append(item.kernel)
            slots.append((index, position))
        scored = score_documents_batch(
            kernels, prune_documents=prepared[indices[0]].prune_documents
        )
        rows += len(kernels)
        for index, position in slots:
            results[index] = scored[position]
    return results, rows


#: Scored views a :class:`ScoredViewMemo` keeps.  Mates of one herd are
#: answered one after another, so a handful covers them; every entry
#: pins one view (a float per document) and its candidates.
MEMO_ENTRIES = 8


class ScoredViewMemo:
    """One kernel pass per distinct context binding, shared across tenants.

    :meth:`execute` returns the scored view of a prepared rank: the one
    an earlier request with an equal :attr:`PreparedRank.memo_key`
    scored, or a fresh :func:`score_prepared_batch` pass, remembered in
    a bounded LRU (:data:`MEMO_ENTRIES`).  A thundering herd of one
    context over many tenants thus costs one pass and one immutable
    :class:`~repro.core.kernel.ScoredView`, which every mate's view
    cache then holds by reference — with no window and nobody waiting
    for a mate: two mates that miss at once both score.  Thread-safe;
    the lock guards the table and the counters, never a pass.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._views: OrderedDict[Hashable, ScoredView] = OrderedDict()
        self.requests = 0
        self.hits = 0
        self.passes = 0

    def execute(self, prepared: PreparedRank) -> ScoredView:
        """The scored view for ``prepared`` (which must carry a kernel)."""
        key = prepared.memo_key
        with self._lock:
            self.requests += 1
            view = self._views.get(key)
            if view is not None:
                self.hits += 1
                self._views.move_to_end(key)
                return view
        (view,), _rows = score_prepared_batch([prepared])
        with self._lock:
            self.passes += 1
            self._views[key] = view
            if len(self._views) > MEMO_ENTRIES:
                self._views.popitem(last=False)
        return view

    def info(self) -> dict:
        """Counters: requests, memo hits, kernel passes and entries held."""
        with self._lock:
            return {
                "requests": self.requests,
                "hits": self.hits,
                "passes": self.passes,
                "entries": len(self._views),
                "capacity": MEMO_ENTRIES,
            }


#: Distinct rule fingerprints whose digest is remembered.
_RULES_DIGEST_MEMO_SIZE = 64


@lru_cache(maxsize=_RULES_DIGEST_MEMO_SIZE)
def _rules_digest(fingerprint: Hashable) -> str:
    """:func:`content_digest` of a rule fingerprint, memoised by value.

    The fingerprint is rebuilt on every signature, so an in-place
    repository edit still changes the digest; every engine over one
    rule set (a tenant fleet) shares one memo entry and one string.
    """
    return content_digest(fingerprint)


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
            _rules_digest(self.preferences.fingerprint()),
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

    def _resolve(self) -> _Resolved:
        """Where the current signature's view comes from (under the lock).

        One of three: the cached view (a counted hit); a kernel bound
        to the current context on a reusable compiled basis — only the
        rule-context vector is recomputed, the documents x rules matrix
        is reused as compiled; or neither — cold: no basis exists, or
        the dynamic delta might have touched document events or target
        membership.
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
            basis = shared_basis_pool().get(basis_key)
        if basis is None or not basis.reusable_for(
            self.abox, self.tbox, self.target, kb=self.kb
        ):
            return key, None, None
        bindings = bind_rules(
            self.abox, self.tbox, self.user, [rule for rule in repository], self.space,
            kb=self.kb,
        )
        try:
            return key, None, basis.kernel.with_context(bindings)
        except ScoringError:  # pragma: no cover - fingerprint should prevent this
            return key, None, None

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
        map is built first.
        """
        documents: Sequence[str]
        document_scores: Mapping[str, DocumentScore]
        preferences: Mapping[str, float]
        if (
            isinstance(view, ScoredView)
            and not gated_out
            and request.documents is None
            and query_scores is None
        ):
            documents, document_scores, preferences = view.names, view, view.column()
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

        items = RankedItems.of(
            self._combine_items(preferences, query_scores, documents, request.top_k)
        )
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

    def rank_many(
        self,
        requests: Iterable[RankRequest | str],
        contexts: Sequence[Iterable[str] | None] | None = None,
    ) -> list[RankResponse]:
        """Answer a batch of requests through one fused kernel pass.

        Each request is :meth:`prepare_rank`-snapshotted in order (so
        per-request ``contexts`` deltas interleave exactly as a
        sequential install+rank loop would), then every snapshot
        sharing a compiled candidate matrix is scored in a single
        batched pass and completed in order.  Under an unchanged
        context the whole batch still costs one view computation (the
        signature cache absorbs repeats); with per-request contexts the
        batch pays one matrix pass instead of N.
        """
        request_list = as_requests(requests)
        if contexts is None:
            specs_list: list[Iterable[str] | None] = [None] * len(request_list)
        else:
            specs_list = list(contexts)
            if len(specs_list) != len(request_list):
                raise EngineError(
                    f"rank_many got {len(request_list)} requests but "
                    f"{len(specs_list)} context deltas"
                )
        prepared = [
            self.prepare_rank(specs, request)
            for specs, request in zip(specs_list, request_list)
        ]
        scored, _rows = score_prepared_batch(prepared)
        return [item.complete(scores) for item, scores in zip(prepared, scored)]

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
        specs: Iterable[str] | None = None,
        request: RankRequest | str | None = None,
        *,
        tick: str = "ctx",
        blocking: bool = True,
    ) -> PreparedRank | None:
        """Snapshot a request under the lock; score it outside.

        The one route from a request to an answer (:meth:`rank`,
        :meth:`rank_in_context` and :meth:`rank_many` are this plus
        :meth:`PreparedRank.complete`).  Installs ``specs`` (when given)
        and resolves the view's source atomically, then releases the
        lock.  A signature miss on a reusable basis comes back as a
        context-bound kernel: the matrix pass and the response assembly
        happen in :func:`score_prepared_batch` /
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
                self.install_context(*specs, tick=tick)
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
                resolved = self._resolve()
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
        share one object.
        """
        self._cache.note_context_refresh()
        self._cache.put(prepared.signature, view)
        return self._respond(
            prepared.request,
            view,
            query_scores=prepared.request.query_score_map,
            from_cache=False,
            fingerprint=prepared.fingerprint,
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
        self, specs: Iterable[str], *, tick: str = "ctx", blocking: bool = True
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
            self.install_context(*specs, tick=tick)
            return (self.abox.mutation_count, self._signature())
        finally:
            self._lock.release()

    def context_covered(self) -> bool:
        """Does any rule apply in the current context? (Section 4.1.)"""
        with self._lock:
            return self.preferences.repository().covers_context(
                self.abox, self.tbox, self.user
            )

    def install_context(self, *specs: str, tick: str = "ctx") -> None:
        """Install ``CONCEPT[:PROB]`` specs through the context backend.

        Only available when the context backend supports installation
        (:class:`~repro.engine.backends.AboxContext` does).
        """
        install = getattr(self.context, "install", None)
        if install is None:
            raise EngineError(
                f"context backend {type(self.context).__name__} does not support install()"
            )
        with self._lock:
            install(self.user, specs, tick=tick)

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
        """Drop every memoized view (the next request recomputes)."""
        with self._lock:
            self._cache.invalidate()

    def __repr__(self) -> str:
        info = self._cache.info()
        return (
            f"RankingEngine(target={self.target}, method={self.method!r}, "
            f"relevance={getattr(self.relevance, 'name', type(self.relevance).__name__)!r}, "
            f"cache={info.hits}h/{info.misses}m)"
        )
