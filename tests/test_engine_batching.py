"""The prepare/complete split and the scored-view memo.

A rank is `prepare_rank` under the engine lock, then one kernel pass
and `complete` outside it.  Requests whose context bindings are equal
over one compiled matrix share one scored view through
`ScoredViewMemo.execute`, across tenants too; unequal ones do not.
"""

import threading

import pytest

from repro.core.kernel import ScoringKernel
from repro.engine import RankingEngine, RankRequest
from repro.engine.engine import ScoredViewMemo
from repro.workloads import build_tvtouch, set_breakfast_weekend_context

QUERY = (
    "SELECT name, preferencescore FROM Programs "
    "WHERE preferencescore > 0.5 ORDER BY preferencescore DESC"
)

CONTEXTS = [
    ("Weekend:0.2",),
    ("Weekend:0.45", "Breakfast:0.8"),
    ("Breakfast",),
    ("Weekend:0.7",),
    ("Weekend", "Breakfast"),
]


@pytest.fixture()
def world():
    world = build_tvtouch()
    set_breakfast_weekend_context(world)
    return world


def warmed_engine(world):
    engine = RankingEngine.from_world(world)
    engine.rank()  # cold pass: compiles and publishes the basis
    return engine


class TestTopK:
    def test_matches_sequential_loop_across_contexts(self):
        def fresh():
            world = build_tvtouch()
            set_breakfast_weekend_context(world)
            return warmed_engine(world)

        # Two identical worlds so mutation counters march in lockstep:
        # fingerprints must match element-for-element, not just scores.
        shared_engine = fresh()
        sequential_engine = fresh()
        request = RankRequest(top_k=3)
        memo = ScoredViewMemo()
        shared = []
        for specs in CONTEXTS:
            prepared = shared_engine.prepare_rank(specs, request, memo=memo)
            view = memo.execute(prepared) if prepared.kernel is not None else None
            shared.append(prepared.complete(view))
        sequential = [
            sequential_engine.rank_in_context(specs, request)
            for specs in CONTEXTS
        ]
        assert memo.info()["passes"] >= 1
        for left, right in zip(shared, sequential):
            assert left.documents() == right.documents()
            assert left.scores() == pytest.approx(right.scores(), abs=1e-9)
            assert left.fingerprint == right.fingerprint

    @pytest.mark.parametrize("k", [1, 3, 200])
    def test_top_k_matches_the_full_ranking_cut(self, k):
        # A miss cuts its view at k; the reference ranks every document
        # and is cut here.
        def fresh():
            world = build_tvtouch()
            set_breakfast_weekend_context(world)
            return warmed_engine(world)

        engine = fresh()
        reference = fresh()
        for specs in CONTEXTS:
            response = engine.rank_in_context(specs, RankRequest(top_k=k))
            reference.install_context(*specs, tick="ctx")
            expected = reference.rank(RankRequest())
            assert response.documents() == expected.documents()[:k]
            assert list(response.items.scores) == pytest.approx(
                list(expected.items.scores)[:k], abs=1e-9
            )


class TestPrepareRank:
    def test_batchable_snapshot_shape(self, world):
        engine = warmed_engine(world)
        prepared = engine.prepare_rank(("Weekend:0.37",), RankRequest(top_k=2))
        assert prepared.response is None
        assert prepared.kernel is not None
        assert prepared.signature is not None
        assert prepared.memo_key[0] is prepared.kernel.candidates
        response = prepared.complete(prepared.kernel.score_documents())
        assert [item.document for item in response.items] == (
            engine.rank(RankRequest(top_k=2)).documents()
        )

    def test_sql_answers_immediately(self, world):
        engine = warmed_engine(world)
        prepared = engine.prepare_rank(None, QUERY)
        assert prepared.response is not None
        assert prepared.kernel is None
        assert prepared.complete() is prepared.response

    def test_view_cache_hit_answers_immediately(self, world):
        engine = warmed_engine(world)
        engine.rank()  # populate the signature cache for the standing context
        prepared = engine.prepare_rank(None, RankRequest())
        assert prepared.response is not None
        assert prepared.response.from_cache

    def test_cold_engine_answers_immediately(self):
        world = build_tvtouch()
        set_breakfast_weekend_context(world)
        engine = RankingEngine.from_world(world)
        # No cached basis yet and no overlay base to share one through:
        # the first rank must compute under the lock, not batch.
        prepared = engine.prepare_rank(None, RankRequest())
        assert prepared.response is not None

    def test_unknown_document_answers_immediately(self, world):
        engine = warmed_engine(world)
        prepared = engine.prepare_rank(
            ("Weekend:0.9",), RankRequest(documents=("channel5_news", "ghost"))
        )
        assert prepared.response is not None

    def test_complete_without_scores_scores_alone(self, world):
        engine = warmed_engine(world)
        prepared = engine.prepare_rank(("Weekend:0.41",), RankRequest())
        assert prepared.kernel is not None
        alone = prepared.complete()
        assert not alone.from_cache and alone.fingerprint == prepared.fingerprint
        reference = warmed_engine(world)  # same world: the context is installed
        want = reference.rank()
        assert alone.documents() == want.documents()
        assert alone.scores() == pytest.approx(want.scores(), abs=1e-9)

    def test_the_kernel_pass_runs_outside_the_engine_lock(self, world, monkeypatch):
        engine = warmed_engine(world)
        entered, release = threading.Event(), threading.Event()
        real = ScoringKernel.score_vector

        def parked(kernel, *args, **kwargs):
            entered.set()
            assert release.wait(10)
            return real(kernel, *args, **kwargs)

        monkeypatch.setattr(ScoringKernel, "score_vector", parked)
        answers = []
        ranker = threading.Thread(
            target=lambda: answers.append(
                engine.rank_in_context(("Weekend:0.41",), RankRequest(top_k=2))
            )
        )
        ranker.start()
        try:
            assert entered.wait(10), "the miss never reached the kernel"
            # The pass is parked: an install that never waits still lands.
            fingerprint = engine.install_and_fingerprint(
                ("Breakfast:0.3",), tick="probe", blocking=False
            )
        finally:
            release.set()
            ranker.join(10)
        assert fingerprint is not None
        assert answers and len(answers[0].items) == 2
        assert answers[0].fingerprint != fingerprint

    def test_complete_populates_view_cache(self, world):
        engine = warmed_engine(world)
        prepared = engine.prepare_rank(("Weekend:0.63",), RankRequest())
        prepared.complete(prepared.kernel.score_documents())
        again = engine.rank()
        assert again.from_cache


def memo_views(prepared):
    """Each snapshot's view through one fresh memo, and its counters."""
    memo = ScoredViewMemo()
    return [memo.execute(item) for item in prepared], memo.info()


class TestScoredViewMemo:
    def test_coalesces_identical_signatures(self, world):
        engine = warmed_engine(world)
        engine.install_context("Weekend:0.52")
        prepared = [
            engine.prepare_rank(None, RankRequest(top_k=k)) for k in (1, 2, 3)
        ]
        assert all(item.response is None for item in prepared)
        assert len({item.signature for item in prepared}) == 1
        scored, info = memo_views(prepared)
        assert info["passes"] == 1, "identical signatures must share one pass"
        assert scored[0] is scored[1] is scored[2]
        responses = [item.complete(s) for item, s in zip(prepared, scored)]
        assert [len(r.items) for r in responses] == [1, 2, 3]

    def test_coalesces_across_tenants_on_equal_coefficients(self):
        # The same context installed for two different tenants over a
        # shared basis: distinct view signatures (the signature names
        # the tenant's individual) but equal coefficient vectors, so
        # the memo shares one scored view across tenants.
        from repro.engine import RankRequest
        from repro.tenants import TenantRegistry
        from repro.workloads import build_tvtouch

        registry = TenantRegistry(build_tvtouch(), max_sessions=8)
        prepared = []
        for tenant in ("alice", "bob"):
            with registry.checkout(tenant) as session:
                session.rank_in_context(("Weekend:0.5",), RankRequest(top_k=2))
                item = session.prepare_rank(("Weekend:0.37",), RankRequest(top_k=2))
            assert item.response is None
            prepared.append(item)
        first, second = prepared
        assert first.signature != second.signature
        assert first.kernel.coalesce_key == second.kernel.coalesce_key
        assert first.kernel.candidates is second.kernel.candidates
        assert first.memo_key == second.memo_key  # tenant-blind: one memo entry
        scored, info = memo_views(prepared)
        assert info["passes"] == 1, "equal coefficients must share one pass"
        assert scored[0] is scored[1]
        left, right = (item.complete(s) for item, s in zip(prepared, scored))
        assert [i.document for i in left.items] == [i.document for i in right.items]

    def test_mixed_shapes_answer_like_single_ranks(self, world):
        engine = warmed_engine(world)
        requests = [
            RankRequest(documents=world.program_ids),
            QUERY,  # SQL: answered under the lock, never reaches the memo
            RankRequest(top_k=2),
        ]
        reference = warmed_engine(world)
        memo = ScoredViewMemo()
        prepared = [engine.prepare_rank(None, request, memo=memo) for request in requests]
        assert prepared[1].kernel is None and prepared[1].response is not None
        answers = [
            item.complete(memo.execute(item) if item.kernel is not None else None)
            for item in prepared
        ]
        singles = [reference.rank(request) for request in requests]
        for left, right in zip(answers, singles):
            assert left.scores() == pytest.approx(right.scores(), abs=1e-9)
            assert left.documents() == right.documents()

    def test_distinct_matrices_never_share_a_view(self):
        # One context over two separately compiled candidate sets: equal
        # coefficients, but the memo keys hold the matrix itself.
        prepared = []
        for _ in range(2):
            world = build_tvtouch()
            set_breakfast_weekend_context(world)
            item = warmed_engine(world).prepare_rank(("Weekend:0.29",), RankRequest())
            assert item.kernel is not None
            prepared.append(item)
        first, second = prepared
        assert first.kernel.coalesce_key == second.kernel.coalesce_key
        assert first.kernel.candidates is not second.kernel.candidates
        assert first.memo_key != second.memo_key
        scored, info = memo_views(prepared)
        assert info["passes"] == 2
        assert scored[0] is not scored[1]
        assert scored[0].kernel is first.kernel and scored[1].kernel is second.kernel

    def test_memo_and_complete_score_through_the_one_pass(self, world, monkeypatch):
        import repro.engine.engine as engine_module

        calls = []
        real = engine_module.score_documents_batch

        def counted(kernel, prune_documents=True):
            calls.append(kernel)
            return real(kernel, prune_documents)

        monkeypatch.setattr(engine_module, "score_documents_batch", counted)
        engine = warmed_engine(world)
        through_memo = engine.prepare_rank(("Weekend:0.17",), RankRequest())
        scored, info = memo_views([through_memo])
        assert calls == [through_memo.kernel] and info["passes"] == 1
        alone = engine.prepare_rank(("Weekend:0.83",), RankRequest())
        response = alone.complete()
        assert calls == [through_memo.kernel, alone.kernel]
        assert through_memo.complete(scored[0]).documents()
        assert response.documents()

    def test_prepared_share_candidate_matrix(self, world):
        engine = warmed_engine(world)
        first = engine.prepare_rank(("Weekend:0.11",), RankRequest())
        second = engine.prepare_rank(("Weekend:0.86",), RankRequest())
        assert first.kernel.candidates is second.kernel.candidates
        assert first.memo_key != second.memo_key  # one matrix, two bindings
        assert first.signature != second.signature
        scored, info = memo_views([first, second])
        assert info["passes"] == 2
        assert scored[0] is not scored[1]
