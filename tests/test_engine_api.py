"""End-to-end tests for the :class:`RankingEngine` facade."""

import pytest

from repro.core import ContextAwareScorer
from repro.engine import (
    GatedRelevance,
    GroupRelevance,
    LogLinearRelevance,
    MixedRelevance,
    RankingEngine,
    RankRequest,
    RankResponse,
)
from repro.errors import EngineError
from repro.multiuser import GroupRanker
from repro.workloads import (
    EXPECTED_TABLE1_SCORES,
    build_tvtouch,
    set_breakfast_weekend_context,
)

QUERY = (
    "SELECT name, preferencescore FROM Programs "
    "WHERE preferencescore > 0.5 ORDER BY preferencescore DESC"
)


@pytest.fixture()
def world():
    world = build_tvtouch()
    set_breakfast_weekend_context(world)
    return world


@pytest.fixture()
def engine(world):
    return RankingEngine.from_world(world)


class TestAcceptance:
    def test_one_call_sql_pipeline(self, engine):
        response = engine.rank(RankRequest(query=QUERY))
        assert isinstance(response, RankResponse)
        assert response.result is not None
        assert response.result.column("name") == ["Channel 5 news"]
        # No id column in the projection: the query's filter cannot be
        # mapped back onto documents, so the response carries the raw
        # SQL result and no fabricated item ranking.
        assert response.items == ()

    def test_sql_string_shorthand(self, engine):
        response = engine.rank(QUERY)
        assert response.result is not None
        assert len(response.result) == 1

    def test_id_projection_gates_items(self, engine):
        response = engine.rank(
            "SELECT id, preferencescore FROM Programs WHERE preferencescore > 0.1"
        )
        assert response.documents() == ["channel5_news", "bbc_news"]
        assert all(item.query_dependent == 1.0 for item in response)

    def test_table1_scores(self, engine, world):
        response = engine.rank(RankRequest(documents=world.program_ids))
        for program, expected in EXPECTED_TABLE1_SCORES.items():
            assert response.scores()[program] == pytest.approx(expected, abs=1e-9)

    def test_paper_ranking_order(self, engine):
        response = engine.rank()  # no request: every target member
        assert response.documents() == ["channel5_news", "bbc_news", "oprah", "mpfs"]
        positions = [item.position for item in response]
        assert positions == [1, 2, 3, 4]


class TestParity:
    def test_matches_direct_scorer(self, engine, world):
        scorer = ContextAwareScorer(
            abox=world.abox, tbox=world.tbox, user=world.user,
            repository=world.repository, space=world.space,
        )
        direct = scorer.score_map(world.program_ids)
        response = engine.rank(RankRequest(documents=world.program_ids))
        assert response.scores() == pytest.approx(direct)

    def test_rescore_matches_first_answers(self, engine, world):
        requests = [
            RankRequest(documents=world.program_ids),
            RankRequest(documents=world.program_ids, top_k=2),
            QUERY,
        ]
        first = [engine.rank(request) for request in requests]
        engine.invalidate_cache()
        again = [engine.rank(request) for request in requests]
        assert not again[0].from_cache  # the view was rebuilt, not kept
        for left, right in zip(first, again):
            assert left.scores() == pytest.approx(right.scores())
            assert left.documents() == right.documents()

    def test_repeats_cost_one_view_computation(self, engine, world):
        for _ in range(5):
            engine.rank(RankRequest(documents=world.program_ids))
        info = engine.cache_info()
        assert info.misses == 1
        assert info.hits == 4


class TestResponseShape:
    def test_iter_and_len(self, engine, world):
        response = engine.rank(RankRequest(documents=world.program_ids))
        assert len(response) == 4
        assert [item.document for item in response] == response.documents()

    def test_top_k(self, engine, world):
        response = engine.rank(RankRequest(documents=world.program_ids, top_k=2))
        assert len(response) == 2
        assert response.top().document == "channel5_news"

    def test_to_table_renders_through_shared_renderer(self, engine, world):
        response = engine.rank(RankRequest(documents=world.program_ids))
        rendered = response.render(names={"channel5_news": "Channel 5 news"})
        assert "Channel 5 news" in rendered
        assert "0.6006" in rendered
        assert rendered.splitlines()[0].split() == ["rank", "document", "score"]

    def test_explain_threads_through(self, engine, world):
        response = engine.rank(RankRequest(documents=world.program_ids, explain=True))
        assert response.explanation is not None
        assert "rule r1" in response.explanation
        assert "0.6006" in response.explanation
        no_explain = engine.rank(RankRequest(documents=world.program_ids))
        assert no_explain.explanation is None

    def test_engine_explain_single_document(self, engine):
        text = engine.explain("channel5_news")
        assert "P(ideal | context) = 0.6006" in text


class TestRequestValidation:
    def test_query_and_query_scores_conflict(self):
        with pytest.raises(EngineError):
            RankRequest(query="SELECT 1", query_scores={"a": 1.0})

    def test_top_k_positive(self):
        with pytest.raises(EngineError):
            RankRequest(top_k=0)

    def test_documents_normalised_to_tuple(self):
        request = RankRequest(documents=["b", "a"])
        assert request.documents == ("b", "a")

    def test_query_scores_normalised(self):
        request = RankRequest(query_scores={"b": 0.5, "a": 1.0})
        assert request.query_scores == (("a", 1.0), ("b", 0.5))
        assert request.query_score_map == {"a": 1.0, "b": 0.5}

    def test_query_scores_sequence_normalised_and_hashable(self):
        request = RankRequest(query_scores=[("b", 0.5), ("a", 1.0)])
        assert request.query_scores == (("a", 1.0), ("b", 0.5))
        assert isinstance(hash(request), int)

    def test_bad_request_type_rejected(self, engine):
        with pytest.raises(EngineError):
            engine.rank(42)

    def test_query_without_storage_rejected(self, world):
        engine = (
            RankingEngine.builder()
            .knowledge(world.abox, world.tbox, world.user, world.space)
            .preferences(world.repository)
            .target(world.target)
            .build()
        )
        with pytest.raises(EngineError, match="storage"):
            engine.rank(QUERY)


class TestRelevanceStrategies:
    def test_gated_without_query_is_pure_preference(self, world):
        engine = RankingEngine.from_world(world, relevance=GatedRelevance())
        response = engine.rank(RankRequest(documents=world.program_ids))
        assert all(item.query_dependent is None for item in response)

    def test_mixed_strategy(self, world):
        engine = RankingEngine.from_world(world)
        engine.relevance = MixedRelevance(mixing_weight=0.5)
        scores = {"channel5_news": 0.4, "mpfs": 1.0}
        response = engine.rank(
            RankRequest(documents=world.program_ids, query_scores=scores)
        )
        expected = (0.4 ** 0.5) * (EXPECTED_TABLE1_SCORES["channel5_news"] ** 0.5)
        assert response.scores()["channel5_news"] == pytest.approx(expected)
        # absent from query scores -> gated to 0 in the open interval
        assert response.scores()["bbc_news"] == 0.0

    def test_log_linear_strategy(self, world):
        engine = RankingEngine.from_world(world, relevance="log_linear")
        assert isinstance(engine.relevance, LogLinearRelevance)
        response = engine.rank(
            RankRequest(documents=world.program_ids, query_scores={"bbc_news": 0.9})
        )
        # log-space scores: present-in-both beats penalised documents
        assert response.top().document == "bbc_news"
        assert all(item.score <= 0.0 for item in response)

    def test_group_relevance_plugin(self, world):
        group = GroupRanker(
            [
                RankingEngine.from_world(world).as_member("peter"),
                RankingEngine.from_world(world).as_member("mary"),
            ],
            strategy="average",
        )
        engine = (
            RankingEngine.builder().world(world).relevance(GroupRelevance(group)).build()
        )
        response = engine.rank(RankRequest(documents=world.program_ids))
        # identical members: the average equals the single-user score
        for program, expected in EXPECTED_TABLE1_SCORES.items():
            assert response.scores()[program] == pytest.approx(expected, abs=1e-9)
        # the group backend opted out of the engine's own view: no
        # single-user scoring ran for the document-list request
        info = engine.cache_info()
        assert (info.hits, info.misses) == (0, 0)


class TestContextHelpers:
    def test_install_context_and_coverage(self):
        world = build_tvtouch()
        engine = RankingEngine.from_world(world)
        engine.install_context()  # empty context
        assert not engine.context_covered()
        engine.install_context("Weekend", "Breakfast")
        assert engine.context_covered()
        response = engine.rank(RankRequest(documents=world.program_ids))
        assert response.scores()["channel5_news"] == pytest.approx(0.6006, abs=1e-9)

    def test_reinstall_uncertain_context_with_new_probability(self):
        # a long-lived engine must survive the same concept arriving at
        # a different probability (a fresh event is allocated), and
        # re-installing an identical spec must restore the cache entry
        world = build_tvtouch()
        engine = RankingEngine.from_world(world)
        engine.install_context("Weekend", "Breakfast:0.7")
        first = engine.rank()
        engine.install_context("Weekend", "Breakfast:0.3")
        lower = engine.rank()
        assert not lower.from_cache
        assert lower.scores() != pytest.approx(first.scores())
        engine.install_context("Weekend", "Breakfast:0.7")
        again = engine.rank()
        assert again.from_cache
        assert again.scores() == pytest.approx(first.scores())

    def test_bad_context_specs_rejected(self):
        from repro.errors import EngineConfigError

        engine = RankingEngine.from_world(build_tvtouch())
        with pytest.raises(EngineConfigError, match="must be a probability"):
            engine.install_context("Breakfast:abc")
        with pytest.raises(EngineConfigError, match="in \\[0, 1\\]"):
            engine.install_context("Breakfast:1.5")

    def test_uncertain_install_spec(self):
        world = build_tvtouch()
        engine = RankingEngine.from_world(world)
        engine.install_context("Weekend", "Breakfast")
        certain = engine.preference_scores()
        engine.install_context("Weekend", "Breakfast:0.5", tick="t9")
        uncertain = engine.preference_scores()
        # a half-certain breakfast pulls every r2 factor toward the
        # neutral 1: matching documents rise, missing documents rise too
        assert uncertain["channel5_news"] != pytest.approx(certain["channel5_news"])
        assert uncertain["oprah"] > certain["oprah"]
        assert 0.0 < uncertain["channel5_news"] < 1.0
