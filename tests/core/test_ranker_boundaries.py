"""The Section 6 mixture's λ = 0 and λ = 1 boundaries, defined exactly:
in :func:`mix_scores` and through the engine's ``"mixed"`` relevance."""

import pytest

from repro.core.scoring import mix_scores
from repro.engine import RankingEngine, RankRequest
from repro.errors import EngineConfigError
from repro.workloads import build_tvtouch, set_breakfast_weekend_context


class TestMixScores:
    def test_lambda_zero_is_pure_context(self):
        # the query part is ignored entirely — even a missing (0.0)
        # query score does not gate, and no 0**0 accident applies
        assert mix_scores(0.0, 0.42, 0.0) == pytest.approx(0.42)
        assert mix_scores(0.9, 0.42, 0.0) == pytest.approx(0.42)
        assert mix_scores(0.0, 0.0, 0.0) == 0.0

    def test_lambda_one_is_pure_ir(self):
        # the preference part is ignored entirely — a zero preference
        # does not zero the document, a missing query score does
        assert mix_scores(0.7, 0.0, 1.0) == pytest.approx(0.7)
        assert mix_scores(0.7, 0.9, 1.0) == pytest.approx(0.7)
        assert mix_scores(0.0, 0.9, 1.0) == 0.0

    def test_interior_gates_on_either_zero(self):
        assert mix_scores(0.0, 0.9, 0.5) == 0.0
        assert mix_scores(0.9, 0.0, 0.5) == 0.0

    def test_interior_is_the_power_mixture(self):
        assert mix_scores(0.4, 0.9, 0.25) == pytest.approx(
            (0.4 ** 0.25) * (0.9 ** 0.75)
        )

    def test_weight_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mix_scores(0.5, 0.5, -0.1)
        with pytest.raises(ValueError):
            mix_scores(0.5, 0.5, 1.1)


class TestRankMixedBoundaries:
    @pytest.fixture()
    def rank_mixed(self):
        world = build_tvtouch()
        set_breakfast_weekend_context(world)

        def rank(query_scores, mixing_weight):
            engine = (
                RankingEngine.builder()
                .world(world)
                .relevance("mixed", mixing_weight=mixing_weight)
                .build()
            )
            return engine.rank(RankRequest(query_scores=query_scores)).items

        return rank

    def test_lambda_zero_matches_preference_ranking(self, rank_mixed):
        # documents absent from query_scores keep their preference score
        ranked = rank_mixed({"mpfs": 1.0}, mixing_weight=0.0)
        by_doc = {r.document: r for r in ranked}
        assert by_doc["channel5_news"].score == pytest.approx(
            by_doc["channel5_news"].preference
        )
        assert by_doc["channel5_news"].score == pytest.approx(0.6006, abs=1e-9)
        assert by_doc["channel5_news"].query_dependent == 0.0
        assert [r.document for r in ranked][0] == "channel5_news"

    def test_lambda_one_matches_query_ranking(self, rank_mixed):
        ranked = rank_mixed({"mpfs": 0.9, "oprah": 0.4}, mixing_weight=1.0)
        by_doc = {r.document: r for r in ranked}
        assert by_doc["mpfs"].score == pytest.approx(0.9)
        assert by_doc["oprah"].score == pytest.approx(0.4)
        # absent from the query: gated to zero at λ = 1
        assert by_doc["channel5_news"].score == 0.0
        assert [r.document for r in ranked][:2] == ["mpfs", "oprah"]

    def test_interior_gates_absent_documents(self, rank_mixed):
        ranked = rank_mixed({"mpfs": 1.0}, mixing_weight=0.5)
        by_doc = {r.document: r for r in ranked}
        assert by_doc["channel5_news"].score == 0.0
        assert by_doc["mpfs"].score == pytest.approx(by_doc["mpfs"].preference ** 0.5)

    def test_boundary_continuity_for_present_documents(self, rank_mixed):
        # for a document present in both parts the boundaries agree
        # with the interior limits
        scores = {"channel5_news": 0.8}
        near_zero = rank_mixed(scores, mixing_weight=1e-9)
        at_zero = rank_mixed(scores, mixing_weight=0.0)
        c_near = next(r for r in near_zero if r.document == "channel5_news")
        c_at = next(r for r in at_zero if r.document == "channel5_news")
        assert c_near.score == pytest.approx(c_at.score, rel=1e-6)

    def test_weight_validation(self, rank_mixed):
        with pytest.raises(EngineConfigError, match="mixing weight"):
            rank_mixed({}, mixing_weight=1.5)
