"""End-to-end integration: sensors -> context -> views -> SQL -> ranking.

One scenario exercising every layer together, the way a deployment
would: the context manager refreshes from simulated sensors, the
engine's preference view follows, the user's SQL query returns
context-dependent rows, and the mixed relevance combines IR evidence —
across two context changes.
"""

import pytest

from repro.core import ContextAwareScorer
from repro.context import (
    CalendarSensor,
    ContextManager,
    GroundTruth,
    LocationSensor,
    SimClock,
    SituatedUser,
    define_context,
    define_location_concept,
)
from repro.engine import RankingEngine, RankRequest
from repro.ir import Corpus, LanguageModelRanker
from repro.workloads import build_tvtouch


@pytest.fixture()
def pipeline():
    world = build_tvtouch()
    define_location_concept(world.tbox, "InKitchen", "kitchen")
    define_context(world.tbox, "Breakfast", "InKitchen AND Morning")

    clock = SimClock.at(2007, 4, 14, 8, 0)  # Saturday morning
    manager = ContextManager(
        user=SituatedUser(world.user),
        clock=clock,
        abox=world.abox,
        tbox=world.tbox,
        space=world.space,
        database=world.database,
    )
    manager.add_sensor(CalendarSensor(world.user))
    manager.add_sensor(LocationSensor(world.user, rooms=("kitchen", "livingroom"), accuracy=0.9))

    return world, manager, RankingEngine.from_world(world)


INTRO_QUERY = (
    "SELECT name, preferencescore FROM Programs "
    "WHERE preferencescore > 0.5 ORDER BY preferencescore DESC"
)


class TestFullPipeline:
    def test_kitchen_breakfast_surfaces_news(self, pipeline):
        world, manager, engine = pipeline
        manager.refresh(GroundTruth(location="kitchen"))
        result = engine.rank(INTRO_QUERY).result
        assert len(result) >= 1
        assert result.rows[0][0] == "Channel 5 news"

    def test_living_room_drops_breakfast_rule(self, pipeline):
        world, manager, engine = pipeline
        manager.refresh(GroundTruth(location="kitchen"))
        kitchen_scores = engine.preference_scores()
        manager.refresh(GroundTruth(location="livingroom"))
        livingroom_scores = engine.preference_scores()
        # With breakfast unlikely, the news-subject rule barely bites:
        # Oprah (pure weekend human interest) must gain relative to BBC.
        assert livingroom_scores["oprah"] > kitchen_scores["oprah"]
        assert livingroom_scores["oprah"] > livingroom_scores["bbc_news"]

    def test_database_tables_follow_context(self, pipeline):
        world, manager, _engine = pipeline
        manager.refresh(GroundTruth(location="kitchen"))
        first = {row[0:2] for row in world.database.table("role_locatedIn")}
        manager.refresh(GroundTruth(location="livingroom"))
        second = {row[0:2] for row in world.database.table("role_locatedIn")}
        assert first == second  # same candidate rooms sensed...
        events_first = world.database.table("role_locatedIn").rows
        assert events_first  # ...but fresh events each tick

    def test_mixed_ranking_with_ir(self, pipeline):
        world, manager, _engine = pipeline
        manager.refresh(GroundTruth(location="kitchen"))

        corpus = Corpus()
        corpus.add_text("oprah", "talk show human interest celebrity")
        corpus.add_text("bbc_news", "news weather bulletin world")
        corpus.add_text("channel5_news", "news weather bulletin human interest")
        corpus.add_text("mpfs", "comedy sketches absurd")
        lm = LanguageModelRanker(corpus)

        query_scores = lm.score_all("news weather")
        engine = RankingEngine.from_world(world, relevance="mixed")  # λ = 0.5
        mixed = engine.rank(RankRequest(query_scores=query_scores)).items
        assert mixed[0].document == "channel5_news"
        # Pure IR would rank bbc_news at least as high as oprah;
        # pure context at breakfast agrees; the mixture must too.
        order = [r.document for r in mixed]
        assert order.index("bbc_news") < order.index("oprah")

    def test_uncovered_context_reports_degenerate_scores(self, pipeline):
        world, manager, engine = pipeline
        world.abox.clear_dynamic()  # no context at all
        scores = engine.preference_scores()
        assert all(value == pytest.approx(1.0) for value in scores.values())

    def test_prune_report_reflects_sensor_context(self, pipeline):
        world, manager, _engine = pipeline
        manager.refresh(GroundTruth(location="kitchen"))
        scorer = ContextAwareScorer(
            abox=world.abox, tbox=world.tbox, user=world.user,
            repository=world.repository, space=world.space,
        )
        scorer.score(world.program_ids)
        report = scorer.last_prune_report
        assert report is not None and report.kept_rules == 2
