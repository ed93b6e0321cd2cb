"""E1 golden test: the paper's Section 4.2 worked example, end to end.

Scores the four Table 1 programs under rules R1/R2 in a certain
breakfast-during-the-weekend context and checks the exact numbers the
paper derives by hand: 0.6006 / 0.071 / 0.18 / 0.02 — through every
scoring method of the engine, through the preference view, through the
naive view-based implementation on both storage backends, and through
the verbatim introduction SQL query.
"""

import pytest

from repro.core import (
    ContextAwareScorer,
    PreferenceView,
    naive_scores_python,
    naive_scores_sqlite,
)
from repro.core.problem import bind_problem
from repro.engine import RankingEngine, RankRequest
from repro.storage import SqliteBackend
from repro.workloads import EXPECTED_TABLE1_SCORES, build_tvtouch, set_breakfast_weekend_context


@pytest.fixture()
def world():
    world = build_tvtouch()
    set_breakfast_weekend_context(world)
    return world


@pytest.fixture()
def scorer(world):
    return ContextAwareScorer(
        abox=world.abox,
        tbox=world.tbox,
        user=world.user,
        repository=world.repository,
        space=world.space,
    )


class TestWorkedExample:
    @pytest.mark.parametrize("method", ["factorised", "enumeration", "exact"])
    def test_table1_scores_every_method(self, world, method):
        scores = RankingEngine.from_world(world, method=method).preference_scores()
        for program, expected in EXPECTED_TABLE1_SCORES.items():
            assert scores[program] == pytest.approx(expected, abs=1e-9), (method, program)

    def test_ranking_order(self, scorer, world):
        ranked = scorer.rank(world.program_ids)
        assert [score.document for score in ranked] == [
            "channel5_news",
            "bbc_news",
            "oprah",
            "mpfs",
        ]

    def test_context_is_covered(self, scorer):
        assert scorer.context_covered()

    def test_without_context_no_rule_applies(self):
        fresh = build_tvtouch()  # no context installed
        scorer = ContextAwareScorer(
            abox=fresh.abox,
            tbox=fresh.tbox,
            user=fresh.user,
            repository=fresh.repository,
            space=fresh.space,
        )
        assert not scorer.context_covered()
        # Equation (4) degenerates to 1 for every document (Section 4.1).
        scores = scorer.score_map(fresh.program_ids)
        assert all(value == pytest.approx(1.0) for value in scores.values())


class TestNaiveViewImplementations:
    def test_python_views_reproduce_table1(self, world):
        problem = bind_problem(
            world.abox, world.tbox, world.user, world.repository, [], world.space
        )
        scores = naive_scores_python(
            world.database, world.tbox, world.target, list(problem.bindings), world.space
        )
        for program, expected in EXPECTED_TABLE1_SCORES.items():
            assert scores[program] == pytest.approx(expected, abs=1e-9)

    def test_sqlite_views_reproduce_table1(self, world):
        problem = bind_problem(
            world.abox, world.tbox, world.user, world.repository, [], world.space
        )
        with SqliteBackend(world.space) as backend:
            backend.load_abox(world.abox)
            scores = naive_scores_sqlite(
                backend, world.tbox, world.target, list(problem.bindings)
            )
        for program, expected in EXPECTED_TABLE1_SCORES.items():
            assert scores[program] == pytest.approx(expected, abs=1e-9)


class TestPreferenceViewAndQuery:
    def test_preference_view_scores(self, scorer, world):
        view = PreferenceView(scorer, world.target)
        scores = view.refresh()
        for program, expected in EXPECTED_TABLE1_SCORES.items():
            assert scores[program] == pytest.approx(expected, abs=1e-9)
        assert view.scored_view()["oprah"].value == pytest.approx(0.071)
        assert view.scored_view()["channel5_news"].contributions

    def test_intro_query_runs_verbatim(self, world):
        """The SQL from the paper's introduction, unmodified."""
        engine = RankingEngine.from_world(world)
        result = engine.rank(
            "SELECT name, preferencescore\n"
            "FROM Programs\n"
            "WHERE preferencescore > 0.5\n"
            "ORDER BY preferencescore DESC"
        ).result
        assert result.columns == ("name", "preferencescore")
        assert result.rows == [("Channel 5 news", pytest.approx(0.6006))]

    def test_view_follows_context_changes(self, scorer, world):
        view = PreferenceView(scorer, world.target)
        view.refresh()
        assert view.scored_view()["bbc_news"].value == pytest.approx(0.18)
        # Weekday evening: neither rule applies; every score becomes 1.
        world.abox.clear_dynamic()
        scores = view.refresh()
        assert all(value == pytest.approx(1.0) for value in scores.values())

    def test_union_ranking_semantics(self, world):
        engine = RankingEngine.from_world(world, relevance="gated")
        ranked = engine.rank(RankRequest(query_scores={"oprah": 1.0, "mpfs": 1.0})).items
        assert [r.document for r in ranked] == ["oprah", "mpfs"]
        assert ranked[0].preference == pytest.approx(0.071)
        assert all(r.query_dependent == 1.0 for r in ranked)
