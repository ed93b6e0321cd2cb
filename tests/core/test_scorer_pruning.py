"""Unit tests for the scorer facade, pruning and explanations."""

import pytest

from repro.core import (
    ContextAwareScorer,
    all_miss_score,
    explain_ranking,
    explain_score,
    prune_rules,
    split_trivial_documents,
)
from repro.core.problem import bind_problem
from repro.engine import RankingEngine
from repro.rules import PreferenceRule
from repro.workloads import build_tvtouch, set_breakfast_weekend_context


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


class TestPruning:
    def test_rule_pruning_drops_impossible_contexts(self, world):
        world.repository.add(
            PreferenceRule.parse("r3", "Holiday", "TvProgram", 0.7)  # never holds
        )
        problem = bind_problem(
            world.abox, world.tbox, world.user, world.repository,
            world.program_ids, world.space,
        )
        pruned = prune_rules(problem)
        assert problem.rule_count == 3
        assert pruned.rule_count == 2
        assert all(len(d.preference_events) == 2 for d in pruned.documents)

    def test_lossless_pruning_preserves_scores(self, world, scorer):
        baseline = scorer.score_map(world.program_ids)
        world.repository.add(PreferenceRule.parse("r3", "Holiday", "TvProgram", 0.7))
        with_extra_rule = scorer.score_map(world.program_ids)
        for program in baseline:
            assert with_extra_rule[program] == pytest.approx(baseline[program])

    def test_threshold_pruning_approximates(self, world):
        set_breakfast_weekend_context(world, breakfast_probability=0.05)
        exact_scorer = ContextAwareScorer(
            abox=world.abox, tbox=world.tbox, user=world.user,
            repository=world.repository, space=world.space,
        )
        pruned_scorer = ContextAwareScorer(
            abox=world.abox, tbox=world.tbox, user=world.user,
            repository=world.repository, space=world.space, rule_threshold=0.1,
        )
        exact = exact_scorer.score_map(world.program_ids)
        approximate = pruned_scorer.score_map(world.program_ids)
        # r2 (breakfast) is pruned; scores differ but only slightly for
        # documents with small r2 involvement.
        assert approximate["oprah"] != pytest.approx(exact["oprah"], abs=1e-12)
        assert approximate["oprah"] == pytest.approx(exact["oprah"], abs=0.05)

    def test_document_split_and_all_miss_score(self, world):
        problem = bind_problem(
            world.abox, world.tbox, world.user, world.repository,
            world.program_ids, world.space,
        )
        interesting, trivial = split_trivial_documents(problem)
        assert {d.document.name for d in trivial} == {"mpfs"}
        assert {d.document.name for d in interesting} == {"oprah", "bbc_news", "channel5_news"}
        assert all_miss_score(problem.bindings) == pytest.approx(0.2 * 0.1)

    def test_prune_report(self, scorer, world):
        scorer.score(world.program_ids)
        report = scorer.last_prune_report
        assert report is not None
        assert report.kept_rules == 2
        assert report.trivial_documents == 1
        assert report.scored_documents == 3

    def test_prune_documents_off_scores_everything(self, world):
        scorer = ContextAwareScorer(
            abox=world.abox, tbox=world.tbox, user=world.user,
            repository=world.repository, space=world.space, prune_documents=False,
        )
        scores = scorer.score_map(world.program_ids)
        assert scores["mpfs"] == pytest.approx(0.02)
        assert scorer.last_prune_report.trivial_documents == 0


class TestScorerFacade:
    def test_engine_ranks_every_target_member(self, scorer, world):
        # the "rank all TvPrograms" call: the target concept's members
        names = RankingEngine.from_world(world).rank().documents()
        assert names == [s.document for s in scorer.rank(scorer.member_names(world.target))]
        assert set(names) >= set(world.program_ids)
        assert names[0] == "channel5_news"

    def test_invalid_method_rejected(self, world):
        from repro.errors import ScoringError

        with pytest.raises(ScoringError):
            ContextAwareScorer(
                abox=world.abox, tbox=world.tbox, user=world.user,
                repository=world.repository, space=world.space, method="nope",
            )

    def test_score_order_follows_input(self, scorer, world):
        scores = scorer.score(["mpfs", "oprah"])
        assert [s.document for s in scores] == ["mpfs", "oprah"]


class TestExplanations:
    def test_explain_score_mentions_rules(self, scorer, world):
        ranked = scorer.rank(world.program_ids)
        text = explain_score(ranked[0], world.repository)
        assert "channel5_news" in text
        assert "r1" in text and "r2" in text
        assert "0.6006" in text

    def test_explain_ranking_lists_everything(self, scorer, world):
        ranked = scorer.rank(world.program_ids)
        text = explain_ranking(ranked, world.repository)
        for program in world.program_ids:
            assert program in text
        assert text.splitlines()[1].strip().startswith("1")

    def test_explain_trivial_document(self, scorer, world):
        ranked = scorer.rank(world.program_ids)
        mpfs = next(score for score in ranked if score.document == "mpfs")
        text = explain_score(mpfs, world.repository)
        assert "no applicable rule" in text

    def test_event_lineage_rendering(self, world):
        from repro.core import explain_document_events

        problem = bind_problem(
            world.abox, world.tbox, world.user, world.repository,
            world.program_ids, world.space,
        )
        text = explain_document_events(problem, "channel5_news")
        assert "genre:ch5:hi" in text
        assert "subject:ch5:weather" in text
