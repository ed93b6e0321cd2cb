"""Incremental context rescoring through the engine's basis cache."""

import pytest

from repro.engine import RankingEngine
from repro.engine.basis import build_view_basis, dynamic_snapshot, support_closure
from repro.rules import PreferenceRule
from repro.workloads import build_tvtouch, set_breakfast_weekend_context


@pytest.fixture()
def world():
    world = build_tvtouch()
    set_breakfast_weekend_context(world)
    return world


@pytest.fixture()
def engine(world):
    return RankingEngine.from_world(world)


def fresh_scores(world):
    """The ground truth: a brand-new non-incremental engine."""
    cold = RankingEngine.from_world(world, incremental=False)
    return cold.rank().scores()


class TestIncrementalRefresh:
    def test_context_flip_served_from_basis(self, engine, world):
        engine.rank()
        assert engine.cache_info().bases == 1
        set_breakfast_weekend_context(world, weekend_probability=0.7, tick="t2")
        response = engine.rank()
        assert not response.from_cache
        info = engine.cache_info()
        assert info.context_refreshes == 1
        assert response.scores() == pytest.approx(fresh_scores(world))

    def test_repeated_flips_keep_rescoring_incrementally(self, engine, world):
        engine.rank()
        for index, probability in enumerate((0.9, 0.5, 0.3)):
            set_breakfast_weekend_context(
                world, weekend_probability=probability, tick=f"t{index}"
            )
            response = engine.rank()
            assert response.scores() == pytest.approx(fresh_scores(world))
        assert engine.cache_info().context_refreshes == 3

    def test_flip_back_is_a_plain_cache_hit(self, engine, world):
        baseline = engine.rank()
        set_breakfast_weekend_context(world, weekend_probability=0.7, tick="t2")
        engine.rank()
        set_breakfast_weekend_context(world)
        restored = engine.rank()
        assert restored.from_cache
        assert restored.scores() == pytest.approx(baseline.scores())

    def test_explanations_survive_the_incremental_path(self, engine, world):
        engine.rank()
        set_breakfast_weekend_context(world, weekend_probability=0.7, tick="t2")
        text = engine.explain("channel5_news")
        assert "r1" in text and "r2" in text

    def test_disabled_incremental_never_uses_a_basis(self, world):
        engine = RankingEngine.from_world(world, incremental=False)
        engine.rank()
        set_breakfast_weekend_context(world, weekend_probability=0.7, tick="t2")
        engine.rank()
        info = engine.cache_info()
        assert info.context_refreshes == 0
        assert info.bases == 0

    def test_invalidate_drops_bases_too(self, engine):
        engine.rank()
        assert engine.cache_info().bases == 1
        engine.invalidate_cache()
        assert engine.cache_info().bases == 0


class TestGuardFallsBackCold:
    def test_rule_change_misses_the_basis(self, engine, world):
        engine.rank()
        world.repository.add(PreferenceRule.parse("r3", "Weekend", "TvProgram", 0.5))
        response = engine.rank()
        assert engine.cache_info().context_refreshes == 0
        assert response.scores() == pytest.approx(fresh_scores(world))

    def test_static_change_misses_the_basis(self, engine, world):
        engine.rank()
        world.abox.assert_concept("TvProgram", "late_night_show")
        response = engine.rank()
        assert engine.cache_info().context_refreshes == 0
        assert "late_night_show" in response.scores()

    def test_dynamic_assertion_on_a_document_forces_cold(self, engine, world):
        engine.rank()
        # Touching a candidate dynamically may change its events — the
        # delta guard must refuse to reuse the compiled matrix.
        world.abox.assert_concept("Promoted", "oprah", dynamic=True)
        response = engine.rank()
        assert engine.cache_info().context_refreshes == 0
        assert response.scores() == pytest.approx(fresh_scores(world))

    def test_dynamic_target_member_forces_cold(self, engine, world):
        engine.rank()
        # A dynamic assertion that *adds* a target member: the view
        # gains a document, so the basis cannot be reused.
        world.abox.assert_concept("TvProgram", "popup_show", dynamic=True)
        response = engine.rank()
        assert engine.cache_info().context_refreshes == 0
        assert "popup_show" in response.scores()


class TestBasisInternals:
    def test_support_closure_follows_roles(self, world):
        support = support_closure(world.abox, ["channel5_news"])
        assert "channel5_news" in support
        assert "HUMAN-INTEREST" in support  # via hasGenre
        assert world.user.name not in support

    def test_dynamic_snapshot_diffs_context_changes(self, world):
        before = dynamic_snapshot(world.abox)
        set_breakfast_weekend_context(world, weekend_probability=0.7, tick="t2")
        after = dynamic_snapshot(world.abox)
        delta = before ^ after
        assert delta
        touched = {
            assertion.individual.name
            for assertion in delta
            if hasattr(assertion, "individual")
        }
        assert touched == {world.user.name}

    def test_reusable_for_accepts_user_only_deltas(self, engine, world):
        engine.rank()
        kernel = engine._scorer.last_kernel
        basis = build_view_basis(world.abox, kernel)
        set_breakfast_weekend_context(world, weekend_probability=0.7, tick="t2")
        assert basis.reusable_for(world.abox, world.tbox, engine.target)

    def test_reusable_for_rejects_document_deltas(self, engine, world):
        engine.rank()
        basis = build_view_basis(world.abox, engine._scorer.last_kernel)
        world.abox.assert_concept("Promoted", "bbc_news", dynamic=True)
        assert not basis.reusable_for(world.abox, world.tbox, engine.target)


class TestEngineTopK:
    def test_engine_rank_top_k_matches_view_ranking(self, engine, world):
        full = engine.rank()
        top = engine.rank_top_k(2)
        assert [score.document for score in top] == full.documents()[:2]

    def test_engine_rank_top_k_with_explicit_documents(self, engine, world):
        top = engine.rank_top_k(1, documents=world.program_ids)
        assert [score.document for score in top] == ["channel5_news"]

    def test_view_rank_top_k(self, engine):
        top = engine.view.rank_top_k(2)
        assert [score.document for score in top][:1] == ["channel5_news"]


class TestSupportClosureMemo:
    """``ViewBasis.reusable_for`` walks the candidates' support closure
    once per frozen base map; the answer must be the unmemoised one."""

    @staticmethod
    def unmemoised(basis, abox, target, kb):
        """``reusable_for`` as it was before the memo: both closures
        re-walked on every call."""
        from repro.engine.basis import (
            _reverse_reachable,
            _touched_names,
            dynamic_snapshot,
            support_closure,
        )

        delta = basis.snapshot ^ dynamic_snapshot(abox)
        if not delta:
            return True
        forward, reverse = kb.session().reachability_maps()
        affected = _reverse_reachable(abox, _touched_names(delta), reverse)
        if affected & support_closure(abox, basis.kernel.names, forward):
            return False
        return all(kb.membership_event(name, target).is_impossible for name in affected)

    def test_memoised_guard_agrees_over_random_overlays(self):
        import random

        from repro.engine.basis import shared_basis_pool
        from repro.tenants import TenantRegistry

        rng = random.Random(2024)
        registry = TenantRegistry(build_tvtouch())
        with registry.checkout("seed") as session:
            session.rank()  # compiles and pools the shared basis
            key = session.engine._basis_key()
        basis = shared_basis_pool().get(key)
        assert basis is not None
        programs = list(basis.kernel.names)
        genres = ["HUMAN-INTEREST", "NEWS", "fresh_genre"]
        verdicts, walked = [], 0
        for trial in range(60):
            with registry.checkout(f"tenant_{trial}") as session:
                overlay, user = session.overlay, session.user
                for _ in range(rng.randrange(0, 3)):
                    overlay.assert_concept(rng.choice(["Weekend", "Breakfast"]), user, dynamic=True)
                with_roles = trial % 2 == 1
                if with_roles:  # overlay role edges: the memo must step aside
                    for _ in range(rng.randrange(1, 3)):
                        source = rng.choice([user.name, rng.choice(programs), "fresh_thing"])
                        target = rng.choice(programs + genres + [user.name])
                        overlay.assert_role(rng.choice(["hasGenre", "watches"]), source, target,
                                            dynamic=True)
                if rng.random() < 0.3:
                    overlay.assert_concept("Promoted", rng.choice(programs), dynamic=True)
                engine = session.engine
                forward, _reverse = engine.kb.session().reachability_maps()
                assert (forward.frozen_base is None) == with_roles
                before = basis._support_memo
                got = basis.reusable_for(overlay, engine.tbox, engine.target, kb=engine.kb)
                walked += basis._support_memo is not before
                assert got == self.unmemoised(basis, overlay, engine.target, engine.kb), trial
                verdicts.append(got)
        assert True in verdicts and False in verdicts
        assert walked == 1  # one frozen base map, one walk, however many tenants

    def test_the_memo_is_keyed_on_the_base_map_object(self):
        from repro.engine.basis import ViewBasis
        from repro.reason.kb import _ChainedMap

        world = build_tvtouch()
        engine = RankingEngine.from_world(world)
        engine.rank()
        basis = ViewBasis(kernel=engine._scorer.last_kernel, snapshot=frozenset())
        one = {"oprah": ["HUMAN-INTEREST"]}
        other = {"oprah": ["NEWS"], "NEWS": ["anywhere"]}
        first = basis._support(world.abox, _ChainedMap(one, {}))
        assert "HUMAN-INTEREST" in first and "NEWS" not in first
        assert basis._support(world.abox, _ChainedMap(one, {})) is first  # same map: no walk
        second = basis._support(world.abox, _ChainedMap(other, {}))
        assert {"NEWS", "anywhere"} <= second and "HUMAN-INTEREST" not in second
        # overlay edges, a plain dict, no map at all: never memoised
        chained = basis._support(world.abox, _ChainedMap(one, {"HUMAN-INTEREST": ["deeper"]}))
        assert "deeper" in chained
        assert basis._support(world.abox, one) == first
        assert basis._support_memo[0] is other
