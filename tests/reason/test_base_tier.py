"""The shared base tier behind overlay-backed CompiledKBs."""

import pytest

from repro.dl import ABox, TBox, parse_concept
from repro.dl.instances import membership_event
from repro.events import EventSpace
from repro.reason import CompiledKB, base_tier, clear_registry
from repro.workloads import build_tvtouch


@pytest.fixture(autouse=True)
def fresh_registry():
    clear_registry()
    yield
    clear_registry()


@pytest.fixture()
def world():
    world = build_tvtouch()
    world.abox.freeze()
    return world


def overlay_kb(world):
    overlay = world.abox.overlay()
    return overlay, CompiledKB(overlay, world.tbox, world.space)


class TestTierIdentity:
    def test_overlay_sessions_share_one_base_tier(self, world):
        _o1, kb1 = overlay_kb(world)
        _o2, kb2 = overlay_kb(world)
        tier = base_tier(world.abox, world.tbox, world.space)
        assert kb1.session().base is tier
        assert kb2.session().base is tier

    def test_overlay_epoch_move_keeps_the_tier_warm(self, world):
        overlay, kb = overlay_kb(world)
        target = parse_concept("TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST}")
        kb.membership_event("oprah", target)
        tier = base_tier(world.abox, world.tbox, world.space)
        warm = len(tier._events)
        assert warm > 0
        overlay.assert_concept("Weekend", "alice", dynamic=True)  # new overlay epoch
        session = kb.session()
        assert session.base is tier
        assert len(tier._events) >= warm
        assert kb.info().invalidations == 1

    def test_tbox_change_rebuilds_the_tier(self, world):
        _overlay, kb = overlay_kb(world)
        first = kb.session().base
        world.tbox.add_subsumption("Show", "TvProgram")
        assert kb.session().base is not first

    def test_flat_kb_has_no_base(self, world):
        kb = CompiledKB(world.abox, world.tbox, world.space)
        assert kb.session().base is None
        assert not kb.info().shared_base


class TestDelegationSoundness:
    TARGETS = [
        "TvProgram",
        "TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST}",
        "TvProgram AND EXISTS hasSubject.NewsSubject",
        "NOT (EXISTS hasSubject.NewsSubject)",
    ]

    def documents(self, world):
        return world.program_ids + ["peter"]

    def assert_matches_reference(self, kb, overlay, tbox, concepts, names):
        for text in concepts:
            concept = parse_concept(text)
            for name in names:
                compiled = kb.membership_event(name, concept)
                reference = membership_event(overlay, tbox, name, concept)
                assert str(compiled) == str(reference), (text, name)

    def test_untouched_overlay_matches_reference(self, world):
        overlay, kb = overlay_kb(world)
        self.assert_matches_reference(
            kb, overlay, world.tbox, self.TARGETS, self.documents(world)
        )
        assert kb.session().base_events > 0  # everything delegated

    def test_context_only_overlay_matches_reference(self, world):
        overlay, kb = overlay_kb(world)
        overlay.assert_concept("Weekend", "peter", dynamic=True)
        self.assert_matches_reference(
            kb, overlay, world.tbox, self.TARGETS + ["Weekend"], self.documents(world)
        )

    def test_overlay_touching_shared_documents_matches_reference(self, world):
        # The overlay rewires a *shared* individual: oprah gains a news
        # subject.  oprah joins the affected set and must be answered
        # locally; untouched documents still delegate.
        overlay, kb = overlay_kb(world)
        overlay.assert_role(
            "hasSubject", "oprah", "WEATHER-BULLETIN", world.space.atom("s:oprah", 0.4)
        )
        self.assert_matches_reference(
            kb, overlay, world.tbox, self.TARGETS, self.documents(world)
        )
        session = kb.session()
        # oprah is touched directly; bbc_news and channel5_news reach
        # the touched WEATHER-BULLETIN through hasSubject, so the
        # conservative guard pulls them in too; mpfs has no edges.
        assert {"oprah", "bbc_news"} <= session.affected_names()
        assert "mpfs" not in session.affected_names()

    def test_affected_set_expands_through_reverse_reachability(self, world):
        # Touching a *target* individual (the genre) affects everything
        # that can reach it: both programs pointing at HUMAN-INTEREST.
        overlay, kb = overlay_kb(world)
        overlay.assert_concept("Trending", "HUMAN-INTEREST")
        affected = kb.session().affected_names()
        assert {"HUMAN-INTEREST", "oprah", "channel5_news"} <= affected
        assert "bbc_news" not in affected
        self.assert_matches_reference(
            kb,
            overlay,
            world.tbox,
            ["TvProgram AND EXISTS hasGenre.Trending"],
            self.documents(world),
        )

    def test_probabilities_match_and_share_the_tier_memo(self, world):
        overlay1, kb1 = overlay_kb(world)
        overlay2, kb2 = overlay_kb(world)
        concept = parse_concept("TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST}")
        p1 = kb1.membership_probability("channel5_news", concept)
        tier = base_tier(world.abox, world.tbox, world.space)
        memo = len(tier._probabilities)
        p2 = kb2.membership_probability("channel5_news", concept)
        assert p1 == pytest.approx(0.95, abs=1e-9)
        assert p2 == p1
        assert len(tier._probabilities) == memo  # second tenant was a memo hit

    def test_context_installs_do_not_grow_the_tier_memo(self, world):
        from repro.tenants import TenantRegistry

        session = TenantRegistry(world).session("alice")
        session.install_context("Weekend", "Breakfast:0.7")
        session.rank()  # prices the static events once
        tier = base_tier(world.abox, world.tbox, world.space)
        memo = tier.memo_probabilities
        for probability in ("0.1", "0.2", "0.3", "0.7"):
            session.install_context("Weekend", f"Breakfast:{probability}")
            session.rank()
            # The context probabilities are the overlay session's.
            assert session.engine.kb.info().memo_probabilities > 0
        assert tier.memo_probabilities == memo

    def test_retrieval_over_overlay_matches_reference(self, world):
        overlay, kb = overlay_kb(world)
        overlay.assert_concept("TvProgram", "webcast")
        retrieved = kb.retrieve(parse_concept("TvProgram"))
        names = sorted(individual.name for individual in retrieved)
        assert names == sorted(world.program_ids + ["webcast"])


class TestNestedOverlays:
    def test_chain_builds_stacked_tiers(self, world):
        team = world.abox.overlay()
        team.assert_concept("TeamEvent", "room1", dynamic=True)
        user = team.overlay()
        user.assert_concept("Weekend", "alice", dynamic=True)
        kb = CompiledKB(user, world.tbox, world.space)
        session = kb.session()
        assert session.base is base_tier(team, world.tbox, world.space)
        assert session.base.base is base_tier(world.abox, world.tbox, world.space)
        concept = parse_concept("TeamEvent")
        assert not kb.membership_event("room1", concept).is_impossible
        reference = membership_event(user, world.tbox, "room1", concept)
        assert str(kb.membership_event("room1", concept)) == str(reference)
