"""Context atoms are named by their content and owned by their session.

An uncertain context spec ``Concept:p`` is asserted under an independent
basic event named ``tick:Concept@p``.  The event is never registered in
the world's shared :class:`~repro.events.EventSpace`, and its
probabilities are memoised on the installing tenant's reasoner session,
so installs, ranks and ``POST /context`` leave every fleet-wide store
as they found it.
"""

from types import SimpleNamespace

import pytest

from repro.engine import RankingEngine
from repro.reason import clear_registry
from repro.service import RankingService
from repro.tenants import TenantRegistry
from repro.workloads import build_tvtouch


@pytest.fixture(autouse=True)
def fresh_registry():
    clear_registry()
    yield
    clear_registry()


def context_event(session, concept="Breakfast"):
    (assertion,) = [
        assertion
        for assertion in session.overlay.overlay_assertions()
        if assertion.concept.name == concept
    ]
    return assertion.event


def space_state(world):
    return len(world.space), world.space.revision


class TestContentNames:
    def test_one_probability_spelled_three_ways_is_one_atom(self):
        registry = TenantRegistry(build_tvtouch())
        alice = registry.session("alice", user="peter")
        bob = registry.session("bob", user="peter")
        atoms, signatures = [], []
        for session, spec in (
            (alice, "Breakfast:0.5"),
            (bob, "Breakfast:0.50"),
            (alice, "Breakfast:5e-1"),
        ):
            session.install_context("Weekend", spec, tick="svc")
            atoms.append(context_event(session))
            signatures.append(session.engine.context.signature())
        assert atoms[0].name == "svc:Breakfast@0.5"
        assert atoms[0].event.probability == 0.5
        assert atoms[1] is atoms[0] and atoms[2] is atoms[0]
        assert signatures[0] == signatures[1] == signatures[2]

    def test_negative_zero_names_the_zero_event(self):
        registry = TenantRegistry(build_tvtouch())
        session = registry.session("alice")
        session.install_context("Breakfast:-0.0")
        negative = context_event(session)
        session.install_context("Breakfast:0.0")
        assert negative.name == "ctx:Breakfast@0.0"
        assert context_event(session) is negative

    def test_another_probability_is_another_event(self):
        registry = TenantRegistry(build_tvtouch())
        session = registry.session("alice")
        session.install_context("Breakfast:0.7")
        first = context_event(session)
        session.install_context("Breakfast:0.4")
        assert context_event(session).name == "ctx:Breakfast@0.4"
        assert context_event(session) is not first


class TestSpaceUntouchedWhileServing:
    def test_engine_install_and_rank(self):
        world = build_tvtouch()
        before = space_state(world)
        engine = RankingEngine.from_world(world)
        for probability in ("0.7", "0.4", "0.7", "0.123456789"):
            engine.install_context("Weekend", f"Breakfast:{probability}", tick="svc")
            assert engine.rank().items
        assert space_state(world) == before

    def test_service_rank_and_post_context(self):
        world = build_tvtouch()
        service = RankingService(TenantRegistry(world))
        before = space_state(world)
        for index in range(10):
            response = service.rank(
                {
                    "tenant": [f"t{index % 3}"],
                    "context": ["Weekend", f"Breakfast:{0.05 + index / 20}"],
                    "top_k": ["3"],
                }
            )
            assert response.status == 200, response.body
            posted = service.install_context(f"t{index % 3}", [f"Breakfast:0.{index}1"])
            assert posted.status == 200, posted.body
        assert space_state(world) == before
        reasoner = service.metrics_snapshot()["reasoner"]
        assert reasoner["space_events"] == before[0]


class TestNoSpaceNeeded:
    def test_engine_without_a_space_ranks_uncertain_context(self):
        spaced = RankingEngine.from_world(build_tvtouch())
        world = build_tvtouch()
        bare = RankingEngine.from_world(
            SimpleNamespace(
                abox=world.abox,
                tbox=world.tbox,
                user=world.user,
                target=world.target,
                repository=world.repository,
            )
        )
        assert bare.space is None
        rankings = []
        for engine in (spaced, bare):
            engine.install_context("Weekend", "Breakfast:0.7")
            rankings.append(engine.rank().items)
        expected, got = rankings
        assert [item.document for item in got] == [item.document for item in expected]
        for mine, theirs in zip(got, expected):
            assert abs(mine.score - theirs.score) <= 1e-9, mine.document
