"""TenantRegistry / UserSession: the multi-tenant serving layer."""

import threading

import pytest

from repro.dl import ConceptName, Individual
from repro.engine import EngineBuilder, RankingEngine
from repro.errors import ABoxError, EngineConfigError
from repro.reason import base_tier, clear_registry
from repro.rules import RuleRepository, parse_rule
from repro.tenants import TenantRegistry, UserSession
from repro.workloads import (
    EXPECTED_TABLE1_SCORES,
    build_tvtouch,
    generate_population,
    sessions_for_population,
    set_breakfast_weekend_context,
)


RULE_P = "RULE p1: WHEN Weekend PREFER TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST} WITH 0.8"
RULE_M = "RULE m1: WHEN Breakfast PREFER TvProgram AND EXISTS hasSubject.NewsSubject WITH 0.9"


@pytest.fixture(autouse=True)
def fresh_registry():
    clear_registry()
    yield
    clear_registry()


@pytest.fixture()
def registry():
    return TenantRegistry(build_tvtouch(), max_sessions=64)


def repository(*lines):
    return RuleRepository([parse_rule(line) for line in lines])


class TestCheckout:
    def test_checkout_is_stable_and_counted(self, registry):
        alice = registry.session("alice")
        assert registry.session("alice") is alice
        info = registry.info()
        assert (info.minted, info.hits, info.active) == (1, 1, 1)
        assert "alice" in registry and len(registry) == 1

    def test_base_is_frozen_by_default(self, registry):
        with pytest.raises(ABoxError):
            registry.abox.assert_concept("X", "y")

    def test_lru_eviction_of_idle_sessions(self):
        registry = TenantRegistry(build_tvtouch(), max_sessions=2)
        registry.session("a")
        registry.session("b")
        registry.session("a")  # refresh a
        registry.session("c")  # evicts b
        assert "a" in registry and "c" in registry and "b" not in registry
        assert registry.info().evictions == 1

    def test_explicit_evict_and_clear(self, registry):
        registry.session("a")
        registry.session("b")
        assert registry.evict("a") and not registry.evict("a")
        assert registry.clear() == 1
        assert len(registry) == 0

    def test_session_carries_engine_and_overlay(self, registry):
        alice = registry.session("alice")
        assert isinstance(alice, UserSession)
        assert isinstance(alice.engine, RankingEngine)
        assert alice.overlay.base is registry.abox
        assert alice.user == Individual("alice")

    def test_rejects_worldless_base(self):
        with pytest.raises(EngineConfigError, match="abox"):
            TenantRegistry(object())

    def test_engine_options_apply_at_mint(self):
        registry = TenantRegistry(build_tvtouch(), method="enumeration")
        assert registry.session("a").engine.method == "enumeration"
        assert registry.session("b", method="exact").engine.method == "exact"

    def test_mint_does_not_copy_the_domain(self, registry, monkeypatch):
        from repro.dl.abox import ABox, LayeredABox

        copies = []

        def counted(cls):
            real = cls.individuals

            def individuals(box):
                copies.append(box)
                return real.fget(box)

            monkeypatch.setattr(cls, "individuals", property(individuals))

        counted(ABox)
        counted(LayeredABox)
        known = registry.session("peter", user="peter")  # a user the base knows
        fresh = registry.session("newcomer")
        assert copies == []
        assert Individual("peter") not in known.overlay.overlay_individuals()
        assert Individual("newcomer") in fresh.overlay.overlay_individuals()

    def test_rules_factory_per_tenant(self):
        def factory(tenant_id):
            return repository(RULE_P if tenant_id == "p" else RULE_M)

        registry = TenantRegistry(build_tvtouch(), rules=factory)
        assert registry.session("p").repository.rules[0].rule_id == "p1"
        assert registry.session("m").repository.rules[0].rule_id == "m1"


class TestIsolation:
    def test_context_never_leaks_to_siblings_or_base(self, registry):
        alice = registry.session("alice")
        bob = registry.session("bob")
        alice.install_context("Weekend", "Breakfast")
        weekend = ConceptName("Weekend")
        assert alice.overlay.concept_event(weekend, alice.user) is not None
        assert bob.overlay.concept_event(weekend, alice.user) is None
        assert registry.abox.concept_event(weekend, alice.user) is None
        # and the scores differ accordingly
        assert alice.preference_scores() != bob.preference_scores()

    def test_clear_context_leaves_base_untouched(self, registry):
        alice = registry.session("alice")
        alice.install_context("Weekend")
        base_len = len(registry.abox)
        assert alice.clear_context() == 1
        assert len(registry.abox) == base_len
        assert not alice.overlay.dynamic_assertions()

    def test_assert_fact_defaults_to_own_user(self, registry):
        alice = registry.session("alice")
        alice.assert_fact("Premium")
        assert alice.overlay.concept_event(ConceptName("Premium"), alice.user)

    def test_threaded_checkout_is_race_free(self):
        registry = TenantRegistry(build_tvtouch(), max_sessions=256)
        results: dict[int, list] = {}
        errors = []

        def worker(worker_id):
            try:
                local = []
                for index in range(40):
                    session = registry.session(f"tenant_{index % 8}")
                    session.install_context("Weekend")
                    local.append(session)
                results[worker_id] = local
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # same tenant id -> same session object across all threads
        by_tenant: dict[str, UserSession] = {}
        for sessions in results.values():
            for session in sessions:
                seen = by_tenant.setdefault(session.tenant_id, session)
                assert seen is session
        info = registry.info()
        assert info.minted == 8
        assert info.hits == 8 * 40 - 8


class TestPinning:
    def test_a_busy_registry_turns_every_non_blocking_checkout_away(self):
        """One lock: while another thread holds it (a mint, a sweep), the
        event loop's tries come back empty for every tenant, taking no
        pin, and succeed again once it is free."""
        registry = TenantRegistry(build_tvtouch(), max_sessions=64)
        tenants = [f"tenant_{index}" for index in range(16)]
        for tenant in tenants:
            registry.session(tenant)
        held, release = threading.Event(), threading.Event()

        def hold():
            with registry._lock:
                held.set()
                release.wait(timeout=10)

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        assert held.wait(timeout=10)
        try:
            for tenant in tenants:
                with registry.checkout(tenant, blocking=False) as session:
                    assert session is None
                with registry.resident(tenant) as session:
                    assert session is None
        finally:
            release.set()
            holder.join(timeout=10)
        assert not holder.is_alive()
        with registry.checkout("tenant_3", blocking=False) as session:
            assert session is registry.session("tenant_3") and session.pins == 1
        info = registry.info()
        assert (info.pinned, info.minted) == (0, 16)

    def test_pinned_session_is_never_an_lru_victim(self):
        registry = TenantRegistry(build_tvtouch(), max_sessions=1)
        with registry.checkout("pinned") as session:
            assert registry.info().pinned == 1
            other = registry.session("other")  # over capacity
            # The pinned session survived; the table overflowed or
            # evicted the unpinned newcomer — never the pinned one.
            assert "pinned" in registry
            assert session.pins == 1
            assert other is not session
        assert registry.info().pinned == 0
        # After release the table shrinks back to capacity.
        assert len(registry) == 1

    def test_unpinned_mint_survives_a_pinned_full_table(self):
        """An unpinned session() mint must not be the sweep's victim
        either: evicting the newcomer would make every checkout of
        that tenant a fresh mint (distinct objects, divergent state)."""
        registry = TenantRegistry(build_tvtouch(), max_sessions=1)
        with registry.checkout("a"):
            first = registry.session("b")
            second = registry.session("b")
            assert first is second  # linearisable despite the overflow
            assert "b" in registry
        assert len(registry) == 1  # shrinks back once the pin releases

    def test_a_mint_into_a_full_table_visits_what_it_evicts(self, monkeypatch):
        """The sweep walks oldest first and stops at its last victim: a
        pinned oldest session costs one extra visit, never a walk over
        all 1 024 residents."""
        from repro.perf import LRU

        visited = []
        items = LRU.items

        def counted(table):
            for tenant_id, session in items(table):
                if isinstance(session, UserSession):
                    visited.append(tenant_id)
                yield tenant_id, session

        monkeypatch.setattr(LRU, "items", counted)
        registry = TenantRegistry(build_tvtouch(), max_sessions=1024)
        with registry.checkout("tenant_0"):  # the oldest, and pinned
            for index in range(1, 1024):
                registry.session(f"tenant_{index}")
            assert visited == []  # no sweep while the table has room
            registry.session("newcomer")
            assert len(visited) <= 3, visited
            assert visited == ["tenant_0", "tenant_1"]
        assert "tenant_0" in registry and "tenant_1" not in registry
        assert len(registry) == 1024

    def test_mint_under_pressure_pins_before_the_capacity_sweep(self):
        """A just-minted pinned session must not be the sweep's victim:
        on a table full of pinned sessions it stays there, or a
        concurrent checkout of the same tenant would mint a second
        live session."""
        registry = TenantRegistry(build_tvtouch(), max_sessions=1)
        with registry.checkout("a"):
            with registry.checkout("b") as b:
                assert "b" in registry  # pinned before eviction ran
                assert registry.session("b") is b  # still linearisable
        assert len(registry) == 1  # shrinks back once pins release

    def test_explicit_evict_of_pinned_session_is_deferred(self):
        registry = TenantRegistry(build_tvtouch(), max_sessions=8)
        with registry.checkout("alice") as session:
            session.install_context("Weekend", "Breakfast")
            assert registry.evict("alice")
            # Gone from the table: a new checkout mints a *fresh* session...
            fresh = registry.session("alice")
            assert fresh is not session
            # ...but the in-flight holder still ranks on a live overlay.
            scores = session.preference_scores()
            assert scores["channel5_news"] == pytest.approx(0.6006, abs=1e-9)

    def test_checkout_mints_and_counts_like_session(self):
        registry = TenantRegistry(build_tvtouch(), max_sessions=16)
        with registry.checkout("alice") as alice:
            assert isinstance(alice, UserSession)
        assert registry.session("alice") is alice
        info = registry.info()
        assert (info.minted, info.hits) == (1, 1)

    def test_concurrent_checkout_is_consistent(self):
        registry = TenantRegistry(build_tvtouch(), max_sessions=256)
        errors = []
        infos = []

        def worker(worker_id):
            try:
                for index in range(50):
                    with registry.checkout(f"tenant_{(worker_id + index) % 16}") as s:
                        assert s.pins >= 1
                    infos.append(registry.info())
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        final = registry.info()
        assert final.minted == 16
        assert final.hits == 8 * 50 - 16
        assert final.pinned == 0
        # Every mid-flight snapshot was arithmetically sane.
        for info in infos:
            assert info.active <= 16
            assert info.minted + info.hits <= 8 * 50

    def test_max_sessions_bounds_the_whole_registry_exactly(self):
        registry = TenantRegistry(build_tvtouch(), max_sessions=3)
        for index in range(20):
            registry.session(f"tenant_{index}")
        # One table, one LRU order: exactly the three most recent.
        assert list(registry) == ["tenant_17", "tenant_18", "tenant_19"]
        assert registry.info().evictions == 17

    def test_shared_basis_pool_bound_is_exact(self):
        from repro.engine.basis import ViewBasis
        from repro.perf import LRU

        pool = LRU(max_entries=4)
        for index in range(20):
            pool.put(("key", index), ViewBasis(kernel=None, snapshot=frozenset()))
            if index == 16:
                assert pool.get(("key", 13)) is not None  # the LRU refresh
        assert len(pool) == 4
        assert pool.get(("key", 13)) is not None and pool.get(("key", 19)) is not None
        assert pool.get(("key", 14)) is None  # the least recent was evicted
        assert (pool.hits, pool.misses) == (3, 1)


class TestSharing:
    def test_sessions_share_one_base_tier(self, registry):
        alice = registry.session("alice")
        bob = registry.session("bob")
        alice.install_context("Weekend")
        alice.preference_scores()
        bob.preference_scores()
        tier = base_tier(registry.abox, registry.tbox, registry.space)
        assert alice.engine.kb.session().base is tier
        assert bob.engine.kb.session().base is tier
        assert alice.engine.reasoner_info().shared_base
        # the static world was reasoned once: both tenants read the base
        # tier's own columns, not copies
        target = alice.engine.target
        assert alice.engine.kb.column(target) is tier.column(target)
        assert bob.engine.kb.column(target) is tier.column(target)

    def test_context_change_keeps_base_tier_warm(self, registry):
        alice = registry.session("alice")
        alice.install_context("Weekend")
        alice.preference_scores()
        tier = base_tier(registry.abox, registry.tbox, registry.space)
        warm = dict(tier._columns)
        assert warm
        alice.install_context("Breakfast")
        alice.preference_scores()
        assert base_tier(registry.abox, registry.tbox, registry.space) is tier
        assert all(tier._columns[concept] is column for concept, column in warm.items())


class TestScoreAgreement:
    def test_overlay_scores_match_private_world_exactly(self):
        # Private path: the classic single-user world with the paper's
        # context installed directly into the (only) ABox.
        private_world = build_tvtouch()
        set_breakfast_weekend_context(private_world)
        private = RankingEngine.from_world(private_world)
        private_scores = private.preference_scores()

        # Tenant path: same static world, same rules, but the context
        # lives in alice's overlay over a frozen base.
        registry = TenantRegistry(build_tvtouch())
        alice = registry.session("alice", user="peter")
        alice.install_context("Weekend", "Breakfast")
        overlay_scores = alice.preference_scores()

        assert set(private_scores) == set(overlay_scores)
        for document, expected in private_scores.items():
            assert overlay_scores[document] == pytest.approx(expected, abs=1e-9)
        for document, expected in EXPECTED_TABLE1_SCORES.items():
            assert overlay_scores[document] == pytest.approx(expected, abs=1e-9)

    def test_population_sessions_rank_like_private_scorers(self):
        contexts, genres = ["Weekend", "Breakfast"], ["HUMAN-INTEREST"]
        population = generate_population(contexts, genres, size=3, rules_per_user=1)

        registry = TenantRegistry(build_tvtouch())
        sessions = sessions_for_population(registry, population)
        assert sorted(sessions) == [user.name for user in population]
        for user in population:
            session = sessions[user.name]
            session.install_context(*contexts)
            private_world = build_tvtouch()
            set_breakfast_weekend_context(private_world)
            private = RankingEngine.from_world(private_world, rules=user.repository)
            expected = private.preference_scores()
            actual = session.preference_scores()
            for document, value in expected.items():
                assert actual[document] == pytest.approx(value, abs=1e-9)


class TestSharedBasisPool:
    def test_sibling_tenant_rescoring_reuses_the_compiled_basis(self):
        from repro.engine import shared_basis_pool

        registry = TenantRegistry(build_tvtouch())
        pool = shared_basis_pool()
        pool.clear()

        alice = registry.session("alice")
        alice.install_context("Weekend", "Breakfast")
        alice_scores = alice.preference_scores()  # cold bind -> pool put
        assert len(pool) == 1

        bob = registry.session("bob")
        bob.install_context("Weekend")  # different context, same statics
        hits_before = pool.hits
        bob_scores = bob.preference_scores()
        # bob's very first request rescored on alice's compiled matrix
        assert pool.hits == hits_before + 1
        assert bob.engine.cache_info().context_refreshes == 1
        assert bob.engine.cache_info().misses == 1

        # and the pooled fast path is score-identical to a private world
        private_world = build_tvtouch()
        set_breakfast_weekend_context(private_world, breakfast_probability=0.0)
        private_world.abox.clear_dynamic()
        private_world.abox.assert_concept("Weekend", private_world.user, dynamic=True)
        private = RankingEngine.from_world(private_world)
        for document, value in private.preference_scores().items():
            assert bob_scores[document] == pytest.approx(value, abs=1e-9)
        assert alice_scores["channel5_news"] == pytest.approx(0.6006, abs=1e-9)

    def test_pool_never_aliases_distinct_tboxes_at_equal_revision(self):
        # Two registries share one frozen base ABox but carry different
        # TBoxes, both at revision 0: the pool key must separate them.
        from types import SimpleNamespace

        from repro.dl import TBox
        from repro.engine import shared_basis_pool
        from repro.workloads import build_tvtouch as build

        shared_basis_pool().clear()
        world = build()
        plain_tbox = TBox()  # no WeatherBulletin ⊑ NewsSubject axiom
        plain_tbox.add_subsumption("Unrelated1", "UnrelatedTop")
        plain_tbox.add_subsumption("Unrelated2", "UnrelatedTop")
        assert plain_tbox.revision == world.tbox.revision
        with_axioms = TenantRegistry(world)
        without_axioms = TenantRegistry(
            SimpleNamespace(
                abox=world.abox,
                tbox=plain_tbox,
                space=world.space,
                target=world.target,
                repository=world.repository,
            ),
        )
        alice = with_axioms.session("alice")
        alice.install_context("Weekend", "Breakfast")
        taxonomic = alice.preference_scores()["bbc_news"]
        bob = without_axioms.session("bob")
        bob.install_context("Weekend", "Breakfast")
        plain = bob.preference_scores()["bbc_news"]
        # Without the subsumption, bbc_news' weather bulletin no longer
        # counts as news: had bob reused alice's pooled basis the two
        # values would wrongly coincide.
        assert taxonomic == pytest.approx(0.18, abs=1e-9)
        assert plain == pytest.approx(0.02, abs=1e-9)

    def test_overlay_static_fact_blocks_unsafe_reuse(self):
        from repro.engine import shared_basis_pool

        registry = TenantRegistry(build_tvtouch())
        pool = shared_basis_pool()
        pool.clear()

        alice = registry.session("alice")
        alice.install_context("Weekend", "Breakfast")
        alice.preference_scores()

        # carol's overlay rewires a shared document: reuse must refuse.
        carol = registry.session("carol")
        carol.overlay.assert_role(
            "hasGenre", "mpfs", "HUMAN-INTEREST", registry.space.atom("g:mpfs", 0.9)
        )
        carol.install_context("Weekend", "Breakfast")
        carol_scores = carol.preference_scores()
        assert carol.engine.cache_info().context_refreshes == 0  # cold bind
        assert carol_scores["mpfs"] > alice.preference_scores()["mpfs"]


class TestBuilderDuckTyping:
    def test_builder_accepts_a_user_session(self, registry):
        alice = registry.session("alice")
        alice.install_context("Weekend", "Breakfast")
        engine = EngineBuilder().world(alice).build()
        scores = engine.preference_scores()
        assert scores["channel5_news"] == pytest.approx(0.6006, abs=1e-9)

    def test_builder_accepts_a_bare_overlay_pair(self, registry):
        class OverlayWorld:
            def __init__(self, overlay, base):
                self.overlay = overlay
                self.base = base

        world = OverlayWorld(registry.abox.overlay(), registry.world)
        engine = EngineBuilder().world(world).build()
        assert engine.abox is world.overlay

    def test_overlay_pair_missing_tbox_names_the_gap(self):
        class Bare:
            pass

        base = build_tvtouch()
        bare = Bare()
        bare.overlay = base.abox.overlay()
        bare.base = object()
        with pytest.raises(EngineConfigError, match="tbox"):
            EngineBuilder().world(bare)

    def test_plain_world_error_hints_at_tenant_registry(self):
        with pytest.raises(EngineConfigError, match="TenantRegistry"):
            EngineBuilder().world(object())
