"""The carried and the shared context binding equal a private full bind.

A warm miss on the basis its engine last bound may carry the reuse
verdict and every rule binding its context delta cannot have moved
(:meth:`repro.engine.basis.ViewBasis.stale_rules`).  These tests replay
random install sequences on a flat engine and on ``TenantRegistry``
overlays over a shared base, on both kernel backends, and after every
rank compare against the full path on a fresh, private reasoner:
:meth:`ViewBasis.reusable_for` plus :func:`bind_rules` over all rules —
the bindings bit for bit, the kernel's ``coalesce_key``, the scored
view and the ranked cut — and the served scores against a cold,
non-incremental engine.

Rule contexts are atomic names, ``NOT`` / ``AND`` / ``OR`` of them, a
TBox-defined name, ``EXISTS knows.C`` and ``{u}`` / ``{s}``, over a
TBox with drawn subsumptions.  Deltas install contexts (the target's
own name among them), add role edges, assert on a document and on a
stranger, and swap the basis by growing the TBox.  The deterministic
cases below pin one carrying hazard each.

Herd mates share more: through a :class:`ScoredViewMemo`, a tenant
whose context is tenant-blind takes a mate's bound kernel, its scored
view and its ranked cut (:meth:`ViewBasis.share_slice`), and every
context install advances the tenant's reasoner session instead of
rebuilding it (:meth:`repro.reason.CompiledKB.session`).  The herd
tests below rank several tenants over one base — users the base knows
nothing about, one it asserts about, one it merely registers — from a
small pool of contexts so their slices collide, beside role edges and
static facts in single overlays, and check every answer the same way.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import bind_rules
from repro.core.kernel import score_values
from repro.dl import ABox, TBox
from repro.dl.concepts import Concept, atomic, complement, intersect, one_of, some, union
from repro.engine import EngineBuilder, RankRequest
from repro.engine.basis import shared_basis_pool
from repro.engine.engine import ScoredViewMemo, context_bind_counters, score_documents_batch
from repro.events import EventSpace
from repro.reason import CompiledKB, base_tier, clear_registry, session_counters
from repro.rules import PreferenceRule, RuleRepository
from repro.tenants import TenantRegistry

from tests.property.test_columnar_identity import BACKENDS, kernel_backend

#: More documents than VECTOR_MIN, so the numpy backend compiles vectors.
DOCUMENTS = 70
NAMES = ("C0", "C1", "C2", "C3")
GENRES = ("G0", "G1", "G2")
SIGMAS = (0.9, 0.2, 0.7, 0.4, 0.8, 0.6)
PREFERENCES = (
    atomic("TvProgram") & some("hasGenre", one_of("G0")),
    atomic("TvProgram") & some("hasGenre", one_of("G1")),
    atomic("TvProgram") & atomic("C2"),  # a document-side read of a context name
    atomic("TvProgram") & some("knows", atomic("C0")),  # reads whoever a document knows
)
TARGETS = {
    "plain": atomic("TvProgram"),
    "reads_context": union([atomic("TvProgram"), atomic("C3")]),
    "walks_role": atomic("TvProgram") & some("hasGenre", one_of(*GENRES)),
}
ROLE_EDGES = {"user_knows_stranger": ("u", "s"), "document_knows_user": ("d00", "u"),
              "stranger_knows_user": ("s", "u")}


@dataclass
class World:
    abox: ABox
    tbox: TBox
    space: EventSpace
    target: Concept
    repository: RuleRepository


def build_world(contexts, subsumptions=(), definition=None, target="plain"):
    """70 programs with genres, a stranger ``s``, users ``u`` and ``v``."""
    space, abox, tbox = EventSpace(), ABox(), TBox()
    for index in range(DOCUMENTS):
        document = f"d{index:02d}"
        abox.assert_concept("TvProgram", document)
        abox.assert_role(
            "hasGenre", document, GENRES[index % 3], space.atom(f"g{index}", 0.2 + index / 100)
        )
    abox.assert_concept("C1", "s", space.atom("s1", 0.6))
    abox.assert_role("knows", "d01", "s")
    for user in ("u", "v"):
        abox.register_individual(user)
    for sub, sup in subsumptions:
        tbox.add_subsumption(sub, sup)
    if definition is not None:
        tbox.define("D", definition)
    rules = [
        PreferenceRule(f"r{index}", context, PREFERENCES[index % len(PREFERENCES)],
                       SIGMAS[index % len(SIGMAS)])
        for index, context in enumerate(contexts)
    ]
    return World(abox, tbox, space, TARGETS[target], RuleRepository(rules))


def flat_engine(world):
    return (
        EngineBuilder().knowledge(world.abox, world.tbox, "u", world.space)
        .target(world.target).preferences(world.repository).build()
    )


def basis_of(engine):
    key = engine._basis_key()
    basis = engine._cache.basis_get(key)
    return basis if basis is not None else shared_basis_pool().get(key)


def check_rank(engine, specs=None, memo=None, top_k=None):
    """Rank once — through ``memo`` when given — and compare with the
    full path on a fresh, private reasoner: the binding, kernel, view
    and cut bit for bit, the served scores with a cold engine."""
    request = RankRequest(top_k=top_k)
    prepared = engine.prepare_rank(specs, request, memo=memo)
    private = CompiledKB(engine.abox, engine.tbox, engine.space)
    if prepared.kernel is not None:
        basis = basis_of(engine)
        assert basis.reusable_for(engine.abox, engine.tbox, engine.target, kb=private)
        reference = bind_rules(
            engine.abox, engine.tbox, engine.user, list(engine.preferences.repository()),
            engine.space, kb=private,
        )
        assert prepared.kernel.bindings == reference
        expected = basis.kernel.with_context(reference)
        assert prepared.kernel.coalesce_key == expected.coalesce_key
        if memo is not None:
            view = memo.execute(prepared)
        else:
            view = score_documents_batch(prepared.kernel, prepared.prune_documents)
        reference_view = expected.score_documents(prune_documents=engine.prune_documents)
        assert score_values(view) == score_values(reference_view)
        response = prepared.complete(view)
        cut = engine._combine_items(
            reference_view.column(), None, reference_view.names, top_k
        )
        assert list(response.items) == list(cut)
        served = response.scores()
    else:
        served = prepared.complete().scores()
    cold = (
        EngineBuilder().knowledge(engine.abox, engine.tbox, engine.user, engine.space)
        .target(engine.target).preferences(engine.preferences.repository())
        .reasoner(private).incremental(False).build()
    )
    assert served == pytest.approx(cold.rank(request).scores(), abs=1e-12)
    return prepared


def assert_dynamic(engine, action, argument):
    if action == "role":
        source, target = ROLE_EDGES[argument]
        engine.abox.assert_role("knows", source, target, dynamic=True)
    elif action == "document":
        engine.abox.assert_concept(argument, "d00", dynamic=True)
    else:  # "stranger"
        engine.abox.assert_concept(argument, "s", dynamic=True)


# -- strategies -------------------------------------------------------------
names = st.sampled_from(NAMES + ("D",)).map(atomic)
rule_contexts = st.one_of(
    names,
    names.map(complement),
    st.tuples(names, names).map(intersect),
    st.tuples(names, names).map(union),
    names.map(lambda name: some("knows", name)),
    st.sampled_from(["u", "s"]).map(one_of),
)
#: Subsumptions ``sub ⊑ sup`` down the name order: the TBox stays acyclic.
pairs = st.sampled_from(
    [(sub, sup) for index, sub in enumerate(NAMES) for sup in NAMES[index + 1:]]
)
specs = st.lists(
    st.tuples(
        st.sampled_from(NAMES * 4 + ("TvProgram",)), st.sampled_from(["", ":0.3", ":0.7"])
    ).map("".join),
    max_size=3,
)
DRAWS = {
    "install": specs,
    "role": st.sampled_from(sorted(ROLE_EDGES)),
    "document": st.sampled_from(NAMES),
    "stranger": st.sampled_from(NAMES),
    "swap": pairs,
}
#: Mostly installs, so most misses can carry; every other delta walks.
actions = st.sampled_from(["install"] * 8 + sorted(DRAWS)).flatmap(
    lambda kind: st.tuples(st.just(kind), DRAWS[kind])
)


@st.composite
def scenarios(draw):
    contexts = draw(st.lists(rule_contexts, min_size=2, max_size=6))
    subsumptions = draw(st.lists(pairs, max_size=3, unique=True))
    plain = st.sampled_from(NAMES).map(atomic)
    definition = draw(
        st.none()
        | st.tuples(plain, plain).map(lambda p: intersect([p[0], complement(p[1])]))
    )
    target = draw(st.sampled_from(["plain"] * 3 + sorted(TARGETS)))
    steps = draw(st.lists(actions, min_size=3, max_size=16))
    return contexts, subsumptions, definition, target, steps


def grow_tbox(world, pair):
    if not world.tbox.subsumes_name(pair[1], pair[0]):
        world.tbox.add_subsumption(*pair)


@pytest.fixture(autouse=True)
def fresh_registry():
    clear_registry()
    yield
    clear_registry()


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(scenario=scenarios())
def test_flat_engine_carry_matches_full_path(backend, scenario):
    contexts, subsumptions, definition, target, steps = scenario
    clear_registry()
    with kernel_backend(backend):
        world = build_world(contexts, subsumptions, definition, target)
        engine = flat_engine(world)
        check_rank(engine, ["C0"])
        for action, argument in steps:
            if action == "install":
                check_rank(engine, argument)
                continue
            if action == "swap":
                grow_tbox(world, argument)
            else:
                assert_dynamic(engine, action, argument)
            check_rank(engine)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(scenario=scenarios())
def test_tenant_overlays_carry_matches_full_path(backend, scenario):
    contexts, subsumptions, definition, target, steps = scenario
    clear_registry()
    with kernel_backend(backend):
        world = build_world(contexts, subsumptions, definition, target)
        registry = TenantRegistry(world, max_sessions=8)
        mine = registry.session("a", user="u").engine
        sibling = registry.session("b", user="v").engine
        check_rank(sibling, ["C1"])
        check_rank(mine, ["C0"])
        for action, argument in steps:
            if action == "install":
                check_rank(mine, argument)
                continue
            if action == "swap":
                # The sibling compiles the new basis first, so this
                # engine meets a different pooled basis with no cold
                # rank of its own in between.
                grow_tbox(world, argument)
                check_rank(sibling)
            else:
                assert_dynamic(mine, action, argument)
            check_rank(mine)


# -- one hazard each ----------------------------------------------------------
def carried_delta(before):
    after = context_bind_counters()
    return {key: after[key] - before[key] for key in after}


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_subsumed_name_re_binds_the_rule_reading_its_parent(backend):
    with kernel_backend(backend):
        world = build_world([atomic("C1"), atomic("C3")], subsumptions=[("C0", "C1")])
        engine = flat_engine(world)
        check_rank(engine)
        check_rank(engine, ["C2"])  # walks, seeds the carry
        before = context_bind_counters()
        check_rank(engine, ["C0:0.7"])  # C0 ⊑ C1: rule r0 moves
        moved = carried_delta(before)
        assert moved["verdicts_carried"] == 1 and moved["verdicts_walked"] == 0
        assert (moved["rules_rebound"], moved["rules_carried"]) == (1, 1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_target_name_on_the_user_is_walked(backend):
    with kernel_backend(backend):
        engine = flat_engine(build_world([atomic("C0"), atomic("C1")]))
        check_rank(engine)
        check_rank(engine, ["C0"])
        before = context_bind_counters()
        prepared = check_rank(engine, ["C0", "TvProgram:0.5"])  # the user joins the target
        assert prepared.kernel is None
        assert carried_delta(before)["verdicts_walked"] == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_role_edge_is_walked(backend):
    with kernel_backend(backend):
        engine = flat_engine(build_world([atomic("C0"), some("knows", atomic("C1"))]))
        check_rank(engine)
        check_rank(engine, ["C0"])
        engine.abox.assert_role("knows", "d00", "u", dynamic=True)
        before = context_bind_counters()
        prepared = check_rank(engine)  # a candidate now reaches the user
        assert prepared.kernel is None
        assert carried_delta(before)["verdicts_walked"] == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_basis_swap_drops_the_carried_binding(backend):
    with kernel_backend(backend):
        world = build_world([atomic("C1"), atomic("C3")])
        registry = TenantRegistry(world, max_sessions=8)
        mine = registry.session("a", user="u").engine
        sibling = registry.session("b", user="v").engine
        check_rank(sibling, ["C3"])
        check_rank(mine, ["C0"])  # walks the pooled basis, seeds the carry
        world.tbox.add_subsumption("C0", "C1")
        check_rank(sibling)  # pools the new basis
        before = context_bind_counters()
        prepared = check_rank(mine)  # same snapshot, new basis: C0 ⊑ C1 now
        assert prepared.kernel is not None
        assert carried_delta(before)["verdicts_walked"] == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_verdict_that_never_reached_the_user_is_not_carried(backend):
    # Both overlays empty: the sibling's basis is reusable with an empty
    # delta, which walked nothing that reaches the user; a candidate
    # that knows the user must still stop the next delta.
    with kernel_backend(backend):
        world = build_world([atomic("C0"), atomic("C1")])
        world.abox.assert_role("knows", "d00", "u")
        registry = TenantRegistry(world, max_sessions=8)
        sibling = registry.session("b", user="v").engine
        mine = registry.session("a", user="u").engine
        check_rank(sibling)
        assert check_rank(mine).kernel is not None  # empty delta: reusable
        assert mine._carried is None
        assert check_rank(mine, ["C0"]).kernel is None  # d00 reads u's C0


def test_invalidate_cache_drops_the_carried_binding():
    engine = flat_engine(build_world([atomic("C0"), atomic("C1")]))
    check_rank(engine)
    check_rank(engine, ["C0"])
    assert engine._carried is not None
    engine.invalidate_cache()
    assert engine._carried is None


def test_bind_counters_lose_no_update_across_threads():
    from repro.engine.engine import _BIND_COUNTS

    threads, adds = 6, 2000
    before = context_bind_counters()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def tally():
            for _ in range(adds):
                _BIND_COUNTS.add(1, 2, 1, 1)

        workers = [threading.Thread(target=tally) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
    moved = carried_delta(before)
    total = threads * adds
    assert moved == {
        "rules_rebound": total, "rules_carried": 2 * total,
        "verdicts_carried": total, "verdicts_walked": total,
    }


# -- herds: shared binds and advanced sessions -----------------------------
#: Contexts herd mates draw: few, so their slices collide.
POOL = ((), ("C0",), ("C1:0.3",), ("C0", "C2:0.7"), ("C3",), ("TvProgram:0.5",), ("D",))
#: Tenant users: three the base knows nothing about, ``s`` (the base
#: asserts ``C1(s)``) and ``u`` (registered in the base, no facts).
HERD_USERS = ("x", "y", "z", "s", "u")
#: A flat world's engines (one ABox, one reasoner, no shared bases).
FLAT_USERS = ("u", "v")


def herd_delta(engine, action, user):
    """One overlay's own change beside its context.

    ``w`` is an individual of this overlay alone, outside every
    candidate's support: edges to it and facts about it leave the
    tenant's reuse verdict standing while its role-walking rule
    contexts read them.
    """
    if action in ("edge", "static_edge"):  # the user knows w, who is C0 and C1
        engine.abox.assert_role("knows", user, "w", dynamic=action == "edge")
        for name in ("C0", "C1"):
            engine.abox.assert_concept(name, "w")
    elif action == "w_fact":  # a per-tenant static fact on w
        engine.abox.assert_concept("C2", "w")
    elif action == "reached":  # a candidate now reaches the user
        engine.abox.assert_role("knows", "d00", user, dynamic=True)
    elif action == "document_fact":  # a per-tenant static fact on a document
        engine.abox.assert_concept("C2", "d01")
    else:  # "user_fact": a static fact about the user, in its slice
        engine.abox.assert_concept("C1", user)


HERD_ACTIONS = ("edge", "static_edge", "w_fact", "reached", "document_fact", "user_fact")
ranks = st.tuples(
    st.just("rank"), st.integers(0, len(HERD_USERS) - 1),
    st.sampled_from(range(len(POOL))), st.sampled_from([None, 3]),
)
herd_steps = st.one_of(
    ranks,
    ranks,
    st.tuples(
        st.sampled_from(HERD_ACTIONS), st.integers(0, len(HERD_USERS) - 1),
        st.just(0), st.just(None),
    ),
)


@st.composite
def herds(draw):
    contexts = draw(st.lists(rule_contexts, min_size=2, max_size=5))
    subsumptions = draw(st.lists(pairs, max_size=2, unique=True))
    plain = st.sampled_from(NAMES).map(atomic)
    definition = draw(
        st.none()
        | st.tuples(plain, plain).map(lambda p: intersect([p[0], complement(p[1])]))
    )
    target = draw(st.sampled_from(["plain"] * 3 + sorted(TARGETS)))
    # Runs of ranks, so mates meet: mostly ranks, a few overlay deltas.
    steps = draw(st.lists(herd_steps, min_size=4, max_size=24))
    return contexts, subsumptions, definition, target, steps


@pytest.mark.parametrize("kind", ["overlay", "flat"])
@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(herd=herds())
def test_herd_shares_equal_a_private_bind(backend, kind, herd):
    contexts, subsumptions, definition, target, steps = herd
    clear_registry()
    with kernel_backend(backend):
        world = build_world(contexts, subsumptions, definition, target)
        memo = ScoredViewMemo()
        if kind == "overlay":
            registry = TenantRegistry(world, max_sessions=8)
            users = HERD_USERS
            engines = [registry.session(f"t{user}", user=user).engine for user in users]
        else:
            users = FLAT_USERS
            engines = [
                EngineBuilder().knowledge(world.abox, world.tbox, user, world.space)
                .target(world.target).preferences(world.repository).build()
                for user in users
            ]
        for engine in engines:  # the first binds see empty overlays
            check_rank(engine, memo=memo)
        for action, index, context, top_k in steps:
            engine = engines[index % len(engines)]
            if action == "rank":
                check_rank(engine, list(POOL[context]), memo, top_k)
            else:
                herd_delta(engine, action, users[index % len(users)])
                check_rank(engine, memo=memo)


@pytest.mark.parametrize("backend", BACKENDS)
def test_herd_mates_share_one_bind_and_one_cut(backend):
    with kernel_backend(backend):
        world = build_world([atomic("C0"), union([atomic("C1"), atomic("C2")])])
        registry = TenantRegistry(world, max_sessions=8)
        memo = ScoredViewMemo()
        first, mate, known = (
            registry.session(f"t{user}", user=user).engine for user in ("x", "y", "u")
        )
        for engine in (first, mate, known):
            check_rank(engine, ["C1"], memo)
        shared = memo.info()["binds_shared"]
        leader = check_rank(first, ["C0:0.7", "C2"], memo, 3)
        follower = check_rank(mate, ["C0:0.7", "C2"], memo, 3)
        assert memo.info()["binds_shared"] == shared + 1
        assert follower.kernel is leader.kernel
        assert follower.cuts is leader.cuts and len(leader.cuts) == 1
        # The base registers ``u``: its mate binds privately.
        assert check_rank(known, ["C0:0.7", "C2"], memo, 3).kernel is not leader.kernel
        assert memo.info()["binds_shared"] == shared + 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_role_walking_rule_is_never_shared(backend):
    with kernel_backend(backend):
        world = build_world([atomic("C0"), some("knows", atomic("C1"))])
        registry = TenantRegistry(world, max_sessions=8)
        memo = ScoredViewMemo()
        knower = registry.session("tx", user="x").engine
        knower.abox.assert_role("knows", "x", "w")  # per-tenant static facts
        knower.abox.assert_concept("C1", "w")
        stranger = registry.session("ty", user="y").engine
        for engine in (knower, stranger):
            check_rank(engine, ["C1"], memo)
        check_rank(knower, ["C0"], memo)
        check_rank(stranger, ["C0"], memo)
        assert memo.info()["binds_shared"] == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_user_the_base_asserts_about_is_never_shared(backend):
    with kernel_backend(backend):
        world = build_world([atomic("C0"), atomic("C1")])
        registry = TenantRegistry(world, max_sessions=8)
        memo = ScoredViewMemo()
        known = registry.session("ts", user="s").engine  # the base asserts C1(s)
        fresh = registry.session("tx", user="x").engine
        for engine in (known, fresh):
            check_rank(engine, ["C2"], memo)
        check_rank(fresh, ["C0"], memo)
        check_rank(known, ["C0"], memo)
        assert memo.info()["binds_shared"] == 0


def test_installs_advance_sessions_and_keep_memos_flat():
    world = build_world([atomic("C0"), union([atomic("C1"), atomic("C2")]), atomic("C3")])
    registry = TenantRegistry(world, max_sessions=8)
    memo = ScoredViewMemo()
    engines = [registry.session(f"t{user}", user=user).engine for user in ("x", "y")]
    for engine in engines:
        check_rank(engine, ["C0"], memo)
    tier = base_tier(registry.abox, registry.tbox, registry.space)
    space_events, base_probabilities = len(world.space), tier.memo_probabilities
    moved = session_counters()
    for step in range(300):
        context = [f"C0:0.{step + 100:04d}", f"C{1 + step % 3}:0.{step + 5000:04d}"]
        for engine in engines:
            prepared = engine.prepare_rank(context, RankRequest(top_k=3), memo=memo)
            prepared.complete(memo.execute(prepared))
            # one epoch's context atoms at most, never the stream's
            assert engine.kb.info().memo_probabilities <= 8
    assert len(world.space) == space_events
    assert tier.memo_probabilities == base_probabilities
    after = session_counters()
    assert after["sessions_rebuilt"] == moved["sessions_rebuilt"]
    assert after["sessions_advanced"] - moved["sessions_advanced"] >= 300
    assert memo.info()["binds_shared"] >= 300


def test_a_role_delta_rebuilds_the_session():
    world = build_world([atomic("C0"), some("knows", atomic("C1"))])
    registry = TenantRegistry(world, max_sessions=8)
    engine = registry.session("tx", user="x").engine
    memo = ScoredViewMemo()
    check_rank(engine, ["C0"], memo)
    first = engine.kb.session()
    check_rank(engine, ["C1"], memo)  # a concept delta: advanced
    advanced = engine.kb.session()
    assert advanced is not first and advanced.base is first.base
    assert advanced.reachability_maps() is first.reachability_maps()
    engine.abox.assert_role("knows", "d00", "x", dynamic=True)
    check_rank(engine, memo=memo)
    assert engine.kb.session().reachability_maps() is not first.reachability_maps()
    info = engine.kb.info()
    assert info.invalidations - info.advances == 1


def test_a_session_advanced_from_an_empty_overlay_reads_the_user():
    world = build_world([atomic("C0"), atomic("C1")])
    registry = TenantRegistry(world, max_sessions=8)
    memo = ScoredViewMemo()
    sibling = registry.session("ty", user="y").engine
    engine = registry.session("tx", user="x").engine
    check_rank(sibling, memo=memo)  # compiles the basis
    check_rank(engine, memo=memo)  # binds with nothing asserted about x
    assert engine.kb.session().affected_names() == frozenset()
    check_rank(engine, ["C0"], memo)  # advanced: x's events are its own now
    assert "x" in engine.kb.session().affected_names()
    assert engine.kb.info().advances == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_context_that_took_a_static_fact_along_is_not_a_cache_hit(backend):
    # A dynamic C1(s) merges into the static C1(s); clearing it drops
    # both, and the view cached before the merge (s a target member
    # through C1 ⊑ C3) must not answer the cleared state.
    with kernel_backend(backend):
        world = build_world([atomic("C0"), atomic("C0")], target="reads_context")
        engine = flat_engine(world)
        check_rank(engine, ["C0"])
        check_rank(engine, [])
        grow_tbox(world, ("C1", "C3"))
        check_rank(engine)
        assert_dynamic(engine, "stranger", "C1")
        check_rank(engine)
        assert "s" not in check_rank(engine, []).complete().scores()
