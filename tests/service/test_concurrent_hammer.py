"""Concurrency hammers for the serving refactor.

Two levels of attack:

* **Engine hammer** — many threads churn context and rank on *one*
  engine.  Without the per-engine rank lock this corrupts in several
  ways: the context signature is rendered while another thread mutates
  the overlay (``RuntimeError: set changed size during iteration``), or
  a half-installed context is scored and memoized under a stale
  signature (cache poisoning: a wrong score map served forever after).
  The test asserts every returned score map is *exactly* one of the
  single-threaded reference maps — the atomicity contract the service
  pipeline relies on.

* **Fleet stress** — ≥8 threads rank across sibling tenants over the
  registry's one session table with per-request context churn, and every observed
  score map must match the single-threaded reference for that tenant's
  installed context to 1e-9.  This exercises the shared machinery
  (basis pool, compiled-KB base tier, Shannon memo, interning) under
  real contention.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import RankingEngine, shared_basis_pool
from repro.reason import clear_registry
from repro.tenants import TenantRegistry
from repro.workloads import build_tvtouch

#: Filler concepts widen the install window (more assertions per
#: install) without touching any rule, which makes the pre-lock race
#: reliably observable: two overlapping installs double-collect the
#: dynamic assertions and the second ``del`` raises
#: ``KeyError(Individual('peter'))``.
FILLER = tuple(f"Filler{index}" for index in range(10))

#: Distinct context menus the hammer flips between.  All certain
#: concepts: the point is the *engine's* atomicity, not context atoms
#: (uncertain specs are covered by the fleet stress).
CONTEXTS = (
    ("Weekend",) + FILLER,
    ("Breakfast",) + FILLER,
    ("Weekend", "Breakfast") + FILLER,
    FILLER,
)

THREADS = 8
ROUNDS = 300


@pytest.fixture(autouse=True)
def fresh_world_state():
    clear_registry()
    shared_basis_pool().clear()
    yield
    clear_registry()
    shared_basis_pool().clear()


@pytest.fixture(autouse=True)
def aggressive_gil_switching():
    """Force frequent thread switches so races cannot hide in long
    GIL quanta — this is what makes the pre-lock failure reproducible
    on every run instead of one in three."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(5e-6)
    yield
    sys.setswitchinterval(previous)


def reference_maps(make_engine):
    """Single-threaded ground truth: one score map per context menu."""
    references = []
    for specs in CONTEXTS:
        engine = make_engine()
        engine.install_context(*specs)
        references.append(engine.preference_scores())
    return references


def matches_any(scores, references, tolerance=1e-9):
    for reference in references:
        if set(scores) == set(reference) and all(
            abs(scores[doc] - reference[doc]) <= tolerance for doc in reference
        ):
            return True
    return False


def test_single_engine_context_churn_is_atomic():
    """The engine hammer: install+rank from 8 threads on one engine.

    This test FAILS on an unlocked engine (pre-serving-refactor): the
    signature render races ``clear_dynamic`` and either raises or
    poisons the view cache with a half-context score map.
    """
    world = build_tvtouch()
    references = reference_maps(
        lambda: RankingEngine.from_world(build_tvtouch())
    )
    engine = RankingEngine.from_world(world)
    errors = []
    bad_maps = []
    barrier = threading.Barrier(THREADS)

    def worker(seed):
        try:
            barrier.wait()
            for round_index in range(ROUNDS):
                specs = CONTEXTS[(seed + round_index) % len(CONTEXTS)]
                scores = engine.rank_in_context(specs).scores()
                if not matches_any(scores, references):
                    bad_maps.append((specs, scores))
        except Exception as exc:  # noqa: BLE001 - the hammer reports all
            errors.append(exc)

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        for seed in range(THREADS):
            pool.submit(worker, seed)

    assert not errors, f"engine raised under concurrent context churn: {errors[:3]}"
    assert not bad_maps, (
        f"{len(bad_maps)} rankings matched no single-threaded reference "
        f"(first: {bad_maps[0] if bad_maps else None})"
    )

    # Poison sweep: after the storm, the cache must still be honest —
    # a half-installed context memoized under a stale signature would
    # surface here as a persistent wrong answer.
    for specs, reference in zip(CONTEXTS, references):
        scores = engine.rank_in_context(specs).scores()
        worst = max(abs(scores[doc] - reference[doc]) for doc in reference)
        assert worst <= 1e-9, f"cache poisoned for {specs[:2]}: drift {worst}"


def test_fleet_context_churn_matches_reference():
    """Satellite: ≥8 threads over one session table with context churn.

    Every tenant pins one context menu; threads hammer rank requests
    across all tenants concurrently.  Scores must agree with the
    single-threaded per-tenant reference to 1e-9.
    """
    registry = TenantRegistry(build_tvtouch(), max_sessions=64)
    assert THREADS >= 8
    tenant_menus = {
        f"tenant_{index}": CONTEXTS[index % len(CONTEXTS)] for index in range(12)
    }
    references = {}
    for tenant_id, specs in tenant_menus.items():
        engine = RankingEngine.from_world(build_tvtouch())
        if specs:
            engine.install_context(*specs)
        references[tenant_id] = engine.preference_scores()

    errors = []
    mismatches = []
    barrier = threading.Barrier(THREADS)

    def worker(seed):
        try:
            barrier.wait()
            tenants = list(tenant_menus)
            for round_index in range(ROUNDS):
                tenant_id = tenants[(seed * 7 + round_index) % len(tenants)]
                specs = tenant_menus[tenant_id]
                with registry.checkout(tenant_id) as session:
                    # Context churn: reinstall the menu on every request
                    # (the serving pipeline's per-request context delta).
                    scores = session.rank_in_context(specs).scores()
                reference = references[tenant_id]
                worst = max(abs(scores[doc] - reference[doc]) for doc in reference)
                if worst > 1e-9:
                    mismatches.append((tenant_id, worst))
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        for seed in range(THREADS):
            pool.submit(worker, seed)

    assert not errors, f"fleet raised under concurrent ranking: {errors[:3]}"
    assert not mismatches, f"score drift under concurrency: {mismatches[:5]}"
    # One table, one lock: every tenant minted once, every pin returned.
    info = registry.info()
    assert (info.active, info.minted, info.pinned) == (12, 12, 0)
    assert info.hits == THREADS * ROUNDS - 12
