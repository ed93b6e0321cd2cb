"""E12 — the multi-tenant knowledge layer: sessions per second and bytes
per session.

The ROADMAP's "millions of users" north star dies at whatever fits in
RAM if every user carries a private copy of the world.  This experiment
measures the tenant stack (:mod:`repro.tenants` over
:class:`~repro.dl.abox.LayeredABox` overlays and the shared reasoner
base tier) against the naive alternative — ``copy.deepcopy`` of the
base world per user — on a Section 5 test database:

* **session creation throughput** at 100 / 1 000 / 5 000 tenants
  (overlay + user individual + rules + engine per session), versus the
  time to deep-copy the base ABox alone;
* **per-session marginal memory** (tracemalloc) versus the bytes of one
  private deep-copied world;
* **score identity**: an overlay-backed tenant must reproduce a
  private-world engine bit-for-bit (≤ 1e-9) on the E9 engine workload
  and on the E7 group workload.

Claims asserted (full mode): overlay sessions are ≥ 5x faster to mint
than deep-copying the base, marginal memory per session is ≤ 10 % of a
private world, and scores agree to 1e-9.
"""

import copy
import gc
import os
import time
import tracemalloc

import pytest

from repro.engine import RankingEngine
from repro.multiuser import GroupMember, GroupRanker
from repro.reason import clear_registry
from repro.reporting import TextTable
from repro.rules import RuleRepository, parse_rule
from repro.core import ContextAwareScorer
from repro.tenants import TenantRegistry
from repro.workloads import (
    Section5Counts,
    build_tvtouch,
    generate_rule_series,
    generate_test_database,
    install_context_series,
    set_breakfast_weekend_context,
)

#: CI smoke mode: tiny workload, no perf assertions (see conftest).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

SCALE = 0.05 if SMOKE else 0.25
RULES = 3 if SMOKE else 6
TENANT_COUNTS = (10,) if SMOKE else (100, 1000, 5000)
DEEPCOPY_SAMPLES = 2 if SMOKE else 5
MIN_CREATION_SPEEDUP = 5.0
MAX_MEMORY_RATIO = 0.10


def fresh_world():
    world = generate_test_database(seed=7, counts=Section5Counts().scaled(SCALE))
    install_context_series(world, k=5, seed=11)
    return world


@pytest.fixture(scope="module")
def base_world():
    clear_registry()
    return fresh_world()


def measure_minting(world, repository, count):
    """(seconds, marginal bytes/session) for ``count`` overlay sessions."""
    registry = TenantRegistry(world, rules=repository, max_sessions=count)
    gc.collect()
    tracemalloc.start()
    before, _peak = tracemalloc.get_traced_memory()
    start = time.perf_counter()
    sessions = [registry.session(f"tenant_{index:05d}") for index in range(count)]
    seconds = time.perf_counter() - start
    after, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(sessions) == count
    return seconds, max(0, after - before) / count


def measure_private_world(world):
    """(seconds, bytes) for one deep-copied private base ABox."""
    gc.collect()
    tracemalloc.start()
    before, _peak = tracemalloc.get_traced_memory()
    start = time.perf_counter()
    clones = [copy.deepcopy(world.abox) for _ in range(DEEPCOPY_SAMPLES)]
    seconds = (time.perf_counter() - start) / DEEPCOPY_SAMPLES
    after, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    per_clone_bytes = max(0, after - before) / len(clones)
    return seconds, per_clone_bytes


def test_e12_tenant_sessions(base_world, save_result, save_json):
    repository = generate_rule_series(base_world, RULES, seed=13)
    private_seconds, private_bytes = measure_private_world(base_world)

    rows = []
    for count in TENANT_COUNTS:
        seconds, marginal_bytes = measure_minting(base_world, repository, count)
        rows.append(
            {
                "tenants": count,
                "sessions_per_second": count / seconds if seconds else float("inf"),
                "marginal_bytes_per_session": marginal_bytes,
                "memory_ratio": marginal_bytes / private_bytes if private_bytes else 0.0,
                "creation_speedup_vs_deepcopy": (
                    private_seconds / (seconds / count) if seconds else float("inf")
                ),
            }
        )

    table = TextTable(
        ["tenants", "sessions/s", "bytes/session", "vs private world", "mint speedup"]
    )
    for row in rows:
        table.add_row(
            [
                row["tenants"],
                f"{row['sessions_per_second']:.0f}",
                f"{row['marginal_bytes_per_session']:.0f}",
                f"{row['memory_ratio']:.1%}",
                f"x{row['creation_speedup_vs_deepcopy']:.1f}",
            ]
        )
    save_result("e12_tenants", table.render())
    save_json(
        "e12_tenants",
        {
            "experiment": "e12_tenants",
            "scale": SCALE,
            "rules": RULES,
            "base_assertions": len(base_world.abox),
            "private_world_bytes": private_bytes,
            "private_world_deepcopy_seconds": private_seconds,
            "deepcopy_samples": DEEPCOPY_SAMPLES,
            "tenants": rows,
        },
    )

    if not SMOKE:
        at_1k = next(row for row in rows if row["tenants"] == 1000)
        assert at_1k["memory_ratio"] <= MAX_MEMORY_RATIO, (
            f"marginal session memory {at_1k['memory_ratio']:.1%} of a private world "
            f"exceeds the {MAX_MEMORY_RATIO:.0%} bound"
        )
        assert at_1k["creation_speedup_vs_deepcopy"] >= MIN_CREATION_SPEEDUP, (
            f"minting a session is only x{at_1k['creation_speedup_vs_deepcopy']:.1f} "
            f"faster than deep-copying the base (need x{MIN_CREATION_SPEEDUP:.0f})"
        )


def test_e12_overlay_scores_match_private_engine_e9(save_json):
    """The E9 workload, both ways: private full world vs tenant overlay."""
    clear_registry()
    private_world = fresh_world()
    repository = generate_rule_series(private_world, RULES, seed=13)
    private = RankingEngine.from_world(private_world, rules=repository)
    private_scores = private.preference_scores()

    # Same generated world (deterministic seed), context *not* installed
    # in the base: the tenant carries it in their overlay instead.
    base = generate_test_database(seed=7, counts=Section5Counts().scaled(SCALE))
    tenant_rules = generate_rule_series(base, RULES, seed=13)
    registry = TenantRegistry(base, rules=tenant_rules)
    session = registry.session("tenant", user=base.user.name)
    probabilities = install_context_series(
        _OverlayWorldAdapter(base, session), k=5, seed=11
    )
    assert probabilities  # same context series as the private world
    overlay_scores = session.preference_scores()

    assert set(overlay_scores) == set(private_scores)
    worst = max(
        abs(overlay_scores[document] - private_scores[document])
        for document in private_scores
    )
    save_json(
        "e12_identity_e9",
        {
            "experiment": "e12_identity_e9",
            "documents": len(private_scores),
            "max_abs_score_delta": worst,
        },
    )
    assert worst <= 1e-9


class _OverlayWorldAdapter:
    """Routes install_context_series writes into a tenant overlay."""

    def __init__(self, world, session):
        self.abox = session.overlay
        self.space = world.space
        self.user = session.user
        self.database = world.database


def test_e12_overlay_group_matches_flat_group_e7(save_json):
    """The E7 group workload: flat shared-world members vs tenant overlays."""
    clear_registry()
    rule_p = "RULE p1: WHEN Weekend PREFER TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST} WITH 0.9"
    rule_m = "RULE m1: WHEN Breakfast PREFER TvProgram AND EXISTS hasSubject.NewsSubject WITH 0.9"

    flat_world = build_tvtouch()
    set_breakfast_weekend_context(flat_world)
    flat_members = [
        GroupMember(
            name,
            ContextAwareScorer(
                abox=flat_world.abox,
                tbox=flat_world.tbox,
                user=flat_world.user,
                repository=RuleRepository([parse_rule(line)]),
                space=flat_world.space,
            ),
        )
        for name, line in (("peter", rule_p), ("mary", rule_m))
    ]

    registry = TenantRegistry(build_tvtouch())
    peter = registry.session("peter", rules=RuleRepository([parse_rule(rule_p)]))
    mary = registry.session("mary", rules=RuleRepository([parse_rule(rule_m)]))
    for session in (peter, mary):
        session.install_context("Weekend", "Breakfast")

    worst = 0.0
    winners = {}
    for strategy in GroupRanker.available_strategies():
        flat = GroupRanker(flat_members, strategy=strategy).rank(flat_world.program_ids)
        overlay = GroupRanker.from_sessions(
            {"peter": peter, "mary": mary}, strategy=strategy
        ).rank(flat_world.program_ids)
        assert [score.document for score in flat] == [score.document for score in overlay]
        worst = max(
            worst,
            max(
                abs(flat_score.value - overlay_score.value)
                for flat_score, overlay_score in zip(flat, overlay)
            ),
        )
        winners[strategy] = flat[0].document
    save_json(
        "e12_identity_e7",
        {
            "experiment": "e12_identity_e7",
            "winners": winners,
            "max_abs_score_delta": worst,
        },
    )
    assert worst <= 1e-9
