"""E11 — the compiled knowledge-base reasoner vs the uncached path.

PR 2 made warm scoring ~4ms for 1000x10; E9 showed the remaining cold
cost lives in *binding*: per (document, rule) the uncached path
rebuilds the membership-event tree — re-expanding the concept,
re-sorting TBox closures, re-scanning the role tables for successors —
and re-runs Shannon expansion per probability, sharing nothing across
candidates.  The compiled reasoner (:class:`repro.reason.CompiledKB`)
binds by column inside one epoch-guarded session: each rule's
preference concept is evaluated once over the ABox tables (concept
tables unioned, the filler's members joined to a role's incoming
edges), sub-concepts shared by all rules are read once, a candidate's
row is one lookup per rule, and probabilities are memoised per event.
The user's context events stay single memberships.

Measured on the E9 workload grown to 1000 candidate programs:

* **uncached bind** — the reference: ``membership_event`` +
  ``probability`` per (document, rule) pair, nothing shared;
* **compiled, cold** — a *fresh* ``CompiledKB`` (empty memos) binding
  the same problem; the claimed >= 5x win;
* **compiled, warm** — the same KB binding again under an unchanged
  epoch (what repeat requests and group members pay).

Plus the Section 6 multi-user scenario: a group over one world ranked
with per-member *private* KBs vs one *shared* KB — the shared KB
reasons each document feature once per group instead of once per
member.

Correctness is asserted alongside: compiled probabilities match the
uncached reference within 1e-9 across all four probability engines,
and again after an ABox mutation (no stale P(f)).
"""

import dataclasses
import os
import time

import pytest

from repro.core import ContextAwareScorer
from repro.core.problem import bind_problem
from repro.dl.instances import membership_event
from repro.events.probability import ENGINES, probability
from repro.multiuser import GroupMember, GroupRanker
from repro.reason import CompiledKB
from repro.reporting import TextTable
from repro.workloads import (
    Section5Counts,
    generate_rule_series,
    generate_test_database,
    install_context_series,
)

#: CI smoke mode: tiny workload, no perf assertions (see conftest).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

RUNS = 2 if SMOKE else 3
CANDIDATES = 40 if SMOKE else 1000
SCALE = 0.1 if SMOKE else 0.4
RULES = 3 if SMOKE else 6
CONTEXTS = 3 if SMOKE else 7
MIN_COLD_SPEEDUP = 5.0
GROUP_SIZE = 2 if SMOKE else 4


def best_of(function, runs: int = RUNS) -> float:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.fixture(scope="module")
def world():
    counts = dataclasses.replace(Section5Counts().scaled(SCALE), programs=CANDIDATES)
    world = generate_test_database(seed=7, counts=counts)
    install_context_series(world, k=CONTEXTS, seed=11)
    return world


@pytest.fixture(scope="module")
def repository(world):
    return generate_rule_series(world, RULES, seed=13)


def uncached_bind(world, rules):
    """The pre-PR-3 reference: nothing shared across the sweep."""
    context = []
    for rule in rules:
        event = membership_event(world.abox, world.tbox, world.user, rule.context)
        context.append(probability(event, world.space))
    matrix = []
    for document in world.programs:
        events = [
            membership_event(world.abox, world.tbox, document, rule.preference)
            for rule in rules
        ]
        matrix.append([probability(event, world.space) for event in events])
    return context, matrix


def test_e11_cold_bind_speedup(world, repository, save_result, save_json):
    rules = list(repository)

    def compiled_cold():
        kb = CompiledKB(world.abox, world.tbox, world.space)
        return bind_problem(
            world.abox, world.tbox, world.user, repository, world.programs,
            world.space, kb=kb,
        )

    _context, reference_matrix = uncached_bind(world, rules)
    problem = compiled_cold()
    for row, binding in zip(reference_matrix, problem.documents):
        for reference_value, compiled_value in zip(row, binding.preference_probabilities):
            assert compiled_value == pytest.approx(reference_value, abs=1e-9)

    uncached_seconds = best_of(lambda: uncached_bind(world, rules))
    cold_seconds = best_of(compiled_cold)

    warm_kb = CompiledKB(world.abox, world.tbox, world.space)
    bind_problem(
        world.abox, world.tbox, world.user, repository, world.programs,
        world.space, kb=warm_kb,
    )
    warm_seconds = best_of(
        lambda: bind_problem(
            world.abox, world.tbox, world.user, repository, world.programs,
            world.space, kb=warm_kb,
        )
    )

    cold_speedup = uncached_seconds / cold_seconds
    warm_speedup = uncached_seconds / warm_seconds

    table = TextTable(["variant", "best (ms)", "vs uncached"])
    table.add_row(["uncached bind (reference)", uncached_seconds * 1e3, "x1.0"])
    table.add_row(["compiled, cold KB", cold_seconds * 1e3, f"x{cold_speedup:.1f}"])
    table.add_row(["compiled, warm KB", warm_seconds * 1e3, f"x{warm_speedup:.1f}"])
    save_result("e11_reasoner", table.render())
    save_json(
        "e11_reasoner",
        {
            "experiment": "e11_reasoner",
            "candidates": len(world.programs),
            "rules": len(rules),
            "runs": RUNS,
            "variants": [
                {"variant": "uncached bind", "best_ms": uncached_seconds * 1e3},
                {"variant": "compiled cold", "best_ms": cold_seconds * 1e3},
                {"variant": "compiled warm", "best_ms": warm_seconds * 1e3},
            ],
            "cold_speedup": cold_speedup,
            "warm_speedup": warm_speedup,
        },
    )

    if SMOKE:
        return
    assert cold_speedup >= MIN_COLD_SPEEDUP, (
        f"compiled cold bind speedup x{cold_speedup:.2f} below x{MIN_COLD_SPEEDUP} "
        f"(uncached {uncached_seconds * 1e3:.1f}ms vs cold {cold_seconds * 1e3:.1f}ms)"
    )
    assert warm_speedup > cold_speedup, "warm KB must beat its own cold path"


def test_e11_multiuser_shared_kb(world, repository, save_result, save_json):
    """One shared KB per group vs one private KB per member."""
    rules = list(repository)
    documents = world.programs

    def members(kb_factory):
        result = []
        for index in range(GROUP_SIZE):
            # Overlapping per-member repositories (a family shares most
            # of its taste vocabulary): member i sees a rotated window.
            from repro.rules import RuleRepository

            window = [rules[(index + offset) % len(rules)] for offset in range(len(rules) - 1)]
            result.append(
                GroupMember(
                    f"member_{index}",
                    ContextAwareScorer(
                        abox=world.abox, tbox=world.tbox, user=world.user,
                        repository=RuleRepository(window), space=world.space,
                        kb=kb_factory(),
                    ),
                )
            )
        return result

    def rank_private():
        group = GroupRanker(
            members(lambda: CompiledKB(world.abox, world.tbox, world.space)),
            strategy="average",
        )
        assert group.shared_kb() is None
        return group.rank(documents)

    shared_holder = {}

    def rank_shared():
        shared_holder["kb"] = CompiledKB(world.abox, world.tbox, world.space)
        group = GroupRanker(
            members(lambda: shared_holder["kb"]), strategy="average"
        )
        assert group.shared_kb() is shared_holder["kb"]
        return group.rank(documents)

    private_ranking = rank_private()
    shared_ranking = rank_shared()
    assert [(s.document, s.value) for s in shared_ranking] == pytest.approx(
        [(s.document, s.value) for s in private_ranking]
    )

    private_seconds = best_of(rank_private)
    shared_seconds = best_of(rank_shared)
    speedup = private_seconds / shared_seconds

    table = TextTable(["variant", "best (ms)", "speedup"])
    table.add_row([f"private KB per member (x{GROUP_SIZE})", private_seconds * 1e3, "x1.0"])
    table.add_row(["one shared KB for the group", shared_seconds * 1e3, f"x{speedup:.1f}"])
    save_result("e11_multiuser_kb", table.render())
    save_json(
        "e11_multiuser_kb",
        {
            "experiment": "e11_multiuser_kb",
            "group_size": GROUP_SIZE,
            "candidates": len(documents),
            "runs": RUNS,
            "variants": [
                {"variant": "private KBs", "best_ms": private_seconds * 1e3},
                {"variant": "shared KB", "best_ms": shared_seconds * 1e3},
            ],
            "speedup": speedup,
        },
    )
    if not SMOKE:
        assert speedup > 1.5, (
            f"shared group KB must clearly beat private KBs, got x{speedup:.2f}"
        )


def test_e11_engines_agree_after_mutation(world, repository):
    """Compiled results match the reference for all four engines,
    including after an ABox mutation (epoch invalidation, no stale P(f))."""
    rules = list(repository)
    kb = CompiledKB(world.abox, world.tbox, world.space)
    sample = world.programs[:3] + [world.programs[-1]]

    def check():
        for document in sample:
            for rule in rules:
                reference_event = membership_event(
                    world.abox, world.tbox, document, rule.preference
                )
                compiled_event = kb.membership_event(document, rule.preference)
                assert compiled_event == reference_event
                for engine in ENGINES:
                    assert kb.probability(compiled_event, engine) == pytest.approx(
                        probability(reference_event, world.space, engine), abs=1e-9
                    )

    check()
    # Give the first sampled program a new genre edge: its events must
    # change under the same KB (fresh epoch), and still match.
    world.abox.assert_role("hasGenre", sample[0], world.genres[-1])
    check()
