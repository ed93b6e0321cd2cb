"""A cold bind costs documents + matching edges, not documents x rules.

Operation counts — never time — on the serving ledger's Section 5 world
(2 000 programs x 12 rules), in the style of
``tests/service/test_request_path_constant.py``:

(a) a cold ``bind_documents`` asks for no per-(document, rule)
    membership (``ReasonerSession.event`` is never called) and builds
    its events with a small multiple of documents + matching edges
    ``conj`` / ``disj`` calls;
(b) a second bind in the same epoch builds nothing;
(c) a repository that gains one rule evaluates exactly one new rule
    column (the sub-concepts it shares are not read again);
(d) a fleet of tenant threads cold-binding together through their
    overlays gets one set of base-tier columns and the same interned
    events.
"""

import sys
import threading

import pytest

from repro.core.problem import bind_documents
from repro.dl import instances
from repro.dl.concepts import atomic, one_of, some
from repro.reason import CompiledKB, ReasonerSession, base_tier, clear_registry, kb as kb_module
from repro.rules.rule import PreferenceRule
from repro.workloads import Section5Counts, generate_rule_series, generate_test_database

#: the ledger's world; the column path makes 17 700 connective calls
#: here, the per-document path made 144 200 (and 119 100 ``event`` calls)
PROGRAMS, RULES, MAX_CONNECTIVES = 2000, 12, 25_000


@pytest.fixture(autouse=True)
def fresh_registry():
    clear_registry()
    yield
    clear_registry()


@pytest.fixture(scope="module")
def world():
    return generate_test_database(seed=7, counts=Section5Counts(persons=50, programs=PROGRAMS))


@pytest.fixture(scope="module")
def rules(world):
    return list(generate_rule_series(world, RULES))


class Counters:
    """Counts ``ReasonerSession.event`` / ``_build_column`` and the connectives."""

    def __init__(self, monkeypatch):
        self.events = 0
        self.connectives = 0
        self.built = []
        real_event = ReasonerSession.event
        real_build = ReasonerSession._build_column

        def event(session, individual, concept):
            self.events += 1
            return real_event(session, individual, concept)

        def build(session, concept):
            self.built.append(concept)
            return real_build(session, concept)

        monkeypatch.setattr(ReasonerSession, "event", event)
        monkeypatch.setattr(ReasonerSession, "_build_column", build)
        # both modules that build membership events call the connectives
        # by the names they imported
        for module in (kb_module, instances):
            for name in ("conj", "disj"):
                monkeypatch.setattr(module, name, self._counting(getattr(module, name)))

    def _counting(self, connective):
        def counted(children):
            self.connectives += 1
            return connective(children)

        return counted

    def reset(self):
        self.events = self.connectives = 0
        self.built.clear()


def names_of(world, kb):
    return sorted(individual.name for individual in kb.column(world.target))


def test_cold_bind_counts_then_a_second_bind_builds_nothing(world, rules, monkeypatch):
    kb = CompiledKB(world.abox, world.tbox, world.space)
    names = names_of(world, kb)
    assert len(names) == PROGRAMS
    cold = CompiledKB(world.abox, world.tbox, world.space)
    counters = Counters(monkeypatch)
    first = bind_documents(world.abox, world.tbox, rules, names, world.space, kb=cold)
    assert counters.events == 0
    assert 0 < counters.connectives <= MAX_CONNECTIVES
    info = cold.info()
    assert info.memo_events == 0 and info.membership_misses == 0
    assert info.memo_columns == len(counters.built) > RULES
    # (b) same epoch: every column is held
    counters.reset()
    second = bind_documents(world.abox, world.tbox, rules, names, world.space, kb=cold)
    assert (counters.events, counters.connectives, counters.built) == (0, 0, [])
    assert all(
        ours is theirs
        for again, before in zip(second, first)
        for ours, theirs in zip(again.preference_events, before.preference_events)
    )


def test_one_more_rule_is_one_more_rule_column(world, rules, monkeypatch):
    kb = CompiledKB(world.abox, world.tbox, world.space)
    names = names_of(world, kb)
    bind_documents(world.abox, world.tbox, rules, names, world.space, kb=kb)
    either_genre = some("hasGenre", one_of(*world.genres[:2]))
    added = PreferenceRule("added", rules[0].context, atomic("TvProgram") & either_genre, 0.5)
    assert added.preference not in [rule.preference for rule in rules]
    counters = Counters(monkeypatch)
    bound = bind_documents(world.abox, world.tbox, rules + [added], names, world.space, kb=kb)
    session = kb.session()
    rule_columns = {session.expand_concept(rule.preference) for rule in rules + [added]}
    assert [concept for concept in counters.built if concept in rule_columns] == [
        session.expand_concept(added.preference)
    ]
    assert atomic("TvProgram") not in counters.built  # shared with every rule: held
    assert counters.events == 0
    assert any(not binding.preference_events[-1].is_impossible for binding in bound)


def test_eight_tenant_threads_share_one_set_of_base_columns(monkeypatch):
    tenants = 8
    world = generate_test_database(seed=11, counts=Section5Counts(persons=10, programs=300))
    rules = list(generate_rule_series(world, 6))
    world.abox.freeze()
    names = names_of(world, CompiledKB(world.abox, world.tbox, world.space))
    clear_registry()  # a fresh base tier: the threads meet it cold
    overlays = [world.abox.overlay() for _ in range(tenants)]
    for index, overlay in enumerate(overlays):
        overlay.assert_concept("CtxScenario_00", f"tenant_{index}", dynamic=True)
    kbs = [CompiledKB(overlay, world.tbox, world.space) for overlay in overlays]
    counters = Counters(monkeypatch)
    barrier = threading.Barrier(tenants)
    results, errors = [None] * tenants, []

    def cold_bind(index):
        try:
            barrier.wait(timeout=30)
            results[index] = bind_documents(
                overlays[index], world.tbox, rules, names, world.space, kb=kbs[index]
            )
        except Exception as exc:  # surfaced below, on the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=cold_bind, args=(index,)) for index in range(tenants)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(thread.is_alive() for thread in threads)
    tier = base_tier(world.abox, world.tbox, world.space)
    assert all(kb.session().base is tier for kb in kbs)
    # each base column was built once, whoever got there first ...
    assert len(counters.built) == len(set(counters.built)) == len(tier._columns)
    # ... every tenant reads those very columns, and so the same events
    for rule in rules:
        assert all(kb.column(rule.preference) is tier.column(rule.preference) for kb in kbs)
    for other in results[1:]:
        assert len(other) == len(results[0]) == len(names)
        assert all(
            ours is theirs
            for mine, first in zip(other, results[0])
            for ours, theirs in zip(mine.preference_events, first.preference_events)
        )
