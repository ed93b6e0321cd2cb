"""Unit tests for event spaces, mutex groups and the chain encoding."""

import pytest

from repro.errors import EventSpaceError, UnknownEventError
from repro.events import EventSpace, chain_encode, probability


@pytest.fixture()
def space():
    return EventSpace("test")


class TestRegistration:
    def test_event_registration_roundtrip(self, space):
        event = space.event("x", 0.3)
        assert space.get("x") is event
        assert "x" in space
        assert len(space) == 1

    def test_reregistration_same_probability_is_noop(self, space):
        first = space.event("x", 0.3)
        second = space.event("x", 0.3)
        assert first is second

    def test_reregistration_different_probability_fails(self, space):
        space.event("x", 0.3)
        with pytest.raises(EventSpaceError):
            space.event("x", 0.4)

    def test_unknown_event_lookup_fails(self, space):
        with pytest.raises(UnknownEventError):
            space.get("missing")

    def test_invalid_probability_rejected(self, space):
        with pytest.raises(EventSpaceError):
            space.event("x", 1.5)
        with pytest.raises(EventSpaceError):
            space.event("y", -0.1)
        with pytest.raises(EventSpaceError):
            space.event("z", float("nan"))

    def test_empty_name_rejected(self, space):
        with pytest.raises(EventSpaceError):
            space.event("", 0.5)

    def test_fresh_atoms_are_unique(self, space):
        names = {space.fresh_atom(0.5).name for _ in range(100)}
        assert len(names) == 100

    def test_atom_without_probability_requires_registration(self, space):
        with pytest.raises(UnknownEventError):
            space.atom("nope")


class TestMutexGroups:
    def test_declare_and_lookup(self, space):
        space.event("kitchen", 0.6)
        space.event("livingroom", 0.3)
        group = space.declare_mutex("location", ["kitchen", "livingroom"])
        assert group.none_probability == pytest.approx(0.1)
        assert space.group_of("kitchen") is group
        assert space.group_of("unrelated-name") is None
        assert space.are_exclusive("kitchen", "livingroom")
        assert not space.are_exclusive("kitchen", "kitchen")

    def test_probabilities_must_sum_to_at_most_one(self, space):
        space.event("p", 0.7)
        space.event("q", 0.7)
        with pytest.raises(EventSpaceError):
            space.declare_mutex("bad", ["p", "q"])

    def test_event_cannot_join_two_groups(self, space):
        for name in ("a", "b", "c"):
            space.event(name, 0.2)
        space.declare_mutex("g1", ["a", "b"])
        with pytest.raises(EventSpaceError):
            space.declare_mutex("g2", ["a", "c"])

    def test_duplicate_members_rejected(self, space):
        space.event("a", 0.2)
        with pytest.raises(EventSpaceError):
            space.declare_mutex("g", ["a", "a"])

    def test_singleton_group_rejected(self, space):
        space.event("a", 0.2)
        with pytest.raises(EventSpaceError):
            space.declare_mutex("g", ["a"])

    def test_redeclaring_group_rejected(self, space):
        for name in ("a", "b", "c", "d"):
            space.event(name, 0.2)
        space.declare_mutex("g", ["a", "b"])
        with pytest.raises(EventSpaceError):
            space.declare_mutex("g", ["c", "d"])

    def test_mutex_choice_helper(self, space):
        atoms = space.mutex_choice("act", {"cooking": 0.5, "reading": 0.3}, prefix="act:")
        assert set(atoms) == {"cooking", "reading"}
        assert space.are_exclusive("act:cooking", "act:reading")


class TestMutexSemantics:
    def test_disjoint_union_adds(self, space):
        a = space.atom("a", 0.6)
        b = space.atom("b", 0.3)
        space.declare_mutex("g", ["a", "b"])
        assert probability(a | b, space) == pytest.approx(0.9)

    def test_joint_occurrence_impossible(self, space):
        a = space.atom("a", 0.6)
        b = space.atom("b", 0.3)
        space.declare_mutex("g", ["a", "b"])
        assert probability(a & b, space) == pytest.approx(0.0)

    def test_one_implies_not_other(self, space):
        a = space.atom("a", 0.6)
        b = space.atom("b", 0.3)
        space.declare_mutex("g", ["a", "b"])
        assert probability(a & ~b, space) == pytest.approx(0.6)

    def test_without_space_atoms_independent(self, space):
        a = space.atom("a", 0.6)
        b = space.atom("b", 0.3)
        space.declare_mutex("g", ["a", "b"])
        # Passing no space ignores the mutex declaration.
        assert probability(a & b, None) == pytest.approx(0.18)


class TestChainEncoding:
    def test_no_groups_is_identity(self, space):
        a = space.atom("a", 0.6)
        b = space.atom("b", 0.3)
        expr = a & ~b
        encoded, probs = chain_encode(expr, space)
        assert encoded == expr
        assert probs == {"a": 0.6, "b": 0.3}

    def test_chain_probabilities(self, space):
        space.atom("a", 0.5)
        space.atom("b", 0.25)
        space.declare_mutex("g", ["a", "b"])
        _encoded, probs = chain_encode(space.atom("a") | space.atom("b"), space)
        chain_names = sorted(name for name in probs if name.startswith("__chain"))
        assert len(chain_names) == 2
        assert probs[chain_names[0]] == pytest.approx(0.5)
        assert probs[chain_names[1]] == pytest.approx(0.5)  # 0.25 / (1 - 0.5)

    def test_exhausted_mass_gives_zero_conditional(self, space):
        space.atom("a", 1.0)
        space.atom("b", 0.0)
        space.declare_mutex("g", ["a", "b"])
        _encoded, probs = chain_encode(space.atom("b"), space)
        chain_names = sorted(name for name in probs if name.startswith("__chain"))
        assert probs[chain_names[1]] == pytest.approx(0.0)

    def test_encoding_preserves_probability(self, space):
        a = space.atom("a", 0.5)
        b = space.atom("b", 0.2)
        c = space.atom("c", 0.4)
        space.declare_mutex("g", ["a", "b"])
        for expr in (a, b, a | b, a & c, (a | b) & ~c, ~a & ~b):
            direct = probability(expr, space, engine="worlds")
            via_bdd = probability(expr, space, engine="bdd")
            assert via_bdd == pytest.approx(direct, abs=1e-12)


class _CountingEvents(dict):
    """``EventSpace._events`` with every lookup counted."""

    lookups = 0

    def get(self, key, default=None):
        type(self).lookups += 1
        return super().get(key, default)

    def __getitem__(self, key):
        type(self).lookups += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        type(self).lookups += 1
        return super().__contains__(key)


def linear_probe_names(sequence):
    """The names the pre-index scheme handed out: for every
    ``(base, probability)`` probe ``base``, ``base#1``, ``base#2``, ...
    through a space for the first name that is free or already stands
    for that probability."""
    space = EventSpace("reference")
    names = []
    for base, probability in sequence:
        name, serial = base, 0
        while name in space and abs(space.get(name).probability - probability) > 1e-12:
            serial += 1
            name = f"{base}#{serial}"
        names.append(space.atom(name, probability).name)
    return names


class TestSerialAtoms:
    def test_same_probability_reuses_its_name(self, space):
        first = space.serial_atom("svc:Weekend", 0.7)
        assert first.name == "svc:Weekend"
        assert space.serial_atom("svc:Weekend", 0.4).name == "svc:Weekend#1"
        assert space.serial_atom("svc:Weekend", 0.7) == first
        assert space.serial_atom("svc:Breakfast", 0.4).name == "svc:Breakfast"
        assert space.get("svc:Weekend#1").probability == 0.4

    def test_three_thousand_distinct_probabilities_cost_constant_lookups(self, space):
        _CountingEvents.lookups = 0
        space._events = _CountingEvents(space._events)
        per_install = []
        for index in range(3000):
            before = _CountingEvents.lookups
            atom = space.serial_atom("svc:CtxScenario_03", 0.1 + index / 4000.0)
            per_install.append(_CountingEvents.lookups - before)
            assert atom.name == ("svc:CtxScenario_03" + (f"#{index}" if index else ""))
        # A linear probe would spend `index` lookups on install `index`
        # (4.5 million in all); the index spends the same few on each.
        assert max(per_install) <= 3
        assert per_install[-1] == per_install[1]
        _CountingEvents.lookups = 0
        assert space.serial_atom("svc:CtxScenario_03", 0.1 + 1500 / 4000.0).name.endswith("#1500")
        assert _CountingEvents.lookups <= 2

    def test_replayed_sequence_gets_the_linear_probe_names(self, space):
        import random

        rng = random.Random(11)
        bases = [f"svc:CtxScenario_{index:02d}" for index in range(5)]
        menu = [round(rng.uniform(0.1, 0.9), 4) for _ in range(40)]
        sequence = [(rng.choice(bases), rng.choice(menu)) for _ in range(1500)]
        got = [space.serial_atom(base, probability).name for base, probability in sequence]
        assert got == linear_probe_names(sequence)
        assert len(set(got)) > 100  # plenty of fresh names, plenty of reuse
        assert len(set(got)) < len(got)

    def test_names_taken_behind_the_index_are_respected(self, space):
        # A restored space (or a direct event() call) may already hold
        # serial names the index has never seen.
        space.event("ctx:Weekend", 0.5)
        space.event("ctx:Weekend#1", 0.6)
        sequence = [("ctx:Weekend", 0.6), ("ctx:Weekend", 0.7), ("ctx:Weekend", 0.5)]
        got = [space.serial_atom(base, probability).name for base, probability in sequence]
        assert got == ["ctx:Weekend#1", "ctx:Weekend#2", "ctx:Weekend"]

    def test_install_goes_through_the_index(self):
        from repro.engine import RankingEngine
        from repro.workloads import build_tvtouch

        world = build_tvtouch()
        engine = RankingEngine.from_world(world)
        for probability in ("0.7", "0.4", "0.7"):
            engine.install_context(f"Weekend:{probability}", tick="svc")
        assert "svc:Weekend" in world.space and "svc:Weekend#1" in world.space
        assert "svc:Weekend#2" not in world.space

    def test_space_survives_copy_and_pickle(self, space):
        import copy
        import pickle

        space.serial_atom("svc:Weekend", 0.7)
        for clone in (copy.deepcopy(space), pickle.loads(pickle.dumps(space))):
            assert clone.serial_atom("svc:Weekend", 0.7).name == "svc:Weekend"
            assert clone.serial_atom("svc:Weekend", 0.2).name == "svc:Weekend#1"
        assert "svc:Weekend#1" not in space

    def test_concurrent_allocation_never_double_books_a_name(self, space):
        import sys
        import threading

        errors, results = [], {}

        def worker(offset):
            try:
                for step in range(150):
                    # half the probabilities are shared between threads
                    probability = (step if step % 2 else offset * 1000 + step) / 10_000.0
                    results[(offset, probability)] = space.serial_atom(
                        "svc:Busy", probability
                    ).name
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(1, 9)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        by_probability = {}
        for (_offset, probability), name in results.items():
            assert by_probability.setdefault(probability, name) == name
            assert space.get(name).probability == probability
        assert len(set(by_probability.values())) == len(by_probability)
