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

    def test_registers_matches_name_and_probability(self, space):
        from repro.events import BasicEvent

        event = space.event("x", 0.3)
        assert space.registers(event)
        assert space.registers(BasicEvent("x", 0.3))
        assert not space.registers(BasicEvent("x", 0.4))
        assert not space.registers(BasicEvent("ctx:Breakfast@0.3", 0.3))

    def test_space_survives_copy_and_pickle(self, space):
        import copy
        import pickle

        space.mutex_choice("room", {"kitchen": 0.6, "hall": 0.3})
        space.event("free", 0.45)
        for clone in (copy.deepcopy(space), pickle.loads(pickle.dumps(space))):
            assert sorted((e.name, e.probability) for e in clone) == sorted(
                (e.name, e.probability) for e in space
            )
            assert clone.are_exclusive("kitchen", "hall")
            assert clone.revision == space.revision

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

