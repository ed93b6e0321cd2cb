"""Unit tests for the probability engines on hand-computable cases."""

import pytest

from repro.errors import ComplexityLimitError, EventError
from repro.events import (
    ALWAYS,
    NEVER,
    EventSpace,
    ShannonEngine,
    conditional_probability,
    probability,
    probability_by_bdd,
    probability_by_dnf,
    probability_by_enumeration,
    probability_by_shannon,
)

ALL_ENGINES = ["shannon", "bdd", "worlds", "dnf"]


@pytest.fixture()
def space():
    return EventSpace()


@pytest.mark.parametrize("engine", ALL_ENGINES)
class TestEveryEngine:
    def test_constants(self, space, engine):
        assert probability(ALWAYS, space, engine) == 1.0
        assert probability(NEVER, space, engine) == 0.0

    def test_single_atom(self, space, engine):
        a = space.atom("a", 0.3)
        assert probability(a, space, engine) == pytest.approx(0.3)
        assert probability(~a, space, engine) == pytest.approx(0.7)

    def test_independent_conjunction(self, space, engine):
        a = space.atom("a", 0.5)
        b = space.atom("b", 0.4)
        assert probability(a & b, space, engine) == pytest.approx(0.2)

    def test_independent_disjunction(self, space, engine):
        a = space.atom("a", 0.5)
        b = space.atom("b", 0.4)
        assert probability(a | b, space, engine) == pytest.approx(0.7)

    def test_shared_atom_not_double_counted(self, space, engine):
        a = space.atom("a", 0.5)
        b = space.atom("b", 0.4)
        # (a & b) | (a & ~b) == a
        expr = (a & b) | (a & ~b)
        assert probability(expr, space, engine) == pytest.approx(0.5)

    def test_xor_probability(self, space, engine):
        a = space.atom("a", 0.5)
        b = space.atom("b", 0.4)
        xor = (a & ~b) | (~a & b)
        assert probability(xor, space, engine) == pytest.approx(0.5 * 0.6 + 0.5 * 0.4)

    def test_figure1_neither_bulletin(self, space, engine):
        """Figure 1 of the paper: P(neither traffic nor weather) = 0.08."""
        traffic = space.atom("traffic", 0.8)
        weather = space.atom("weather", 0.6)
        assert probability(~traffic & ~weather, space, engine) == pytest.approx(0.08)

    def test_mutex_group(self, space, engine):
        a = space.atom("a", 0.5)
        b = space.atom("b", 0.3)
        space.declare_mutex("g", ["a", "b"])
        assert probability(a | b, space, engine) == pytest.approx(0.8)
        assert probability(a & b, space, engine) == pytest.approx(0.0)
        assert probability(~a & ~b, space, engine) == pytest.approx(0.2)

    def test_mutex_mixed_with_independent(self, space, engine):
        a = space.atom("a", 0.5)
        b = space.atom("b", 0.3)
        c = space.atom("c", 0.4)
        space.declare_mutex("g", ["a", "b"])
        # (a | b) & c : groups independent of c
        assert probability((a | b) & c, space, engine) == pytest.approx(0.8 * 0.4)


class TestFacade:
    def test_unknown_engine_rejected(self, space):
        a = space.atom("a", 0.5)
        with pytest.raises(EventError):
            probability(a, space, engine="magic")

    def test_default_engine_is_shannon(self, space):
        a = space.atom("a", 0.25)
        assert probability(a, space) == pytest.approx(0.25)


class TestConditional:
    def test_conditional_probability(self, space):
        a = space.atom("a", 0.5)
        b = space.atom("b", 0.4)
        # P(a | a or b) = 0.5 / 0.7
        assert conditional_probability(a, a | b, space) == pytest.approx(0.5 / 0.7)

    def test_conditioning_on_impossible_event_fails(self, space):
        a = space.atom("a", 0.5)
        with pytest.raises(EventError):
            conditional_probability(a, NEVER, space)


class TestEngineSpecifics:
    def test_enumeration_respects_limit(self, space):
        atoms = [space.atom(f"x{i}", 0.5) for i in range(8)]
        expr = atoms[0]
        for extra in atoms[1:]:
            expr = expr | extra
        with pytest.raises(ComplexityLimitError):
            probability_by_enumeration(expr, space, limit=4)

    def test_dnf_term_limit(self, space):
        atoms = [space.atom(f"x{i}", 0.5) for i in range(25)]
        expr = atoms[0]
        for extra in atoms[1:]:
            expr = expr | extra
        with pytest.raises(ComplexityLimitError):
            probability_by_dnf(expr, space, term_limit=10)

    def test_shannon_engine_memo_reuse(self, space):
        a = space.atom("a", 0.5)
        b = space.atom("b", 0.4)
        engine = ShannonEngine(space)
        assert engine.probability(a & b) == pytest.approx(0.2)
        assert engine.probability(a & b) == pytest.approx(0.2)
        engine.clear()
        assert engine.probability(a | b) == pytest.approx(0.7)

    def test_shannon_reads_a_bare_atom_off_its_event(self, space):
        grouped = space.mutex_choice("room", {"kitchen": 0.6, "hall": 0.3})
        free = space.atom("free", 0.45)
        engine = ShannonEngine(space)
        for atom, expected in ((grouped["kitchen"], 0.6), (grouped["hall"], 0.3), (free, 0.45)):
            assert engine.probability(atom) == expected
            assert probability(atom, space, engine="worlds") == pytest.approx(expected)
        assert not engine._memo  # nothing to branch on, nothing memoised

    def test_bdd_handles_moderate_width(self, space):
        # 24 independent atoms in a disjunction: enumeration would need
        # 2^24 worlds, the BDD is linear.
        atoms = [space.atom(f"x{i}", 0.5) for i in range(24)]
        expr = atoms[0]
        for extra in atoms[1:]:
            expr = expr | extra
        expected = 1.0 - 0.5**24
        assert probability_by_bdd(expr, space) == pytest.approx(expected)
        assert probability_by_shannon(expr, space) == pytest.approx(expected)

    def test_results_clamped_to_unit_interval(self, space):
        a = space.atom("a", 0.999999)
        b = space.atom("b", 0.999999)
        for engine in ALL_ENGINES:
            value = probability(a | b, space, engine)
            assert 0.0 <= value <= 1.0
