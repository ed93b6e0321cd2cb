"""Property test: on random probabilistic ABoxes and random concept
expressions, the three evaluation paths — instance checking, relational
algebra views, sqlite views — retrieve the same individuals with the
same probabilities."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import EventSpace, probability
from repro.dl import ABox, TBox, atomic, complement, every, intersect, one_of, retrieve, some, union
from repro.storage import Database, SqliteBackend, compile_concept

CONCEPT_NAMES = ["A", "B", "C"]
ROLE_NAMES = ["r", "s"]
INDIVIDUALS = ["x", "y", "z", "w"]


@st.composite
def worlds(draw):
    """A random event space + ABox over a tiny fixed vocabulary."""
    space = EventSpace("prop")
    abox = ABox()
    for individual in INDIVIDUALS:
        abox.register_individual(individual)

    counter = [0]

    def random_event():
        p = draw(st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
        if p >= 1.0:
            from repro.events import ALWAYS

            return ALWAYS
        counter[0] += 1
        return space.atom(f"e{counter[0]}", p)

    n_concept_assertions = draw(st.integers(min_value=1, max_value=6))
    for _ in range(n_concept_assertions):
        concept = draw(st.sampled_from(CONCEPT_NAMES))
        individual = draw(st.sampled_from(INDIVIDUALS))
        abox.assert_concept(concept, individual, random_event())

    n_role_assertions = draw(st.integers(min_value=0, max_value=6))
    for _ in range(n_role_assertions):
        role = draw(st.sampled_from(ROLE_NAMES))
        source = draw(st.sampled_from(INDIVIDUALS))
        target = draw(st.sampled_from(INDIVIDUALS))
        abox.assert_role(role, source, target, random_event())

    def concept_strategy(depth: int):
        leaves = [
            st.sampled_from([atomic(name) for name in CONCEPT_NAMES]),
            st.builds(lambda i: one_of(i), st.sampled_from(INDIVIDUALS)),
        ]
        if depth <= 0:
            return st.one_of(*leaves)
        sub = concept_strategy(depth - 1)
        return st.one_of(
            *leaves,
            st.builds(lambda c: complement(c), sub),
            st.builds(lambda a, b: intersect([a, b]), sub, sub),
            st.builds(lambda a, b: union([a, b]), sub, sub),
            st.builds(lambda r, c: some(r, c), st.sampled_from(ROLE_NAMES), sub),
            st.builds(lambda r, c: every(r, c), st.sampled_from(ROLE_NAMES), sub),
        )

    concept = draw(concept_strategy(2))
    return space, abox, concept


def _positive(mapping: dict) -> dict:
    return {key: value for key, value in mapping.items() if value > 1e-9}


@settings(max_examples=60, deadline=None)
@given(worlds())
def test_algebra_views_match_instance_checker(world):
    space, abox, concept = world
    tbox = TBox()
    reference = {
        individual.name: probability(event, space)
        for individual, event in retrieve(abox, tbox, concept).items()
    }
    db = Database()
    db.load_abox(abox)
    table = db.evaluate(compile_concept(concept, tbox, db))
    via_views = {row[0]: probability(row[1], space) for row in table}

    assert _positive(via_views).keys() == _positive(reference).keys()
    for key, value in _positive(via_views).items():
        assert math.isclose(value, reference[key], abs_tol=1e-9)


@settings(max_examples=30, deadline=None)
@given(worlds())
def test_sqlite_views_match_instance_checker(world):
    space, abox, concept = world
    tbox = TBox()
    reference = {
        individual.name: probability(event, space)
        for individual, event in retrieve(abox, tbox, concept).items()
    }
    with SqliteBackend(space) as backend:
        backend.load_abox(abox)
        via_sql = backend.concept_probabilities(concept, tbox)

    assert _positive(via_sql).keys() == _positive(reference).keys()
    for key, value in _positive(via_sql).items():
        assert math.isclose(value, reference[key], abs_tol=1e-9)
