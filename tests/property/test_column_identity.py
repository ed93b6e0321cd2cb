"""A concept's column is the reference evaluator's answer, cell for cell.

``ReasonerSession.column`` evaluates a concept once over the ABox
tables; :class:`repro.dl.instances.MembershipEvaluator` evaluates it one
individual at a time and is the semantics.  Identity, not tolerance: for
every individual of the domain the column's entry (``NEVER`` when
absent) must be the very interned event the reference returns — over
random worlds with concept and role hierarchies, defined names,
probabilistic assertions and a mutex group, for concepts over every node
type; through a tenant overlay that touches a document, a filler and
the user; across ABox / TBox mutations; and on the serving ledger's own
2 000-program x 12-rule world.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import bind_documents
from repro.dl import ABox, TBox
from repro.dl.concepts import (
    Bottom,
    Top,
    at_least,
    atomic,
    complement,
    every,
    has_value,
    intersect,
    one_of,
    some,
    union,
)
from repro.dl.instances import MembershipEvaluator
from repro.dl.vocabulary import Individual
from repro.events import EventSpace
from repro.events.expr import ALWAYS, NEVER
from repro.reason import CompiledKB, clear_registry
from repro.workloads import (
    Section5Counts,
    build_tvtouch,
    generate_rule_series,
    generate_test_database,
    set_breakfast_weekend_context,
)

INDIVIDUALS = [f"i{index}" for index in range(6)]
NAMES = ["A", "B", "C", "D"]  # a later name may be subsumed by an earlier one
DEFINED = ["Def0", "Def1"]
ROLES = ["r", "s", "q"]  # likewise


@pytest.fixture(autouse=True)
def fresh_registry():
    clear_registry()
    yield
    clear_registry()


def concepts(depth=3, names=NAMES + DEFINED):
    leaf = st.one_of(
        st.sampled_from(names).map(atomic),
        st.just(Top()),
        st.just(Bottom()),
        # "stranger" is named by concepts only: never in the domain
        st.lists(st.sampled_from(INDIVIDUALS + ["stranger"]), min_size=1, max_size=3).map(
            lambda members: one_of(*members)
        ),
        st.builds(has_value, st.sampled_from(ROLES), st.sampled_from(INDIVIDUALS)),
    )
    if depth <= 0:
        return leaf
    sub = concepts(depth - 1, names)
    role = st.sampled_from(ROLES)
    return st.one_of(
        leaf,
        sub.map(complement),
        st.lists(sub, min_size=2, max_size=3).map(intersect),
        st.lists(sub, min_size=2, max_size=3).map(union),
        st.builds(some, role, sub),
        st.builds(every, role, sub),
        st.builds(at_least, st.integers(min_value=1, max_value=3), role, sub),
    )


@st.composite
def worlds(draw):
    """A small random knowledge base ``(abox, tbox, space)``."""
    space = EventSpace("columns")
    probabilities = draw(
        st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=6, max_size=6)
    )
    atoms = [space.atom(f"e{index}", p) for index, p in enumerate(probabilities)]
    if probabilities[0] + probabilities[1] <= 1.0 and draw(st.booleans()):
        space.declare_mutex("g", ["e0", "e1"])
    events = st.one_of(
        st.just(ALWAYS),
        st.sampled_from(atoms),
        st.builds(lambda a, b: a | b, st.sampled_from(atoms), st.sampled_from(atoms)),
        st.builds(lambda a, b: a & ~b, st.sampled_from(atoms), st.sampled_from(atoms)),
    )

    tbox = TBox()
    for low in range(1, len(NAMES)):
        for high in range(low):
            if draw(st.integers(min_value=0, max_value=3)) == 0:
                tbox.add_subsumption(NAMES[low], NAMES[high])
    for low in range(1, len(ROLES)):
        for high in range(low):
            if draw(st.booleans()):
                tbox.add_role_subsumption(ROLES[low], ROLES[high])
    tbox.define("Def0", draw(concepts(1, NAMES)))
    tbox.define("Def1", intersect([atomic("A"), some("r", atomic("B"))]))

    abox = ABox()
    for name in INDIVIDUALS:
        abox.register_individual(name)
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        abox.assert_concept(
            draw(st.sampled_from(NAMES)), draw(st.sampled_from(INDIVIDUALS)), draw(events)
        )
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        abox.assert_role(
            draw(st.sampled_from(ROLES)),
            draw(st.sampled_from(INDIVIDUALS)),
            draw(st.sampled_from(INDIVIDUALS)),
            draw(events),
        )
    return abox, tbox, space


def assert_column_is_reference(session, abox, tbox, concept):
    reference = MembershipEvaluator(abox, tbox)
    column = session.column(concept)
    domain = abox.individuals
    assert set(column) <= domain
    assert NEVER not in column.values()
    for individual in domain:
        assert column.get(individual, NEVER) is reference.membership_event(
            individual, concept
        ), (str(concept), individual.name)
    assert session.retrieve(concept) == dict(column)
    assert list(session.retrieve(concept)) == sorted(column, key=lambda ind: ind.name)


@settings(max_examples=150, deadline=None)
@given(worlds(), st.lists(concepts(), min_size=1, max_size=4))
def test_flat_world_columns_are_the_reference_events(world, drawn):
    abox, tbox, space = world
    session = CompiledKB(abox, tbox, space).session()
    for concept in drawn:
        assert_column_is_reference(session, abox, tbox, concept)
    # sub-concept columns are memoised: asking again builds nothing
    held = dict(session._columns)
    for concept in drawn:
        session.column(concept)
    assert session._columns == held


@settings(max_examples=120, deadline=None)
@given(worlds(), st.lists(concepts(), min_size=1, max_size=4), st.data())
def test_overlay_columns_are_the_reference_events(world, drawn, data):
    base, tbox, space = world
    document, filler, reaches_filler = INDIVIDUALS[:3]
    atom = space.atom("e0")
    base.assert_role("r", reaches_filler, filler, space.atom("e4"))
    base.freeze()
    overlay = base.overlay()
    overlay.assert_concept(data.draw(st.sampled_from(NAMES)), document, atom)
    filler_name = data.draw(st.sampled_from(NAMES))
    overlay.assert_concept(filler_name, filler, dynamic=True)
    # the overlay says nothing about reaches_filler, yet changes this for it
    drawn = drawn + [some("r", atomic(filler_name))]
    overlay.assert_role(data.draw(st.sampled_from(ROLES)), "user", filler, ~atom)
    overlay.assert_concept("A", "user", dynamic=True)
    overlay.register_individual("bystander")  # in the domain, asserted nowhere
    kb = CompiledKB(overlay, tbox, space)
    session = kb.session()
    assert {document, filler, "user", reaches_filler} <= session.affected_names()
    for concept in drawn:
        assert_column_is_reference(session, overlay, tbox, concept)
    # an overlay that changes nothing about a concept shares the base's column
    untouched = one_of(INDIVIDUALS[5])
    assert session.column(untouched) is session.base.column(untouched)
    # a new overlay epoch re-reads the overlay's slice, not a stale column
    overlay.clear_dynamic()
    overlay.assert_concept("B", "user", space.atom("e1"), dynamic=True)
    for concept in drawn:
        assert_column_is_reference(kb.session(), overlay, tbox, concept)


@settings(max_examples=100, deadline=None)
@given(worlds(), st.lists(concepts(2), min_size=1, max_size=3), st.data())
def test_a_mutation_never_leaves_a_stale_column(world, drawn, data):
    abox, tbox, space = world
    kb = CompiledKB(abox, tbox, space)
    for concept in drawn:
        kb.column(concept)
    abox.assert_concept(
        data.draw(st.sampled_from(NAMES)), data.draw(st.sampled_from(INDIVIDUALS)),
        space.atom("e2"),
    )
    abox.assert_role(
        data.draw(st.sampled_from(ROLES)), "newcomer", data.draw(st.sampled_from(INDIVIDUALS))
    )
    for concept in drawn:
        assert_column_is_reference(kb.session(), abox, tbox, concept)
    tbox.add_subsumption("E", data.draw(st.sampled_from(NAMES)))
    abox.assert_concept("E", data.draw(st.sampled_from(INDIVIDUALS)), space.atom("e3"))
    tbox.add_role_subsumption("t", data.draw(st.sampled_from(ROLES)))
    abox.assert_role("t", INDIVIDUALS[2], data.draw(st.sampled_from(INDIVIDUALS)))
    for concept in drawn:
        assert_column_is_reference(kb.session(), abox, tbox, concept)
    assert kb.info().invalidations == 2


def per_document_bind(world, rules, names):
    """The binding the parent made: one ``event`` per (document, rule)."""
    session = CompiledKB(world.abox, world.tbox, world.space).session()
    expanded = [session.expand_concept(rule.preference) for rule in rules]
    rows = []
    for name in names:
        events = tuple(session.event(Individual(name), concept) for concept in expanded)
        rows.append((name, events, tuple(session.probability(event) for event in events)))
    return rows


def assert_binds_like_the_parent(world, rules, names):
    kb = CompiledKB(world.abox, world.tbox, world.space)
    bound = bind_documents(world.abox, world.tbox, rules, names, world.space, kb=kb)
    expected = per_document_bind(world, rules, names)
    assert [binding.document.name for binding in bound] == [row[0] for row in expected]
    for binding, (_name, events, probabilities) in zip(bound, expected):
        assert len(binding.preference_events) == len(rules)
        assert all(
            ours is theirs for ours, theirs in zip(binding.preference_events, events)
        )
        assert binding.preference_probabilities == probabilities  # bit-equal
    return kb


def test_tvtouch_binds_like_the_parent():
    world = build_tvtouch()
    set_breakfast_weekend_context(world)
    rules = list(world.repository)
    names = sorted(world.program_ids) + [world.user.name]
    kb = assert_binds_like_the_parent(world, rules, names)
    for rule in rules:
        for concept in (rule.preference, rule.context):
            assert_column_is_reference(kb.session(), world.abox, world.tbox, concept)


def test_the_ledger_world_all_24000_cells():
    world = generate_test_database(seed=7, counts=Section5Counts(persons=50, programs=2000))
    rules = list(generate_rule_series(world, 12))
    kb = CompiledKB(world.abox, world.tbox, world.space)
    names = sorted(individual.name for individual in kb.column(world.target))
    assert len(names) == 2000 and len(rules) == 12
    assert_binds_like_the_parent(world, rules, names)
    # ... and a sample straight against the uncached reference (every
    # successor walk there is a full scan of the role table)
    reference = MembershipEvaluator(world.abox, world.tbox)
    session = kb.session()
    for name in names[::97]:
        for rule in rules:
            assert session.column(rule.preference).get(
                Individual(name), NEVER
            ) is reference.membership_event(name, rule.preference)
