"""Metamorphic properties of the engine's ranking, on both kernel backends.

Each property changes a request or the rule set in a way the paper's
semantics fixes the effect of, and checks that the engine's answer moves
exactly so much.  Every property runs on the flat-list and the numpy
kernel and under the ``gated``, ``mixed`` and ``log_linear`` relevance
strategies, with a query part drawn (or none):

* a document's score is the same in every superset of candidates;
* the ranking is equivariant in document order and in rule order;
* naming a document twice ranks it once;
* a rule whose context has P(g) = 0 changes no score;
* a rule with σ = ½ multiplies every preference score by one constant
  (eq. 4: its factor ``a + b·P(f)`` has ``b = P(g)(2σ - 1) = 0``), so
  the order is kept up to rounding, and ties break by name.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dl.concepts import atomic, one_of, some
from repro.engine import EngineBuilder, RankRequest
from repro.rules import PreferenceRule, RuleRepository
from repro.workloads import Section5Counts, generate_rule_series, generate_test_database

from tests.property.test_columnar_identity import BACKENDS, kernel_backend

RELEVANCES = ["gated", "mixed", "log_linear"]
RULES = 6
#: More programs than VECTOR_MIN, so a whole-target ranking on numpy
#: also orders on the ndarray branch.
PROGRAMS = 70
#: A grid of probabilities, so context factors often coincide.
PROBABILITIES = [0.0, 0.1, 0.25, 0.5, 0.7, 0.9, 1.0]

WORLD = generate_test_database(seed=7, counts=Section5Counts(persons=10, programs=PROGRAMS))
NAMES = sorted(WORLD.programs)


def preference(genre: str):
    return atomic("TvProgram") & some("hasGenre", one_of(genre))


def engine(relevance, weight, rules, target=None):
    builder = EngineBuilder().knowledge(WORLD.abox, WORLD.tbox, WORLD.user, WORLD.space)
    builder.target(WORLD.target if target is None else target).preferences(rules)
    if relevance == "gated":
        builder.relevance("gated")
    else:
        builder.relevance(relevance, mixing_weight=weight)
    return builder.build()


def series() -> RuleRepository:
    return generate_rule_series(WORLD, RULES, seed=13)


@st.composite
def scenarios(draw):
    """A context over the rules' scenarios, a mixing weight, a query part."""
    chosen = draw(st.lists(st.integers(0, RULES - 1), min_size=1, max_size=4, unique=True))
    context = [
        f"CtxScenario_{index:02d}:{draw(st.sampled_from(PROBABILITIES))}" for index in chosen
    ]
    weight = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    query = draw(
        st.none()
        | st.dictionaries(
            st.sampled_from(NAMES), st.sampled_from([0.0, 0.2, 0.6, 1.0]), max_size=30
        )
    )
    return context, weight, query


def rank(eng, context, query, documents=None):
    request = RankRequest(documents=documents, query_scores=query)
    return eng.rank_in_context(context, request).items


def columns(items):
    """A ranking as ``(document, score, preference, query part)`` rows."""
    return [(i.document, i.score, i.preference, i.query_dependent) for i in items]


def by_document(items):
    return {row[0]: row[1:] for row in columns(items)}


parametrize = pytest.mark.parametrize
backends = parametrize("backend", BACKENDS)
relevances = parametrize("relevance", RELEVANCES)
examples = settings(max_examples=12, deadline=None)


@backends
@relevances
@settings(max_examples=30, deadline=None)
@given(scenarios(), st.data())
def test_a_score_is_the_same_in_every_superset(backend, relevance, scenario, data):
    # A narrower target, so candidates outside it are scored ad hoc,
    # on a kernel compiled for exactly those candidates.
    target = atomic("TvProgram") & some("hasGenre", one_of(*WORLD.genres[:2]))
    context, weight, query = scenario
    superset = data.draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=40, unique=True))
    subset = data.draw(st.lists(st.sampled_from(superset), min_size=1, max_size=5, unique=True))
    with kernel_backend(backend):
        eng = engine(relevance, weight, series(), target)
        large = by_document(rank(eng, context, query, superset))
        small = by_document(rank(eng, context, query, subset))
        whole = by_document(rank(eng, context, query))
        for document in subset:
            alone = by_document(rank(eng, context, query, [document]))
            assert alone.get(document) == small.get(document) == large.get(document)
            if document in whole:
                assert whole[document] == large[document]


@backends
@relevances
@examples
@given(scenarios(), st.data())
def test_ranking_is_equivariant_in_document_order(backend, relevance, scenario, data):
    context, weight, query = scenario
    documents = data.draw(st.lists(st.sampled_from(NAMES), min_size=1, unique=True))
    shuffled = data.draw(st.permutations(documents))
    everything = data.draw(st.permutations(NAMES))
    with kernel_backend(backend):
        eng = engine(relevance, weight, series())
        assert columns(rank(eng, context, query, shuffled)) == columns(
            rank(eng, context, query, documents)
        )
        assert columns(rank(eng, context, query, everything)) == columns(
            rank(eng, context, query)
        )


@backends
@relevances
@examples
@given(scenarios(), st.data())
def test_ranking_is_equivariant_in_rule_order(backend, relevance, scenario, data):
    context, weight, query = scenario
    rules = list(series())
    shuffled = data.draw(st.permutations(rules))
    with kernel_backend(backend):
        want = rank(engine(relevance, weight, RuleRepository(rules)), context, query)
        got = rank(engine(relevance, weight, RuleRepository(shuffled)), context, query)
    # The factors multiply in another order, so the scores are equal up
    # to rounding, and two documents may swap only if they tie that
    # closely (two rules with one sigma and one P(g) make such ties).
    mine, theirs = by_document(got), by_document(want)
    assert mine.keys() == theirs.keys()
    for document, (score, preference, query) in mine.items():
        assert (score, preference) == pytest.approx(theirs[document][:2], rel=1e-12, abs=0.0)
        assert query == theirs[document][2]
    order = got.documents()
    for higher, lower in zip(order, order[1:]):
        assert theirs[higher][0] >= theirs[lower][0] - 1e-12 * abs(theirs[lower][0])


@backends
@relevances
@examples
@given(scenarios(), st.data())
def test_duplicate_documents_are_idempotent(backend, relevance, scenario, data):
    context, weight, query = scenario
    documents = data.draw(st.lists(st.sampled_from(NAMES), min_size=1, unique=True))
    repeated = data.draw(st.lists(st.sampled_from(documents), min_size=1))
    with kernel_backend(backend):
        eng = engine(relevance, weight, series())
        once = rank(eng, context, query, documents + repeated)
        assert columns(once) == columns(rank(eng, context, query, documents))
    assert len(once) == len(set(once.documents()))


@backends
@relevances
@examples
@given(scenarios(), st.data())
def test_an_impossible_context_rule_changes_no_score(backend, relevance, scenario, data):
    context, weight, query = scenario
    rules = list(series())
    genre = data.draw(st.sampled_from(WORLD.genres))
    sigma = data.draw(st.sampled_from([0.1, 0.5, 0.95]))
    dead = PreferenceRule("dead", atomic("NeverContext"), preference(genre), sigma)
    padded = list(rules)
    padded.insert(data.draw(st.integers(0, len(rules))), dead)
    # ... or a context installed with probability 0
    context_zero = context + ["NeverContext:0.0"]
    with kernel_backend(backend):
        want = columns(rank(engine(relevance, weight, RuleRepository(rules)), context, query))
        eng = engine(relevance, weight, RuleRepository(padded))
        assert columns(rank(eng, context, query)) == want
        assert columns(rank(eng, context_zero, query)) == want


@backends
@relevances
@examples
@given(scenarios(), st.data())
def test_a_half_sigma_rule_keeps_the_order(backend, relevance, scenario, data):
    context, weight, query = scenario
    rules = list(series())
    genre = data.draw(st.sampled_from(WORLD.genres))
    p_g = data.draw(st.sampled_from(PROBABILITIES[1:]))
    half = PreferenceRule("half", atomic("HalfContext"), preference(genre), 0.5)
    padded = list(rules)
    padded.insert(data.draw(st.integers(0, len(rules))), half)
    with kernel_backend(backend):
        before = rank(engine(relevance, weight, RuleRepository(rules)), context, query)
        after = rank(
            engine(relevance, weight, RuleRepository(padded)),
            context + [f"HalfContext:{p_g}"],
            query,
        )
    # every preference score times the rule's one factor, 1 - P(g)/2
    factor = 1.0 - p_g / 2.0
    new = by_document(after)
    assert sorted(new) == sorted(before.documents())
    for document, _score, old_preference, _query in columns(before):
        assert new[document][1] == pytest.approx(factor * old_preference, rel=1e-12, abs=0.0)
    # The old order survives up to rounding — one more factor can split
    # an exact tie by an ulp (float products do not associate), never
    # swap two scores further apart — and ties break by name.
    order = before.documents()
    for higher, lower in zip(order, order[1:]):
        assert new[higher][0] >= new[lower][0] - 1e-12 * abs(new[lower][0])
    assert after.documents() == sorted(new, key=lambda document: (-new[document][0], document))
