"""Property tests: the compiled kernel against the reference scorers.

The kernel is a performance layer, not a semantics layer — on every
randomized problem (correlated mutex-group events, threshold-pruned
rules, both numeric backends) it must reproduce
:func:`repro.core.scoring.factorised_score` exactly, and on
independent-feature problems it must agree with the enumeration and
event-level exact scorers, which are its ultimate oracle.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import ALWAYS, NEVER, EventSpace
from repro.events.probability import probability
from repro.rules import PreferenceRule
from repro.core import (
    DocumentBinding,
    RuleBinding,
    ScoringKernel,
    ScoringProblem,
    all_miss_score,
    bind_rules,
    enumeration_score,
    exact_event_score,
    factorised_score,
    prune_rules,
    split_trivial_documents,
)
from repro.dl.vocabulary import Individual
from repro.engine.relevance import GatedRelevance
from repro.perf.backend import numpy_or_none

BACKENDS = ["python"] + (["numpy"] if numpy_or_none() is not None else [])

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def correlated_problems(draw):
    """Random problems whose events may share mutex groups and atoms."""
    n_rules = draw(st.integers(min_value=1, max_value=5))
    n_docs = draw(st.integers(min_value=0, max_value=6))
    space = EventSpace("prop-kernel")

    # An optional mutex group events can draw members from.
    members = []
    if draw(st.booleans()):
        p_first = draw(st.floats(min_value=0.05, max_value=0.6, allow_nan=False))
        p_second = draw(st.floats(min_value=0.05, max_value=0.35, allow_nan=False))
        members = [space.atom("m0", p_first), space.atom("m1", p_second)]
        space.declare_mutex("grp", ["m0", "m1"])

    serial = [0]

    def draw_event(prefix):
        choices = ["always", "never", "fresh"]
        if members:
            choices += ["member", "either_member"]
        kind = draw(st.sampled_from(choices))
        if kind == "always":
            return ALWAYS
        if kind == "never":
            return NEVER
        if kind == "member":
            return draw(st.sampled_from(members))
        if kind == "either_member":
            return members[0] | members[1]
        serial[0] += 1
        return space.atom(f"{prefix}{serial[0]}", draw(probabilities))

    bindings = []
    for index in range(n_rules):
        sigma = draw(probabilities)
        rule = PreferenceRule.parse(f"r{index}", "TOP", "TvProgram", sigma)
        event = draw_event("g")
        bindings.append(RuleBinding(rule, event, probability(event, space)))
    documents = []
    for row in range(n_docs):
        events = tuple(draw_event(f"f{row}x") for _ in range(n_rules))
        values = tuple(probability(event, space) for event in events)
        documents.append(DocumentBinding(Individual(f"d{row}"), events, values))
    threshold = draw(st.sampled_from([0.0, 0.0, 0.1, 0.5]))
    backend = draw(st.sampled_from(BACKENDS))
    return ScoringProblem(tuple(bindings), tuple(documents), space), threshold, backend


@st.composite
def independent_problems(draw):
    """Independent-feature problems (every event its own atom)."""
    n_rules = draw(st.integers(min_value=1, max_value=4))
    n_docs = draw(st.integers(min_value=1, max_value=3))
    space = EventSpace("prop-indep")

    def event_and_p(name):
        p = draw(probabilities)
        if p >= 1.0:
            return ALWAYS, 1.0
        if p <= 0.0:
            return NEVER, 0.0
        return space.atom(name, p), p

    bindings = []
    for index in range(n_rules):
        event, p = event_and_p(f"g{index}")
        rule = PreferenceRule.parse(f"r{index}", "TOP", "TvProgram", draw(probabilities))
        bindings.append(RuleBinding(rule, event, p))
    documents = []
    for row in range(n_docs):
        pairs = [event_and_p(f"f{row}x{col}") for col in range(n_rules)]
        documents.append(
            DocumentBinding(
                Individual(f"d{row}"),
                tuple(event for event, _p in pairs),
                tuple(p for _event, p in pairs),
            )
        )
    backend = draw(st.sampled_from(BACKENDS))
    return ScoringProblem(tuple(bindings), tuple(documents), space), backend


@settings(max_examples=120, deadline=None)
@given(correlated_problems())
def test_kernel_matches_factorised_reference(case):
    problem, threshold, backend = case
    kernel = ScoringKernel.compile(problem, rule_threshold=threshold, backend=backend)
    pruned = prune_rules(problem, threshold)
    values = kernel.scores()
    for value, document in zip(values, pruned.documents):
        expected = factorised_score(list(pruned.bindings), document)
        assert math.isclose(value, expected, abs_tol=1e-9)


@st.composite
def sparse_problems(draw):
    """Problems whose ``P(f)`` cells are 0.0 (the constant ``NEVER`` or a
    possible atom of probability 0), 1.0 or fractional, and whose
    threshold is random: many rows match no kept rule."""
    n_rules = draw(st.integers(min_value=0, max_value=6))
    n_docs = draw(st.integers(min_value=0, max_value=80))
    space = EventSpace("prop-sparse")
    fractions = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)

    def cell(name):
        kind = draw(st.sampled_from(["never", "zero_atom", "always", "fraction"]))
        if kind == "never":
            return NEVER, 0.0
        if kind == "zero_atom":
            return space.atom(name, 0.0), 0.0
        if kind == "always":
            return ALWAYS, 1.0
        p = draw(fractions)
        return space.atom(name, p), p

    bindings = []
    for index in range(n_rules):
        p_g = draw(probabilities)
        rule = PreferenceRule.parse(f"r{index}", "TOP", "TvProgram", draw(probabilities))
        bindings.append(RuleBinding(rule, space.atom(f"g{index}", p_g), p_g))
    sparse = draw(st.floats(min_value=0.0, max_value=1.0))
    documents = []
    for row in range(n_docs):
        pairs = [
            cell(f"f{row}x{col}") if draw(st.floats(0.0, 1.0)) >= sparse else (NEVER, 0.0)
            for col in range(n_rules)
        ]
        documents.append(
            DocumentBinding(
                Individual(f"d{row}"),
                tuple(event for event, _p in pairs),
                tuple(p for _event, p in pairs),
            )
        )
    threshold = draw(st.floats(min_value=0.0, max_value=1.0))
    backend = draw(st.sampled_from(BACKENDS))
    return ScoringProblem(tuple(bindings), tuple(documents), space), threshold, backend


@settings(max_examples=200, deadline=None)
@given(st.one_of(correlated_problems(), sparse_problems()))
def test_kernel_document_pruning_matches_scorer_semantics(case):
    """Section 6 document pruning needs no overwrite: a row whose
    ``P(f)`` is 0 under every kept rule scores the shared all-miss score
    bit for bit, and the kernel's trivial set is the reference split."""
    problem, threshold, backend = case
    kernel = ScoringKernel.compile(problem, rule_threshold=threshold, backend=backend)
    pruned = prune_rules(problem, threshold)
    shared = all_miss_score(pruned.bindings)
    values = dict(zip(kernel.names, kernel.scores()))
    trivial_names = {kernel.names[row] for row in kernel.trivial_rows()}
    _interesting, split = split_trivial_documents(pruned)
    assert trivial_names == {document.document.name for document in split}
    for document in pruned.documents:
        name = document.document.name
        if name in trivial_names:
            assert values[name] == shared
        else:
            expected = factorised_score(list(pruned.bindings), document)
            assert math.isclose(values[name], expected, abs_tol=1e-9)


@settings(max_examples=100, deadline=None)
@given(independent_problems())
def test_kernel_matches_enumeration_and_exact_on_independent_features(case):
    problem, backend = case
    kernel = ScoringKernel.compile(problem, backend=backend)
    values = kernel.scores()
    for value, document in zip(values, problem.documents):
        by_enumeration = enumeration_score(list(problem.bindings), document)
        by_exact = exact_event_score(list(problem.bindings), document, problem.space)
        assert math.isclose(value, by_enumeration, abs_tol=1e-9)
        assert math.isclose(value, by_exact, abs_tol=1e-9)


@settings(max_examples=100, deadline=None)
@given(correlated_problems(), st.data())
def test_served_cut_is_the_full_ranking_prefix(case, data):
    """What a ``top_k`` request is answered from — the scored view cut
    by ``combine_top_k`` — is the first k of the full ranking for every
    k, and a document's score does not depend on the other candidates
    (the paper's eq.(4) is per-document)."""
    problem, threshold, backend = case
    kernel = ScoringKernel.compile(problem, rule_threshold=threshold, backend=backend)
    view = kernel.score_documents()
    full = sorted(view.values(), key=lambda score: (-score.value, score.document))
    relevance = GatedRelevance()
    for k in range(1, len(full) + 2):
        top = relevance.combine_top_k(view.column(), None, view.names, k)
        assert top.documents() == [s.document for s in full[:k]]
        for value, expected in zip(top.scores, full[:k]):
            assert math.isclose(value, expected.value, abs_tol=1e-9)

    scores = dict(zip(view.names, view.vector))
    for document in problem.documents:
        others = [other for other in problem.documents if other is not document]
        kept = data.draw(st.lists(st.sampled_from(others), unique=True)) if others else []
        kept.insert(data.draw(st.integers(0, len(kept))), document)
        restricted = ScoringProblem(problem.bindings, tuple(kept), problem.space)
        alone = ScoringKernel.compile(
            restricted, rule_threshold=threshold, backend=backend
        ).score_documents()
        name = document.document.name
        assert math.isclose(alone[name].value, scores[name], abs_tol=1e-9)


@settings(max_examples=80, deadline=None)
@given(correlated_problems(), st.data())
def test_incremental_rescoring_matches_cold_recompile(case, data):
    problem, threshold, backend = case
    kernel = ScoringKernel.compile(problem, rule_threshold=threshold, backend=backend)
    # A context flip: same rules, fresh context events/probabilities.
    space = EventSpace("prop-flip")
    new_bindings = []
    for index, binding in enumerate(problem.bindings):
        p_g = data.draw(probabilities)
        if p_g >= 1.0:
            event = ALWAYS
        elif p_g <= 0.0:
            event = NEVER
        else:
            event = space.atom(f"flip{index}", p_g)
        new_bindings.append(RuleBinding(binding.rule, event, p_g))
    flipped = ScoringProblem(tuple(new_bindings), problem.documents, problem.space)
    incremental = kernel.with_context(tuple(new_bindings))
    cold = ScoringKernel.compile(flipped, rule_threshold=threshold, backend=backend)
    assert incremental.scores() == cold.scores()
    assert incremental.candidates is kernel.candidates
