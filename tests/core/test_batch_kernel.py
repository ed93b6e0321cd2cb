"""The one kernel pass (`repro.engine.engine.score_documents_batch`).

Every engine miss on a compiled basis is scored through it, one kernel
at a time.  Its view must be the kernel's own, on both backends,
including kernels with pruned rules and trivial (all-miss) rows — and
the view cut at top k must match the first k entries of the kernel's
full sort.  The families below are several context bindings over one
compiled matrix, as herd mates and successive contexts are.
"""

import random

import pytest

from repro.core import (
    DocumentBinding,
    RuleBinding,
    ScoringKernel,
    ScoringProblem,
    all_miss_score,
    bind_problem,
    factorised_score,
    score_values,
)
from repro.dl.vocabulary import Individual
from repro.engine.engine import score_documents_batch
from repro.engine.relevance import GatedRelevance
from repro.events import EventSpace
from repro.perf.backend import numpy_or_none
from repro.perf.columns import as_floats
from repro.rules import PreferenceRule
from repro.workloads import build_tvtouch, set_breakfast_weekend_context

from tests.core.test_kernel import full_sort, synthetic_problem

BACKENDS = ["python"] + (["numpy"] if numpy_or_none() is not None else [])


def context_family(world, backend, probabilities, rule_threshold=0.0):
    """One compiled kernel per weekend probability, sharing candidates."""
    set_breakfast_weekend_context(world)
    base_problem = bind_problem(
        world.abox, world.tbox, world.user, world.repository,
        world.program_ids, world.space,
    )
    base = ScoringKernel.compile(
        base_problem, rule_threshold=rule_threshold, backend=backend
    )
    kernels = []
    for index, probability in enumerate(probabilities):
        set_breakfast_weekend_context(
            world, weekend_probability=probability, tick=f"t{index}"
        )
        fresh = bind_problem(
            world.abox, world.tbox, world.user, world.repository,
            world.program_ids, world.space,
        )
        kernels.append(base.with_context(fresh.bindings))
    return kernels


def synthetic_family(backend, count=5, rules=6, docs=40, seed=7, threshold=0.0):
    """Synthetic kernels over one matrix, a varied context per kernel."""
    rng = random.Random(seed)
    rows = [
        [rng.choice([0.0, 1.0, round(rng.random(), 3)]) for _ in range(rules)]
        for _ in range(docs)
    ]
    rows.append([0.0] * rules)  # a trivial all-miss row
    sigmas = [round(rng.uniform(0.05, 0.95), 3) for _ in range(rules)]
    base_problem = synthetic_problem(
        sigmas, [round(rng.uniform(0.1, 1.0), 3) for _ in range(rules)], rows
    )
    base = ScoringKernel.compile(
        base_problem, rule_threshold=threshold, backend=backend
    )
    kernels = []
    for mate in range(count):
        space = EventSpace(f"mate{mate}")
        fresh = synthetic_problem(
            sigmas,
            [round(rng.uniform(0.0, 1.0), 3) for _ in range(rules)],
            rows,
            space=space,
        )
        kernels.append(base.with_context(fresh.bindings))
    return kernels


def matrix_row(kernel, row):
    """Row ``row`` of the kernel's ``P(f)`` matrix as floats."""
    matrix, width = kernel.candidates.matrix, kernel.candidates.rule_count
    if getattr(matrix, "ndim", 1) == 2:
        return [float(value) for value in matrix[row]]
    return [float(value) for value in matrix[row * width : (row + 1) * width]]


def reference_scores(kernel):
    """Each row's eq.(4) score by the scalar per-rule product
    (`factorised_score`) over the kernel's kept rules — no ``(a, b)``
    coefficients, no vector pass."""
    kept = [kernel.bindings[index] for index in kernel.kept_rules]
    values = []
    for row in range(kernel.document_count):
        cells = matrix_row(kernel, row)
        document = DocumentBinding(
            Individual(kernel.names[row]),
            (),
            tuple(cells[index] for index in kernel.kept_rules),
        )
        values.append(factorised_score(kept, document))
    return values


def pass_values(kernel):
    """The one pass's vector as plain floats."""
    return as_floats(score_documents_batch(kernel).vector)


class TestOnePassIdentity:
    """The pass over each context of a family equals the scalar formula."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_identity_world_contexts(self, backend):
        world = build_tvtouch()
        kernels = context_family(world, backend, [0.2, 0.45, 0.7, 0.95])
        assert len({kernel.coalesce_key for kernel in kernels}) == len(kernels)
        for kernel in kernels:
            assert pass_values(kernel) == pytest.approx(
                reference_scores(kernel), abs=1e-9
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_identity_synthetic_mixed_contexts(self, backend):
        for kernel in synthetic_family(backend):
            assert pass_values(kernel) == pytest.approx(
                reference_scores(kernel), abs=1e-9
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_identity_with_pruned_rules(self, backend):
        # rule_threshold drops different rules per context (P(g) varies);
        # a dropped rule must leave no factor behind.
        kernels = synthetic_family(backend, threshold=0.5, seed=11)
        assert any(kernel.dropped_rule_count for kernel in kernels)
        for kernel in kernels:
            assert pass_values(kernel) == pytest.approx(
                reference_scores(kernel), abs=1e-9
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_identity_with_mutex_groups(self, backend):
        # Rule-context events drawn from one categorical (mutex) choice:
        # binding resolves them to exact probabilities, and the pass must
        # reproduce the per-document scores over them.
        space = EventSpace("mutex")
        outcomes = space.mutex_choice(
            "daypart", {"morning": 0.3, "evening": 0.5}, prefix="m:"
        )
        rng = random.Random(3)
        rows = [[round(rng.random(), 3), round(rng.random(), 3)] for _ in range(20)]
        bindings = tuple(
            RuleBinding(
                PreferenceRule.parse(f"r{i}", "TOP", "TvProgram", sigma),
                outcomes[name],
                outcomes[name].event.probability,
            )
            for i, (sigma, name) in enumerate([(0.9, "morning"), (0.7, "evening")])
        )
        documents = tuple(
            DocumentBinding(
                Individual(f"d{i}"),
                tuple(space.atom(f"f{i}:{j}", p) for j, p in enumerate(row)),
                tuple(row),
            )
            for i, row in enumerate(rows)
        )
        problem = ScoringProblem(bindings, documents, space)
        base = ScoringKernel.compile(problem, backend=backend)
        flipped = tuple(
            RuleBinding(b.rule, b.context_event, 1.0 - b.context_probability)
            for b in bindings
        )
        mate = base.with_context(flipped)
        assert pass_values(base) == pytest.approx(
            [factorised_score(list(bindings), document) for document in documents],
            abs=1e-9,
        )
        assert pass_values(mate) == pytest.approx(
            [factorised_score(list(flipped), document) for document in documents],
            abs=1e-9,
        )


class TestScoreDocumentsBatch:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_document_scores_match_sequential(self, backend):
        for kernel in synthetic_family(backend, count=3):
            scored = score_documents_batch(kernel)
            reference = reference_scores(kernel)
            trivial = kernel.trivial_row_set()
            for row, name in enumerate(kernel.names):
                document = scored[name]
                assert document.value == pytest.approx(reference[row], abs=1e-9)
                want = () if row in trivial else kernel.contributions_for(row)
                assert tuple(document.contributions) == want

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_pass_never_calls_score_documents(self, backend, monkeypatch):
        # A tracer wraps both the pass and ScoringKernel.score_documents
        # as one span name: nesting them would count the rows twice.
        kernel = synthetic_family(backend, count=1)[0]

        def nested(*_args, **_kwargs):
            raise AssertionError("the pass nested a score_documents call")

        monkeypatch.setattr(ScoringKernel, "score_documents", nested)
        assert pass_values(kernel) == pytest.approx(reference_scores(kernel), abs=1e-9)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("prune", [True, False])
    def test_the_pass_is_the_kernels_own_view(self, backend, prune):
        for kernel in synthetic_family(backend, count=3):
            scored = score_documents_batch(kernel, prune)
            expected = kernel.score_documents(prune)
            assert scored.names is expected.names is kernel.names
            assert scored.kernel is kernel and scored.prune_documents is prune
            assert score_values(scored) == score_values(expected)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trivial_rows_share_all_miss_and_empty_contributions(self, backend):
        world = build_tvtouch()
        for kernel in context_family(world, backend, [0.3, 0.8]):
            scored = score_documents_batch(kernel)
            kept = [kernel.bindings[index] for index in kernel.kept_rules]
            assert scored["mpfs"].value == all_miss_score(kept)
            assert scored["mpfs"].contributions == ()


def batch_top_k(kernels, ks):
    """Each kernel's pass cut at its own ``k`` — what a
    ``RankRequest(top_k=k)`` is answered from (the default relevance
    backend's ``combine_top_k`` over the view's columns)."""
    relevance = GatedRelevance()
    views = (score_documents_batch(kernel) for kernel in kernels)
    return [
        relevance.combine_top_k(view.column(), None, view.names, k)
        for view, k in zip(views, ks)
    ]


def assert_same_top(items, expected):
    assert items.documents() == [score.document for score in expected]
    assert list(items.scores) == pytest.approx(
        [score.value for score in expected], abs=1e-9
    )


class TestRankTopKBatch:
    """The pass's cut at k agrees with the full sort cut at k."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("ks", [[1, 1, 1], [3, 1, 7], [200, 5, 2]])
    def test_matches_sequential_rank(self, backend, ks):
        kernels = synthetic_family(backend, count=3, docs=60)
        for kernel, k, top in zip(kernels, ks, batch_top_k(kernels, ks)):
            assert_same_top(top, full_sort(kernel)[:k])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_full_sort(self, backend):
        kernels = synthetic_family(backend, count=4, docs=80, seed=13)
        for kernel, top in zip(kernels, batch_top_k(kernels, [5] * 4)):
            assert_same_top(top, full_sort(kernel)[:5])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pruned_rules_and_ties(self, backend):
        kernels = synthetic_family(backend, count=4, threshold=0.5, seed=17)
        ks = (3, 9, 1, 4)
        for kernel, k, top in zip(kernels, ks, batch_top_k(kernels, ks)):
            assert_same_top(top, full_sort(kernel)[:k])
