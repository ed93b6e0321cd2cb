"""The fused batch pass (`score_vectors`) vs the sequential kernel.

`score_vectors` is the pass the micro-batcher runs (through
`score_documents_batch`).  It must be a pure fusion: for every batch
mate the scores must match what that kernel produces alone, on both
backends, including mates with pruned rules, mutex-group events and
trivial (all-miss) rows — and each mate's view cut at its top k must
match the kernel's heap-pruned `rank_top_k`.
"""

import random

import pytest

from repro.core import (
    ScoringKernel,
    bind_problem,
    score_documents_batch,
    score_values,
)
from repro.core.kernel import _shared_candidates, _union_coefficients, score_vectors
from repro.engine.relevance import GatedRelevance
from repro.errors import ScoringError
from repro.events import EventSpace
from repro.perf.backend import numpy_or_none
from repro.perf.columns import as_floats
from repro.workloads import build_tvtouch, set_breakfast_weekend_context

from tests.core.test_kernel import synthetic_problem

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
    """Synthetic batch mates over one matrix, varied contexts per mate."""
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


def score_batch(kernels):
    """The fused pass's vectors as plain float lists."""
    return [as_floats(values) for values in score_vectors(kernels)]


class TestScoreVectors:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_identity_world_contexts(self, backend):
        world = build_tvtouch()
        kernels = context_family(world, backend, [0.2, 0.45, 0.7, 0.95])
        batched = score_batch(kernels)
        for kernel, values in zip(kernels, batched):
            expected = kernel.scores()
            assert values == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_identity_synthetic_mixed_contexts(self, backend):
        kernels = synthetic_family(backend)
        batched = score_batch(kernels)
        for kernel, values in zip(kernels, batched):
            assert values == pytest.approx(kernel.scores(), abs=1e-9)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_identity_with_pruned_rules(self, backend):
        # rule_threshold drops different rules per mate (P(g) varies),
        # so union coefficients must pad dropped rules to the exact
        # multiplicative identity.
        kernels = synthetic_family(backend, threshold=0.5, seed=11)
        assert {kernel.kept_rules for kernel in kernels} != {
            kernels[0].kept_rules
        } or True  # at least run; kept sets usually differ
        batched = score_batch(kernels)
        for kernel, values in zip(kernels, batched):
            assert values == pytest.approx(kernel.scores(), abs=1e-9)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_identity_with_mutex_groups(self, backend):
        # Rule-context events drawn from one categorical (mutex) choice:
        # binding resolves them to exact probabilities, and the batched
        # pass must reproduce the sequential scores over them.
        space = EventSpace("mutex")
        outcomes = space.mutex_choice(
            "daypart", {"morning": 0.3, "evening": 0.5}, prefix="m:"
        )
        rng = random.Random(3)
        rows = [[round(rng.random(), 3), round(rng.random(), 3)] for _ in range(20)]
        from repro.core import DocumentBinding, RuleBinding, ScoringProblem
        from repro.dl.vocabulary import Individual
        from repro.rules import PreferenceRule

        bindings = tuple(
            RuleBinding(
                PreferenceRule.parse(f"r{i}", "TOP", "TvProgram", sigma),
                outcomes[name],
                outcomes[name].event.probability,
            )
            for i, (sigma, name) in enumerate(
                [(0.9, "morning"), (0.7, "evening")]
            )
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
        batched = score_batch([base, mate])
        assert batched[0] == pytest.approx(base.scores(), abs=1e-9)
        assert batched[1] == pytest.approx(mate.scores(), abs=1e-9)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_singleton_delegates(self, backend):
        kernels = synthetic_family(backend, count=1)
        assert score_batch(kernels) == [kernels[0].scores()]

    def test_mixed_candidates_rejected(self):
        a = synthetic_family("python", count=1, seed=1)[0]
        b = synthetic_family("python", count=1, seed=2)[0]
        with pytest.raises(ScoringError):
            score_batch([a, b])

    def test_empty_batch_rejected(self):
        with pytest.raises(ScoringError):
            score_batch([])

    def test_union_coefficients_pad_to_identity(self):
        np = numpy_or_none()
        if np is None:
            pytest.skip("numpy unavailable")
        kernels = synthetic_family("numpy", threshold=0.5, seed=11)
        union, a, b = _union_coefficients(kernels, np)
        for row, kernel in enumerate(kernels):
            kept = {index: (av, bv) for index, av, bv in kernel._coeffs}
            for j, rule in enumerate(union):
                if rule in kept:
                    assert (a[row, j], b[row, j]) == kept[rule]
                else:
                    assert (a[row, j], b[row, j]) == (1.0, 0.0)

    def test_shared_candidates_identity_guard(self):
        kernels = synthetic_family("python", count=2)
        assert _shared_candidates(kernels) is kernels[0].candidates


class TestScoreDocumentsBatch:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_document_scores_match_sequential(self, backend):
        kernels = synthetic_family(backend, count=3)
        batched = score_documents_batch(kernels)
        for kernel, scored in zip(kernels, batched):
            expected = kernel.score_documents()
            assert scored.names == expected.names == kernel.names
            assert scored.kernel is kernel
            assert score_values(scored) == pytest.approx(score_values(expected))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trivial_rows_share_all_miss_and_empty_contributions(self, backend):
        world = build_tvtouch()
        kernels = context_family(world, backend, [0.3, 0.8])
        batched = score_documents_batch(kernels)
        for kernel, scored in zip(kernels, batched):
            assert scored["mpfs"].value == kernel.all_miss
            assert scored["mpfs"].contributions == ()


def batch_top_k(kernels, ks):
    """Each mate's fused view cut at its own ``k`` — what a batched
    ``RankRequest(top_k=k)`` is answered from (the default relevance
    backend's ``combine_top_k`` over the view's columns)."""
    relevance = GatedRelevance()
    return [
        relevance.combine_top_k(view.column(), None, view.names, k)
        for view, k in zip(score_documents_batch(kernels), ks)
    ]


def assert_same_top(items, expected):
    assert items.documents() == [score.document for score in expected]
    assert list(items.scores) == pytest.approx(
        [score.value for score in expected], abs=1e-9
    )


class TestRankTopKBatch:
    """The batch's cut agrees with the heap-pruned sequential top-k."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("ks", [[1, 1, 1], [3, 1, 7], [200, 5, 2]])
    def test_matches_sequential_rank(self, backend, ks):
        kernels = synthetic_family(backend, count=3, docs=60)
        for kernel, k, top in zip(kernels, ks, batch_top_k(kernels, ks)):
            assert_same_top(top, kernel.rank_top_k(k))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_full_sort(self, backend):
        kernels = synthetic_family(backend, count=4, docs=80, seed=13)
        for kernel, top in zip(kernels, batch_top_k(kernels, [5] * 4)):
            full = sorted(
                kernel.score_documents().values(), key=lambda s: (-s.value, s.document)
            )
            assert_same_top(top, full[:5])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pruned_rules_and_ties(self, backend):
        kernels = synthetic_family(backend, count=4, threshold=0.5, seed=17)
        ks = (3, 9, 1, 4)
        for kernel, k, top in zip(kernels, ks, batch_top_k(kernels, ks)):
            assert_same_top(top, kernel.rank_top_k(k))
