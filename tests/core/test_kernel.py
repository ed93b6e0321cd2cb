"""Unit tests for the compiled batch-scoring kernel."""

import pytest

from repro.errors import ScoringError
from repro.events import ALWAYS, NEVER, EventSpace
from repro.rules import PreferenceRule
from repro.core import (
    CompiledCandidates,
    ContextAwareScorer,
    DocumentBinding,
    LazyContributions,
    RuleBinding,
    ScoringKernel,
    ScoringProblem,
    all_miss_score,
    bind_problem,
    compile_candidates,
    factorised_score,
    prune_rules,
    score_document,
    split_trivial_documents,
)
from repro.dl.vocabulary import Individual
from repro.engine.relevance import GatedRelevance
from repro.perf.backend import (
    BACKEND_ENV,
    backend_name,
    numpy_or_none,
    reset_backend,
    resolve_backend,
)
from repro.perf.columns import VECTOR_MIN
from repro.workloads import build_tvtouch, set_breakfast_weekend_context

BACKENDS = ["python"] + (["numpy"] if numpy_or_none() is not None else [])


@pytest.fixture()
def force_backend(monkeypatch):
    """Flip ``REPRO_KERNEL_BACKEND`` and drop the per-process cache so
    the override is actually seen (and cleaned up afterwards)."""

    def _force(name: str) -> None:
        monkeypatch.setenv(BACKEND_ENV, name)
        reset_backend()

    yield _force
    reset_backend()


@pytest.fixture()
def world():
    world = build_tvtouch()
    set_breakfast_weekend_context(world)
    return world


@pytest.fixture()
def problem(world):
    return bind_problem(
        world.abox, world.tbox, world.user, world.repository,
        world.program_ids, world.space,
    )


def synthetic_problem(sigmas, p_contexts, rows, space=None):
    """A problem straight from probabilities (no DL binding)."""
    space = space or EventSpace("kernel-test")
    bindings = []
    for index, (sigma, p_g) in enumerate(zip(sigmas, p_contexts)):
        rule = PreferenceRule.parse(f"r{index}", "TOP", "TvProgram", sigma)
        if p_g >= 1.0:
            event = ALWAYS
        elif p_g <= 0.0:
            event = NEVER
        else:
            event = space.atom(f"g{index}", p_g)
        bindings.append(RuleBinding(rule, event, p_g))
    documents = []
    for row_index, row in enumerate(rows):
        events = []
        for column, p_f in enumerate(row):
            if p_f >= 1.0:
                events.append(ALWAYS)
            elif p_f <= 0.0:
                events.append(NEVER)
            else:
                events.append(space.atom(f"f{row_index}:{column}", p_f))
        documents.append(
            DocumentBinding(Individual(f"d{row_index}"), tuple(events), tuple(row))
        )
    return ScoringProblem(tuple(bindings), tuple(documents), space)


class TestCompile:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matrix_shape_and_bits(self, problem, backend):
        candidates = compile_candidates(problem, backend)
        assert isinstance(candidates, CompiledCandidates)
        assert candidates.backend == backend
        assert candidates.document_count == 4
        assert candidates.rule_count == 2
        # mpfs satisfies no preference: its P(f) row is all zeros
        kernel = ScoringKernel(candidates, problem.bindings)
        assert kernel.trivial_rows() == [candidates.names.index("mpfs")]

    def test_env_override_forces_python(self, problem, force_backend):
        force_backend("python")
        assert backend_name() == "python"
        assert compile_candidates(problem).backend == "python"

    def test_env_override_cached_until_reset(self, monkeypatch):
        # The default resolution reads the environment once per process:
        # flipping the variable without reset_backend() has no effect.
        reset_backend()
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        before = backend_name()
        monkeypatch.setenv(
            BACKEND_ENV, "python" if before == "numpy" else "numpy"
        )
        try:
            assert backend_name() == before
        finally:
            reset_backend()

    def test_bad_backend_rejected(self, problem):
        with pytest.raises(ScoringError):
            compile_candidates(problem, "fortran")

    def test_resolve_backend_names(self):
        assert resolve_backend("python") is None
        if numpy_or_none() is not None:
            assert resolve_backend("numpy") is not None

    def test_rule_count_mismatch_rejected(self, problem):
        candidates = compile_candidates(problem, "python")
        with pytest.raises(ScoringError):
            ScoringKernel(candidates, problem.bindings[:1])


class TestScores:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_reference_scorer(self, world, problem, backend):
        kernel = ScoringKernel.compile(problem, backend=backend)
        values = dict(zip(kernel.names, kernel.scores()))
        for document in problem.documents:
            expected = score_document(problem, document, "factorised").value
            assert values[document.document.name] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trivial_documents_share_all_miss(self, problem, backend):
        kernel = ScoringKernel.compile(problem, backend=backend)
        assert kernel.trivial_rows() == [kernel.names.index("mpfs")]
        values = dict(zip(kernel.names, kernel.scores()))
        kept = [problem.bindings[index] for index in kernel.kept_rules]
        assert values["mpfs"] == all_miss_score(kept)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_probability_atom_is_trivial_on_both_paths(self, backend):
        # A possible preference event of probability 0 matches no rule:
        # trivial to the kernel and to the reference split alike.
        space = EventSpace("zero-atom")
        base = synthetic_problem([0.8, 0.4], [0.9, 0.6], [[0.5, 0.0], [0.0, 0.0]], space)
        zero = space.atom("zero", 0.0)
        ghost = DocumentBinding(Individual("ghost"), (zero, zero), (0.0, 0.0))
        problem = ScoringProblem(base.bindings, base.documents + (ghost,), space)
        kernel = ScoringKernel.compile(problem, backend=backend)
        assert kernel.trivial_rows() == [1, 2]
        _interesting, trivial = split_trivial_documents(problem)
        assert [document.document.name for document in trivial] == ["d1", "ghost"]
        values = dict(zip(kernel.names, kernel.scores()))
        assert values["ghost"] == values["d1"] == all_miss_score(problem.bindings)
        assert kernel.score_documents()["ghost"].contributions == ()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_threshold_mask_matches_prune_rules(self, world, backend):
        world.repository.add(PreferenceRule.parse("dead", "Holiday", "TvProgram", 0.7))
        problem = bind_problem(
            world.abox, world.tbox, world.user, world.repository,
            world.program_ids, world.space,
        )
        kernel = ScoringKernel.compile(problem, rule_threshold=0.0, backend=backend)
        assert kernel.kept_rules == (0, 1)
        assert kernel.dropped_rule_count == 1
        pruned = prune_rules(problem)
        values = dict(zip(kernel.names, kernel.scores()))
        for document in pruned.documents:
            expected = factorised_score(list(pruned.bindings), document)
            assert values[document.document.name] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_rules_scores_one(self, backend):
        problem = synthetic_problem([], [], [[], []])
        kernel = ScoringKernel.compile(problem, backend=backend)
        assert kernel.scores() == [1.0, 1.0]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_candidate_set(self, backend):
        problem = synthetic_problem([0.8], [0.5], [])
        kernel = ScoringKernel.compile(problem, backend=backend)
        assert kernel.scores() == []
        assert len(kernel.score_documents()) == 0
        assert kernel.score_documents() == {}


class TestLazyContributions:
    def test_materialises_to_reference_breakdown(self, problem):
        kernel = ScoringKernel.compile(problem)
        scored = kernel.score_documents()
        reference = score_document(
            problem, problem.document(Individual("channel5_news")), "factorised"
        )
        lazy = scored["channel5_news"].contributions
        assert isinstance(lazy, LazyContributions)
        assert lazy._items is None, "breakdown must not materialise eagerly"
        assert tuple(lazy) == reference.contributions
        assert lazy._items is not None

    def test_sequence_protocol_and_equality(self, problem):
        kernel = ScoringKernel.compile(problem)
        scored = kernel.score_documents()
        lazy = scored["bbc_news"].contributions
        eager = score_document(
            problem, problem.document(Individual("bbc_news")), "factorised"
        ).contributions
        assert len(lazy) == len(eager) == 2
        assert lazy[0] == eager[0]
        assert lazy == eager
        assert eager == tuple(lazy)
        assert hash(lazy) == hash(eager)
        assert bool(lazy)

    def test_trivial_document_has_empty_contributions(self, problem):
        kernel = ScoringKernel.compile(problem)
        scored = kernel.score_documents()
        assert scored["mpfs"].contributions == ()


def served_cut(kernel, k):
    """What a ``RankRequest(top_k=k)`` is answered from: the kernel's
    full view cut at k by the default relevance backend."""
    view = kernel.score_documents()
    return GatedRelevance().combine_top_k(view.column(), None, view.names, k)


def full_sort(kernel):
    """The kernel's whole ranking (score desc, name asc)."""
    return sorted(
        kernel.score_documents().values(), key=lambda s: (-s.value, s.document)
    )


def assert_cut_is_full_prefix(kernel, k):
    full = full_sort(kernel)
    top = served_cut(kernel, k)
    assert top.documents() == [s.document for s in full[:k]]
    assert list(top.scores) == [s.value for s in full[:k]]


class TestTopK:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 9])
    def test_agrees_with_full_sort(self, problem, backend, k):
        kernel = ScoringKernel.compile(problem, backend=backend)
        assert_cut_is_full_prefix(kernel, k)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cut_stays_exact_on_wide_near_tied_problems(self, backend):
        # Many similar rows with ties: the cut must not drop a tied
        # candidate that wins on name order.
        rows = [[0.9, 0.1, 0.5], [0.1, 0.9, 0.5], [0.5, 0.5, 0.5]] * 20
        problem = synthetic_problem([0.9, 0.7, 0.6], [0.8, 0.9, 1.0], rows)
        kernel = ScoringKernel.compile(problem, backend=backend)
        for k in (1, 5, 17, 60):
            assert_cut_is_full_prefix(kernel, k)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exact_ties_break_by_name_in_the_cut(self, backend):
        # Identical rows at the per-rule upper bound: every score ties
        # exactly, so the winner set is decided purely by name order —
        # on the served cut as in the full sort.
        import random

        rng = random.Random(0)
        for trial in range(40):
            n = rng.randint(3, 8)
            sigmas = [round(rng.uniform(0.55, 0.95), 3) for _ in range(n)]
            p_contexts = [round(rng.uniform(0.5, 1.0), 3) for _ in range(n)]
            problem = synthetic_problem(sigmas, p_contexts, [[1.0] * n] * 50)
            kernel = ScoringKernel.compile(problem, backend=backend)
            top = served_cut(kernel, 7)
            assert top.documents() == sorted(kernel.names)[:7], (
                f"tie-break violated at trial {trial}"
            )
            assert_cut_is_full_prefix(kernel, 7)


class TestWithContext:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_cold_recompile(self, world, problem, backend):
        kernel = ScoringKernel.compile(problem, backend=backend)
        # flip the context: weekend becomes uncertain
        set_breakfast_weekend_context(world, weekend_probability=0.6, tick="flip")
        fresh = bind_problem(
            world.abox, world.tbox, world.user, world.repository,
            world.program_ids, world.space,
        )
        incremental = kernel.with_context(fresh.bindings)
        cold = ScoringKernel.compile(fresh, backend=backend)
        assert incremental.scores() == cold.scores()
        assert incremental.candidates is kernel.candidates, "matrix must be shared"

    def test_rule_count_change_rejected(self, problem):
        kernel = ScoringKernel.compile(problem)
        with pytest.raises(ScoringError):
            kernel.with_context(problem.bindings[:1])

    def test_rule_identity_change_rejected(self, problem):
        kernel = ScoringKernel.compile(problem)
        swapped = (problem.bindings[1], problem.bindings[0])
        with pytest.raises(ScoringError):
            kernel.with_context(swapped)


class TestScorerIntegration:
    def test_duplicate_documents_scored_once_and_shared(self, world):
        scorer = ContextAwareScorer(
            abox=world.abox, tbox=world.tbox, user=world.user,
            repository=world.repository, space=world.space,
        )
        scores = scorer.score(["oprah", "bbc_news", "oprah"])
        assert [s.document for s in scores] == ["oprah", "bbc_news", "oprah"]
        assert scores[0] is scores[2], "duplicates share one DocumentScore"

    def test_reference_method_ranks_without_a_kernel(self, world):
        exact = ContextAwareScorer(
            abox=world.abox, tbox=world.tbox, user=world.user,
            repository=world.repository, space=world.space, method="exact",
        )
        factorised = ContextAwareScorer(
            abox=world.abox, tbox=world.tbox, user=world.user,
            repository=world.repository, space=world.space,
        )
        reference = exact.rank(world.program_ids)[:3]
        fast = factorised.rank(world.program_ids)[:3]
        assert [s.document for s in reference] == [s.document for s in fast]
        assert [s.value for s in reference] == pytest.approx(
            [s.value for s in fast], abs=1e-9
        )
        assert exact.last_kernel is None

    def test_last_kernel_exposed_on_fast_path(self, world):
        scorer = ContextAwareScorer(
            abox=world.abox, tbox=world.tbox, user=world.user,
            repository=world.repository, space=world.space,
        )
        scorer.score(world.program_ids)
        kernel = scorer.last_kernel
        assert kernel is not None
        assert set(kernel.names) == set(world.program_ids)

    def test_log_linear_rows_matches_reference(self):
        import random

        from repro.ir.combine import LOG_FLOOR, combine_log_linear
        from repro.perf.flatops import log_linear_rows

        rng = random.Random(5)
        dependents = [rng.choice([0.0, rng.random()]) for _ in range(100)]
        preferences = [rng.choice([0.0, rng.random()]) for _ in range(100)]
        for weight in (0.0, 0.3, 1.0):
            batched = log_linear_rows(dependents, preferences, weight, LOG_FLOOR)
            for value, qd, qi in zip(batched, dependents, preferences):
                assert value == combine_log_linear(qd, qi, weight)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scorer_results_backend_independent(self, world, force_backend, backend):
        force_backend(backend)
        scorer = ContextAwareScorer(
            abox=world.abox, tbox=world.tbox, user=world.user,
            repository=world.repository, space=world.space,
        )
        scores = scorer.score_map(world.program_ids)
        assert scores["channel5_news"] == pytest.approx(0.6006, abs=1e-9)
        assert scores["mpfs"] == pytest.approx(0.02, abs=1e-9)


@pytest.fixture()
def no_forced_backend(monkeypatch):
    """The size rule only speaks when nobody forces a backend."""
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    reset_backend()
    yield
    reset_backend()


def boundary_problem(rows, rules=5, seed=11):
    """``rows`` documents x ``rules`` rules, with ties and a trivial row."""
    import random

    rng = random.Random(seed)
    matrix = [
        [rng.choice([0.0, 1.0, 0.5, round(rng.random(), 3)]) for _ in range(rules)]
        for _ in range(rows - 1)
    ]
    matrix.append([0.0] * rules)
    sigmas = [round(rng.uniform(0.05, 0.95), 3) for _ in range(rules)]
    contexts = [round(rng.uniform(0.1, 1.0), 3) for _ in range(rules)]
    return synthetic_problem(sigmas, contexts, matrix)


#: rows -> the backend the rule picks (flat lists where numpy is missing).
BOUNDARY = [
    (VECTOR_MIN - 1, "python"),
    (VECTOR_MIN, BACKENDS[-1]),
    (VECTOR_MIN + 1, BACKENDS[-1]),
]


class TestSizeRule:
    """One threshold, ``VECTOR_MIN``: short sets compile on flat lists,
    long ones on numpy, and nothing but the backend changes with it."""

    @pytest.mark.parametrize("rows, chosen", BOUNDARY)
    def test_boundary_backend_and_agreement(self, no_forced_backend, rows, chosen):
        problem = boundary_problem(rows)
        kernel = ScoringKernel.compile(problem)
        assert kernel.backend == chosen
        assert backend_name(rows=rows) == chosen
        assert (kernel.candidates.table.np is not None) == (chosen == "numpy")
        values = kernel.scores()
        reference = [
            score_document(problem, document, "factorised").value
            for document in problem.documents
        ]
        assert values == pytest.approx(reference, abs=1e-9)
        order = served_cut(kernel, rows).documents()
        assert order == [
            name for _value, name in sorted(zip([-v for v in values], kernel.names))
        ]
        for backend in BACKENDS:
            other = ScoringKernel.compile(problem, backend=backend)
            assert other.backend == backend
            assert other.scores() == pytest.approx(values, abs=1e-9)
            assert served_cut(other, rows).documents() == order
            assert served_cut(other, 7).documents() == order[:7]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("rows", [VECTOR_MIN - 1, VECTOR_MIN + 1])
    def test_env_overrides_the_rule_both_ways(self, force_backend, backend, rows):
        force_backend(backend)
        assert backend_name(rows=rows) == backend
        assert compile_candidates(boundary_problem(rows)).backend == backend

    def test_explicit_argument_beats_rule_and_environment(self, force_backend):
        force_backend("python")
        for backend in BACKENDS:
            for rows in (VECTOR_MIN - 1, VECTOR_MIN + 1):
                assert compile_candidates(boundary_problem(rows), backend).backend == backend

    def test_a_small_and_a_large_set_each_answer_correctly(self, no_forced_backend):
        """Contexts over a flat-list matrix and over an ndarray one are
        each scored on their own backend by the engine's one pass, and
        the memo never hands one matrix's view to the other."""
        from types import SimpleNamespace

        from repro.core import score_values
        from repro.engine.engine import ScoredViewMemo, score_documents_batch

        families = []
        for rows in (VECTOR_MIN - 1, VECTOR_MIN + 1):
            base = ScoringKernel.compile(boundary_problem(rows, seed=rows))
            mates = [
                base.with_context(boundary_problem(rows, seed=rows + shift).bindings)
                for shift in (100, 200, 300)
            ]
            families.append(mates)
        small, large = families
        assert small[0].backend == "python" and large[0].backend == BACKENDS[-1]
        for mates in families:
            for kernel in mates:
                view = score_documents_batch(kernel)
                assert view.kernel is kernel
                assert score_values(view) == pytest.approx(
                    dict(zip(kernel.names, kernel.scores())), abs=1e-9
                )
        memo = ScoredViewMemo()
        mixed = [small[0], large[0], small[1], large[1], large[2], small[2]]
        for kernel in mixed:
            prepared = SimpleNamespace(
                kernel=kernel,
                prune_documents=True,
                memo_key=(kernel.candidates, True, kernel.coalesce_key),
                cuts=None,
            )
            view = memo.execute(prepared)
            assert view.kernel is kernel
            assert score_values(view) == pytest.approx(
                dict(zip(kernel.names, kernel.scores())), abs=1e-9
            )
        assert memo.info()["passes"] == len(mixed)
