"""E10 — the compiled batch-scoring kernel vs the per-document scorer.

Section 6 motivates pruning with scoring cost; PR 2 attacks the
constant factor instead: compile the bound problem once into flat
arrays and score the whole candidate set in one vectorised pass
(:class:`repro.core.kernel.ScoringKernel`), with per-rule breakdowns
lazy.  This bench sweeps candidates x rules on the Section 5 workload
(E9's world) and measures, per cell:

* the **per-document** reference path (prune, split, then
  ``score_document`` per candidate — what ``ContextAwareScorer.score``
  used to do);
* the **kernel (numpy)** and **kernel (python)** batch paths, compiled
  cold per run;
* the **incremental** path: context-only rebind on the compiled
  matrix vs a full re-bind (the engine's context-delta refresh);
* the **engine miss**: a warm :class:`~repro.engine.RankingEngine` miss
  over 12 rules whose context moves in one concept, with the reuse
  verdict and 11 bindings carried vs the full reuse walk and 12-rule
  bind (asserted by count: one rule re-bound per miss, no walk).

Asserted claims (full mode): at 1000 candidates x 10 rules the numpy
kernel beats the per-document scorer by >= 5x and the pure-python
fallback by >= 1.5x, with value agreement within 1e-9.
"""

import os
import time

import pytest

from repro.core import (
    DocumentBinding,
    DocumentScore,
    ScoringKernel,
    ScoringProblem,
    all_miss_score,
    bind_problem,
    bind_rules,
    prune_rules,
    score_document,
    score_values,
    split_trivial_documents,
)
from repro.dl.vocabulary import Individual
from repro.engine import RankingEngine, RankRequest
from repro.engine.basis import ViewBasis
from repro.engine.engine import context_bind_counters
from repro.perf.backend import numpy_or_none
from repro.reporting import TextTable
from repro.workloads import (
    Section5Counts,
    generate_rule_series,
    generate_test_database,
    install_context_series,
)

#: CI smoke mode: one tiny cell, no perf assertions (see conftest).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

RUNS = 2 if SMOKE else 5
SCALE = 0.1 if SMOKE else 0.4
CELLS = [(40, 3)] if SMOKE else [(100, 4), (1000, 4), (1000, 10)]
ASSERT_CELL = (1000, 10)
MIN_NUMPY_SPEEDUP = 5.0
MIN_PYTHON_SPEEDUP = 1.5

HAVE_NUMPY = numpy_or_none() is not None


def best_of(function, runs: int = RUNS) -> float:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
    return min(times)


def per_document_scores(problem: ScoringProblem) -> dict[str, DocumentScore]:
    """The pre-kernel reference path: one ``score_document`` per candidate."""
    pruned = prune_rules(problem)
    results: dict[str, DocumentScore] = {}
    interesting, trivial = split_trivial_documents(pruned)
    shared = all_miss_score(pruned.bindings)
    for document in trivial:
        results[document.document.name] = DocumentScore(
            document.document.name, shared, (), "factorised"
        )
    for document in interesting:
        results[document.document.name] = score_document(pruned, document, "factorised")
    return results


def tile_problem(problem: ScoringProblem, count: int) -> ScoringProblem:
    """Grow the candidate set to ``count`` by tiling real bindings.

    Clones carry fresh names but the original (real) preference events
    and probabilities, so scoring cost is measured on realistic rows
    without paying the DL binding cost for thousands of candidates.
    """
    documents = list(problem.documents)
    tiled = []
    for index in range(count):
        source = documents[index % len(documents)]
        if index < len(documents):
            tiled.append(source)
            continue
        tiled.append(
            DocumentBinding(
                Individual(f"{source.document.name}_clone{index}"),
                source.preference_events,
                source.preference_probabilities,
            )
        )
    return ScoringProblem(problem.bindings, tuple(tiled), problem.space)


@pytest.fixture(scope="module")
def world():
    world = generate_test_database(seed=7, counts=Section5Counts().scaled(SCALE))
    install_context_series(world, k=12, seed=11)
    return world


def _bound_problem(world, rules: int) -> ScoringProblem:
    repository = generate_rule_series(world, rules, seed=13)
    return bind_problem(
        world.abox, world.tbox, world.user, repository, world.programs, world.space
    )


def test_e10_kernel_speedup(world, save_result, save_json):
    table = TextTable(
        ["candidates x rules", "per-document (ms)", "kernel numpy (ms)",
         "kernel python (ms)", "numpy speedup", "python speedup"]
    )
    records = []
    speedups = {}
    base_problems: dict[int, ScoringProblem] = {}
    for candidates, rules in CELLS:
        if rules not in base_problems:
            base_problems[rules] = _bound_problem(world, rules)
        problem = tile_problem(base_problems[rules], candidates)

        reference = per_document_scores(problem)
        reference_seconds = best_of(lambda: per_document_scores(problem))

        def run_kernel(backend):
            kernel = ScoringKernel.compile(problem, backend=backend)
            return kernel.score_documents()

        python_scored = run_kernel("python")
        python_seconds = best_of(lambda: run_kernel("python"))
        numpy_seconds = None
        if HAVE_NUMPY:
            numpy_scored = run_kernel("numpy")
            numpy_seconds = best_of(lambda: run_kernel("numpy"))
            for score in numpy_scored.values():
                assert score.value == pytest.approx(
                    reference[score.document].value, abs=1e-9
                )
        for score in python_scored.values():
            assert score.value == pytest.approx(
                reference[score.document].value, abs=1e-9
            )

        numpy_speedup = reference_seconds / numpy_seconds if numpy_seconds else None
        python_speedup = reference_seconds / python_seconds
        speedups[(candidates, rules)] = (numpy_speedup, python_speedup)
        table.add_row(
            [
                f"{candidates} x {rules}",
                reference_seconds * 1e3,
                numpy_seconds * 1e3 if numpy_seconds else "n/a",
                python_seconds * 1e3,
                f"x{numpy_speedup:.1f}" if numpy_speedup else "n/a",
                f"x{python_speedup:.1f}",
            ]
        )
        records.append(
            {
                "candidates": candidates,
                "rules": rules,
                "per_document_ms": reference_seconds * 1e3,
                "kernel_numpy_ms": numpy_seconds * 1e3 if numpy_seconds else None,
                "kernel_python_ms": python_seconds * 1e3,
                "numpy_speedup": numpy_speedup,
                "python_speedup": python_speedup,
            }
        )

    save_result("e10_kernel", table.render())
    save_json(
        "e10_kernel",
        {"experiment": "e10_kernel", "runs": RUNS, "rows": records},
    )

    if SMOKE:
        return
    numpy_speedup, python_speedup = speedups[ASSERT_CELL]
    assert python_speedup >= MIN_PYTHON_SPEEDUP, (
        f"pure-python kernel speedup x{python_speedup:.2f} below "
        f"x{MIN_PYTHON_SPEEDUP} at {ASSERT_CELL}"
    )
    if HAVE_NUMPY:
        assert numpy_speedup >= MIN_NUMPY_SPEEDUP, (
            f"numpy kernel speedup x{numpy_speedup:.2f} below "
            f"x{MIN_NUMPY_SPEEDUP} at {ASSERT_CELL}"
        )


def engine_context_miss(monkeypatch) -> tuple[TextTable, dict]:
    """A warm engine miss that moves one context concept re-binds one rule.

    12 rules, each reading its own ``CtxScenario_i``; every miss gives
    ``CtxScenario_00`` a never-repeated probability.  Asserted by count
    (every mode): one rule re-bound and eleven carried per miss, and no
    :meth:`ViewBasis.reusable_for` walk.  Timed against the same miss
    with the carried binding dropped first — the walk and the full bind
    every miss paid before.
    """
    world = generate_test_database(seed=7, counts=Section5Counts().scaled(SCALE))
    engine = RankingEngine.from_world(world, rules=generate_rule_series(world, 12, seed=13))
    standing = [f"CtxScenario_{index:02d}:0.{index + 50}" for index in range(1, 12)]
    request = RankRequest(top_k=3)
    probabilities = iter(range(1000, 10_000))

    def miss(walk: bool = False):
        # a never-repeated probability of CtxScenario_00: a view-cache miss
        specs = [f"CtxScenario_00:0.{next(probabilities)}", *standing]
        if walk:
            engine._carried = None  # what every miss did before carrying
        prepared = engine.prepare_rank(specs, request)
        assert prepared.kernel is not None
        return prepared.complete()

    engine.rank_in_context(standing, request)  # compiles the basis
    miss(walk=True)  # walks once and seeds the carried binding
    walks = []
    real_walk = ViewBasis.reusable_for
    monkeypatch.setattr(
        ViewBasis, "reusable_for", lambda *args, **kw: walks.append(1) or real_walk(*args, **kw)
    )
    before = context_bind_counters()
    misses = 20
    for _ in range(misses):
        miss()
    after = context_bind_counters()
    moved = {key: after[key] - before[key] for key in after}
    assert walks == []
    assert moved == {
        "rules_rebound": misses, "rules_carried": 11 * misses,
        "verdicts_carried": misses, "verdicts_walked": 0,
    }
    carried_seconds = best_of(miss, runs=RUNS * 4)
    walked_seconds = best_of(lambda: miss(walk=True), runs=RUNS * 4)

    table = TextTable(["engine warm miss (12 rules, one concept moves)", "best (ms)", "rules re-bound"])
    table.add_row(["reuse walk + 12-rule bind", walked_seconds * 1e3, 12])
    table.add_row(["carried verdict + stale-rule bind", carried_seconds * 1e3, 1])
    return table, {
        "candidates": len(world.programs),
        "rules": 12,
        "variants": [
            {"variant": "walk + full bind", "best_ms": walked_seconds * 1e3, "rules_rebound": 12},
            {"variant": "carried", "best_ms": carried_seconds * 1e3, "rules_rebound": 1},
        ],
        "speedup": walked_seconds / carried_seconds,
    }


def test_e10_incremental_rescoring(world, save_result, save_json, monkeypatch):
    """Context-only rebinds on the compiled matrix vs full re-binds."""
    rules = CELLS[-1][1]
    repository = generate_rule_series(world, rules, seed=13)
    problem = _bound_problem(world, rules)
    kernel = ScoringKernel.compile(problem)
    rule_list = list(repository)

    def cold():
        fresh = bind_problem(
            world.abox, world.tbox, world.user, repository, world.programs, world.space
        )
        return ScoringKernel.compile(fresh).score_documents()

    def incremental():
        bindings = bind_rules(
            world.abox, world.tbox, world.user, rule_list, world.space
        )
        return kernel.with_context(bindings).score_documents()

    cold_scores = score_values(cold())
    incremental_scores = score_values(incremental())
    assert incremental_scores == pytest.approx(cold_scores, abs=1e-12)

    cold_seconds = best_of(cold)
    incremental_seconds = best_of(incremental)
    speedup = cold_seconds / incremental_seconds

    table = TextTable(["variant", "best (ms)", "speedup"])
    table.add_row(["full re-bind + compile + score", cold_seconds * 1e3, "x1.0"])
    table.add_row(["context-only rebind (incremental)", incremental_seconds * 1e3, f"x{speedup:.1f}"])
    engine_table, engine_record = engine_context_miss(monkeypatch)
    save_result("e10_incremental", table.render() + "\n\n" + engine_table.render())
    save_json(
        "e10_incremental",
        {
            "experiment": "e10_incremental",
            "candidates": len(world.programs),
            "rules": rules,
            "variants": [
                {"variant": "full re-bind", "best_ms": cold_seconds * 1e3},
                {"variant": "incremental", "best_ms": incremental_seconds * 1e3},
            ],
            "speedup": speedup,
            "engine_miss": engine_record,
        },
    )
    if not SMOKE:
        assert speedup > 2.0, (
            f"incremental rescoring must clearly beat a full re-bind, got x{speedup:.2f}"
        )

