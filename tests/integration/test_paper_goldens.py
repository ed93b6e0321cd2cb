"""Golden paper tables: E1, E2, E4, E5, E6 and E8.

Each ``eN()`` below recomputes the deterministic part of
``benchmarks/bench_eN_*.py`` — through the bench's own workloads,
sizes, seeds and helpers, without the timings.  These six benches run
at one size in smoke mode and out of it, and their tables cost about a
second here.  ``paper_goldens.json`` beside this file holds the tables
as generated; every number must come back within 1e-12, so a refactor
of the scoring, mining or IR modules cannot move a reported figure
unnoticed.  E1's Table 1 is also checked against the paper's own four
numbers.

Regenerate the file only when a change is meant to move a figure::

    PYTHONPATH=src python -m tests.integration.test_paper_goldens --write
"""

from __future__ import annotations

import json
import math
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from benchmarks import (
    bench_e1_table1_example as bench_e1,
    bench_e2_figure1_history as bench_e2,
    bench_e4_ablation_optimisations as bench_e4,
    bench_e5_ranking_quality as bench_e5,
    bench_e6_mining as bench_e6,
    bench_e8_uncertain_context as bench_e8,
)
from repro.core import ContextAwareScorer
from repro.dl import membership_event
from repro.dl.concepts import one_of, some
from repro.events import probability_by_bdd, probability_by_shannon
from repro.history import estimate_sigma
from repro.mining import MiningConfig, evaluate_mining, mine_rules
from repro.workloads import (
    build_tvtouch,
    generate_rule_series,
    generate_test_database,
    install_context_series,
    sample_history,
    sample_workday_mornings,
    set_breakfast_weekend_context,
)

GOLDEN = Path(__file__).with_name("paper_goldens.json")
METHODS = ("factorised", "enumeration", "exact")


def _scorer(world, repository, **options) -> ContextAwareScorer:
    return ContextAwareScorer(
        abox=world.abox, tbox=world.tbox, user=world.user,
        repository=repository, space=world.space, **options,
    )


@lru_cache(maxsize=None)
def e1() -> dict:
    """Table 1: the four programs under every scoring method."""
    world = build_tvtouch()
    set_breakfast_weekend_context(world)
    return {
        method: bench_e1._scorer(world, method).score_map(world.program_ids)
        for method in METHODS
    }


@lru_cache(maxsize=None)
def e2() -> dict:
    """Figure 1: the workday-morning sigmas re-estimated from a log."""
    log = sample_workday_mornings(episodes=bench_e2.EPISODES, seed=42)
    traffic = estimate_sigma(log, "WorkdayMorning", "TrafficBulletin").value
    weather = estimate_sigma(log, "WorkdayMorning", "WeatherBulletin").value
    choices = sample_workday_mornings(episodes=1000, seed=7)
    both = sum(1 for episode in choices if len(episode.chosen) == 2)
    return {
        "episodes": bench_e2.EPISODES,
        "sigma_traffic": traffic,
        "sigma_weather": weather,
        "p_neither_featured_ideal": (1.0 - traffic) * (1.0 - weather),
        "both_bulletins_share": both / len(choices),
    }


@lru_cache(maxsize=None)
def e4() -> dict:
    """The Section 6 levers: each one's scores, and what it pruned."""
    world = generate_test_database(seed=7)  # the bench's `section5_world`
    install_context_series(world, k=12, seed=11)

    series = generate_rule_series(world, 10, seed=13)
    live = generate_rule_series(world, 4, seed=13)
    padded = bench_e4._with_unmatched_rules(live, extra=12)
    genres = generate_rule_series(world, 3, seed=13)
    pruning = _scorer(world, genres, prune_documents=True)
    pruned = pruning.score_map(world.programs)
    report = pruning.last_prune_report

    events = []
    for activity in world.activities:
        concept = some("friendsWith", some("doing", one_of(activity)))
        for person in world.persons[:120]:
            event = membership_event(world.abox, world.tbox, person, concept)
            if not event.is_impossible and not event.is_certain:
                events.append(event)
    return {
        "factorised_vs_enumeration": {
            method: _scorer(world, series, method=method).score_map(world.programs[:50])
            for method in ("factorised", "enumeration")
        },
        "rule_pruning": {
            "rules": [len(live), len(padded)],
            "live": _scorer(world, live).score_map(world.programs),
            "padded": _scorer(world, padded).score_map(world.programs),
        },
        "document_pruning": {
            "scored_documents": report.scored_documents,
            "trivial_documents": report.trivial_documents,
            "on": pruned,
            "off": _scorer(world, genres, prune_documents=False).score_map(world.programs),
        },
        "event_engines": {
            "shannon": [probability_by_shannon(event, world.space) for event in events],
            "bdd": [probability_by_bdd(event, world.space) for event in events],
        },
    }


@lru_cache(maxsize=None)
def e5() -> dict:
    """The simulated user study: NDCG@5 and MRR per ranker, λ sweep."""
    quality, mixed = bench_e5._run_study()
    mean = bench_e5._mean
    return {
        "trials": len(quality["context"]),
        "context_ndcg5": mean(quality["context"]),
        "lm_ndcg5": mean(quality["lm"]),
        "context_mrr": mean(quality["mrr_context"]),
        "lm_mrr": mean(quality["mrr_lm"]),
        "lambda_sweep_ndcg5": {str(lam): mean(mixed[lam]) for lam in bench_e5.LAMBDAS},
    }


@lru_cache(maxsize=None)
def e6() -> dict:
    """Mining planted rules back: the report per history length."""
    rows = []
    for episodes in bench_e6.EPISODE_COUNTS:
        log = sample_history(
            bench_e6.TRUE_RULES, bench_e6.CATALOGUE, bench_e6.PATTERNS, episodes, seed=17
        )
        mined = mine_rules(log, MiningConfig(min_support=5, min_lift=0.0))
        report = evaluate_mining(bench_e6._truth_rules(), mined)
        rows.append(
            {
                "episodes": episodes,
                "mined": report.mined,
                "recall": report.recall,
                "precision": report.precision,
                "sigma_mae": report.sigma_mae,
            }
        )
    return {"rows": rows}


@lru_cache(maxsize=None)
def e8() -> dict:
    """The uncertain-breakfast sweep under every scoring method."""
    world = build_tvtouch()
    return {
        "levels": {
            str(level): {method: bench_e8._scores_at(world, level, method) for method in METHODS}
            for level in bench_e8.LEVELS
        }
    }


TABLES = {"e1": e1, "e2": e2, "e4": e4, "e5": e5, "e6": e6, "e8": e8}


def _assert_same(actual, expected, path="") -> None:
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), path
        for key in expected:
            _assert_same(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for index, (mine, theirs) in enumerate(zip(actual, expected)):
            _assert_same(mine, theirs, f"{path}[{index}]")
    elif isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=0.0, abs_tol=1e-12), (path, actual, expected)
    else:
        assert actual == expected, (path, actual, expected)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_matches_the_golden(name, golden):
    # through JSON, so ints and floats compare as the file spells them
    _assert_same(json.loads(json.dumps(TABLES[name]())), golden[name], name)


def test_e1_is_the_papers_table_1():
    programs = ("channel5_news", "bbc_news", "oprah", "mpfs")
    for method, scores in e1().items():
        printed = [f"{scores[program]:.4f}" for program in programs]
        assert printed == ["0.6006", "0.1800", "0.0710", "0.0200"], method


def test_e4_document_pruning_is_lossless_to_the_bit():
    # Section 6: trivial documents share the all-miss score, which is
    # exactly what scoring each of them would give
    pruning = e4()["document_pruning"]
    assert pruning["trivial_documents"] > 0
    assert pruning["on"] == pruning["off"]


def test_e8_certain_end_is_table_1_and_the_ranking_flips():
    levels = e8()["levels"]
    assert levels["1.0"]["factorised"] == pytest.approx(e1()["factorised"], abs=1e-12)
    assert levels["0.0"]["factorised"]["oprah"] > levels["0.0"]["factorised"]["bbc_news"]
    assert levels["1.0"]["factorised"]["bbc_news"] > levels["1.0"]["factorised"]["oprah"]


def main(argv: list[str]) -> int:
    tables = {name: table() for name, table in sorted(TABLES.items())}
    text = json.dumps(tables, indent=1, sort_keys=True) + "\n"
    if argv[1:] == ["--write"]:
        GOLDEN.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
