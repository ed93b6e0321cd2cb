"""The columnar rank path answers exactly what the object path answered.

The rank path used to build one ``DocumentScore`` + ``LazyContributions``
per candidate, a tuple-keyed sort over ``(name, score, preference, qd)``
entries, one ``RankedItem`` and one render dict per item, and
``json.dumps`` of the lot.  It now carries a score as a float in a
vector from the kernel to the wire.  This suite keeps the old object
path *in the test* as the oracle — ``oracle_*`` below are the deleted
function bodies — and checks, on both kernel backends, that nothing a
caller can observe moved:

* every relevance strategy x query shape x ``top_k`` x document subset:
  same order, same positions, scores bit-equal;
* ``ScoredView`` / ``RankedItems``: ``==``, ``len``, slicing, iteration,
  pickling;
* sequential vs batched vs coalesced engine paths;
* the wire: ``json.loads(response.encoded())`` is the legacy render
  dict and the bytes are ``json.dumps`` of it, for fresh, hit,
  context-echo, stale and ``include_timings`` serves;
* the ``items`` fragment assembled from position heads, name literals
  and score tails (per tie run on ndarrays, per item on lists) is
  byte-equal to the per-item f-string writer it replaced
  (``oracle_items_json``), whatever the ties, the length, the floats'
  spelling or the threads growing the head table;
* a numpy ranking of ``VECTOR_MIN`` rows or more, held in ndarrays and
  rendered per tie run, reads and renders exactly as the same ranking
  held in lists.
"""

import contextlib
import json
import math
import os
import pickle
import random
import sys
import threading
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import InMemoryCacheAdapter
from repro.core import DocumentScore, LazyContributions, score_values
from repro.core.kernel import ScoredView, score_documents_batch
from repro.core.scoring import mix_scores
from repro.engine import EngineBuilder, RankRequest, RankResponse
from repro.engine.engine import score_prepared_batch
from repro.engine.relevance import (
    GatedRelevance,
    LogLinearRelevance,
    MixedRelevance,
)
from repro.engine.requests import RankedItem, RankedItems
from repro.ir.combine import LOG_FLOOR, combine_log_linear
from repro.perf.backend import BACKEND_ENV, numpy_or_none, reset_backend, resolve_backend
from repro.perf.columns import VECTOR_MIN, NameTable, ScoreColumn, as_floats
from repro.perf.flatops import log_linear_rows
from repro.service import FaultInjector, RankingService, ServiceConfig
from repro.service import pipeline
from repro.service.pipeline import RankBody, _items_json
from repro.tenants import TenantRegistry
from repro.workloads import (
    Section5Counts,
    build_tvtouch,
    generate_rule_series,
    generate_test_database,
)

from tests.core.test_batch_kernel import synthetic_family

NUMPY = numpy_or_none()
BACKENDS = ["python"] + (["numpy"] if NUMPY is not None else [])

STRATEGIES = [
    GatedRelevance(),
    MixedRelevance(0.3),
    MixedRelevance(0.0),
    MixedRelevance(1.0),
    LogLinearRelevance(0.7),
]


@contextlib.contextmanager
def kernel_backend(name):
    """Compile kernels on ``name`` for the duration (the env is read once)."""
    before = os.environ.get(BACKEND_ENV)
    os.environ[BACKEND_ENV] = name
    reset_backend()
    try:
        yield
    finally:
        if before is None:
            del os.environ[BACKEND_ENV]
        else:
            os.environ[BACKEND_ENV] = before
        reset_backend()


# ---------------------------------------------------------------------------
# The object-path oracle: the pre-columnar function bodies, verbatim.
# ---------------------------------------------------------------------------

def oracle_entries(strategy, preference_scores, query_scores, documents):
    """The per-strategy ``_entries`` bodies the columnar path replaced."""
    entries = []
    if isinstance(strategy, GatedRelevance):
        for document in documents:
            preference = preference_scores.get(document, 0.0)
            if query_scores is None:
                entries.append((document, preference, preference, None))
                continue
            if query_scores.get(document, 0.0) <= 0.0:
                continue
            entries.append((document, preference, preference, 1.0))
        return entries
    if isinstance(strategy, MixedRelevance):
        for document in documents:
            preference = preference_scores.get(document, 0.0)
            if query_scores is None:
                entries.append((document, preference, preference, None))
            else:
                query_dependent = query_scores.get(document, 0.0)
                combined = mix_scores(query_dependent, preference, strategy.mixing_weight)
                entries.append((document, combined, preference, query_dependent))
        return entries
    assert isinstance(strategy, LogLinearRelevance)
    if query_scores is None:
        return [
            (document, value, value, None)
            for document, value in (
                (document, preference_scores.get(document, 0.0)) for document in documents
            )
        ]
    preferences = [preference_scores.get(document, 0.0) for document in documents]
    dependents = [query_scores.get(document, 0.0) for document in documents]
    weight = strategy.mixing_weight
    if len(dependents) < strategy._BATCH_MIN:
        combined = [combine_log_linear(qd, qi, weight) for qd, qi in zip(dependents, preferences)]
    else:
        np = resolve_backend()
        if np is None:
            combined = log_linear_rows(dependents, preferences, weight, LOG_FLOOR)
        else:
            qd = np.maximum(LOG_FLOOR, np.asarray(dependents, dtype=np.float64))
            qi = np.maximum(LOG_FLOOR, np.asarray(preferences, dtype=np.float64))
            combined = (weight * np.log(qd) + (1.0 - weight) * np.log(qi)).tolist()
    return list(zip(documents, combined, preferences, dependents))


def oracle_ranked(entries, k=None):
    """``_ranked`` / ``_ranked_top_k``: tuple-keyed sort, numbered items."""
    entries = sorted(entries, key=lambda entry: (-entry[1], entry[0]))
    if k is not None:
        entries = entries[:k]
    return tuple(
        RankedItem(document, score, preference, query_dependent, position)
        for position, (document, score, preference, query_dependent) in enumerate(
            entries, start=1
        )
    )


def oracle_render(tenant, context, items, from_cache, explanation=None):
    """The legacy ``RankingService._render`` dict."""
    body = {
        "tenant": tenant,
        "items": [
            {
                "position": item.position,
                "document": item.document,
                "score": item.score,
                "preference": item.preference,
            }
            for item in items
        ],
        "from_cache": from_cache,
    }
    if context is not None:
        body["context"] = list(context)
    if explanation is not None:
        body["explanation"] = explanation
    return body


def bits(items):
    """Items with floats spelled out, so ``-0.0 != 0.0`` and ulps count."""
    return [
        (item.document, repr(item.score), repr(item.preference), repr(item.query_dependent),
         item.position)
        for item in items
    ]


# ---------------------------------------------------------------------------
# Strategies over random columns with forced ties
# ---------------------------------------------------------------------------

NAME_ALPHABET = st.sampled_from(list("abcxyz019_") + ['"', "\\", "é", "☃", " ", "/"])
#: Quantised so equal scores (and with them the name tie-break) are common.
TIED_SCORES = st.sampled_from([0.0, 0.2, 0.2, 0.5, 0.5, 0.5, 1.0, 1e-9, 0.30000000000000004])


@st.composite
def score_columns(draw):
    size = draw(st.integers(min_value=0, max_value=90))
    names = draw(
        st.lists(st.text(NAME_ALPHABET, min_size=1, max_size=6), min_size=size, max_size=size,
                 unique=True)
    )
    free = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    values = [draw(st.one_of(TIED_SCORES, free)) for _ in names]
    query = None
    if draw(st.booleans()):
        graded = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), free)
        query = {name: draw(graded) for name in names if draw(st.booleans())}
        if draw(st.booleans()):
            query["elsewhere"] = 0.7  # a query hit outside the view
    return names, values, query


def as_column(names, values, backend):
    np = resolve_backend(backend)
    table = NameTable(tuple(names), np)
    vector = tuple(values) if np is None else np.array(values, dtype=np.float64)
    return ScoreColumn(table, vector)


@settings(max_examples=120, deadline=None)
@given(score_columns(), st.randoms(use_true_random=False))
def test_every_strategy_matches_the_object_path(case, rng):
    names, values, query = case
    preference = dict(zip(names, values))
    subset = rng.sample(names, len(names) // 2) + ["not_in_view"]
    cuts = [None, 0, 1, 3, len(names), len(names) + 5]
    for backend in BACKENDS:
        column = as_column(names, values, backend)
        for strategy in STRATEGIES:
            shapes = [
                # the whole-target request: the kernel's vector, no lookups
                (column, column.table.names, names),
                # a column read through its mapping surface
                (column, list(names), names),
                # explicit candidates, one of them unknown to the view
                (preference, subset, subset),
            ]
            for scores, documents, oracle_documents in shapes:
                for k in cuts:
                    want = oracle_ranked(
                        oracle_entries(strategy, preference, query, oracle_documents), k
                    )
                    if k is None:
                        got = strategy.combine(scores, query, documents)
                    else:
                        got = strategy.combine_top_k(scores, query, documents, k)
                    assert bits(got) == bits(want), (backend, strategy, k)
                    assert got == want and want == got and len(got) == len(want)
                    assert got[:2] == want[:2] and got[1:] == want[1:]
                    assert got.documents() == [item.document for item in want]
                    if want:
                        assert got[0] == want[0] and got[-1] == want[-1]
                    assert pickle.loads(pickle.dumps(got)) == want
                    legacy = json.dumps(oracle_render("t", None, want, False)["items"])
                    assert _items_json(got) == legacy.encode("utf-8")


def test_ranked_items_of_wraps_ready_made_items():
    items = [RankedItem("b", 0.5, 0.25, 1.0, 1), RankedItem("a", 0.5, 0.5, 0.0, 2)]
    columns = RankedItems.of(items)
    assert columns == tuple(items) and list(columns) == items
    assert RankedItems.of(columns) is columns
    assert RankedItems.of([]) == () and not RankedItems.of([])
    with pytest.raises(IndexError):
        columns[2]
    plain = RankedItems.of([RankedItem("x", 0.1, 0.1)])
    assert plain.dependents is None and plain[0].position == 1


@pytest.mark.parametrize(
    "scores",
    [
        [float("inf"), float("nan"), 0.5],
        [float("-inf")] + [0.25] * 40,  # non-finite among heavy ties
        [0.0, -0.0, 0.0, -0.0] + [0.5] * 20,  # signed zeros must keep their sign
        [0.125] * 30 + [0.75] * 30,  # a handful of distinct scores
        [index / 97.0 for index in range(60)],  # all distinct
        [1, 0.5, 2],  # an int from a custom backend is written as json writes it
        # numpy scalars a custom backend put in a list are written as their floats
        pytest.param(
            [NUMPY.float64(value) for value in (0.5, -0.0, 1e-310, 0.5)] if NUMPY else [],
            marks=pytest.mark.skipif(NUMPY is None, reason="numpy is not installed"),
        ),
    ],
    ids=["non-finite", "non-finite-ties", "signed-zeros", "ties", "unique", "ints",
         "numpy-scalars"],
)
def test_scores_are_spelled_like_json(scores):
    items = RankedItems.of(
        [RankedItem(f"d{index}", score, 0.5) for index, score in enumerate(scores)]
    )
    legacy = json.dumps(oracle_render("t", None, tuple(items), False)["items"])
    assert _items_json(items) == legacy.encode("utf-8")


# ---------------------------------------------------------------------------
# Fragment assembly vs the per-item writer it replaced
# ---------------------------------------------------------------------------

def oracle_float_texts(values):
    """``_float_texts``, verbatim: one text per item."""
    distinct = set(values)
    if 2 * len(distinct) > len(values) or 0.0 in distinct:
        texts = shown = list(map(repr, values))
    else:
        shown = list(map(repr, distinct))
        texts = list(map(dict(zip(distinct, shown)).__getitem__, values))
    if "n" in "".join(shown):
        texts = [json.dumps(value) for value in values]
    return texts


def oracle_items_json(items):
    """The old ``_items_json``, verbatim: one four-slot f-string per item
    (over the columns as the lists it was given)."""
    names = items.table.json_names
    scores = oracle_float_texts(as_floats(items.scores))
    preferences = (
        scores
        if items.preferences is items.scores
        else oracle_float_texts(as_floats(items.preferences))
    )
    return (
        "["
        + ", ".join(
            [
                f'{{"position": {position}, "document": {names[row]}, '
                f'"score": {score}, "preference": {preference}}}'
                for position, row, score, preference in zip(
                    count(1), as_floats(items.rows), scores, preferences
                )
            ]
        )
        + "]"
    ).encode("ascii")


def ranked(scores, backend, *, query=False, k=None, name="d{}"):
    """A ranking of ``scores`` through the real order step on ``backend``."""
    names = [name.format(index) for index in range(len(scores))]
    column = as_column(names, scores, backend)
    if query:  # a query part: the preference column is no longer the score column
        dependents = {name: (index % 3) / 2.0 for index, name in enumerate(names)}
        strategy = MixedRelevance(0.3)
    else:
        dependents, strategy = None, GatedRelevance()
    if k is None:
        return strategy.combine(column, dependents, column.table.names)
    return strategy.combine_top_k(column, dependents, column.table.names, k)


RENDER_CASES = {
    "empty": [],
    "single": [0.25],
    "all-tied": [0.5] * 70,
    "all-distinct": [index / 131.0 for index in range(70)],
    "runs-and-singletons": [0.75] * 40 + [0.61] + [0.5] * 25 + [0.31, 0.3] + [0.125] * 9,
    "signed-zeros": [0.0, -0.0] * 3 + [0.5] * 64,
    "non-finite": [float("inf"), float("-inf"), float("nan"), float("nan")] + [0.25] * 66,
    "tiny-and-exact": [1e-300, 5e-324, 0.1 + 0.2, 1.0, 1e22, 1e-7] * 12,
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("query", [False, True], ids=["own-preference", "query-part"])
@pytest.mark.parametrize("case", sorted(RENDER_CASES))
def test_fragment_assembly_is_the_per_item_writer(case, query, backend):
    scores = RENDER_CASES[case]
    for k in (None, 1, 3, len(scores) + 2):
        items = ranked(scores, backend, query=query, k=k)
        assert (items.preferences is items.scores) == (not query)
        assert len(items) == (len(scores) if k is None else min(k, len(scores)))
        got = _items_json(items)
        assert got == oracle_items_json(items), (case, k)
        decoded = json.loads(got)
        assert [item["position"] for item in decoded] == list(range(1, len(items) + 1))
        assert [item["document"] for item in decoded] == items.documents()


@pytest.mark.parametrize("backend", BACKENDS)
def test_names_needing_escapes_are_gathered_by_rank(backend):
    awkward = ['quo"te', "back\\slash", "é☃", "tab\there", "sp ace", "/sl/ash", "\u2028line"]
    names = [f"{text}-{index}" for index in range(12) for text in awkward]
    column = as_column(names, [(index * 7 % 5) / 5.0 for index in range(len(names))], backend)
    items = GatedRelevance().combine(column, None, column.table.names)
    assert _items_json(items) == oracle_items_json(items)
    assert [item["document"] for item in json.loads(_items_json(items))] == items.documents()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_longer_ranking_than_ever_grows_the_head_table(backend):
    heads = pipeline._POSITION_HEADS
    longest = len(heads) + 500
    items = ranked([(index % 11) / 11.0 for index in range(longest)], backend)
    assert _items_json(items) == oracle_items_json(items)
    assert len(heads) == longest  # grown to this ranking, and no further
    short = ranked([0.5, 0.25, 0.75], backend)
    assert _items_json(short) == oracle_items_json(short)
    assert len(heads) == longest  # a shorter ranking reads the table as it is
    assert heads[0] == '[{"position": 1, "document": '
    assert heads[longest - 1] == f', {{"position": {longest}, "document": '


def test_threads_growing_the_head_table_at_once():
    """More threads than cores, each rendering a longer ranking than the
    table holds: every answer is the oracle's and no head is lost,
    doubled or out of place.  (Without the growth lock most rounds end
    with interleaved heads.)"""
    heads = pipeline._POSITION_HEADS
    lengths = [2000 + 300 * step for step in range(6)]
    rankings = [ranked([(index % 7) / 7.0 for index in range(n)], "python") for n in lengths]
    want = [oracle_items_json(items) for items in rankings]
    table = [f', {{"position": {position}, "document": ' for position in range(2, max(lengths) + 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(8):
            del heads[1:]  # as in a fresh process; nothing else renders meanwhile
            got = [None] * len(rankings)
            barrier = threading.Barrier(len(rankings))

            def render(slot):
                barrier.wait(timeout=10)
                got[slot] = _items_json(rankings[slot])

            threads = [
                threading.Thread(target=render, args=(slot,)) for slot in range(len(rankings))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert got == want
            assert heads[1:] == table
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# A long numpy ranking stays in ndarrays: same bytes, same Python values
# ---------------------------------------------------------------------------

#: A small pool (heavy ties) plus every float whose spelling or bits are
#: special: signed zeros, NaN, infinities, subnormals.
POOL = [0.125, 0.5, 0.5, 0.75, 0.30000000000000004, 0.0, -0.0, float("nan"),
        float("inf"), float("-inf"), 5e-324, 2.5e-310]


@st.composite
def tie_heavy_rankings(draw):
    size = draw(st.integers(min_value=VECTOR_MIN, max_value=VECTOR_MIN + 90))
    scores = draw(st.lists(st.sampled_from(POOL), min_size=size, max_size=size))
    # None: no query part; a strategy: ranked with one
    strategy = draw(st.sampled_from([None, GatedRelevance(), MixedRelevance(0.3),
                                     MixedRelevance(0.0)]))
    k = draw(st.sampled_from([None, VECTOR_MIN, size, size + 3, VECTOR_MIN - 1, 3, 1]))
    return scores, strategy, k


def list_twin(items):
    """The same ranking with every column as the list the flat path holds."""
    dependents = None if items.dependents is None else as_floats(items.dependents)
    scores = as_floats(items.scores)
    preferences = scores if items.preferences is items.scores else as_floats(items.preferences)
    return RankedItems(items.table, as_floats(items.rows), scores, preferences, dependents)


def typed(values):
    """Each value with its type and its spelling (``-0.0``, ``nan``, ulps)."""
    return [(type(value), repr(value)) for value in values]


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=120, deadline=None)
@given(tie_heavy_rankings())
def test_columnar_rankings_render_and_read_as_their_list_twins(backend, ranking):
    scores, strategy, k = ranking
    names = [f"d{(index * 37) % len(scores):03d}" for index in range(len(scores))]
    if strategy is None:
        dependents, strategy = None, GatedRelevance()
    else:
        dependents = {name: (index % 3) / 2.0 for index, name in enumerate(names)}

    def rank_on(backend):
        column = as_column(names, scores, backend)
        if k is None:
            return strategy.combine(column, dependents, column.table.names)
        return strategy.combine_top_k(column, dependents, column.table.names, k)

    items = rank_on(backend)
    if not any(math.isnan(score) for score in scores):
        # no NaN drawn: the flat sort agrees on the order too
        assert bits(items) == bits(rank_on("python"))
    columnar = backend == "numpy" and len(items) >= VECTOR_MIN
    assert hasattr(items.rows, "dtype") == hasattr(items.scores, "dtype") == columnar
    if columnar:
        assert not (items.rows.flags.writeable or items.scores.flags.writeable)
    twin = list_twin(items)
    dicts = [
        {"position": item.position, "document": item.document, "score": item.score,
         "preference": item.preference}
        for item in items
    ]
    assert _items_json(items) == json.dumps(dicts).encode("utf-8")
    assert _items_json(items) == _items_json(twin)
    for item, twin_item in zip(items, twin):
        fields = (item.document, item.score, item.preference, item.query_dependent)
        assert typed(fields) == typed(
            (twin_item.document, twin_item.score, twin_item.preference,
             twin_item.query_dependent)
        )
        assert type(item.score) is float and item.position == twin_item.position
    assert typed(items.documents()) == typed(twin.documents())
    headline = RankResponse(RankRequest(), items).scores()
    twin_headline = RankResponse(RankRequest(), twin).scores()
    assert list(headline) == list(twin_headline)
    assert typed(headline.values()) == typed(twin_headline.values())
    assert {type(score) for score in headline.values()} <= {float}


# ---------------------------------------------------------------------------
# ScoredView
# ---------------------------------------------------------------------------

def oracle_score_documents(kernel, prune_documents=True, method="factorised"):
    """The list of eager ``DocumentScore`` the kernel used to return."""
    trivial = set(kernel.trivial_rows()) if prune_documents else frozenset()
    return [
        DocumentScore(
            name, value, () if row in trivial else LazyContributions(kernel, row), method
        )
        for row, (name, value) in enumerate(zip(kernel.names, kernel.scores(prune_documents)))
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("prune", [True, False])
def test_scored_view_is_the_old_mapping(backend, prune):
    for kernel in synthetic_family(backend, count=3, docs=50, seed=5):
        want = {score.document: score for score in oracle_score_documents(kernel, prune)}
        view = kernel.score_documents(prune_documents=prune)
        assert isinstance(view, ScoredView)
        assert view.names is kernel.candidates.names  # shared, not copied
        assert len(view) == len(want) and list(view) == list(want)
        assert view == want and want == view
        assert dict(view.items()) == want and list(view.values()) == list(want.values())
        assert list(want)[0] in view
        assert "no such document" not in view and view.get("no such document") is None
        with pytest.raises(KeyError):
            view["no such document"]
        for name, score in want.items():
            got = view[name]
            assert (got.document, repr(got.value), got.method) == (
                name, repr(score.value), score.method
            )
            assert got.contributions == score.contributions
            assert (got.contributions == ()) == (score.contributions == ())
        assert score_values(view) == {name: score.value for name, score in want.items()}
        assert dict(view.column()) == score_values(view)
        restored = pickle.loads(pickle.dumps(view))
        assert restored == want and type(restored) is dict


@pytest.mark.parametrize("backend", BACKENDS)
def test_batched_views_match_sequential_views(backend):
    kernels = synthetic_family(backend, count=4, docs=70, seed=9)
    for kernel, view in zip(kernels, score_documents_batch(kernels)):
        assert view.kernel is kernel and view.names is kernel.candidates.names
        want = kernel.score_documents()
        assert score_values(view) == pytest.approx(score_values(want), abs=1e-12)
        probe = kernel.names[3]
        assert view[probe].contributions == want[probe].contributions


# ---------------------------------------------------------------------------
# The engine: sequential vs batched vs coalesced
# ---------------------------------------------------------------------------

def section5_engine(relevance="gated", programs=60, rules=6):
    from repro.dl.vocabulary import Individual

    world = generate_test_database(seed=7, counts=Section5Counts(persons=10, programs=programs))
    user = world.abox.register_individual(Individual("identity_user"))
    builder = EngineBuilder().knowledge(world.abox, world.tbox, user, world.space)
    builder.target(world.target).preferences(generate_rule_series(world, rules))
    builder.relevance(relevance)
    return builder.build()


def draw_context(rng, rules=6):
    first, second = rng.sample(range(rules), 2)
    return (
        f"CtxScenario_{first:02d}:0.{rng.randrange(1000, 9000):04d}",
        f"CtxScenario_{second:02d}:0.{rng.randrange(1000, 9000):04d}",
    )


def request_shapes(names, rng):
    some = rng.sample(names, 7)
    return [
        RankRequest(),
        RankRequest(top_k=3),
        RankRequest(top_k=len(names) + 4),
        RankRequest(documents=some),
        RankRequest(documents=some, top_k=2, explain=True),
        RankRequest(query_scores={name: rng.choice([0.0, 0.5, 1.0]) for name in some}),
        RankRequest(query_scores={name: 1.0 for name in some}, top_k=4),
        RankRequest(explain=True, top_k=5),
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("relevance", ["gated", "mixed", "log_linear"])
def test_engine_paths_agree_with_the_object_path(backend, relevance):
    rng = random.Random(f"{backend}:{relevance}")
    with kernel_backend(backend):
        engine = section5_engine(relevance)
        engine.rank()  # compile the basis: later contexts take the incremental path
        names = sorted(engine.preference_scores())
        for _ in range(4):
            context = draw_context(rng)
            shapes = request_shapes(names, rng)
            sequential = [engine.rank_in_context(context, shape) for shape in shapes]
            preference = engine.preference_scores()
            assert len(set(preference.values())) < len(preference)  # ties are present
            engine.invalidate_cache()  # make the batch rescore instead of hitting the view cache
            engine.rank()
            batched = engine.rank_many(shapes, [context] * len(shapes))
            for shape, left, right in zip(shapes, sequential, batched):
                query = shape.query_score_map
                if shape.documents is not None:
                    documents = list(dict.fromkeys(shape.documents))
                elif query is not None:
                    documents = sorted(set(preference) | set(query))
                else:
                    documents = list(preference)
                want = oracle_ranked(
                    oracle_entries(engine.relevance, preference, query, documents), shape.top_k
                )
                assert bits(left.items) == bits(want), shape
                assert left.items == want and left.documents() == [i.document for i in want]
                assert left.scores() == {item.document: item.score for item in want}
                assert left.top() == (want[0] if want else None)
                # the fused pass may differ from the sequential one by ulps
                assert right.documents() == left.documents()
                assert right.scores() == pytest.approx(left.scores(), abs=1e-12)
                assert (right.explanation is None) == (not shape.explain)
                if shape.explain:
                    assert left.explanation and left.explanation.splitlines()[0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_coalesced_mates_share_one_view(backend):
    with kernel_backend(backend):
        engine = section5_engine()
        engine.rank()
        context = ("CtxScenario_01:0.4321", "CtxScenario_03:0.8765")
        first = engine.prepare_rank(context, RankRequest(top_k=3))
        second = engine.prepare_rank(context, RankRequest())
        assert first.response is None and second.response is None
        views, rows = score_prepared_batch([first, second])
        assert rows == 1 and views[0] is views[1]  # one row, one object, no copies
        assert isinstance(views[0], ScoredView)
        full = second.complete(views[1])
        assert first.complete(views[0]).items == full.items[:3]
        assert engine.view.scored_view() is not views[0]  # lock-free: the view is untouched
        again = engine.rank(RankRequest())  # ... but the view cache holds that very object
        assert again.from_cache and again.items == full.items
        assert engine.view.scored_view() is views[0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_oracle_methods_and_sql_behave_as_before(backend):
    from repro.workloads import set_breakfast_weekend_context

    with kernel_backend(backend):
        worlds = [build_tvtouch() for _ in range(3)]
        for world in worlds:
            set_breakfast_weekend_context(world)
        fast, slow, exact = (
            EngineBuilder().world(world).options(method=method).build()
            for world, method in zip(worlds, ("factorised", "enumeration", "exact"))
        )
        want = fast.rank()
        assert isinstance(fast.view.scored_view(), ScoredView)
        for oracle in (slow, exact):
            got = oracle.rank()
            assert type(oracle.view.scored_view()) is dict
            assert got.documents() == want.documents()
            assert got.scores() == pytest.approx(want.scores(), abs=1e-9)
        sql = fast.rank(
            "SELECT id, preferencescore FROM Programs WHERE preferencescore > 0.1 "
            "ORDER BY preferencescore DESC"
        )
        assert sql.documents() == ["channel5_news", "bbc_news"]
        assert [row[1] for row in sql.result.rows] == pytest.approx([0.6006, 0.18])
        assert "channel5_news" in fast.explain("channel5_news")
        assert fast.view.scored_view()["oprah"].value == pytest.approx(0.071)


@pytest.mark.parametrize("backend", BACKENDS)
def test_snapshot_restored_candidates_serve_the_same_views(backend, tmp_path):
    """The snapshot codec restores ``CompiledCandidates`` by hand: the
    restored set must grow the same lazy tables and answer the same."""
    from repro.store import load_world, write_world_snapshot

    with kernel_backend(backend):
        world = build_tvtouch()
        path = tmp_path / "world.snap"
        write_world_snapshot(path, world)
        loaded = load_world(path)
        context = ("Weekend:0.7", "Breakfast:0.6")
        answers = []
        for source in (world, loaded):
            registry = TenantRegistry(source)
            with registry.checkout("alice") as session:
                answers.append(session.rank_in_context(context, RankRequest(), tick="svc"))
                refreshes = session.engine.cache_info().context_refreshes
        built, restored = answers
        assert refreshes == 1  # served off the restored matrix, not a rebuild
        assert bits(restored.items) == bits(built.items)
        assert _items_json(restored.items) == _items_json(built.items)


# ---------------------------------------------------------------------------
# The size rule: VECTOR_MIN picks the backend, the answers do not move
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def size_rule_only():
    """No forced backend for the duration: the candidate count decides."""
    before = os.environ.pop(BACKEND_ENV, None)
    reset_backend()
    try:
        yield
    finally:
        if before is not None:
            os.environ[BACKEND_ENV] = before
        reset_backend()


@pytest.mark.parametrize(
    "programs, chosen",
    [(VECTOR_MIN - 1, "python"), (VECTOR_MIN, BACKENDS[-1]), (VECTOR_MIN + 1, BACKENDS[-1])],
)
def test_size_rule_boundary_matches_both_backends_and_the_object_path(programs, chosen):
    context = ("CtxScenario_01:0.4321", "CtxScenario_04:0.8765")
    shapes = [RankRequest(), RankRequest(top_k=5)]
    with size_rule_only():
        engine = section5_engine(programs=programs)
        engine.rank()
        ruled = [engine.rank_in_context(context, shape) for shape in shapes]
        view = engine.view.scored_view()
        assert len(view) == programs and view.kernel.backend == chosen
        preference = engine.preference_scores()
    for shape, answer in zip(shapes, ruled):
        want = oracle_ranked(
            oracle_entries(engine.relevance, preference, None, list(preference)), shape.top_k
        )
        assert bits(answer.items) == bits(want)
        assert _items_json(answer.items) == oracle_items_json(answer.items)
    for backend in BACKENDS:
        with kernel_backend(backend):
            forced = section5_engine(programs=programs)
            forced.rank()
            for shape, answer in zip(shapes, ruled):
                other = forced.rank_in_context(context, shape)
                assert forced.view.scored_view().kernel.backend == backend
                assert other.documents() == answer.documents()
                assert other.scores() == pytest.approx(answer.scores(), abs=1e-9)


@pytest.mark.parametrize(
    "programs, backend", [(8, "python"), (2000, BACKENDS[-1])], ids=["8-rows", "2000-rows"]
)
def test_snapshot_restored_basis_follows_the_size_rule(programs, backend, tmp_path, monkeypatch):
    """A restored basis is typed by its row count, like a compiled one:
    flat under ``VECTOR_MIN`` rows, a read-only ndarray from there on —
    and an engine over it answers what the source world answers."""
    from types import SimpleNamespace

    from repro.store import load_world, loader, write_world_snapshot

    world = generate_test_database(seed=7, counts=Section5Counts(persons=10, programs=programs))
    ruled = SimpleNamespace(
        space=world.space, abox=world.abox, tbox=world.tbox, user=world.user,
        target=world.target, repository=generate_rule_series(world, 6),
    )
    path = tmp_path / "world.snap"
    write_world_snapshot(path, ruled)
    restored = []
    seed_pool = loader._seed_basis_pool

    def spy(loaded, candidates, basis):
        restored.append(candidates)
        seed_pool(loaded, candidates, basis)

    monkeypatch.setattr(loader, "_seed_basis_pool", spy)
    with size_rule_only():
        loaded = load_world(path)
        (candidates,) = restored
        assert candidates.backend == backend and len(candidates.names) == programs
        if backend == "numpy":
            assert type(candidates.matrix).__name__ == "ndarray"
            assert candidates.matrix.shape == (programs, 6)
            assert not candidates.matrix.flags.writeable
        else:
            assert isinstance(candidates.matrix, memoryview) and candidates.matrix.readonly
            assert len(candidates.matrix) == programs * 6
        context = ("CtxScenario_01:0.4321", "CtxScenario_03:0.8765")
        answers = []
        for source in (ruled, loaded):
            with TenantRegistry(source).checkout("alice") as session:
                answers.append(session.rank_in_context(context, RankRequest(top_k=10), tick="svc"))
        built, served = answers
        assert served.documents() == built.documents()
        assert served.scores() == pytest.approx(built.scores(), abs=1e-9)


# ---------------------------------------------------------------------------
# The wire: RankBody vs the legacy render dict
# ---------------------------------------------------------------------------

class RecordingService(RankingService):
    """Keeps the engine response behind each fresh render, for the oracle."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rendered = []

    def _render(self, request, response):
        self.rendered.append((request, response))
        return super()._render(request, response)


def make_service(include_timings=False, clock=None, **config):
    cache = InMemoryCacheAdapter(max_entries=64, ttl=5.0, stale_grace=600.0,
                                 **({"clock": clock} if clock else {}))
    return RecordingService(
        TenantRegistry(build_tvtouch(), shards=2, max_sessions=16),
        ServiceConfig(include_timings=include_timings,
                      breaker_min_requests=50, **config),
        cache=cache,
    )


def assert_wire(reply, legacy):
    """The bytes are ``json.dumps`` of the legacy dict; the lazily
    decoded body is that dict (key order included)."""
    assert reply.encoded() == json.dumps(legacy).encode("utf-8")
    assert json.loads(reply.encoded()) == legacy
    assert reply.body == legacy and list(reply.body) == list(legacy)


def legacy_hit(stored, context):
    """``_serve_hit`` on the dict path."""
    body = dict(stored)
    body["cached"] = True
    if context is not None:
        body["context"] = list(context)
    return body


PARAMS = [
    {"tenant": ["alice"], "context": ["Weekend", "Breakfast"]},
    {"tenant": ["alice"], "context": ["Weekend:0.7", "Breakfast:0.6"], "top_k": ["3"]},
    {"tenant": ["alice"], "context": ["Weekend"], "documents": ["oprah,bbc_news,unknown"]},
    {"tenant": ["alice"], "context": ["Breakfast"], "explain": ["1"], "top_k": ["2"]},
    {"tenant": ["bob"], "context": []},
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mate", [False, True], ids=["alone", "after_mate"])
def test_fresh_hit_and_echo_bodies_are_byte_identical(backend, mate):
    with kernel_backend(backend):
        service = make_service()
        renders = 2 if mate else 1
        for params in PARAMS:
            if mate:
                # Another tenant ranks the same context first, so the
                # scored view may come from the service's memo.
                mate_params = {**params, "tenant": [f"mate-{params['tenant'][0]}"]}
                assert service.rank(mate_params).status == 200
            context = tuple(params["context"])
            fresh = service.rank(params)
            assert fresh.status == 200
            request, response = service.rendered[-1]
            legacy = oracle_render(
                request.tenant, context, response.items, response.from_cache,
                response.explanation,
            )
            assert_wire(fresh, legacy)
            stored = {key: value for key, value in legacy.items() if key != "context"}

            echoed = service.rank(params)  # a delta hit: context echo re-attached
            assert_wire(echoed, legacy_hit(stored, context))
            standing = dict(params)
            del standing["context"]
            pure = service.rank(standing)  # a pure hit: no echo, served from begin_rank
            assert_wire(pure, legacy_hit(stored, None))
            # hits never re-render
            assert len(service.rendered) == (PARAMS.index(params) + 1) * renders
        assert (service.memo.info()["hits"] > 0) is mate
        service.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_stale_serves_are_byte_identical(backend):
    from tests.service.test_resilience import FakeClock

    with kernel_backend(backend):
        clock = FakeClock()
        service = make_service(clock=clock)
        params = {"tenant": ["alice"], "context": ["Weekend", "Breakfast"], "top_k": ["3"]}
        service.rank(params)
        request, response = service.rendered[-1]
        stored = oracle_render(request.tenant, None, response.items, response.from_cache)
        clock.advance(10.0)  # expired 5 s ago
        service.fault_injector = FaultInjector(rank_error_rate=1.0, seed=1)

        exact = service.rank(params)
        legacy = dict(stored)
        legacy["context"] = params["context"]
        legacy.update(cached=True, stale=True, stale_reason="error", stale_age_seconds=5.0)
        assert_wire(exact, legacy)

        standing = service.rank({"tenant": ["alice"], "top_k": ["3"]})
        legacy = dict(stored)
        legacy.update(cached=True, stale=True, stale_reason="error", stale_age_seconds=5.0)
        assert_wire(standing, legacy)

        clock.advance(-10.0)
        other = {"tenant": ["alice"], "context": ["Weekend"], "top_k": ["3"]}
        family = service.rank(other)  # exact key misses: the family's last body answers
        legacy = dict(stored)
        legacy["context"] = other["context"]
        legacy.update(cached=True, stale=True, stale_reason="error",
                      stale_age_seconds=family.body["stale_age_seconds"],
                      stale_context_digest=True)
        assert_wire(family, legacy)
        service.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_include_timings_only_touches_the_header(backend):
    with kernel_backend(backend):
        service = make_service(include_timings=True)
        params = {"tenant": ["alice"], "context": ["Weekend", "Breakfast"], "explain": ["true"]}
        for cached in (False, True):
            reply = service.rank(params)
            request, response = service.rendered[-1]
            legacy = oracle_render(request.tenant, params["context"], response.items,
                                   response.from_cache, response.explanation)
            if cached:
                legacy = legacy_hit(
                    {k: v for k, v in legacy.items() if k != "context"}, params["context"]
                )
            assert list(reply.body)[-1] == "timings_ms"
            legacy["timings_ms"] = reply.body["timings_ms"]
            assert set(legacy["timings_ms"]) >= {"parse", "cache", "render", "total"}
            assert_wire(reply, legacy)
        failed = service.rank({"tenant": ["alice"], "context": ["NoSuch:Thing:1"]})
        assert failed.status == 400 and "timings_ms" in failed.body  # dict bodies too
        assert failed.encoded() == json.dumps(failed.body).encode("utf-8")
        service.close()


def test_rank_body_is_immutable_under_decoration():
    body = RankBody("t", b'[{"position": 1}]', {"from_cache": False, "context": ["A"]})
    hit = body.without("context").extended(cached=True)
    assert body.tail == {"from_cache": False, "context": ["A"]}
    assert hit.items_json is body.items_json and hit.nbytes == len(body.items_json)
    assert hit.to_dict() == {
        "tenant": "t", "items": [{"position": 1}], "from_cache": False, "cached": True,
    }
    assert hit.encode() == json.dumps(hit.to_dict()).encode("utf-8")
