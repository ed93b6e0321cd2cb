"""The memoised ``/rank`` parser against a fresh derivation.

``ServiceRequest.from_query`` is ``from_params(parse_qs(query,
keep_blank_values=True))`` remembered by the query's text, and the
request it returns carries what the pipeline derives from it (the
engine request and the response-cache key material).  A memo is only
sound if it is invisible: for any query string the remembered request
and its derived values must equal a fresh derivation field by field,
a failing query must fail the same way every time without ever being
remembered, and a repeated query must be derived once.
"""

import random
import sys
import threading
from urllib.parse import parse_qs

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import InMemoryCacheAdapter, keys, query_key
from repro.engine import backends
from repro.engine.requests import RankRequest
from repro.errors import ReproError
from repro.reason import clear_registry
from repro.service import RankingService, ServiceConfig, pipeline
from repro.service.pipeline import QUERY_MEMO_SIZE, ServiceRequest
from repro.tenants import TenantRegistry
from repro.workloads import build_tvtouch

#: Value pieces by key: well-formed ones, percent-escapes, ``+``,
#: blanks, non-ASCII tenants, and values each parser stage rejects.
VALUES = {
    "tenant": ("alice", "bob", "é", "東京", "%C3%A9", "a+b", "%20", "", "al%26ice", "%ZZ"),
    "context": (
        "Weekend", "Breakfast:0.7", "Weekend%3A0.5", "Breakfast:1.0", "Weekend,Breakfast",
        "Weekend:nope", "NOT AND", "", "+Weekend", "Breakfast:%", "Weekend:2",
    ),
    "top_k": ("3", "1", "0", "-2", "three", "", "%33", "+3", "1e2"),
    "documents": ("p1", "p1,p2", ",", "", "p%2C2", "+p3+", "東"),
    "explain": ("1", "true", "YES", "0", "", "no"),
    "timeout": ("0.5", "1e2", "inf", "nan", "-1", "soon", "", "%31", "+2"),
    "frob": ("1", ""),
    "": ("", "x"),
}
#: Keys by weight: repeated and unknown keys come up, but rarely enough
#: that most drawn queries parse.
KEYS = (
    "context", "context", "context", "top_k", "documents", "explain", "timeout",
    "tenant", "frob", "",
)


def pair(key, min_size=0):
    if key == "context":  # one spec a parameter, mostly valid ones
        min_size = pieces = 1
    else:
        pieces = 2
    value = st.lists(
        st.sampled_from(VALUES[key]), min_size=min_size, max_size=pieces
    ).map("".join)
    # a bare key ("explain") as well as key=value
    return st.tuples(value, st.booleans()).map(
        lambda drawn: key if drawn[1] and not drawn[0] else f"{key}={drawn[0]}"
    )


pairs = st.sampled_from(KEYS).flatmap(pair)
structured = st.tuples(pair("tenant", 1), st.lists(pairs, max_size=5)).flatmap(
    lambda drawn: st.permutations([drawn[0], *drawn[1]])
).map("&".join)
raw = st.text(alphabet="tenaxp=&%+;: é東2.,", max_size=30)
queries = st.one_of(structured, structured, structured, raw)


def derive(query):
    """``(request, rank request or error text, query key)``, derived afresh."""
    request = ServiceRequest.from_params(parse_qs(query, keep_blank_values=True))
    try:
        rank_request = RankRequest(
            documents=request.documents, top_k=request.top_k, explain=request.explain
        )
    except ReproError as exc:
        rank_request = str(exc)
    try:
        derived = query_key(
            request.tenant, request.context, request.documents, request.top_k,
            request.explain,
        )
    except ReproError:
        derived = None
    return request, rank_request, derived


def outcome(call):
    try:
        return call(), None
    except ReproError as exc:
        return None, (type(exc), str(exc))


FIELDS = ("tenant", "context", "top_k", "documents", "explain", "timeout")


@settings(max_examples=400, deadline=None)
@given(queries)
def test_from_query_equals_a_fresh_derivation(query):
    for _ in range(2):  # the first call may fill the memo, the second reads it
        remembered, error = outcome(lambda: ServiceRequest.from_query(query))
        fresh, fresh_error = outcome(lambda: derive(query))
        assert error == fresh_error
        if error is not None:
            continue
        request, rank_request, derived = fresh
        for name in FIELDS:
            assert getattr(remembered, name) == getattr(request, name), name
        assert remembered == request
        got = outcome(lambda: remembered.rank_request)
        if isinstance(rank_request, str):
            assert got[1] is not None and got[1][1] == rank_request
        else:
            assert got == (rank_request, None)
        assert remembered.query_key == derived


@settings(max_examples=100, deadline=None)
@given(queries)
def test_a_failing_query_is_never_remembered(query):
    ServiceRequest.from_query.cache_clear()
    first = outcome(lambda: ServiceRequest.from_query(query))
    if first[1] is None:
        assert ServiceRequest.from_query.cache_info().currsize == 1
        return
    again = outcome(lambda: ServiceRequest.from_query(query))
    assert again == first
    assert ServiceRequest.from_query.cache_info().currsize == 0


@pytest.mark.parametrize(
    "query, message",
    [
        ("context=Weekend", "exactly one non-empty 'tenant' parameter is required"),
        ("tenant=a&top_k=three", "top_k must be an integer, got 'three'"),
        ("tenant=a&timeout=soon", "timeout must be a number of seconds, got 'soon'"),
        ("tenant=a&timeout=-1", "timeout must be a positive finite number, got '-1'"),
        ("tenant=a&frob=1", "unknown rank parameters ['frob']"),
    ],
)
def test_malformed_queries_answer_the_same_400_every_time(query, message):
    clear_registry()
    service = RankingService(
        TenantRegistry(build_tvtouch()), ServiceConfig(request_timeout=None)
    )
    ServiceRequest.from_query.cache_clear()
    for _ in range(3):
        response = service.rank(query)
        assert response.status == 400
        assert response.body["error"].startswith(message)
    assert ServiceRequest.from_query.cache_info().currsize == 0
    clear_registry()


def test_a_repeated_query_is_derived_once(monkeypatch):
    clear_registry()
    service = RankingService(
        TenantRegistry(build_tvtouch()),
        ServiceConfig(request_timeout=None),
        cache=InMemoryCacheAdapter(max_entries=64),
    )
    parsed, canonicalised, shapes = [], [], []
    real_parse, real_canon, real_digest = (
        pipeline.parse_qs, backends.canonical_context, keys._digest
    )

    def parse(query, **kwargs):
        parsed.append(query)
        return real_parse(query, **kwargs)

    def canon(specs):
        canonicalised.append(specs)
        return real_canon(specs)

    def digest(value):
        if isinstance(value, tuple) and len(value) == 3 and isinstance(value[2], bool):
            shapes.append(value)  # (documents, top_k, explain)
        return real_digest(value)

    monkeypatch.setattr(pipeline, "parse_qs", parse)
    monkeypatch.setattr(backends, "canonical_context", canon)
    monkeypatch.setattr(keys, "_digest", digest)
    ServiceRequest.from_query.cache_clear()
    keys._shape_digest.cache_clear()
    query = "tenant=alice&context=Weekend&context=Breakfast:0.7&top_k=3"
    replies = [service.rank(query) for _ in range(100)]
    assert [reply.status for reply in replies] == [200] * 100
    assert all(reply.body["cached"] for reply in replies[1:])
    assert (len(parsed), len(canonicalised), len(shapes)) == (1, 1, 1)
    info = ServiceRequest.from_query.cache_info()
    assert (info.hits, info.misses, info.currsize) == (99, 1, 1)
    clear_registry()


def test_distinct_queries_past_the_bound_leave_the_memo_at_its_bound():
    def query(index):
        return f"tenant=t{index}&context=Weekend:0.{index:05d}"

    ServiceRequest.from_query.cache_clear()
    for index in range(QUERY_MEMO_SIZE + 50):
        ServiceRequest.from_query(query(index))
    info = ServiceRequest.from_query.cache_info()
    assert info.maxsize == QUERY_MEMO_SIZE
    assert info.currsize == QUERY_MEMO_SIZE
    # the newest is still remembered, the oldest went first
    ServiceRequest.from_query(query(QUERY_MEMO_SIZE + 49))
    assert ServiceRequest.from_query.cache_info().hits == info.hits + 1
    ServiceRequest.from_query(query(0))
    assert ServiceRequest.from_query.cache_info().misses == info.misses + 1
    ServiceRequest.from_query.cache_clear()


def test_threads_sharing_remembered_requests_get_the_serial_answers():
    """Remembered requests are shared between threads, and so is the
    first derivation of their values: a torn or lost write would show
    as a wrong answer or a key other than a fresh derivation's."""
    queries = [
        f"tenant=t{tenant}&context={context}&top_k=3"
        for tenant in range(4)
        for context in ("Weekend", "Breakfast:0.7", "Weekend&context=Breakfast")
    ]

    def build():
        clear_registry()
        return RankingService(
            TenantRegistry(build_tvtouch()),
            ServiceConfig(request_timeout=None),
            cache=InMemoryCacheAdapter(max_entries=64),
        )

    serial = build()
    expected = {query: serial.rank(query).body["items"] for query in queries}
    service = build()
    ServiceRequest.from_query.cache_clear()
    wrong, done = [], []

    def worker(seed):
        order = random.Random(seed)
        for _ in range(10):
            for query in order.sample(queries, len(queries)):
                reply = service.rank(query)
                if reply.status != 200 or reply.body["items"] != expected[query]:
                    wrong.append((query, reply.status))
        done.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(done) == list(range(8)) and wrong == []
    for query in queries:
        remembered = ServiceRequest.from_query(query)
        _request, rank_request, derived = derive(query)
        assert remembered.rank_request == rank_request
        assert remembered.query_key == derived
    clear_registry()
