"""A request pays only for what it changed: operation-count guards.

Work that is a function of history (the breaker's window), of the
immutable rule set (rule and target keys), of the vocabulary (concept
syntax) or of the response's bookkeeping (metrics locks) must not be
redone per request.  These tests count operations — never time — on a
warm tvtouch service and a warm 40-program Section 5 service:

(a) context specs reach the concept parser at most once per *new*
    concept name, whichever of the three former parse sites (cache key,
    pipeline pre-flight, ``AboxContext.install``) sees them first;
(b) a cache-missing rank and a delta hit render no concept to text;
(c) the breaker's outcome window is never walked;
(d) a pure hit is recorded by one ``ServiceMetrics`` call under one
    hold of the metrics lock, and its wire stages (parse, read, write)
    and the request count by one ``GatewayMetrics`` call under one hold
    of the gateway's lock;
(e) a delta hit over HTTP is answered on the loop: no executor hop,
    one install, one fingerprint, no blocking checkout and no breaker call;
(f) a warm miss over HTTP is ranked on the loop, under the deadline,
    with no executor hop; a non-resident tenant's miss takes exactly one
    hop, to the gateway pool, and no other pool exists;
(g) a miss on a warm basis is one kernel pass, run after the tenant's
    engine lock is released;
(h) what a fresh-context miss digests for its cache key does not grow
    with the shared world's sensed context;
(i) a full ranking of a 2 000-program world reaches the render as
    ndarray columns (no per-document Python objects before the body
    bytes), while a top-3 reaches it as lists;
(j) no request walks the rule set: its tuple and fingerprint are built
    once per repository revision, and an edit re-derives both;
(k) a delta hit that flips a tenant back to a context it held before
    parses no spec and builds no basic event and no assertion: the
    context is one interned value, spliced from the session's kept rows.
"""

import collections
import http.client
import json
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cache import InMemoryCacheAdapter, keys
from repro.core.kernel import ScoringKernel
from repro.dl import concepts
from repro.dl.abox import ConceptAssertion
from repro.engine import RankingEngine, backends
from repro.events.atoms import BasicEvent
from repro.errors import ReproError
from repro.perf.backend import resolve_backend
from repro.reason import clear_registry
from repro.rules import RuleRepository
from repro.service import (
    CircuitBreaker,
    GatewayMetrics,
    RankingService,
    ServiceConfig,
    ServiceMetrics,
    aio,
    make_aio_server,
    pipeline,
    resilience,
)
from repro.tenants import TenantRegistry
from repro.workloads import (
    Section5Counts,
    build_tvtouch,
    generate_rule_series,
    generate_test_database,
)

#: world name -> (two known context concepts, a third one)
CONTEXTS = {
    "tvtouch": ("Weekend", "Breakfast", "Morning"),
    "section5": ("CtxScenario_00", "CtxScenario_01", "CtxScenario_02"),
}


def build_service(world_name, metrics=None, request_timeout=None, persons=10, programs=40):
    if world_name == "tvtouch":
        world, rules = build_tvtouch(), None
    else:
        world = generate_test_database(
            seed=7, counts=Section5Counts(persons=persons, programs=programs)
        )
        rules = generate_rule_series(world, 6)
    registry = TenantRegistry(world, rules=rules, max_sessions=16)
    return RankingService(
        registry,
        # no deadline by default: the rank runs on the calling thread,
        # where the counters are
        ServiceConfig(request_timeout=request_timeout),
        metrics=metrics,
        cache=InMemoryCacheAdapter(max_entries=64),
    )


def rank(service, *context, tenant="alice"):
    params = {"tenant": [tenant], "top_k": ["3"]}
    if context:
        params["context"] = list(context)
    response = service.rank(params)
    assert response.status == 200, response.body
    return response


def warm(service, world_name):
    """Two ranks per shape, so bases are compiled and digests learned."""
    first, second, _third = CONTEXTS[world_name]
    for _ in range(2):
        rank(service, first, f"{second}:0.7")
        rank(service, first)
        rank(service)


@pytest.fixture(params=sorted(CONTEXTS))
def world_name(request):
    clear_registry()
    yield request.param
    clear_registry()


def test_known_context_names_never_reach_the_parser(world_name, monkeypatch):
    service = build_service(world_name)
    warm(service, world_name)
    first, second, third = CONTEXTS[world_name]
    parsed = []
    real = backends.parse_concept

    def counting(text):
        parsed.append(text)
        return real(text)

    monkeypatch.setattr(backends, "parse_concept", counting)
    # a miss (fresh probabilities), a delta hit, and the same with the cache off
    rank(service, f"{first}:0.4242", f"{second}:0.2424")
    assert rank(service, first, f"{second}:0.7").body["cached"] is True
    uncached = RankingService(service.registry, ServiceConfig(request_timeout=None))
    rank(uncached, f"{first}:0.1111", second)
    assert service.install_context("alice", [first, f"{second}:0.5"]).status == 200
    assert parsed == []
    # a name never seen before is parsed once, by whichever site meets it first
    backends._check_concept_syntax.cache_clear()
    rank(service, f"{third}:0.3131", first)
    assert sorted(parsed) == sorted([third, first])
    rank(service, f"{third}:0.4141", first)
    assert len(parsed) == 2
    # a failure is never remembered: the same 400, the parser asked each time
    with pytest.raises(ReproError) as raised:
        real("NOT AND")
    standing = service.registry.session("alice").engine.view_fingerprint()
    for _ in range(2):
        bad = service.rank({"tenant": ["alice"], "context": [first, "NOT AND:0.5"]})
        assert bad.status == 400 and bad.body == {"error": str(raised.value)}
    assert parsed.count("NOT AND") >= 2
    assert service.registry.session("alice").engine.view_fingerprint() == standing
    service.close()
    uncached.close()


def test_no_concept_is_rendered_to_text_on_a_miss_or_a_delta_hit(world_name, monkeypatch):
    service = build_service(world_name)
    warm(service, world_name)
    first, second, _third = CONTEXTS[world_name]
    rendered = []
    for cls in vars(concepts).values():
        if isinstance(cls, type) and issubclass(cls, concepts.Concept) and "__str__" in vars(cls):
            def counting(self, _real=cls.__str__):
                rendered.append(type(self).__name__)
                return _real(self)

            monkeypatch.setattr(cls, "__str__", counting)
    missed = rank(service, f"{first}:0.4243", f"{second}:0.2425")
    assert "cached" not in missed.body
    hit = rank(service, first, f"{second}:0.7")
    assert hit.body["cached"] is True
    assert rendered == []
    assert str(service.registry.session("alice").engine.target)  # the spy does count
    assert rendered
    service.close()


class NeverWalked(collections.deque):
    """An outcome window that refuses to be iterated."""

    def __iter__(self):
        raise AssertionError("the breaker walked its outcome window on the request path")


def test_the_breaker_window_is_never_walked(world_name, monkeypatch):
    monkeypatch.setattr(resilience, "deque", NeverWalked)
    service = build_service(world_name)
    breaker = service.breaker
    assert isinstance(breaker._global.events, NeverWalked)
    for index in range(5000):  # a fifth fail: under the threshold, over min_requests
        (breaker.record_failure if index % 5 == 0 else breaker.record_success)("alice")
    assert len(breaker._global.events) == 5000
    assert isinstance(breaker._tenants.peek("alice").events, NeverWalked)
    warm(service, world_name)  # misses, delta hits and pure hits; any walk is a 500
    assert breaker.allow("alice").allowed and breaker.state() == "closed"
    assert service.readiness()[0] == 200 and service.metrics_snapshot()["resilience"]
    service.close()


class CountingLock:
    def __init__(self, lock):
        self._lock = lock
        self.acquired = 0

    def __enter__(self):
        self.acquired += 1
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        return self._lock.__exit__(*exc_info)


class SpyMetrics(ServiceMetrics):
    """Counts recording calls and holds of the metrics lock."""

    def __init__(self):
        super().__init__()
        self._lock = CountingLock(self._lock)  # before any recorder shares it
        self.calls = []


for _name in ("observe_stage", "count_outcome", "count", "stage", "record_request"):
    def _spy(self, *args, _name=_name, **kwargs):
        self.calls.append(_name)
        return getattr(ServiceMetrics, _name)(self, *args, **kwargs)

    setattr(SpyMetrics, _name, _spy)


def test_a_pure_hit_is_one_recording_call_under_one_lock(world_name):
    metrics = SpyMetrics()
    service = build_service(world_name, metrics=metrics)
    warm(service, world_name)
    before = metrics.snapshot()["stages"]
    metrics.calls.clear()
    held = metrics._lock.acquired
    hit = rank(service)
    assert hit.body["cached"] is True
    assert metrics.calls == ["record_request"]
    assert metrics._lock.acquired - held == 1
    # ... and it recorded what the per-stage loop used to: each stage
    # plain and under its tag, and the outcome
    after = metrics.snapshot()
    for stage in ("parse", "cache", "render", "total"):
        for name in (stage, f"{stage}.cached"):
            assert after["stages"][name]["count"] == before[name]["count"] + 1
    assert set(hit.timings) == {"parse", "cache", "render", "total"}
    assert after["outcomes"]["ok_cached"] >= 1
    service.close()


class SpyGatewayMetrics(GatewayMetrics):
    """Counts recording calls and holds of the gateway metrics lock."""

    def __init__(self):
        super().__init__()
        self._lock = CountingLock(self._lock)
        for recorder in (self.read, self.parse, self.write):  # they share it
            recorder._lock = self._lock
        self.calls = []


for _name in (
    "record_response", "connection_opened", "connection_closed",
    "count_bad_request", "count_read_timeout",
):
    def _spy(self, *args, _name=_name, **kwargs):
        self.calls.append(_name)
        return getattr(GatewayMetrics, _name)(self, *args, **kwargs)

    setattr(SpyGatewayMetrics, _name, _spy)


def test_an_http_answer_is_one_gateway_recording_call_under_one_lock(world_name, monkeypatch):
    monkeypatch.setattr(aio, "GatewayMetrics", SpyGatewayMetrics)
    service = build_service(world_name)
    warm(service, world_name)
    server = make_aio_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    metrics = server.gateway_metrics
    client = http.client.HTTPConnection(*server.server_address, timeout=10)

    def answered(requests):
        # The loop records just after the write: give it a beat.
        deadline = time.monotonic() + 5.0
        while metrics._requests < requests and time.monotonic() < deadline:
            time.sleep(0.005)
        return metrics._requests

    try:
        for index in (1, 2):  # the second rides the kept-alive connection
            if index == 2:
                metrics.calls.clear()
                held = metrics._lock.acquired
            client.request("GET", "/rank?tenant=alice&top_k=3")
            reply = client.getresponse()
            assert json.loads(reply.read())["cached"] is True
            assert answered(index) == index
        assert metrics.calls == ["record_response"]
        assert metrics._lock.acquired - held == 1
        section = service.metrics_snapshot()["gateway"]
        assert section["requests"] == 2
        for stage in ("parse", "read", "write"):
            assert section["stages"][stage]["count"] == 2
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.close()


def serve_one(service, query, *more):
    """``GET /rank?query`` (then each of ``more``) through a real gateway;
    the last body and the names of the threads alive just after it."""
    server = make_aio_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        for each in (query, *more):
            with urllib.request.urlopen(f"{server.url}/rank?{each}", timeout=10) as reply:
                body = json.loads(reply.read())
        names = {alive.name for alive in threading.enumerate()}
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.close()
    return body, names


def test_an_http_miss_takes_one_thread(world_name, monkeypatch):
    # The default deadline is on.  A warm miss is ranked by the loop
    # itself; only a tenant with no live session (a mint) is handed to
    # the gateway pool, whose thread ranks under the deadline.
    service = build_service(world_name, request_timeout=2.0)
    warm(service, world_name)
    _first, second, third = CONTEXTS[world_name]
    submits = []
    real = ThreadPoolExecutor.submit

    def submit(self, fn, /, *args, **kwargs):
        submits.append(self)
        return real(self, fn, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", submit)
    context = f"top_k=3&context={third}:0.3737&context={second}"
    missed = []  # after each request: misses answered on the loop, deferred
    real_finish = RankingService.finish_rank

    def finish(self, attempt, **kwargs):
        try:
            return real_finish(self, attempt, **kwargs)
        finally:
            cache = self.metrics_snapshot()["cache"]
            missed.append((cache["misses_inline"], cache["misses_deferred"]["not_resident"]))

    monkeypatch.setattr(RankingService, "finish_rank", finish)
    body, names = serve_one(service, f"tenant=alice&{context}")
    assert "cached" not in body and body["items"]
    assert submits == [] and missed == [(1, 0)]
    assert not [name for name in names if name.startswith("repro-rank")]
    assert "zoe" not in service.registry  # never minted
    body, _names = serve_one(service, f"tenant=zoe&{context}")
    assert "cached" not in body and body["items"]
    assert len(submits) == 1 and missed[1:] == [(1, 1), (1, 1)]


def test_an_http_miss_is_one_kernel_pass_outside_the_engine_lock(world_name, monkeypatch):
    service = build_service(world_name, request_timeout=2.0)
    warm(service, world_name)  # alice's basis is compiled
    _first, second, third = CONTEXTS[world_name]
    engine = service.registry.session("alice").engine
    owned = []  # per pass: did the scoring thread hold the engine lock?
    real = ScoringKernel.score_vector

    def counting(kernel, *args, **kwargs):
        owned.append(engine._lock._is_owned())
        return real(kernel, *args, **kwargs)

    monkeypatch.setattr(ScoringKernel, "score_vector", counting)
    body, _names = serve_one(
        service, f"tenant=alice&top_k=3&context={third}:0.3939&context={second}"
    )
    assert "cached" not in body and body["items"]
    assert owned == [False]


def test_an_http_delta_hit_never_leaves_the_loop(world_name, monkeypatch):
    # The default deadline is on: a request that left the loop would
    # hop to the gateway executor.
    service = build_service(world_name, request_timeout=2.0)
    warm(service, world_name)  # alice stands on the first concept alone
    first, second, _third = CONTEXTS[world_name]
    calls = collections.Counter()

    def counting(owner, name, kind):
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            calls[kind] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    counting(ThreadPoolExecutor, "submit", "submit")
    counting(RankingEngine, "install_context", "install")
    counting(RankingEngine, "_signature", "fingerprint")
    for name in ("allow", "record_success", "record_failure", "cancel_probe"):
        counting(CircuitBreaker, name, "breaker")
    counting(TenantRegistry, "checkout", "pin")
    body, _names = serve_one(
        service, f"tenant=alice&top_k=3&context={first}&context={second}:0.7"
    )
    assert body["cached"] is True
    assert dict(calls) == {"install": 1, "fingerprint": 1}


def test_a_long_http_ranking_reaches_the_render_as_vectors(monkeypatch):
    if resolve_backend(rows=2000) is None:
        pytest.skip("a 2 000-row candidate set compiles on flat lists here")
    clear_registry()
    service = build_service("section5", programs=2000)
    warm(service, "section5")
    first, second, _third = CONTEXTS["section5"]
    rendered = []
    real = pipeline._items_json

    def spy(items):
        rendered.append((len(items), type(items.rows), type(items.scores)))
        return real(items)

    monkeypatch.setattr(pipeline, "_items_json", spy)
    body, _names = serve_one(
        service,
        f"tenant=alice&context={first}:0.4545&context={second}",
        f"tenant=alice&top_k=3&context={first}:0.5454&context={second}",
    )
    assert "cached" not in body and len(body["items"]) == 3
    (full, full_rows, full_scores), (top, top_rows, top_scores) = rendered
    numpy = resolve_backend(rows=2000)
    assert full == 2000 and full_rows is full_scores is numpy.ndarray
    assert top == 3 and top_rows is top_scores is list


def test_a_miss_digests_the_delta_not_the_world(monkeypatch):
    # Each Section 5 person carries two sensed (dynamic) base rows, so
    # doubling the persons doubles the shared world's sensed context.
    first, second, _third = CONTEXTS["section5"]
    digested = {}
    for persons in (10, 20):
        clear_registry()
        service = build_service("section5", persons=persons)
        warm(service, "section5")
        base = service.registry.session("alice").overlay.base
        assert len(base.dynamic_assertions()) == 2 * persons
        sizes = []
        real = keys.signature_digest

        def spy(signature):
            sizes.append(len(repr(signature)))
            return real(signature)

        with monkeypatch.context() as patch:
            patch.setattr(keys, "signature_digest", spy)
            assert "cached" not in rank(service, f"{first}:0.4244", f"{second}:0.2426").body
        service.close()
        assert sizes
        digested[persons] = max(sizes)
    # the epochs in the signature may gain a digit; the context must not
    assert digested[20] - digested[10] <= 4, digested


def test_no_request_walks_the_rule_set(world_name, monkeypatch):
    service = build_service(world_name)
    warm(service, world_name)
    first, second, _third = CONTEXTS[world_name]
    walked = []
    real = RuleRepository.__iter__

    def counting(self):
        walked.append(self)
        return real(self)

    monkeypatch.setattr(RuleRepository, "__iter__", counting)
    for index in range(3):
        missed = rank(service, f"{first}:0.{4245 + index}", f"{second}:0.2427")
        assert "cached" not in missed.body
        assert rank(service, first, f"{second}:0.7").body["cached"] is True
        assert rank(service).body["cached"] is True
    assert walked == []
    # An edit bumps the revision and the fingerprint follows the content:
    # the same rules again sign the engine's view as before.
    engine = service.registry.session("alice").engine
    repository = engine.preferences.repository()
    rules, before = repository.rules, repository.fingerprint()
    assert repository.rules is rules and repository.fingerprint() is before
    signature = engine.view_fingerprint()[1]
    removed = repository.remove(rules[-1].rule_id)
    assert repository.fingerprint() != before
    assert engine.view_fingerprint()[1] != signature
    repository.add(removed)
    assert repository.rules == rules and repository.fingerprint() == before
    assert engine.view_fingerprint()[1] == signature
    service.close()


def test_a_flip_back_builds_no_context(world_name, monkeypatch):
    service = build_service(world_name)
    first, second, _third = CONTEXTS[world_name]
    queries = [
        f"tenant=alice&top_k=3&context={first}&context={second}:0.7",
        f"tenant=alice&top_k=3&context={second}:0.3",
    ]
    for _ in range(3):  # ranked, then kept by the session on the second install
        for query in queries:
            assert service.rank(query).status == 200
    built = collections.Counter()

    def counting(name, real):
        def counted(*args, **kwargs):
            built[name] += 1
            return real(*args, **kwargs)

        return counted

    monkeypatch.setattr(BasicEvent, "__post_init__", counting("event", BasicEvent.__post_init__))
    monkeypatch.setattr(
        ConceptAssertion, "__init__", counting("assertion", ConceptAssertion.__init__)
    )
    monkeypatch.setattr(
        backends, "parse_context_spec", counting("parse", backends.parse_context_spec)
    )
    before = backends.context_counters()
    for query in queries * 2:
        reply = service.rank(query)
        assert reply.status == 200 and reply.body["cached"] is True
    assert service._delta_hits["inline"] >= 4
    assert built == {}
    after = service.metrics_snapshot()["contexts"]
    assert set(after) == {"values_built", "values_live", "splices", "fallbacks"}
    assert after["values_built"] == before["values_built"]
    assert after["splices"] - before["splices"] == 6 and after["fallbacks"] == before["fallbacks"]
    # the spies do count: a fresh probability parses and builds
    rank(service, f"{first}:0.1357")
    assert built["parse"] == 1 and built["event"] == 1 and built["assertion"] >= 1
    service.close()
