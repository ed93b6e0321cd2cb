"""A context-delta hit is a hit: install and fingerprint in one critical section.

A *delta hit* is a request whose context differs from the tenant's
standing one but whose answer the response cache already holds — the
context flip back.  The pipeline installs the delta and takes the
engine fingerprint under one hold of the engine lock, serves the stored
body only when that fingerprint confirms the ledger's prediction, and
does it on the calling thread (the gateway's event loop) whenever that
never waits.  These tests pin:

* the interleaving that answered a refuted delta hit with another
  request's ranking — driven deterministically, with no sleeps: a hook
  on the install starts the competing request and waits until it has
  either finished or blocked on a lock the first request holds;
* every fallback — engine busy, session not live, shard busy, journal,
  refuted prediction — answers correctly, and the loop never waits,
  mints or writes the journal.
"""

import http.client
import json
import sys
import threading
import time

import pytest

from repro.cache import InMemoryCacheAdapter, NoCacheAdapter, query_key
from repro.reason import clear_registry
from repro.service import FaultInjector, RankingService, ServiceConfig, make_aio_server
from repro.tenants import TenantRegistry
from repro.workloads import build_tvtouch

BOTH = ("Weekend", "Breakfast")
BREAKFAST = ("Breakfast",)
WEEKEND = ("Weekend",)


def make_service(journal=None, **config):
    clear_registry()
    registry = TenantRegistry(
        build_tvtouch(), shards=2, max_sessions=64, journal=journal
    )
    return RankingService(
        registry, ServiceConfig(**config), cache=InMemoryCacheAdapter()
    )


def params(context=None, tenant="t1"):
    request = {"tenant": [tenant], "top_k": ["3"]}
    if context is not None:
        request["context"] = list(context)
    return request


def rank(service, context=None, tenant="t1"):
    reply = service.rank(params(context, tenant))
    assert reply.status == 200, reply.body
    return reply


def items(body):
    return [(item["document"], item["score"]) for item in body["items"]]


@pytest.fixture(scope="module")
def oracle():
    """The items a cache-less service ranks for each context."""
    clear_registry()
    service = RankingService(
        TenantRegistry(build_tvtouch()),
        ServiceConfig(request_timeout=None),
        cache=NoCacheAdapter(),
    )
    answers = {}

    def expected(context):
        if context not in answers:
            answers[context] = items(rank(service, context, tenant="oracle").body)
        return answers[context]

    yield expected
    service.close()


def stand_on_weekend(service):
    """``t1`` stands on Weekend with ``BOTH`` (and Breakfast) delta hits ready."""
    rank(service, BOTH)
    rank(service, BREAKFAST)
    rank(service, WEEKEND)
    lookup = service._keyer.lookup(query_key("t1", BOTH, None, 3, False))
    assert lookup.needs_install


def delta_hits(service):
    cache = service.metrics_snapshot()["cache"]
    return {"inline": cache["delta_hits_inline"], **cache["delta_hits_deferred"]}


class SignallingLock:
    """A lock that signals whenever a thread is about to wait for it."""

    def __init__(self, lock, waiting: threading.Event):
        self._lock = lock
        self._waiting = waiting

    def acquire(self, blocking=True, timeout=-1):
        if self._lock.acquire(blocking=False):
            return True
        if not blocking:
            return False
        self._waiting.set()
        return self._lock.acquire(True, timeout)

    def release(self):
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info):
        self.release()


@pytest.mark.parametrize("registry_kind", ["plain", "journaled"])
def test_a_request_between_install_and_fingerprint_cannot_change_the_answer(
    registry_kind, oracle, tmp_path
):
    # A journaled registry settles its delta hits on the blocking path:
    # both call sites of the one install-and-verify are covered.
    journal = tmp_path / "overlays.jsonl" if registry_kind == "journaled" else None
    service = make_service(journal=journal, request_timeout=None)
    stand_on_weekend(service)
    engine = service.registry.session("t1").engine
    progress = threading.Event()  # the other request finished, or waits on us
    engine._lock = SignallingLock(engine._lock, progress)
    shard = service.registry._shard_for("t1")
    shard.lock = SignallingLock(shard.lock, progress)
    replies = {}

    def other_request():
        try:
            replies["other"] = service.rank(params(BREAKFAST))
        finally:
            progress.set()

    other = threading.Thread(target=other_request, daemon=True)
    real_install = engine.install_context

    def install_then_interleave(*specs, tick="ctx"):
        real_install(*specs, tick=tick)
        if not other.ident:  # the first install: this request's own
            other.start()
            assert progress.wait(timeout=10)

    engine.install_context = install_then_interleave
    first = service.rank(params(BOTH))
    other.join(timeout=10)
    assert not other.is_alive()

    assert first.status == 200
    assert first.body["context"] == list(BOTH)
    assert items(first.body) == oracle(BOTH)  # not Breakfast's ranking
    assert not first.body.get("stale")
    assert replies["other"].status == 200
    assert items(replies["other"].body) == oracle(BREAKFAST)
    # ... and the ledger learned nothing false: W+B still answers W+B,
    # and the standing context is the one installed last.
    engine.install_context = real_install
    again = rank(service, BOTH)
    assert again.body["cached"] is True and items(again.body) == oracle(BOTH)
    assert items(rank(service).body) == oracle(BOTH)
    service.close()


def test_install_and_fingerprint_is_one_critical_section():
    service = make_service(request_timeout=None)
    stand_on_weekend(service)
    engine = service.registry.session("t1").engine
    before = engine.view_fingerprint()
    held, release = threading.Event(), threading.Event()

    def hold():
        with engine._lock:
            held.set()
            release.wait(timeout=10)

    holder = threading.Thread(target=hold, daemon=True)
    holder.start()
    assert held.wait(timeout=10)
    try:
        assert engine.install_and_fingerprint(BOTH, tick="svc", blocking=False) is None
    finally:
        release.set()
        holder.join(timeout=10)
    assert engine.view_fingerprint() == before  # nothing was installed
    installed = engine.install_and_fingerprint(BOTH, tick="svc", blocking=False)
    assert installed == engine.view_fingerprint() != before
    service.close()


def test_a_delta_hit_is_answered_inline(oracle):
    service = make_service(request_timeout=None)
    stand_on_weekend(service)
    minted = service.registry.info().minted
    attempt = service.begin_rank(params(BOTH))
    assert attempt.response is not None
    assert attempt.response.body["cached"] is True
    assert items(attempt.response.body) == oracle(BOTH)
    assert delta_hits(service) == {
        "inline": 1, "engine_busy": 0, "not_resident": 0, "journal": 0, "refuted": 0
    }
    assert set(attempt.response.timings) == {"parse", "cache", "context", "render", "total"}
    assert service.registry.info().minted == minted
    assert items(rank(service).body) == oracle(BOTH)  # the delta stands
    service.close()


def test_a_delta_hit_skips_breaker_and_fault_injection(oracle):
    service = make_service(request_timeout=None)
    stand_on_weekend(service)
    for _ in range(service.config.breaker_min_requests):
        service.breaker.record_failure("t1")
    assert service.breaker.state() == "open"
    service.fault_injector = FaultInjector(rank_error_rate=1.0)
    reply = rank(service, BOTH)
    assert reply.body["cached"] is True and not reply.body.get("stale")
    assert items(reply.body) == oracle(BOTH)
    service.close()


def test_a_session_that_is_not_live_is_never_minted_inline(oracle):
    service = make_service(request_timeout=None)
    stand_on_weekend(service)
    # The window between an eviction and its listener: the session is
    # gone while the ledger still predicts the delta hit.
    del service.registry._shard_for("t1").sessions["t1"]
    minted = service.registry.info().minted
    attempt = service.begin_rank(params(BOTH))
    assert attempt.response is None
    assert service.registry.info().minted == minted
    assert delta_hits(service)["not_resident"] == 1
    reply = service.finish_rank(attempt)
    assert reply.status == 200 and items(reply.body) == oracle(BOTH)
    assert service.registry.info().minted == minted + 1
    service.close()


def test_a_busy_shard_is_never_waited_for_inline(oracle):
    service = make_service(request_timeout=None)
    stand_on_weekend(service)
    shard = service.registry._shard_for("t1")
    held, release = threading.Event(), threading.Event()

    def hold():
        with shard.lock:
            held.set()
            release.wait(timeout=10)

    holder = threading.Thread(target=hold, daemon=True)
    holder.start()
    assert held.wait(timeout=10)
    try:
        attempt = service.begin_rank(params(BOTH))  # returns: no wait
    finally:
        release.set()
        holder.join(timeout=10)
    assert attempt.response is None
    assert delta_hits(service)["not_resident"] == 1
    reply = service.finish_rank(attempt)
    assert reply.body["cached"] is True and items(reply.body) == oracle(BOTH)
    service.close()


def test_a_journaled_registry_serves_delta_hits_off_the_loop(oracle, tmp_path):
    path = tmp_path / "overlays.jsonl"
    service = make_service(journal=path, request_timeout=None)
    stand_on_weekend(service)
    records = path.read_text().count("\n")
    attempt = service.begin_rank(params(BOTH))
    assert attempt.response is None  # the loop does no file I/O
    assert path.read_text().count("\n") == records
    assert delta_hits(service)["journal"] == 1
    reply = service.finish_rank(attempt)
    assert reply.body["cached"] is True and items(reply.body) == oracle(BOTH)
    lines = path.read_text().splitlines()
    assert len(lines) == records + 1
    last = json.loads(lines[-1])
    assert last["tenant"] == "t1"
    assert sorted(concept for concept, *_rest in last["concepts"]) == sorted(BOTH)
    service.close()


def test_a_refuted_prediction_ranks_and_never_serves_the_stored_body(oracle):
    service = make_service(request_timeout=None)
    stand_on_weekend(service)
    # Poison the ledger: W+B predicted to rank like Breakfast, whose
    # body the cache holds.
    both = service._keyer.lookup(query_key("t1", BOTH, None, 3, False))
    breakfast = service._keyer.lookup(query_key("t1", BREAKFAST, None, 3, False))
    service._keyer._tenants["t1"].deltas[both.canon_digest] = breakfast.view_digest
    attempt = service.begin_rank(params(BOTH))
    assert attempt.response is None and attempt.cached_body is None
    assert delta_hits(service)["refuted"] == 1
    reply = service.finish_rank(attempt)
    assert "cached" not in reply.body
    assert items(reply.body) == oracle(BOTH) != oracle(BREAKFAST)
    assert rank(service, BOTH).body["cached"] is True  # relearned
    service.close()


def test_the_loop_answers_others_while_an_engine_lock_is_held(oracle):
    service = make_service()
    stand_on_weekend(service)
    rank(service, tenant="t2")  # t2's standing answer: a pure hit from now on
    server = make_aio_server(service, port=0)
    loop_thread = threading.Thread(target=server.serve_forever, daemon=True)
    loop_thread.start()
    host, port = server.server_address
    engine = service.registry.session("t1").engine
    held, release = threading.Event(), threading.Event()

    def hold():  # a pool thread ranking t1 for a long time
        with engine._lock:
            held.set()
            release.wait(timeout=10)

    holder = threading.Thread(target=hold, daemon=True)
    holder.start()
    assert held.wait(timeout=10)

    def get(connection, target):
        connection.request("GET", target)
        response = connection.getresponse()
        return response.status, json.loads(response.read())

    stuck = http.client.HTTPConnection(host, port, timeout=10)
    other = http.client.HTTPConnection(host, port, timeout=10)
    try:
        stuck.request("GET", "/rank?tenant=t1&top_k=3&context=Weekend&context=Breakfast")
        give_up = time.monotonic() + 10
        while delta_hits(service)["engine_busy"] == 0 and time.monotonic() < give_up:
            time.sleep(0.005)
        assert delta_hits(service)["engine_busy"] == 1
        # t1's delta hit now waits on a pool thread; the loop does not.
        status, body = get(other, "/healthz")
        assert status == 200 and body["status"] == "ok"
        status, body = get(other, "/rank?tenant=t2&top_k=3")
        assert status == 200 and body["cached"] is True
        release.set()
        response = stuck.getresponse()
        body = json.loads(response.read())
        assert response.status == 200 and body["cached"] is True
        assert items(body) == oracle(BOTH)
    finally:
        release.set()
        holder.join(timeout=10)
        stuck.close()
        other.close()
        server.shutdown()
        server.server_close()
        loop_thread.join(timeout=10)
        service.close()


def test_concurrent_flips_never_answer_another_context(oracle):
    """More threads than cores flip two tenants between the menus; with a
    short switch interval, every answer must be its own context's."""
    service = make_service()
    menus = (BOTH, WEEKEND, BREAKFAST)
    for tenant in ("t1", "t2"):
        for context in menus:  # fill every body, so most requests hit
            rank(service, context, tenant=tenant)
    wrong = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)

    def flip(worker):
        for index in range(120):
            context = menus[(worker + index) % len(menus)]
            reply = service.rank(params(context, tenant=("t1", "t2")[index % 2]))
            if reply.status != 200 or items(reply.body) != oracle(context):
                wrong.append((context, reply.status, reply.body))

    try:
        threads = [threading.Thread(target=flip, args=(worker,)) for worker in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    paths = delta_hits(service)
    assert paths["inline"] > 0
    service.close()
