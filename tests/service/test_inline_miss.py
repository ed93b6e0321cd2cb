"""Warm misses on the event loop: what ``blocking=False`` answers, and what it leaves.

``RankingService.finish_rank(attempt, blocking=False)`` is the gateway
loop's first try at a miss.  It answers a warm one in place; otherwise
it raises ``WouldBlock`` having taken nothing — no pin, no breaker
probe, no outcome or stage — and the blocking run on a pool thread is
the request's one outcome.  Each reason is driven here in process, and over
HTTP: a held engine lock or a cold bind never stalls the loop.
"""

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cache import InMemoryCacheAdapter
from repro.core.preference_view import PreferenceView
from repro.reason import clear_registry
from repro.service import (
    CircuitBreaker,
    FaultInjector,
    RankingService,
    ServiceConfig,
    WouldBlock,
    make_aio_server,
)
from repro.tenants import TenantRegistry
from repro.workloads import build_tvtouch
from tests.service.test_gateway_protocol import Wire
from tests.service.test_resilience import FakeClock

SRC = Path(__file__).resolve().parents[2] / "src"
PARAMS = {"tenant": ["alice"], "context": ["Weekend:0.37", "Breakfast"], "top_k": ["3"]}
WARM = {"tenant": ["alice"], "context": ["Weekend"], "top_k": ["3"]}


def make_service(journal=None, faults=None):
    clear_registry()
    registry = TenantRegistry(build_tvtouch(), shards=2, max_sessions=16, journal=journal)
    service = RankingService(
        registry,
        ServiceConfig(),
        cache=InMemoryCacheAdapter(max_entries=64),
        fault_injector=faults,
    )
    # A breaker whose clock the test turns, to have a half-open probe to lose.
    clock = FakeClock()
    service.breaker = CircuitBreaker(
        min_requests=2, cooldown=1.0, jitter=0.0, clock=clock,
        rng=random.Random(0), on_transition=service._breaker_transition,
    )
    return service, clock


def half_open(service, clock):
    """Open the global and alice's breaker, then let the cooldown pass."""
    for _ in range(2):
        service.breaker.record_failure("alice")
    assert service.breaker.state() == "open"
    clock.advance(2.0)


def probes_held(breaker):
    return [core.probe_inflight for core in (breaker._global, *breaker._tenants.values())]


@pytest.fixture(scope="module")
def reference_items():
    clear_registry()
    service = RankingService(TenantRegistry(build_tvtouch()), ServiceConfig())
    items = service.rank(PARAMS).body["items"]
    clear_registry()
    return items


class HeldLock:
    """The tenant's engine lock, held by another thread until released."""

    def __init__(self, lock):
        self._taken, self._release = threading.Event(), threading.Event()
        self._thread = threading.Thread(target=self._hold, args=(lock,))
        self._thread.start()
        assert self._taken.wait(5)

    def _hold(self, lock):
        with lock:
            self._taken.set()
            self._release.wait(10)

    def release(self):
        self._release.set()
        self._thread.join(5)


@pytest.mark.parametrize("reason", ["not_resident", "busy", "cold", "journal", "fault"])
def test_a_deferral_takes_nothing(reason, tmp_path, reference_items):
    service, clock = make_service(
        journal=tmp_path / "overlays.journal" if reason == "journal" else None,
        faults=(
            FaultInjector(rank_delay=0.001, tenants=frozenset({"alice"}))
            if reason == "fault" else None
        ),
    )
    registry = service.registry
    if reason == "cold":
        registry.session("alice")  # resident, but nothing compiled for this world yet
    elif reason != "not_resident":
        assert service.rank(WARM).status == 200
    half_open(service, clock)
    before = service.metrics.snapshot()
    held = HeldLock(registry.session("alice").engine._lock) if reason == "busy" else None

    attempt = service.begin_rank(PARAMS)
    assert attempt.response is None
    try:
        with pytest.raises(WouldBlock) as raised:
            service.finish_rank(attempt, blocking=False)
    finally:
        if held is not None:
            held.release()

    assert raised.value.reason == reason
    assert registry.info().pinned == 0
    assert not any(probes_held(service.breaker))  # taken and handed back, or never taken
    after = service.metrics.snapshot()
    assert after["outcomes"] == before["outcomes"]
    assert after["stages"] == before["stages"]
    assert set(attempt.clock.timings) <= {"parse", "cache"}
    cache = service.metrics_snapshot()["cache"]
    assert cache["misses_inline"] == 0
    assert cache["misses_deferred"] == {
        name: int(name == reason) for name in cache["misses_deferred"]
    }

    answer = service.finish_rank(attempt)  # the dispatched run
    assert answer.status == 200 and answer.body["items"] == reference_items
    final = service.metrics.snapshot()
    assert sum(final["outcomes"].values()) == sum(before["outcomes"].values()) + 1
    totals = [snap["stages"].get("total", {}).get("count", 0) for snap in (before, final)]
    assert totals[1] == totals[0] + 1
    # the probe was settled once, by the one outcome
    assert service.breaker.state() == service.breaker.state("alice") == "closed"
    assert registry.info().pinned == 0
    service.close()


def test_a_warm_miss_is_answered_in_place(reference_items):
    service, _clock = make_service()
    assert service.rank(WARM).status == 200
    attempt = service.begin_rank(PARAMS)
    answer = service.finish_rank(attempt, blocking=False)
    assert answer.status == 200 and answer.body["items"] == reference_items
    cache = service.metrics_snapshot()["cache"]
    assert cache["misses_inline"] == 1 and not any(cache["misses_deferred"].values())
    assert service.registry.info().pinned == 0
    service.close()


def test_a_context_install_defers_only_what_would_wait(tmp_path):
    service, _clock = make_service()
    with pytest.raises(WouldBlock, match="not_resident"):  # a mint
        service.install_context("alice", ["Weekend"], blocking=False)
    assert service.registry.info().minted == 0
    assert service.install_context("alice", ["Weekend"]).status == 200
    reply = service.install_context("alice", ["Breakfast:0.4"], blocking=False)
    assert reply.status == 200 and reply.body["installed"] == 1
    held = HeldLock(service.registry.session("alice").engine._lock)
    try:
        with pytest.raises(WouldBlock, match="busy"):
            service.install_context("alice", ["Weekend"], blocking=False)
    finally:
        held.release()
    assert service.metrics.snapshot()["outcomes"] == {"ok": 2}
    assert service.registry.info().pinned == 0
    journaled, _clock = make_service(journal=tmp_path / "overlays.journal")
    assert journaled.install_context("alice", ["Weekend"]).status == 200
    with pytest.raises(WouldBlock, match="journal"):
        journaled.install_context("alice", ["Weekend"], blocking=False)


def get(wire, path):
    """``GET path`` on a keep-alive wire: ``(status, decoded body)``."""
    wire.send(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    status, _headers, body = wire.read_response()
    return status, json.loads(body)


def test_cold_work_and_lock_waits_stay_off_the_loop(monkeypatch):
    service, _clock = make_service()
    service.breaker = None
    assert service.rank(WARM).status == 200
    service.registry.session("cold")  # resident; its first rank must bind cold
    clear_registry()  # ... and no basis for it in the shared pool either
    binds = []
    real_refresh = PreferenceView.refresh

    def refresh(view, *args, **kwargs):
        binds.append(threading.current_thread().name)
        return real_refresh(view, *args, **kwargs)

    monkeypatch.setattr(PreferenceView, "refresh", refresh)
    server = make_aio_server(service, port=0)
    loop_thread = threading.Thread(target=server.serve_forever, name="loop", daemon=True)
    loop_thread.start()
    miss, probe = Wire(server), Wire(server)
    try:
        assert get(miss, "/rank?tenant=cold&context=Weekend&top_k=2")[0] == 200
        assert binds and all(name.startswith("repro-gw") for name in binds), binds

        assert get(probe, "/healthz")[0] == 200
        held = HeldLock(service.registry.session("alice").engine._lock)
        try:
            miss.send(
                b"GET /rank?tenant=alice&context=Weekend:0.77&top_k=3 HTTP/1.1\r\n"
                b"Host: t\r\n\r\n"
            )
            time.sleep(0.05)  # the miss is waiting for the lock on a pool thread
            took = []
            for _ in range(3):
                started = time.perf_counter()
                assert get(probe, "/healthz")[0] == 200
                took.append(time.perf_counter() - started)
            assert max(took) < 0.010, took
        finally:
            held.release()
        status, _headers, body = miss.read_response()
        assert status == 200 and json.loads(body)["items"]
    finally:
        miss.close()
        probe.close()
        server.shutdown()
        server.server_close()
        loop_thread.join(5)
    cache = service.metrics_snapshot()["cache"]
    assert cache["misses_deferred"]["cold"] == 1
    assert cache["misses_deferred"]["busy"] == 1


def test_the_ledger_batching_flags_still_boot():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--batch-max-size", "2", "--batch-max-wait-us", "20000"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        announce = process.stdout.readline()
        port = int(announce.split("http://127.0.0.1:", 1)[1].split()[0])
        wire = Wire(SimpleNamespace(server_address=("127.0.0.1", port)))
        try:
            status, body = get(wire, "/rank?tenant=alice&context=Weekend&context=Breakfast&top_k=3")
        finally:
            wire.close()
        assert status == 200 and body["items"][0]["document"] == "channel5_news"
    finally:
        process.send_signal(signal.SIGTERM)
        _out, err = process.communicate(timeout=30)
    assert process.returncode == 0
    notices = [line for line in err.splitlines() if "--batch-max-size" in line]
    assert len(notices) == 1 and "deprecated" in notices[0]
