"""E15 — resilience under storm: kills, injected faults, deadlines.

The PR 7 robustness layer claims the service stays *available* while
things go wrong, not merely that it fails cleanly.  This experiment
storms a 4-worker fleet on the E13 traffic shape while two fault
sources run concurrently:

* **worker churn** — an external killer SIGKILLs one worker at a
  time on a rotating schedule (each slot dies at most once per
  crash-loop window, so the supervisor keeps respawning rather than
  fencing the slot);
* **engine faults** — every worker carries a
  :class:`~repro.service.FaultInjector` with a 5 % rank-error rate,
  so one request in twenty blows up inside the engine.

The client is the retrying :func:`repro.workloads.http_client`
(socket timeouts + jittered backoff), and the claim asserted in full
mode is **availability ≥ 99 %** — stale degraded answers count as
answered (they are flagged and reported separately).

Two further phases pin the deadline and crash-loop behaviour:

* a wedged engine (injected 2 s rank delay vs a 0.2 s request
  timeout) must answer 504 within **2× the request timeout**, and
  every session pin must be back by then;
* a worker slot dying ≥ 3 times inside the crash-loop window must be
  fenced — respawns stop, ``health()`` degrades — while the
  surviving workers keep serving.
"""

import os
import signal
import threading
import time

import pytest

from repro.engine import shared_basis_pool
from repro.reason import clear_registry
from repro.reporting import TextTable
from repro.service import (
    FaultInjector,
    FleetSupervisor,
    RankingService,
    ServiceConfig,
    ServiceRequest,
    supports_fleet,
)
from repro.cache import InMemoryCacheAdapter
from repro.tenants import TenantRegistry
from repro.workloads import (
    RetryPolicy,
    TrafficConfig,
    build_schedule,
    build_tvtouch,
    http_client,
    run_traffic,
)

#: CI smoke mode: tiny workload, no availability assertion (see conftest).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

STORM_REQUESTS = 120 if SMOKE else 2000
STORM_WORKERS = 4
# The event-loop gateway clears the smoke-sized storm in well under
# 0.5s, so the smoke killer must tick fast enough to land ≥ 1 kill —
# but capped at 2 kills total so rapid ticks can never put 3 deaths
# on one slot inside the crash-loop window and fence it.  The full
# storm lasts about half a second, so its killer ticks every 0.25 s
# (a 1 s period ended the storm before the first kill).
KILL_PERIOD = 0.05 if SMOKE else 0.25
MAX_KILLS = 2 if SMOKE else None
RANK_ERROR_RATE = 0.05
CONCURRENCY = 8
MIN_AVAILABILITY = 0.99
REQUEST_TIMEOUT = 0.2
WEDGE_DELAY = 2.0


def storm_config(requests: int) -> TrafficConfig:
    return TrafficConfig(
        tenants=64 if SMOKE else 200,
        requests=requests,
        concurrency=CONCURRENCY,
        zipf_exponent=1.1,
        context_churn=0.5,
        top_k=3,
        seed=42,
    )


def faulty_factory(worker_info):
    """Per-worker service with a seeded 5 % rank-error injector and a
    response cache (so serve-stale has bodies to degrade onto)."""
    registry = TenantRegistry(build_tvtouch(), shards=8, max_sessions=256)
    return RankingService(
        registry,
        ServiceConfig(),
        cache=InMemoryCacheAdapter(ttl=None),
        fault_injector=FaultInjector(
            rank_error_rate=RANK_ERROR_RATE, seed=1000 + worker_info["index"]
        ),
        worker_info=dict(worker_info),
    )


def rotating_killer(fleet, stop: threading.Event, kills: list[int]):
    """SIGKILL one worker per period, rotating across slots so no
    single slot dies often enough to trip the crash-loop fence."""
    turn = 0
    while not stop.wait(KILL_PERIOD):
        if MAX_KILLS is not None and len(kills) >= MAX_KILLS:
            return
        pids = fleet.worker_pids()
        if not pids:
            continue
        victim = pids[turn % len(pids)]
        turn += 1
        try:
            os.kill(victim, signal.SIGKILL)
        except ProcessLookupError:  # already dead / respawning
            continue
        kills.append(victim)


@pytest.mark.skipif(not supports_fleet(), reason="needs fork + SO_REUSEPORT")
def test_e15_storm_availability(save_result, save_json):
    clear_registry()
    shared_basis_pool().clear()
    config = storm_config(STORM_REQUESTS)
    schedule = build_schedule(config)
    stop = threading.Event()
    kills: list[int] = []
    with FleetSupervisor(faulty_factory, workers=STORM_WORKERS, port=0) as fleet:
        killer = threading.Thread(
            target=rotating_killer, args=(fleet, stop, kills), daemon=True
        )
        killer.start()
        try:
            issue = http_client(
                fleet.url,
                policy=RetryPolicy(timeout=5.0, retries=3, backoff=0.05),
                seed=7,
            )
            report = run_traffic(issue, config, schedule)
        finally:
            stop.set()
            killer.join(timeout=5)
        # Give in-flight respawns a beat, then capture supervisor state.
        time.sleep(0.3)
        health = fleet.health()
    assert not health["failed"], (
        f"rotating kills must not fence a slot, got {health['failed']}"
    )

    row = report.to_dict()
    table = TextTable(
        ["phase", "requests", "avail", "errors", "retries", "stale", "kills"]
    )
    table.add_row(
        [
            "storm",
            row["requests"],
            f"{report.availability:.4f}",
            row["errors"],
            row["retries"],
            row["stale"],
            len(kills),
        ]
    )
    save_result("e15_resilience", table.render())
    save_json(
        "e15_resilience",
        {
            "experiment": "e15_resilience",
            "workers": STORM_WORKERS,
            "kill_period_seconds": KILL_PERIOD,
            "workers_killed": len(kills),
            "rank_error_rate": RANK_ERROR_RATE,
            "availability": report.availability,
            "min_availability_bound": MIN_AVAILABILITY,
            "respawns": health["respawns"],
            "storm": row,
        },
    )

    assert len(kills) >= 1, "the storm never actually killed a worker"
    if not SMOKE:
        assert report.availability >= MIN_AVAILABILITY, (
            f"availability {report.availability:.4f} under worker kills + "
            f"{RANK_ERROR_RATE:.0%} rank faults is below the "
            f"{MIN_AVAILABILITY:.0%} bound "
            f"(errors={report.errors}/{report.requests})"
        )
    clear_registry()
    shared_basis_pool().clear()


def test_e15_deadline_bound(save_json):
    """A wedged engine answers 504 within 2x the request timeout, with
    every session pin already back."""
    clear_registry()
    shared_basis_pool().clear()
    registry = TenantRegistry(build_tvtouch(), shards=4, max_sessions=64)
    service = RankingService(
        registry,
        ServiceConfig(
            request_timeout=REQUEST_TIMEOUT,
            breaker_enabled=False,  # isolate the deadline path
        ),
        fault_injector=FaultInjector(rank_delay=WEDGE_DELAY),
    )
    started = time.perf_counter()
    reply = service.rank(ServiceRequest(tenant="wedged", context=("Weekend",)))
    elapsed = time.perf_counter() - started
    assert reply.status == 504
    assert service.metrics.outcomes().get("timeout") == 1
    if not SMOKE:
        assert elapsed <= 2 * REQUEST_TIMEOUT, (
            f"deadline-exceeded answer took {elapsed:.3f}s against a "
            f"{REQUEST_TIMEOUT}s request timeout"
        )
    # The answering thread ran the rank and released its pin first.
    assert registry.info().pinned == 0
    service.close()
    save_json(
        "e15_deadline",
        {
            "experiment": "e15_deadline",
            "request_timeout": REQUEST_TIMEOUT,
            "injected_delay": WEDGE_DELAY,
            "answer_seconds": elapsed,
            "status": reply.status,
        },
    )
    clear_registry()


@pytest.mark.skipif(not supports_fleet(), reason="needs fork + SO_REUSEPORT")
def test_e15_crash_loop_fence(save_json):
    """A slot dying >= 3 times in the window is fenced: respawns stop,
    health degrades, and the surviving workers keep answering."""
    clear_registry()
    shared_basis_pool().clear()

    def factory(worker_info):
        registry = TenantRegistry(build_tvtouch(), shards=2, max_sessions=32)
        injector = (
            FaultInjector(worker_ttl=0.25)
            if worker_info["index"] == 0
            else FaultInjector()
        )
        return RankingService(
            registry,
            ServiceConfig(),
            fault_injector=injector,
            worker_info=dict(worker_info),
        )

    with FleetSupervisor(
        factory,
        workers=2,
        port=0,
        respawn_backoff=0.05,
        crash_loop_threshold=3,
        crash_loop_window=10.0,
    ) as fleet:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and not fleet.health()["failed"]:
            time.sleep(0.1)
        health = fleet.health()
        assert health["failed"], "the crash-looping slot was never fenced"
        assert health["failed"][0]["index"] == 0
        assert health["failed"][0]["deaths_in_window"] >= 3
        assert health["status"] == "degraded"
        respawns_at_fence = health["respawns"]
        # The fence holds: no further respawns for the dead slot.
        time.sleep(0.5)
        health = fleet.health()
        assert health["respawns"] == respawns_at_fence
        assert not health["pending_respawns"]
        # The surviving worker still answers.
        issue = http_client(fleet.url, policy=RetryPolicy(timeout=5.0, retries=3))
        outcome = issue(
            type("R", (), {"tenant": "alice", "context": ("Weekend",), "top_k": 3})()
        )
        assert outcome.ok, outcome
        save_json(
            "e15_crash_loop",
            {
                "experiment": "e15_crash_loop",
                "fenced_slot": health["failed"][0],
                "respawns": health["respawns"],
                "status": health["status"],
            },
        )
    clear_registry()
    shared_basis_pool().clear()
