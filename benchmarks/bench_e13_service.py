"""E13 — the serving runtime: throughput and tail latency under traffic.

The ROADMAP's north star is an always-on service under heavy traffic;
this experiment measures the whole serving stack end to end on the
tvtouch fleet (the E12 multi-tenant world behind a
:class:`~repro.service.RankingService`):

* **in-process**: the staged pipeline (parse → cache → breaker →
  resolve → context → rank → render) driven closed-loop by
  :func:`repro.workloads.run_traffic` — Zipf tenant popularity, 50 %
  context churn, 8 concurrent workers;
* **over HTTP**: the same deterministic schedule through the
  event-loop gateway (:func:`~repro.service.make_aio_server`) on a
  loopback socket, so the delta between the two rows is exactly the
  HTTP + JSON overhead;
* **score identity**: for every context menu, the JSON body served
  over HTTP must match the in-process engine to ≤ 1e-9.

Claims asserted (full mode): ≥ 1 000 requests/s in-process at
concurrency 8, zero request errors on both paths, and HTTP/in-process
score identity.
"""

import os
import threading

import pytest

from repro.engine import shared_basis_pool
from repro.reason import clear_registry
from repro.reporting import TextTable
from repro.service import RankingService, ServiceConfig, ServiceRequest, make_aio_server
from repro.tenants import TenantRegistry
from repro.workloads import (
    CONTEXT_MENUS,
    RetryPolicy,
    TrafficConfig,
    build_schedule,
    build_tvtouch,
    http_client,
    run_traffic,
)

#: CI smoke mode: tiny workload, no perf assertions (see conftest).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

TENANTS = 16 if SMOKE else 200
REQUESTS = 200 if SMOKE else 4000
HTTP_REQUESTS = 100 if SMOKE else 1500
CONCURRENCY = 8
MIN_IN_PROCESS_RPS = 1000.0


@pytest.fixture(scope="module")
def fleet():
    clear_registry()
    shared_basis_pool().clear()
    registry = TenantRegistry(build_tvtouch(), max_sessions=max(TENANTS, 64))
    service = RankingService(
        registry, ServiceConfig()
    )
    yield service
    clear_registry()
    shared_basis_pool().clear()


def traffic_config(requests: int) -> TrafficConfig:
    return TrafficConfig(
        tenants=TENANTS,
        requests=requests,
        concurrency=CONCURRENCY,
        zipf_exponent=1.1,
        context_churn=0.5,
        top_k=None,  # full ranking, so scores are comparable across paths
        seed=42,
    )


def in_process_issue(service):
    def issue(request):
        reply = service.rank(
            ServiceRequest(
                tenant=request.tenant, context=request.context, top_k=request.top_k
            )
        )
        if not reply.ok:
            raise RuntimeError(f"service answered {reply.status}: {reply.body}")
        return reply.body

    return issue


def http_issue(base_url: str):
    """A keep-alive HTTP client over :func:`repro.workloads.http_client`
    (one persistent connection per worker thread, single retry for a
    stale keep-alive), kept dict-returning for the identity checks and
    for e14's import of this helper."""
    client = http_client(
        base_url,
        policy=RetryPolicy(timeout=30.0, retries=1, backoff=0.001, backoff_max=0.001, jitter=0.0),
    )

    def issue(request):
        outcome = client(request)
        if not outcome.ok:
            raise RuntimeError(
                f"gateway answered {outcome.status}: {outcome.error!r}"
            )
        return outcome.body

    return issue


def test_e13_service_throughput(fleet, save_result, save_json):
    service = fleet

    in_process = run_traffic(
        in_process_issue(service), traffic_config(REQUESTS), build_schedule(traffic_config(REQUESTS))
    )
    assert in_process.errors == 0

    server = make_aio_server(service, port=0)
    gateway_thread = threading.Thread(target=server.serve_forever, daemon=True)
    gateway_thread.start()
    try:
        http_config = traffic_config(HTTP_REQUESTS)
        over_http = run_traffic(
            http_issue(server.url), http_config, build_schedule(http_config)
        )

        # Score identity: every context menu, HTTP vs in-process, 1e-9.
        worst_delta = 0.0
        for index, menu in enumerate(CONTEXT_MENUS):
            tenant = f"identity_{index}"
            local = service.rank(ServiceRequest(tenant=tenant, context=menu))
            assert local.ok
            remote = http_issue(server.url)(
                type("R", (), {"tenant": tenant, "context": menu, "top_k": None})()
            )
            local_scores = {item["document"]: item["score"] for item in local.body["items"]}
            remote_scores = {item["document"]: item["score"] for item in remote["items"]}
            assert set(local_scores) == set(remote_scores)
            worst_delta = max(
                worst_delta,
                max(
                    abs(local_scores[doc] - remote_scores[doc])
                    for doc in local_scores
                ),
            )
        assert worst_delta <= 1e-9
    finally:
        server.shutdown()
        server.server_close()
    assert over_http.errors == 0

    rows = {
        "in_process": in_process.to_dict(),
        "http": over_http.to_dict(),
    }
    table = TextTable(
        ["path", "requests", "throughput (req/s)", "p50 (ms)", "p95 (ms)", "p99 (ms)"]
    )
    for path, row in rows.items():
        table.add_row(
            [
                path,
                row["requests"],
                f"{row['throughput_rps']:.0f}",
                f"{row['latency_p50_ms']:.2f}",
                f"{row['latency_p95_ms']:.2f}",
                f"{row['latency_p99_ms']:.2f}",
            ]
        )
    save_result("e13_service", table.render())
    save_json(
        "e13_service",
        {
            "experiment": "e13_service",
            "tenants": TENANTS,
            "concurrency": CONCURRENCY,
            "context_churn": 0.5,
            "zipf_exponent": 1.1,
            "max_http_score_delta": worst_delta,
            "paths": rows,
            "stage_metrics": service.metrics.snapshot()["stages"],
        },
    )

    if not SMOKE:
        assert in_process.throughput_rps >= MIN_IN_PROCESS_RPS, (
            f"in-process throughput {in_process.throughput_rps:.0f} req/s at "
            f"concurrency {CONCURRENCY} is below the {MIN_IN_PROCESS_RPS:.0f} req/s bound"
        )
