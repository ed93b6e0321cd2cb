"""E14 — the response cache and the pre-fork serving fleet under traffic.

Between context changes a tenant's ranked answer is a pure function of
its knowledge state and the query, so the serving layer can answer
repeats without touching the engine at all.  This experiment measures
that claim on the E13 traffic shape (Zipf tenant popularity, 50 %
context churn — i.e. half the requests repeat a recently ranked
state):

* **in-process, cached vs uncached** — the same deterministic
  schedule through a :class:`RankingService` with and without an
  :class:`InMemoryCacheAdapter`: hit ratio, throughput, and the
  cache-hit p50 (the ``total.cached`` stage), asserted < 1 ms;
* **identity** — for every context menu, the cached service's second
  answer must match an uncached service to ≤ 1e-9 per document;
* **over HTTP** — single process without cache (the E13 / PR 5
  baseline), single process with cache, and a ``--workers 4`` fleet
  with per-worker caches, all driven by the keep-alive client.

The fleet comparison is core-bound: worker processes only add
throughput when the kernel has cores to schedule them on.  On ≥ 4
cores the fleet must clear 3× the single-process uncached baseline;
on smaller boxes (CI here is single-core, where extra workers are
pure context-switch overhead and the closed-loop client shares the
core) the measured ratio is recorded but not asserted.
"""

import os
import threading

import pytest

from bench_e13_service import http_issue, in_process_issue, traffic_config
from repro.cache import InMemoryCacheAdapter, NoCacheAdapter
from repro.engine import shared_basis_pool
from repro.reason import clear_registry
from repro.reporting import TextTable
from repro.service import (
    FleetSupervisor,
    RankingService,
    ServiceConfig,
    ServiceRequest,
    make_aio_server,
    supports_fleet,
)
from repro.tenants import TenantRegistry
from repro.workloads import (
    CONTEXT_MENUS,
    build_schedule,
    build_tvtouch,
    run_traffic,
)

#: CI smoke mode: tiny workload, no perf assertions (see conftest).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

REQUESTS = 200 if SMOKE else 4000
HTTP_REQUESTS = 100 if SMOKE else 2000
FLEET_WORKERS = 4
MAX_CACHED_P50_MS = 1.0
MIN_FLEET_SPEEDUP = 3.0
#: The fleet assertion needs real cores to schedule workers on.
CORES = os.cpu_count() or 1


def fresh_service(cache):
    clear_registry()
    shared_basis_pool().clear()
    registry = TenantRegistry(build_tvtouch(), max_sessions=256)
    return RankingService(
        registry,
        ServiceConfig(),
        cache=cache,
    )


def drive_in_process(cache):
    service = fresh_service(cache)
    config = traffic_config(REQUESTS)
    report = run_traffic(in_process_issue(service), config, build_schedule(config))
    assert report.errors == 0
    return service, report


def drive_http(service):
    server = make_aio_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        config = traffic_config(HTTP_REQUESTS)
        report = run_traffic(http_issue(server.url), config, build_schedule(config))
    finally:
        server.shutdown()
        server.server_close()
    assert report.errors == 0
    return report


def test_e14_cache_identity():
    """A hit is indistinguishable from the rank it replaced (≤ 1e-9)."""
    cached_svc = fresh_service(InMemoryCacheAdapter(ttl=None))
    uncached_svc = fresh_service(NoCacheAdapter())
    worst = 0.0
    for index, menu in enumerate(CONTEXT_MENUS + ((),)):
        tenant = f"identity_{index}"
        request = ServiceRequest(tenant=tenant, context=menu)
        cached_svc.rank(request)  # fill
        hit = cached_svc.rank(request)
        assert hit.ok and hit.body.get("cached") is True
        reference = uncached_svc.rank(request)
        assert reference.ok
        hit_scores = {item["document"]: item["score"] for item in hit.body["items"]}
        ref_scores = {
            item["document"]: item["score"] for item in reference.body["items"]
        }
        assert set(hit_scores) == set(ref_scores) and hit_scores
        worst = max(
            worst, max(abs(hit_scores[doc] - ref_scores[doc]) for doc in ref_scores)
        )
    assert worst <= 1e-9


def test_e14_cache_traffic(save_result, save_json):
    uncached_svc, uncached = drive_in_process(NoCacheAdapter())
    cached_svc, cached = drive_in_process(InMemoryCacheAdapter(ttl=None))
    info = cached_svc.cache.info()
    assert info.hits > 0
    hit_p50_ms = cached_svc.metrics.snapshot()["stages"]["total.cached"]["p50_ms"]

    http_rows = {}
    fleet_note = None
    if supports_fleet():
        http_rows["http_single_nocache"] = drive_http(
            fresh_service(NoCacheAdapter())
        ).to_dict()
        http_rows["http_single_cache"] = drive_http(
            fresh_service(InMemoryCacheAdapter(ttl=None))
        ).to_dict()

        def factory(worker_info):
            registry = TenantRegistry(build_tvtouch(), max_sessions=256)
            return RankingService(
                registry,
                ServiceConfig(),
                cache=InMemoryCacheAdapter(ttl=None),
                worker_info=dict(worker_info),
            )

        clear_registry()
        shared_basis_pool().clear()
        with FleetSupervisor(factory, workers=FLEET_WORKERS, port=0) as fleet:
            config = traffic_config(HTTP_REQUESTS)
            fleet_report = run_traffic(
                http_issue(fleet.url), config, build_schedule(config)
            )
        assert fleet_report.errors == 0
        http_rows[f"http_fleet_{FLEET_WORKERS}_cache"] = fleet_report.to_dict()
        baseline = http_rows["http_single_nocache"]["throughput_rps"]
        fleet_speedup = fleet_report.throughput_rps / baseline
        if CORES < FLEET_WORKERS:
            fleet_note = (
                f"{CORES}-core host: {FLEET_WORKERS} workers have no cores to "
                f"run on in parallel (and the closed-loop client shares the "
                f"core), so the fleet ratio measures scheduling overhead, not "
                f"scaling; the >= {MIN_FLEET_SPEEDUP:.0f}x bound is asserted "
                f"on >= {FLEET_WORKERS}-core hosts only"
            )
    else:  # pragma: no cover - non-POSIX
        fleet_speedup = None

    rows = {
        "in_process_nocache": uncached.to_dict(),
        "in_process_cache": cached.to_dict(),
        **http_rows,
    }
    table = TextTable(
        ["path", "requests", "throughput (req/s)", "p50 (ms)", "p95 (ms)"]
    )
    for path, row in rows.items():
        table.add_row(
            [
                path,
                row["requests"],
                f"{row['throughput_rps']:.0f}",
                f"{row['latency_p50_ms']:.2f}",
                f"{row['latency_p95_ms']:.2f}",
            ]
        )
    lines = [
        table.render(),
        f"hit ratio {info.hit_ratio:.3f} ({info.hits} hits / {info.misses} misses), "
        f"cache-hit p50 {hit_p50_ms:.3f} ms, "
        f"in-process cache speedup x{cached.throughput_rps / uncached.throughput_rps:.2f}",
    ]
    if fleet_speedup is not None:
        lines.append(
            f"fleet x{FLEET_WORKERS} vs single uncached: x{fleet_speedup:.2f} "
            f"on {CORES} core(s)"
        )
    if fleet_note:
        lines.append(f"note: {fleet_note}")
    save_result("e14_cache", "\n".join(lines))
    save_json(
        "e14_cache",
        {
            "experiment": "e14_cache",
            "cores": CORES,
            "workload": {
                "requests": REQUESTS,
                "http_requests": HTTP_REQUESTS,
                "zipf_exponent": 1.1,
                "context_churn": 0.5,
            },
            "cache": info.to_dict(),
            "cache_hit_p50_ms": hit_p50_ms,
            "in_process_cache_speedup": cached.throughput_rps
            / uncached.throughput_rps,
            "fleet_workers": FLEET_WORKERS,
            "fleet_speedup_vs_single_nocache": fleet_speedup,
            "fleet_note": fleet_note,
            "paths": rows,
            "cached_stage_metrics": {
                name: summary
                for name, summary in cached_svc.metrics.snapshot()["stages"].items()
                if name.startswith("total") or name.startswith("cache")
            },
        },
    )

    if not SMOKE:
        assert info.hit_ratio >= 0.5, (
            f"hit ratio {info.hit_ratio:.3f} on a 50%-churn Zipf workload "
            f"should clear 0.5"
        )
        assert hit_p50_ms < MAX_CACHED_P50_MS, (
            f"cache-hit p50 {hit_p50_ms:.3f} ms breaches the "
            f"{MAX_CACHED_P50_MS} ms bound"
        )
        assert cached.throughput_rps > uncached.throughput_rps, (
            f"cached in-process throughput {cached.throughput_rps:.0f} req/s "
            f"did not beat uncached {uncached.throughput_rps:.0f} req/s"
        )
        if fleet_speedup is not None and CORES >= FLEET_WORKERS:
            assert fleet_speedup >= MIN_FLEET_SPEEDUP, (
                f"fleet of {FLEET_WORKERS} at x{fleet_speedup:.2f} vs the "
                f"single-process uncached baseline is below the "
                f"{MIN_FLEET_SPEEDUP:.0f}x bound on a {CORES}-core host"
            )
    clear_registry()
    shared_basis_pool().clear()


def test_e14_eviction_hook_under_churning_fleet(save_json):
    """A tiny session LRU forces constant evictions; the cache must
    never serve a body across a session re-mint (wrong standing
    context) and the counters must stay coherent."""
    clear_registry()
    registry = TenantRegistry(build_tvtouch(), max_sessions=4)
    cache = InMemoryCacheAdapter(ttl=None)
    service = RankingService(
        registry, ServiceConfig(), cache=cache
    )
    menus = CONTEXT_MENUS
    for round_index in range(3):
        for tenant_index in range(12):  # 3x the session capacity
            tenant = f"churn_{tenant_index}"
            menu = menus[tenant_index % len(menus)]
            delta = service.rank(ServiceRequest(tenant=tenant, context=menu))
            assert delta.ok
            standing = service.rank(ServiceRequest(tenant=tenant))
            assert standing.ok
            # Standing answer must equal the delta answer (same state),
            # cached or not — an eviction between the two just costs a
            # recompute, never a wrong body.
            assert [item["score"] for item in standing.body["items"]] == [
                item["score"] for item in delta.body["items"]
            ]
    info = cache.info()
    assert registry.info().evictions > 0
    assert info.invalidations > 0  # the eviction hook purged tenants
    save_json(
        "e14_eviction_churn",
        {
            "experiment": "e14_eviction_churn",
            "session_evictions": registry.info().evictions,
            "cache": info.to_dict(),
        },
    )
    clear_registry()
