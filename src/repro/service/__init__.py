"""The serving runtime: concurrent request pipeline + HTTP/JSON gateway.

Turns the tenant fleet (:mod:`repro.tenants`) into a traffic-handling
system: a staged :class:`RankingService` pipeline (parse → cache →
breaker → resolve → context → rank → render) with per-stage latency
metrics, a pluggable response cache
(:mod:`repro.cache`), and a resilience layer
(:mod:`repro.service.resilience`: per-request deadlines, serve-stale
degradation, circuit breaking, fault injection), fronted by a
dependency-free event-loop HTTP gateway (:mod:`repro.service.aio`,
``python -m repro serve``) that scales past the GIL as a pre-fork
worker fleet (``python -m repro serve --workers N``,
:mod:`repro.service.fleet`).  The gateway's event loop answers cache
hits and warm misses itself; its one ``repro-gw`` thread runs only
what would wait, mint, compile or journal, and that thread's dispatch
queue bound is the one overload valve.  Herd mates
share one scored view through a tenant-blind memo
(:class:`~repro.engine.engine.ScoredViewMemo`).  In process, the
caller's threads are the bound.

Quickstart::

    from repro.service import RankingService, ServiceConfig, make_aio_server
    from repro.tenants import TenantRegistry
    from repro.workloads import build_tvtouch

    registry = TenantRegistry(build_tvtouch(), shards=8, max_sessions=4096)
    service = RankingService(registry, ServiceConfig(request_timeout=2.0))

    # in-process
    reply = service.rank({"tenant": ["alice"], "context": ["Weekend"], "top_k": ["3"]})
    print(reply.body["items"][0])

    # over HTTP
    server = make_aio_server(service, port=0)   # 0 = pick a free port
    # threading.Thread(target=server.serve_forever, daemon=True).start()
"""

from repro._lazy import lazy_exports as _lazy_exports

#: Where each public name lives; a name's module loads on first use
#: (a single process does not load the fleet supervisor).
__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.cache": ("CacheAdapter", "InMemoryCacheAdapter", "NoCacheAdapter"),
        "repro.service.batching": ("BatchScheduler",),
        "repro.service.fleet": ("FleetSupervisor", "serve_fleet", "supports_fleet"),
        "repro.service.metrics": (
            "GatewayMetrics",
            "LatencyRecorder",
            "ServiceMetrics",
            "percentile",
        ),
        "repro.service.pipeline": (
            "STAGES",
            "RankAttempt",
            "RankingService",
            "ServiceConfig",
            "ServiceRequest",
            "ServiceResponse",
            "WouldBlock",
        ),
        "repro.service.aio": ("AioRankingServer", "make_aio_server"),
        "repro.service.resilience": (
            "CircuitBreaker",
            "Deadline",
            "DeadlineExceeded",
            "FaultInjector",
            "InjectedFault",
            "SharedFleetState",
            "clamp_timeout",
            "current_deadline",
            "deadline_scope",
        ),
    },
)
