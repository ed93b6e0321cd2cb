"""E17 — cross-request micro-batching under a context-shift herd.

The paper's motivating scenario makes context a *shared* signal: when
the situation changes (breakfast ends, the weekend starts), it changes
for many users at once, so a serving fleet sees thundering herds of
concurrent requests carrying the *same, novel* context.  This
experiment measures what the :class:`~repro.service.BatchScheduler`
buys on exactly that traffic, end to end through the service pipeline:

* **workload**: the E13 closed-loop harness (Zipf tenant popularity at
  exponent 1.1, 8 concurrent workers, Section 5 world scaled to 2 000
  programs with the 12-scenario rule series) — but instead of a fixed
  menu, each consecutive block of ``HERD_SPAN`` requests shares one
  fresh probabilistic context, never repeated across blocks.  Every
  request therefore misses the per-tenant view caches, while its
  in-flight neighbours carry coefficient-identical contexts the
  batcher can coalesce across tenants;
* **batched vs unbatched**: the identical schedule through two
  freshly-minted fleets, one with ``batch_max_size=8`` and one with
  batching disabled — the delta is exactly the scheduler;
* **identity**: a held-out herd round issued concurrently to the
  batched fleet and sequentially to the unbatched one must agree on
  every document score to ≤ 1e-9.

Claims asserted (full mode): batched in-process throughput ≥ 1.5× the
unbatched run at concurrency 8, a positive coalesce ratio, zero
errors on both paths, score identity, and a queue-wait p95 bounded by
the batching window plus one observed flush.
"""

import os
import threading

import pytest

from repro.engine import shared_basis_pool
from repro.reason import clear_registry
from repro.reporting import TextTable
from repro.service import RankingService, ServiceConfig, ServiceRequest
from repro.tenants import TenantRegistry
from repro.workloads import (
    Section5Counts,
    TrafficConfig,
    TrafficRequest,
    generate_test_database,
    run_traffic,
    zipf_weights,
)
from repro.workloads.rules_series import generate_rule_series

#: CI smoke mode: tiny workload, no perf assertions (see conftest).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

TENANTS = 16 if SMOKE else 200
REQUESTS = 96 if SMOKE else 2400
CONCURRENCY = 8
#: Consecutive schedule slots sharing one herd context.  Matched to the
#: worker count: the closed-loop strides keep the in-flight set within
#: about one block, so a block is one coalescible burst.
HERD_SPAN = 8
PERSONS = 16 if SMOKE else 50
PROGRAMS = 160 if SMOKE else 2000
RULE_COUNT = 12
BATCH_MAX_SIZE = 8
#: Wide enough to cover the closed-loop arrival spread of one herd
#: round on a single core, so batches actually fill; a full batch
#: flushes immediately, so the window only delays stragglers.
BATCH_MAX_WAIT_US = 20_000.0
MIN_SPEEDUP = 1.5


@pytest.fixture(scope="module")
def herd_world():
    clear_registry()
    shared_basis_pool().clear()
    world = generate_test_database(
        seed=7, counts=Section5Counts(persons=PERSONS, programs=PROGRAMS)
    )
    rules = generate_rule_series(world, RULE_COUNT)
    yield world, rules
    clear_registry()
    shared_basis_pool().clear()


def herd_context(era: int) -> tuple[str, str]:
    """The shared context of herd block ``era`` — two scenario concepts
    with probabilities that never repeat within the run, so every block
    is novel to every view cache yet identical across its members."""
    first = era % RULE_COUNT
    second = (first + 1 + era // RULE_COUNT) % RULE_COUNT
    p_first = 10 + (era * 7919) % 80
    p_second = 10 + (era * 104729) % 80
    return (
        f"CtxScenario_{first:02d}:0.{p_first:02d}",
        f"CtxScenario_{second:02d}:0.{p_second:02d}",
    )


def build_herd_schedule(requests: int, *, era_offset: int = 0, seed: int = 42):
    """Zipf-tenant traffic where each ``HERD_SPAN`` block shares one
    fresh context (``era_offset`` shifts the block numbering so later
    phases can draw herds no cache has seen)."""
    import random

    rng = random.Random(seed)
    tenant_ids = [f"tenant_{index:05d}" for index in range(TENANTS)]
    weights = zipf_weights(TENANTS, 1.1)
    chosen = rng.choices(tenant_ids, weights=weights, k=requests)
    return [
        TrafficRequest(
            tenant=tenant,
            context=herd_context(era_offset + index // HERD_SPAN),
            top_k=3,
        )
        for index, tenant in enumerate(chosen)
    ]


def make_fleet(world, rules, *, batched: bool) -> RankingService:
    """A fresh registry + service; basis compilation is shared through
    the module pool, so both variants start equally warm."""
    registry = TenantRegistry(
        world, rules=rules, shards=8, max_sessions=max(TENANTS + 16, 64)
    )
    config = ServiceConfig(
        max_concurrency=CONCURRENCY,
        batch_max_size=BATCH_MAX_SIZE if batched else 0,
        batch_max_wait_us=BATCH_MAX_WAIT_US,
    )
    return RankingService(registry, config)


def warm_fleet(service: RankingService, schedule) -> None:
    """Publish every scheduled tenant's basis before the clock starts —
    both variants pay the identical cold-start outside the window."""
    for tenant in dict.fromkeys(request.tenant for request in schedule):
        reply = service.rank(ServiceRequest(tenant=tenant, top_k=1))
        assert reply.ok, f"warmup failed for {tenant}: {reply.body}"


def in_process_issue(service: RankingService):
    def issue(request: TrafficRequest):
        reply = service.rank(
            ServiceRequest(
                tenant=request.tenant, context=request.context, top_k=request.top_k
            )
        )
        if not reply.ok:
            raise RuntimeError(f"service answered {reply.status}: {reply.body}")
        return reply.body

    return issue


def traffic_config() -> TrafficConfig:
    return TrafficConfig(
        tenants=TENANTS,
        requests=REQUESTS,
        concurrency=CONCURRENCY,
        zipf_exponent=1.1,
        context_churn=1.0,
        top_k=3,
        seed=42,
    )


def score_identity_delta(batched: RankingService, unbatched: RankingService) -> float:
    """One held-out herd round, concurrent against the batched fleet,
    sequential against the unbatched one; returns the worst score delta."""
    probe = build_herd_schedule(HERD_SPAN, era_offset=10_000, seed=97)
    replies: list[dict | None] = [None] * len(probe)

    def hit(index: int, request: TrafficRequest) -> None:
        replies[index] = in_process_issue(batched)(request)

    threads = [
        threading.Thread(target=hit, args=(index, request))
        for index, request in enumerate(probe)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive(), "identity probe never returned"
    worst = 0.0
    for request, body in zip(probe, replies):
        assert body is not None
        reference = in_process_issue(unbatched)(request)
        left = {item["document"]: item["score"] for item in body["items"]}
        right = {item["document"]: item["score"] for item in reference["items"]}
        assert set(left) == set(right)
        worst = max(worst, max((abs(left[doc] - right[doc]) for doc in left), default=0.0))
    return worst


def test_e17_batching_throughput(herd_world, save_result, save_json):
    world, rules = herd_world
    schedule = build_herd_schedule(REQUESTS)
    config = traffic_config()

    reports = {}
    batching_metrics: dict = {"enabled": False}
    fleets = {}
    try:
        for name, batched in (("unbatched", False), ("batched", True)):
            fleets[name] = make_fleet(world, rules, batched=batched)
            warm_fleet(fleets[name], schedule)
            reports[name] = run_traffic(
                in_process_issue(fleets[name]), config, schedule
            )
            assert reports[name].errors == 0, f"{name} run saw request errors"
        batching_metrics = fleets["batched"].metrics_snapshot()["batching"]
        worst_delta = score_identity_delta(fleets["batched"], fleets["unbatched"])
    finally:
        for fleet in fleets.values():
            fleet.close()

    assert worst_delta <= 1e-9

    speedup = (
        reports["batched"].throughput_rps / reports["unbatched"].throughput_rps
    )
    table = TextTable(
        ["variant", "requests", "throughput (req/s)", "p50 (ms)", "p95 (ms)", "p99 (ms)"]
    )
    for name, report in reports.items():
        row = report.to_dict()
        table.add_row(
            [
                name,
                row["requests"],
                f"{row['throughput_rps']:.0f}",
                f"{row['latency_p50_ms']:.2f}",
                f"{row['latency_p95_ms']:.2f}",
                f"{row['latency_p99_ms']:.2f}",
            ]
        )
    table.add_row(["speedup", "", f"{speedup:.2f}x", "", "", ""])
    save_result("e17_batching", table.render())
    save_json(
        "e17_batching",
        {
            "experiment": "e17_batching",
            "tenants": TENANTS,
            "requests": REQUESTS,
            "concurrency": CONCURRENCY,
            "herd_span": HERD_SPAN,
            "programs": PROGRAMS,
            "rules": RULE_COUNT,
            "batch_max_size": BATCH_MAX_SIZE,
            "batch_max_wait_us": BATCH_MAX_WAIT_US,
            "speedup": speedup,
            "max_score_delta": worst_delta,
            "paths": {name: report.to_dict() for name, report in reports.items()},
            "batching": batching_metrics,
        },
    )

    assert batching_metrics["enabled"]
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP, (
            f"batched throughput {reports['batched'].throughput_rps:.0f} req/s is "
            f"only {speedup:.2f}x the unbatched "
            f"{reports['unbatched'].throughput_rps:.0f} req/s (need ≥ {MIN_SPEEDUP}x)"
        )
        assert batching_metrics["coalesce_ratio"] > 0.0, (
            "the herd never coalesced — batching degenerated to singleton flushes"
        )
        # Queue-wait p95 is bounded by the batching window plus one flush:
        # a request waits at most the leader's window, then rides one pass.
        wait_bound = BATCH_MAX_WAIT_US / 1e3 + batching_metrics["flush"]["p95_ms"]
        assert batching_metrics["queue_wait"]["p95_ms"] <= wait_bound, (
            f"queue-wait p95 {batching_metrics['queue_wait']['p95_ms']:.2f} ms "
            f"exceeds window + flush ({wait_bound:.2f} ms)"
        )
