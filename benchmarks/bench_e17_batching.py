"""E17 — herd coalescing through the scored-view memo.

The paper's motivating scenario makes context a *shared* signal: when
the situation changes (breakfast ends, the weekend starts), it changes
for many users at once, so a serving fleet sees thundering herds of
concurrent requests carrying the *same, novel* context.  This
experiment measures how the service's tenant-blind
:class:`~repro.engine.engine.ScoredViewMemo` coalesces exactly that
traffic, end to end through the service pipeline:

* **workload**: the E13 closed-loop harness (Zipf tenant popularity at
  exponent 1.1, 8 concurrent workers, Section 5 world scaled to 2 000
  programs with the 12-scenario rule series) — but instead of a fixed
  menu, each consecutive block of ``HERD_SPAN`` requests shares one
  fresh probabilistic context, never repeated across blocks.  Every
  request therefore misses the per-tenant view caches, while its
  neighbours carry coefficient-identical contexts the memo shares
  across tenants;
* **coalescing**: kernel passes per herd request (memo requests and
  passes), with the schedule issued twice on fresh eras — one request
  at a time, the order a gateway's event loop serves warm misses in,
  and from 8 threads, where mates that miss at the same moment each
  score (nobody waits for a mate);
* **binds**: context binds per herd block — memo requests less the
  ones that took a mate's bound kernel (``binds_shared``).  Mates of a
  tenant-blind context share the first one's bind, so a block served
  in order binds once;
* **identity**: a held-out herd round issued concurrently to the
  service must agree with each tenant's own engine pass on every
  document score to ≤ 1e-9.

Claims asserted: one bind per herd block served in order (a count, in
every mode); in full mode, at most ``MAX_PASSES_PER_REQUEST`` kernel
passes per herd request in serving order, zero errors and score
identity.  The 8-thread figure and both runs' throughput are
recorded, not bounded: the old ≥ 1.5× bound of batched
over unbatched throughput had no unbatched side left to compare, and
had failed at full size at the two commits that measured it
(docs/PERFORMANCE.md, "One thread per miss").
"""

import os
import threading

import pytest

from repro.engine import RankRequest, shared_basis_pool
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
#: Served in order, a herd of ``HERD_SPAN`` mates ideally costs one
#: pass (0.125 a request); allow two.
MAX_PASSES_PER_REQUEST = 2 / HERD_SPAN
#: name -> closed-loop workers of each run.
RUNS = {"in_order": 1, "threads": CONCURRENCY}


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


def make_registry(world, rules) -> TenantRegistry:
    """A fresh registry; basis compilation is shared through the module
    pool."""
    return TenantRegistry(world, rules=rules, max_sessions=max(TENANTS + 16, 64))


def warm_fleet(service: RankingService, schedule) -> None:
    """Publish every scheduled tenant's basis before the clock starts."""
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


def traffic_config(concurrency: int) -> TrafficConfig:
    return TrafficConfig(
        tenants=TENANTS,
        requests=REQUESTS,
        concurrency=concurrency,
        zipf_exponent=1.1,
        context_churn=1.0,
        top_k=3,
        seed=42,
    )


def score_identity_delta(service: RankingService, reference: TenantRegistry) -> float:
    """One held-out herd round, concurrent against the service, each
    request also ranked by its tenant's own engine on a separate
    registry; returns the worst score delta."""
    probe = build_herd_schedule(HERD_SPAN, era_offset=10_000, seed=97)
    replies: list[dict | None] = [None] * len(probe)

    def hit(index: int, request: TrafficRequest) -> None:
        replies[index] = in_process_issue(service)(request)

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
        own = reference.session(request.tenant).rank_in_context(
            request.context, RankRequest(top_k=request.top_k)
        )
        left = {item["document"]: item["score"] for item in body["items"]}
        right = {item.document: item.score for item in own.items}
        assert set(left) == set(right)
        worst = max(worst, max((abs(left[doc] - right[doc]) for doc in left), default=0.0))
    return worst


def test_e17_herd_coalescing(herd_world, save_result, save_json):
    world, rules = herd_world
    table = TextTable(
        ["run", "requests", "throughput (req/s)", "p50 (ms)", "p95 (ms)", "p99 (ms)",
         "passes/request", "binds/herd"]
    )
    herds = REQUESTS // HERD_SPAN
    runs = {}
    for era, (name, workers) in enumerate(RUNS.items()):
        schedule = build_herd_schedule(REQUESTS, era_offset=era * 1_000)
        service = RankingService(
            make_registry(world, rules), ServiceConfig()
        )
        try:
            warm_fleet(service, schedule)
            before = service.memo.info()
            report = run_traffic(in_process_issue(service), traffic_config(workers), schedule)
            after = service.memo.info()
            if name == "threads":
                worst_delta = score_identity_delta(service, make_registry(world, rules))
        finally:
            service.close()
        assert report.errors == 0, f"the {name} run saw request errors"
        requests = after["requests"] - before["requests"]
        passes = after["passes"] - before["passes"]
        binds = requests - (after["binds_shared"] - before["binds_shared"])
        assert requests > 0, "no herd request reached the memo"
        row = report.to_dict()
        runs[name] = {
            "workers": workers,
            "memo_requests": requests,
            "kernel_passes": passes,
            "passes_per_request": passes / requests,
            "binds": binds,
            "binds_per_herd": binds / herds,
            "run": row,
        }
        table.add_row(
            [
                name,
                row["requests"],
                f"{row['throughput_rps']:.0f}",
                f"{row['latency_p50_ms']:.2f}",
                f"{row['latency_p95_ms']:.2f}",
                f"{row['latency_p99_ms']:.2f}",
                f"{passes / requests:.3f}",
                f"{binds / herds:.3f}",
            ]
        )
    save_result("e17_batching", table.render())
    save_json(
        "e17_batching",
        {
            "experiment": "e17_batching",
            "tenants": TENANTS,
            "requests": REQUESTS,
            "herd_span": HERD_SPAN,
            "programs": PROGRAMS,
            "rules": RULE_COUNT,
            "max_passes_per_request": MAX_PASSES_PER_REQUEST,
            "max_score_delta": worst_delta,
            "runs": runs,
        },
    )

    assert worst_delta <= 1e-9
    in_order = runs["in_order"]
    assert in_order["binds"] == herds, (
        f"{in_order['binds']} context binds for {herds} herds of {HERD_SPAN} "
        "served in order (mates should share the first one's)"
    )
    if not SMOKE:
        assert in_order["passes_per_request"] <= MAX_PASSES_PER_REQUEST, (
            f"{in_order['kernel_passes']} kernel passes for "
            f"{in_order['memo_requests']} herd requests served in order "
            f"(need ≤ {MAX_PASSES_PER_REQUEST:.3f} a request)"
        )
