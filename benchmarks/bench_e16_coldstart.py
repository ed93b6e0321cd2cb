"""E16 — cold start: in-process rebuild vs snapshot vs preload.

The PR 8 store claims a fleet cold boot no longer scales with world
size × worker count.  This experiment measures **time-to-first-rank**
on the 100k-assertion Section-5 workload (scale 9.0: ~101k assertions,
2700 programs, 8 uncertain context features, 8 rules) for three boot
strategies at 1/2/4 workers:

* **rebuild** — every worker regenerates the world from source and
  ranks; the pre-PR fleet behaviour (cost × worker count, all pages
  private);
* **snapshot** — every worker loads the verified snapshot itself and
  ranks: the restore path alone;
* **preload** — the parent calls ``load_world`` once (basis matrix
  restored, reasoner memos seeded), then forks workers that inherit
  it copy-on-write and only rank: the ``serve --snapshot`` path.

Each worker reports its own boot-to-rank latency and its USS
(``/proc/self/smaps_rollup`` Private_Clean + Private_Dirty) after
ranking, so the *marginal private bytes per extra worker* comparison is
physical, not guessed from RSS.  A final fork after the fleet has
drained measures the **respawn** path (fork again, never rebuild).

Full-mode assertions (the ISSUE 8 acceptance targets):

* snapshot-loaded vs rebuilt score identity ≤ 1e-9;
* fleet cold boot (all workers ranked) ≥ 5x faster with the preloaded
  snapshot than with per-worker rebuilds at the widest fleet;
* marginal USS per preload worker ≤ 10 % of a rebuild worker's.
"""

import os
import time

import pytest

from repro.engine import shared_basis_pool
from repro.reason import clear_registry
from repro.reporting import TextTable
from repro.service import supports_fleet
from repro.store import load_world, write_world_snapshot
from repro.tenants import TenantRegistry
from repro.workloads import (
    Section5Counts,
    generate_rule_series,
    generate_test_database,
    install_context_series,
)

#: CI smoke mode: tiny world, one worker, no assertions (see conftest).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

SCALE = 1.0 if SMOKE else 9.0
CONTEXT_FEATURES = 4 if SMOKE else 8
WORKER_COUNTS = (1,) if SMOKE else (1, 2, 4)
CONTEXT = "CtxScenario_00"
TENANT = "u_bench"
IDENTITY_BOUND = 1e-9
SPEEDUP_BOUND = 5.0
MARGINAL_USS_BOUND = 0.10


def build_world():
    """The e16 workload: scaled Section-5 world + contexts + rules."""
    world = generate_test_database(seed=7, counts=Section5Counts().scaled(SCALE))
    install_context_series(world, k=CONTEXT_FEATURES, seed=11)
    world.repository = generate_rule_series(world, CONTEXT_FEATURES, seed=13)
    return world


def first_rank(world_like) -> dict[str, float]:
    """Mint a tenant, install the benchmark context, rank once."""
    registry = TenantRegistry(world_like)
    user = getattr(world_like, "user", None)
    session = registry.session(TENANT, user=getattr(user, "name", None))
    session.install_context(CONTEXT)
    response = session.rank()
    return {item.document: item.score for item in response.items}


def uss_of(pid: int) -> int:
    """A process's unique set size (private clean + dirty pages)."""
    total = 0
    with open(f"/proc/{pid}/smaps_rollup") as handle:
        for line in handle:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                total += int(line.split()[1]) * 1024
    return total


def _worker(variant: str, snapshot_path, preloaded, queue, release) -> None:
    """One fleet worker: boot per ``variant``, rank once, report.

    After reporting, the worker parks on ``release`` so the parent can
    read its USS while every sibling is still alive — pages a dead
    sibling used to share would otherwise be miscounted as private.
    """
    started = time.monotonic()
    if variant == "rebuild":
        world = build_world()
    elif variant == "snapshot":
        world = load_world(snapshot_path)
    else:  # preload: the world was loaded before the fork
        world = preloaded
    scores = first_rank(world)
    done = time.monotonic()
    queue.put(
        {"ttfr_seconds": done - started, "done_at": done, "scores": scores}
    )
    release.wait(timeout=300)


def run_fleet(variant: str, workers: int, snapshot_path, preloaded=None) -> dict:
    """Cold-boot a ``variant`` fleet of ``workers`` and collect reports.

    The clock starts before any per-variant work (including the
    parent's snapshot load for ``preload``), so ``wall_*``
    figures are honest end-to-end cold-boot numbers.
    """
    import gc
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    queue = ctx.SimpleQueue()
    release = ctx.Event()
    t0 = time.monotonic()
    parent_load = 0.0
    if variant == "preload":
        load_started = time.monotonic()
        preloaded = load_world(snapshot_path)
        parent_load = time.monotonic() - load_started
    # Freeze the parent heap before forking (the serve-fleet preload
    # does the same): the children's cyclic collector must never
    # traverse the inherited world, or its header writes privatize
    # every copy-on-write page and the sharing evaporates.
    gc.collect()
    gc.freeze()
    try:
        children = [
            ctx.Process(
                target=_worker,
                args=(variant, snapshot_path, preloaded, queue, release),
            )
            for _ in range(workers)
        ]
        for child in children:
            child.start()
        reports = [queue.get() for _ in range(workers)]
        uss = [uss_of(child.pid) for child in children]
        release.set()
        for child in children:
            child.join()
        if variant == "preload":
            # The respawn path: a fresh fork off the warm parent
            # inherits the already-loaded world and only pays the
            # first rank.
            respawn_queue = ctx.SimpleQueue()
            respawn_release = ctx.Event()
            respawn_release.set()
            respawn = ctx.Process(
                target=_worker,
                args=(
                    variant,
                    snapshot_path,
                    preloaded,
                    respawn_queue,
                    respawn_release,
                ),
            )
            respawn.start()
            respawn_report = respawn_queue.get()
            respawn.join()
        else:
            respawn_report = None
    finally:
        gc.unfreeze()
    done_at = [report["done_at"] for report in reports]
    result = {
        "workers": workers,
        "parent_load_seconds": parent_load,
        "wall_first_rank_seconds": min(done_at) - t0,
        "wall_all_ranked_seconds": max(done_at) - t0,
        "ttfr_seconds": [report["ttfr_seconds"] for report in reports],
        "uss_bytes": uss,
        "scores": reports[0]["scores"],
    }
    if respawn_report is not None:
        result["respawn_ttfr_seconds"] = respawn_report["ttfr_seconds"]
    return result


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


@pytest.mark.skipif(not supports_fleet(), reason="needs fork + SO_REUSEPORT")
def test_e16_coldstart(save_result, save_json, tmp_path):
    clear_registry()
    shared_basis_pool().clear()

    # Build once in the parent purely to write the snapshot; the
    # rebuild-variant children regenerate it themselves.
    build_started = time.perf_counter()
    world = build_world()
    build_seconds = time.perf_counter() - build_started
    snapshot_path = tmp_path / "e16.snap"
    write_started = time.perf_counter()
    write_world_snapshot(snapshot_path, world)
    write_seconds = time.perf_counter() - write_started
    assertions = len(world.abox)
    del world
    clear_registry()
    shared_basis_pool().clear()

    variants: dict[str, dict[str, dict]] = {}
    for variant in ("rebuild", "snapshot", "preload"):
        variants[variant] = {}
        for workers in WORKER_COUNTS:
            variants[variant][str(workers)] = run_fleet(
                variant, workers, snapshot_path
            )

    # Score identity across boot strategies (the ≤1e-9 bar).
    reference = variants["rebuild"][str(WORKER_COUNTS[0])]["scores"]
    divergence = 0.0
    for variant in ("snapshot", "preload"):
        scores = variants[variant][str(WORKER_COUNTS[0])]["scores"]
        assert set(scores) == set(reference)
        divergence = max(
            divergence,
            max(abs(scores[doc] - reference[doc]) for doc in reference),
        )

    widest = str(WORKER_COUNTS[-1])
    rebuild_wide = variants["rebuild"][widest]
    preload_wide = variants["preload"][widest]
    fleet_speedup = (
        rebuild_wide["wall_all_ranked_seconds"]
        / preload_wide["wall_all_ranked_seconds"]
    )
    single = str(WORKER_COUNTS[0])
    single_speedup = mean(variants["rebuild"][single]["ttfr_seconds"]) / mean(
        variants["snapshot"][single]["ttfr_seconds"]
    )
    respawn_ttfr = preload_wide.get("respawn_ttfr_seconds")
    respawn_speedup = (
        mean(rebuild_wide["ttfr_seconds"]) / respawn_ttfr if respawn_ttfr else None
    )
    marginal_ratio = mean(preload_wide["uss_bytes"]) / mean(rebuild_wide["uss_bytes"])

    table = TextTable(
        ["variant", "workers", "wall_first", "wall_all", "mean_ttfr", "uss_mb"]
    )
    for variant, runs in variants.items():
        for workers in WORKER_COUNTS:
            run = runs[str(workers)]
            table.add_row(
                [
                    variant,
                    workers,
                    f"{run['wall_first_rank_seconds']:.3f}",
                    f"{run['wall_all_ranked_seconds']:.3f}",
                    f"{mean(run['ttfr_seconds']):.3f}",
                    f"{mean(run['uss_bytes']) / 1e6:.1f}",
                ]
            )
    summary = (
        f"abox={assertions} build={build_seconds:.2f}s "
        f"snapshot_write={write_seconds:.2f}s "
        f"snapshot_bytes={os.path.getsize(snapshot_path)}\n"
        f"fleet_speedup@{widest}w={fleet_speedup:.1f}x "
        f"single_ttfr_speedup={single_speedup:.1f}x "
        f"respawn_ttfr={respawn_ttfr if respawn_ttfr is None else f'{respawn_ttfr:.3f}s'} "
        f"marginal_uss_ratio={marginal_ratio:.3f}\n"
    )
    save_result("e16_coldstart", summary + table.render())

    record = {
        "experiment": "e16_coldstart",
        "scale": SCALE,
        "abox_assertions": assertions,
        "context_features": CONTEXT_FEATURES,
        "build_seconds": build_seconds,
        "snapshot_write_seconds": write_seconds,
        "snapshot_bytes": os.path.getsize(snapshot_path),
        "worker_counts": list(WORKER_COUNTS),
        "variants": {
            variant: {
                workers: {k: v for k, v in run.items() if k != "scores"}
                for workers, run in runs.items()
            }
            for variant, runs in variants.items()
        },
        "max_score_divergence": divergence,
        "identity_bound": IDENTITY_BOUND,
        "fleet_cold_boot_speedup": fleet_speedup,
        "single_worker_ttfr_speedup": single_speedup,
        "respawn_ttfr_seconds": respawn_ttfr,
        "respawn_speedup": respawn_speedup,
        "marginal_uss_ratio": marginal_ratio,
        "speedup_bound": SPEEDUP_BOUND,
        "marginal_uss_bound": MARGINAL_USS_BOUND,
    }
    save_json("e16_coldstart", record)

    assert divergence <= IDENTITY_BOUND, (
        f"snapshot-loaded scores diverge from rebuilt scores by {divergence}"
    )
    if not SMOKE:
        assert fleet_speedup >= SPEEDUP_BOUND, (
            f"fleet cold boot speedup {fleet_speedup:.2f}x at {widest} workers "
            f"is below the {SPEEDUP_BOUND}x target "
            f"(rebuild {rebuild_wide['wall_all_ranked_seconds']:.2f}s vs "
            f"preload {preload_wide['wall_all_ranked_seconds']:.2f}s)"
        )
        assert marginal_ratio <= MARGINAL_USS_BOUND, (
            f"marginal USS per preload worker is {marginal_ratio:.1%} of a "
            f"private rebuild worker (bound {MARGINAL_USS_BOUND:.0%})"
        )
    clear_registry()
    shared_basis_pool().clear()
