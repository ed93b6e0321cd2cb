"""Command-line interface: ``python -m repro <command>``.

Six commands cover the library's everyday workflows:

* ``example``  — run the paper's worked example (Table 1 + SQL query);
* ``rank``     — score a rule file against a context description;
* ``mine``     — mine scored preference rules from a JSON-lines history;
* ``scaling``  — a quick naive-vs-factorised scaling measurement;
* ``serve``    — the HTTP/JSON ranking gateway over a tenant fleet;
* ``snapshot`` — build or inspect a persistent world snapshot
  (``serve --snapshot`` boots the fleet from one instead of rebuilding).

The CLI is deliberately thin: every ranking path goes through the
:class:`~repro.engine.RankingEngine` facade (``serve`` through the
:class:`~repro.service.RankingService` pipeline on top of it), so it
doubles as executable documentation of the public API.

Each command imports what it runs, inside its handler: ``serve`` does
not load the miner or the report tables, ``mine`` does not load the
serving stack, and ``--help`` loads nothing but the parser.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import Sequence

from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Context-aware preference ranking (van Bunningen et al., ICDE 2007).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("example", help="run the paper's worked example")

    rank = commands.add_parser("rank", help="rank the TVTouch programs under a rule file")
    rank.add_argument("rules", help="path to a rule DSL file")
    rank.add_argument(
        "--context",
        action="append",
        default=[],
        metavar="CONCEPT[:PROB]",
        help="context concept held by the user, e.g. 'Weekend' or 'Breakfast:0.7' (repeatable)",
    )

    mine = commands.add_parser("mine", help="mine preference rules from a history file")
    mine.add_argument("history", help="JSON-lines episode log (HistoryLog.save format)")
    mine.add_argument("--min-support", type=int, default=5)
    mine.add_argument("--min-lift", type=float, default=0.1)
    mine.add_argument("--smoothing", type=float, default=0.0)

    scaling = commands.add_parser("scaling", help="naive vs factorised query-time sweep")
    scaling.add_argument("--max-rules", type=int, default=6)
    scaling.add_argument("--scale", type=float, default=0.2, help="database scale factor")

    serve = commands.add_parser(
        "serve", help="run the HTTP/JSON ranking gateway over a tenant fleet"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080, help="0 picks a free port")
    serve.add_argument(
        "--rules", help="rule DSL file applied to every minted tenant (default: the paper's)"
    )
    serve.add_argument("--max-sessions", type=int, default=4096, help="live-session LRU bound")
    serve.add_argument(
        "--request-timeout", type=float, default=2.0,
        help="per-request deadline in seconds; 0 disables deadlines",
    )
    serve.add_argument(
        "--stale-max-age", type=float, default=300.0,
        help="oldest stale cache body servable in degraded mode (seconds); "
        "0 never serves stale",
    )
    serve.add_argument(
        "--no-breaker", action="store_true",
        help="disable the per-tenant/global circuit breaker",
    )
    # Inert: herd mates share one scored view with no batching window.
    # Still parsed, so command lines that pass them boot.
    serve.add_argument("--batch-max-size", type=int, help=argparse.SUPPRESS)
    serve.add_argument("--batch-max-wait-us", type=float, help=argparse.SUPPRESS)
    serve.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; > 1 runs the pre-fork fleet on one shared port",
    )
    serve.add_argument(
        "--snapshot", metavar="PATH",
        help="boot the world from this snapshot (see 'repro snapshot build'); "
        "a missing or stale snapshot falls back to a source rebuild",
    )
    serve.add_argument(
        "--journal", metavar="PATH",
        help="persist per-tenant context overlays to this append-only journal "
        "(sessions survive restarts)",
    )
    serve.add_argument(
        "--cache-entries", type=int, default=4096,
        help="response-cache LRU bound (per worker)",
    )

    snapshot = commands.add_parser(
        "snapshot", help="build or inspect a persistent world snapshot"
    )
    snapshot_commands = snapshot.add_subparsers(dest="snapshot_command", required=True)
    snapshot_build = snapshot_commands.add_parser(
        "build", help="serialise a world (plus derived caches) to a snapshot file"
    )
    snapshot_build.add_argument("output", help="snapshot file to write")
    snapshot_build.add_argument(
        "--world", choices=("tvtouch",), default="tvtouch",
        help="which built-in world to snapshot",
    )
    snapshot_build.add_argument(
        "--no-basis", action="store_true",
        help="omit the compiled documents-by-rules basis matrix",
    )
    snapshot_inspect = snapshot_commands.add_parser(
        "inspect", help="verify a snapshot and print its header and sections"
    )
    snapshot_inspect.add_argument("path", help="snapshot file to inspect")
    return parser


def _cmd_example(_args: argparse.Namespace) -> int:
    from repro.engine import RankingEngine, RankRequest
    from repro.workloads import build_tvtouch, set_breakfast_weekend_context

    world = build_tvtouch()
    set_breakfast_weekend_context(world)
    engine = RankingEngine.from_world(world)
    response = engine.rank(RankRequest(documents=world.program_ids, explain=True))
    print(response.explanation)
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    from repro.engine import RankingEngine, RankRequest
    from repro.rules import load_rules
    from repro.workloads import build_tvtouch

    world = build_tvtouch()
    try:
        rules = load_rules(args.rules)
    except (OSError, ReproError) as exc:
        print(f"error: cannot load rule file: {exc}", file=sys.stderr)
        return 2
    engine = RankingEngine.from_world(world, rules=rules)
    try:
        engine.install_context(*args.context, tick="cli")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not engine.context_covered():
        print("warning: no rule applies in this context; all scores are 1", file=sys.stderr)
    response = engine.rank(RankRequest(documents=world.program_ids, explain=True))
    print(response.explanation)
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    from repro.history import HistoryLog
    from repro.mining import MiningConfig, mine_rules

    log = HistoryLog.load(args.history)
    config = MiningConfig(
        min_support=args.min_support,
        min_lift=args.min_lift,
        smoothing=args.smoothing,
    )
    mined = mine_rules(log, config)
    if not mined:
        print("no rules cleared the thresholds", file=sys.stderr)
        return 1
    for mined_rule in mined:
        print(f"{mined_rule.rule.to_dsl()}   # support {mined_rule.support}")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.core import naive_scores_python
    from repro.core.problem import bind_problem
    from repro.engine import RankingEngine, RankRequest
    from repro.reporting import TextTable, fit_growth, timed
    from repro.workloads import (
        Section5Counts,
        generate_rule_series,
        generate_test_database,
        install_context_series,
    )

    counts = Section5Counts().scaled(args.scale)
    world = generate_test_database(seed=7, counts=counts)
    install_context_series(world, k=args.max_rules + 1, seed=11)
    table = TextTable(["rules", "naive (s)", "factorised (s)"])
    naive_times = []
    ks = list(range(1, args.max_rules + 1))
    for k in ks:
        repository = generate_rule_series(world, k, seed=13)
        problem = bind_problem(world.abox, world.tbox, world.user, repository, [], world.space)
        _scores, naive_seconds = timed(
            lambda: naive_scores_python(
                world.database, world.tbox, world.target, list(problem.bindings), world.space
            )
        )
        engine = RankingEngine.from_world(world, rules=repository)
        request = RankRequest(documents=world.programs)
        _response, factorised_seconds = timed(lambda: engine.rank(request))
        naive_times.append(naive_seconds)
        table.add_row([k, naive_seconds, factorised_seconds])
    print(table.render())
    if len(ks) >= 2:
        ratio = fit_growth(ks, naive_times).ratio
        print(f"naive growth per extra rule: x{ratio:.2f}")
    return 0


def _preload_world(snapshot_path: str | None):
    """The parent's world: snapshot-loaded when possible, else built.

    Returns ``(world, source)``.  Fleet workers are forks of this
    process, so they inherit the world copy-on-write.
    """
    from repro.workloads import build_tvtouch

    if not snapshot_path:
        return build_tvtouch(), "built"
    from repro.store import load_or_build

    loaded = load_or_build(
        snapshot_path,
        build_tvtouch,
        on_fallback=lambda reason: print(
            f"repro serve: snapshot fallback ({reason}); rebuilding from source",
            file=sys.stderr,
            flush=True,
        ),
    )
    return loaded, loaded.source


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.cache import InMemoryCacheAdapter
    from repro.rules import load_rules
    from repro.service import FaultInjector, RankingService, ServiceConfig
    from repro.tenants import TenantRegistry

    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.batch_max_size is not None or args.batch_max_wait_us is not None:
        print(
            "repro serve: --batch-max-size and --batch-max-wait-us are deprecated "
            "and ignored (herd mates share one scored view, no batching window)",
            file=sys.stderr,
        )
    try:
        # Chaos drills configure through REPRO_FAULT_* only; read once,
        # pre-fork, so every worker starts from the same injector.
        faults = FaultInjector.from_env()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Built (or snapshot-loaded) pre-fork; fleet workers share it
    # copy-on-write.
    world, world_source = _preload_world(args.snapshot)
    rules = None
    if args.rules:
        try:
            rules = load_rules(args.rules)
        except (OSError, ReproError) as exc:
            print(f"error: cannot load rule file: {exc}", file=sys.stderr)
            return 2

    def make_service(worker_info):
        """One worker's service over the preloaded world.

        Each fleet worker runs this in its own forked process: its own
        registry, its own response cache — workers share no mutable
        state (the frozen world and its matrix are the shared read-only
        part).
        """
        cache = InMemoryCacheAdapter(
            max_entries=args.cache_entries, stale_max_age=args.stale_max_age
        )
        registry = TenantRegistry(
            world,
            rules=rules,
            max_sessions=args.max_sessions,
            journal=args.journal,
        )
        return RankingService(
            registry,
            ServiceConfig(
                request_timeout=args.request_timeout or None,
                breaker_enabled=not args.no_breaker,
            ),
            cache=cache,
            worker_info={**worker_info, "world_source": world_source},
            fault_injector=faults,
        )

    settings = (
        f"max_sessions={args.max_sessions}, "
        f"request_timeout={args.request_timeout or None}, world={world_source}"
    )

    def cannot_listen(exc: OSError) -> int:
        reason = os.strerror(exc.errno) if exc.errno else str(exc)
        print(f"error: cannot listen on {args.host}:{args.port}: {reason}", file=sys.stderr)
        return 2

    # Set once the port is listening: an OSError before then is the bind.
    listening = False

    if args.workers == 1:
        from repro.service.aio import serve as run_gateway

        try:
            service = make_service({"index": 0, "workers": 1})
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

        def announce(server) -> None:
            nonlocal listening
            listening = True
            print(
                f"repro serve: listening on {server.url} ({settings})",
                flush=True,
            )
            print(
                f"  try: curl '{server.url}/rank?tenant=alice&context=Weekend"
                f"&context=Breakfast&top_k=3'",
                flush=True,
            )

        # The world, the registry and the service live as long as the
        # process: move them out of the cyclic collector's sight before
        # the loop starts (the fleet supervisor's pre-fork idiom), so a
        # full collection walks request garbage, never the world.
        gc.collect()
        gc.freeze()
        try:
            return run_gateway(service, args.host, args.port, ready=announce)
        except OSError as exc:
            if listening:
                raise
            service.close()
            return cannot_listen(exc)
        finally:
            gc.unfreeze()

    from repro.service.fleet import serve_fleet

    try:
        # Validate cache/registry settings in the parent before forking
        # anything (a worker would only hit the error after the fork).
        make_service({"index": -1, "workers": args.workers})
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def announce_fleet(supervisor) -> None:
        nonlocal listening
        listening = True
        print(
            f"repro serve: listening on {supervisor.url} "
            f"(workers={args.workers}, {settings})",
            flush=True,
        )
        for index, pid in enumerate(supervisor.worker_pids()):
            print(f"repro serve: fleet worker {index} pid {pid}", flush=True)
        print(
            f"  try: curl '{supervisor.url}/rank?tenant=alice&context=Weekend"
            f"&context=Breakfast&top_k=3'",
            flush=True,
        )

    try:
        return serve_fleet(
            make_service, args.workers, args.host, args.port, announce=announce_fleet
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if listening:
            raise
        return cannot_listen(exc)


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.store import inspect_snapshot, write_world_snapshot
    from repro.workloads import build_tvtouch

    if args.snapshot_command == "build":
        world = build_tvtouch()  # --world tvtouch is the only builder today
        try:
            digest = write_world_snapshot(
                args.output, world, include_basis=not args.no_basis
            )
        except (OSError, ReproError) as exc:
            print(f"error: cannot write snapshot: {exc}", file=sys.stderr)
            return 2
        info = inspect_snapshot(args.output)
        print(f"wrote {args.output} ({info.total_bytes} payload bytes)")
        print(f"  format version {info.version}, digest {digest}")
        for name, kind, length in info.sections:
            print(f"  section {name:<16} {kind:<5} {length} bytes")
        return 0

    try:
        info = inspect_snapshot(args.path)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{info.path}: format version {info.version}, digest {info.digest}")
    meta = {key: value for key, value in info.meta.items() if not key.startswith("_")}
    for key in sorted(meta):
        print(f"  meta {key} = {meta[key]}")
    for name, kind, length in info.sections:
        print(f"  section {name:<16} {kind:<5} {length} bytes")
    print(f"  total payload {info.total_bytes} bytes")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "example": _cmd_example,
        "rank": _cmd_rank,
        "mine": _cmd_mine,
        "scaling": _cmd_scaling,
        "serve": _cmd_serve,
        "snapshot": _cmd_snapshot,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
