"""The serving ledger: one command, end-to-end and per-layer numbers.

    python benchmarks/ledger/run.py                       # all workloads, both runs
    python benchmarks/ledger/run.py --out FILE            # ... and append the record
    python benchmarks/ledger/run.py --workload herd_miss --seed 7 --seconds 20 --trace 0

Each run boots the real ``python -m repro serve --port 0`` as a
subprocess (aio gateway, one worker, memory cache), warms it, checks a
fixed probe set against an in-process oracle, then drives it closed
loop over two keep-alive loopback connections for ``--seconds`` and
re-checks every 64th answer after the clock stops.

``--trace 0`` reports the client-observed end-to-end metrics (tracing
off), their times as the clock would have read them had the host run at
reference speed (``at_reference_speed``).  ``--trace 1`` spends a third of the time on an untraced
reference window and the rest against ``traced_serve.py`` — the same
server with spans around each layer — and reports the per-layer
account.  With ``--workload`` the last stdout line is the one JSON
object ``BENCHMARK.json`` promises; without it every workload runs
both ways and the combined record is printed (and appended to
``--out``).  Exit status is non-zero on any wrong or failed answer.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: name -> unit; the user-visible numbers, tracing off.  (Direction and
#: regression bound of each live in ``BENCHMARK.json``.)
END_TO_END: dict[str, str] = {
    "throughput_rps": "1/s",
    "rank_p50_ms": "ms",
    "server_cpu_ms_per_req": "ms",
    "server_rss_mb": "MB",
    "setup_s": "s",
}

#: name -> unit; one layer each, from the traced run.
PER_LAYER: dict[str, str] = {
    "aio.self_ms": "ms",
    "aio.hop_ms": "ms",
    "aio.loop_lag_p95_ms": "ms",
    "aio.requests": "count",
    "pipeline.begin_self_ms": "ms",
    "pipeline.finish_self_ms": "ms",
    "pipeline.encode_ms": "ms",
    "pipeline.context_post_ms": "ms",
    "resilience.breaker_ms": "ms",
    "batching.execute_ms": "ms",
    "batching.queue_wait_p50_ms": "ms",
    "batching.coalesce_ratio": "ratio",
    "batching.mean_size": "count",
    "cache.lookup_ms": "ms",
    "cache.get_ms": "ms",
    "cache.put_ms": "ms",
    "cache.invalidate_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "cache.invalidations": "count",
    "tenants.checkout_ms": "ms",
    "tenants.session_hit_ratio": "ratio",
    "tenants.minted": "count",
    "tenants.evictions": "count",
    "engine.rank_self_ms": "ms",
    "engine.install_ms": "ms",
    "engine.basis_check_ms": "ms",
    "engine.combine_ms": "ms",
    "engine.kernel_pass_share": "ratio",
    "reason.bind_ms": "ms",
    "kernel.with_context_ms": "ms",
    "kernel.score_ms": "ms",
    "kernel.rows_scored": "count",
    "kernel.cells_per_req": "count",
    "store.snapshot_write_s": "s",
    "store.boot_s": "s",
    "store.first_rank_s": "s",
    "store.warmup_s": "s",
    "client.busy_share": "ratio",
    "client.slowdown": "ratio",
    "client.rank_max_ms": "ms",
    "client.rank_p95_ms": "ms",
    "client.rank_p99_ms": "ms",
    "client.context_p50_ms": "ms",
    "trace.round_trip_ms": "ms",
    "trace.residual_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.joined_share": "ratio",
    "trace.resolved_share": "ratio",
}

#: set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 3
KEEP_EVERY = 64
#: ``client.calibrate()`` beside a running server on the build box when
#: its host leaves it alone: the speed at which times are reported (see
#: ``at_reference_speed``).  Changing it rescales every later record.
REFERENCE_TICK_S = 0.00038
SMOKE_SCALE = 0.1
#: seconds a server may take to announce its port
BOOT_TIMEOUT = 120.0


class LedgerError(RuntimeError):
    """The benchmark could not run (as opposed to: ran and saw failures)."""


# -- the server process -------------------------------------------------------


def _pin() -> int | None:
    """Pin this process — and every server it spawns — to one CPU.

    Server and generator share the core on purpose.  On the 2-vCPU
    build box, one core each made every request pay two cross-vCPU
    wake-ups whose cost swings with the host: throughput ranged 39 %
    over six identical runs against 16 % on one shared core, at the
    same median (2 010 vs 1 924 req/s) — the closed loop alternates
    the two anyway.  The last CPU is taken: interrupts land on the first.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Server:
    """One ``repro serve`` subprocess (traced or not) on a free port."""

    def __init__(self, flags: list[str], *, spans: Path | None):
        launcher = (
            ["-m", "repro"] if spans is None else [str(HERE / "traced_serve.py"), str(spans)]
        )
        command = [sys.executable, *launcher, "serve", "--port", "0", *flags]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.process = subprocess.Popen(
            command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        self.boot_ticks: list[float] = []  # calibrate() readings taken while it booted
        self.port = self._await_announce()

    def _await_announce(self) -> int:
        from client import TICK, calibrate

        give_up = time.perf_counter() + BOOT_TIMEOUT
        ready = []
        while not ready and time.perf_counter() < give_up:
            self.boot_ticks.append(calibrate())
            ready, _, _ = select.select([self.process.stdout], [], [], TICK)
        line = self.process.stdout.readline() if ready else ""  # EOF if the server died
        marker = "listening on http://127.0.0.1:"
        if marker not in line:
            self.stop()
            raise LedgerError(f"server did not announce a port: {line!r}")
        return int(line.split(marker, 1)[1].split()[0])

    def cpu_seconds(self) -> float:
        """utime + stime of the server process so far."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def rss_high_water_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise LedgerError("no VmHWM in /proc/<pid>/status")

    def stop(self) -> None:
        """SIGTERM, wait for the drain (and the span dump), never leak.

        The caller has closed its connections; the pause lets the loop
        finish reacting to that and go idle.  ``serve`` turns SIGTERM
        into a ``KeyboardInterrupt`` raised wherever the loop thread
        happens to be, and when that is mid-callback the in-flight
        count never returns to zero and both drains run out their 5 s
        grace — seen in five of eight back-to-back smoke runs.
        """
        if self.process.poll() is None:
            time.sleep(0.05)
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


# -- one set-up, one window ---------------------------------------------------


class Bench:
    """Everything one (workload, seed) needs, built once per run."""

    def __init__(self, spec, seed: int, workdir: Path, scale: float):
        from workloads import Oracle, build_world

        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.world, self.rules = build_world(spec, scale)
        self.oracle = Oracle(spec, scale)
        self.warm = spec.warmup(seed)
        if scale < 1.0:  # a smoke run measures nothing: a token warm-up will do
            self.warm = self.warm[: max(8, int(len(self.warm) * scale))]
        self.probes = spec.probes(seed)

    @contextlib.contextmanager
    def serving(self, *, spans: Path | None = None):
        """A set-up server for the block: ``(server, client, phases)``;
        the client is closed and the server stopped on the way out."""
        server, client, phases = self._set_up(spans)
        try:
            yield server, client, phases
        finally:
            client.close()
            server.stop()

    def _set_up(self, spans: Path | None):
        """Snapshot write -> spawn -> /readyz -> warm-up; returns the live
        server, a connected client and the seconds each phase took."""
        from client import LoadClient

        flags = list(self.spec.flags)
        t0 = time.perf_counter()
        if self.rules is not None:
            from repro.rules import render_rules
            from repro.store import write_world_snapshot

            snapshot, rules = self.workdir / "world.snap", self.workdir / "rules.prefs"
            write_world_snapshot(snapshot, self.world)
            rules.write_text(render_rules(self.rules), encoding="utf-8")
            flags += ["--snapshot", str(snapshot), "--rules", str(rules)]
        t1 = time.perf_counter()
        server = Server(flags, spans=spans)
        client = None
        try:
            client = LoadClient(server.port)
            status, body = client.get("/readyz")
            if status != 200:
                raise LedgerError(f"/readyz answered {status}: {body[:200]!r}")
            t2 = time.perf_counter()
            first = client.drive(self.warm[:1])
            t3 = time.perf_counter()
            rest = client.drive(self.warm[1:])
            t4 = time.perf_counter()
            bad = [status for status in first.status + rest.status if status != 200]
            if bad:
                raise LedgerError(f"warm-up saw {len(bad)} non-200 answers, first {bad[0]}")
        except BaseException:
            if client is not None:
                client.close()
            server.stop()
            raise
        readings = server.boot_ticks + [reading for _when, reading in first.ticks + rest.ticks]
        slowdown = statistics.median(readings) / REFERENCE_TICK_S
        phases = {
            "store.snapshot_write_s": t1 - t0,
            "store.boot_s": t2 - t1,
            "store.first_rank_s": t3 - t2,
            "store.warmup_s": t4 - t3,
            "setup_raw_s": t4 - t0,
            "setup_s": (t4 - t0) / slowdown,  # at reference speed, like the window's times
        }
        return server, client, phases

    def check_probes(self, client) -> int:
        """Wrong answers among the fixed probe contexts (before the clock)."""
        from workloads import rank_op

        top_k = self.spec.top_k
        wrong = 0
        for context in self.probes:
            probe = rank_op(-1, "ledger_probe", context, top_k, timeout=30)
            status, body = client.request(probe.payload)
            if status != 200 or not self.oracle.matches(body, context, top_k):
                wrong += 1
                print(f"probe mismatch under {context}: HTTP {status}", file=sys.stderr)
        if self.spec.name == "zipf_steady":
            # Table 1 of the paper, to the digit
            top = self.oracle.expected(("Weekend", "Breakfast"), 3)[0]
            if top[0] != "channel5_news" or abs(top[1] - 0.6006) > 1e-9:
                wrong += 1
                print(f"Table 1 broken: top answer {top}", file=sys.stderr)
        return wrong

    def verify(self, window) -> int:
        """Failed operations: non-200s, transport errors, wrong kept bodies."""
        failed = sum(1 for status in window.status if status != 200)
        standing: dict[str, tuple[str, ...]] = {}
        for position, op in enumerate([*self.warm, *window.ops], start=-len(self.warm)):
            body = window.kept.get(position) if position >= 0 else None
            if body is not None and window.status[position] == 200:
                if op.kind == "context":
                    ok = json.loads(body).get("installed") == len(op.context)
                else:
                    context = op.context if op.context is not None else standing.get(op.tenant, ())
                    ok = self.oracle.matches(body, context, op.top_k) or (
                        # an evicted session lost its standing context
                        self.spec.evicts and op.context is None
                        and self.oracle.matches(body, (), op.top_k)
                    )
                if not ok:
                    failed += 1
                    print(f"wrong answer to op {op.index} ({op.kind} {op.tenant})", file=sys.stderr)
            if op.context is not None:
                standing[op.tenant] = op.context
        return failed


def _scrape(client) -> dict:
    status, body = client.get("/metrics")
    if status != 200:
        raise LedgerError(f"/metrics answered {status}")
    return json.loads(body)


def _delta(after: dict, before: dict, section: str, key: str) -> float:
    return float(after[section][key] - before[section][key])


def segments(window) -> list[dict]:
    """One row per whole ``SEGMENT`` of the window that answered a rank:
    ``answers``, the ranks' median round trip ``p50_ms``, the server's
    ``cpu_ms`` and ``slowdown`` — the median :func:`client.calibrate`
    reading taken inside the segment over ``REFERENCE_TICK_S``."""
    from client import SEGMENT

    count = len(window.samples) - 1
    if count < 1:
        return []
    answers = [0] * count
    ranks: list[list[float]] = [[] for _ in range(count)]  # round trips, ms
    for op, sent, done, status in zip(window.ops, window.sent, window.done, window.status):
        piece = int((done - window.started) / SEGMENT)
        if status == 200 and piece < count:
            answers[piece] += 1
            if op.kind == "rank":
                ranks[piece].append((done - sent) * 1000.0)
    readings: list[list[float]] = [[] for _ in range(count)]
    for when, reading in window.ticks:
        piece = int((when - window.started) / SEGMENT)
        if piece < count:
            readings[piece].append(reading)
    return [
        {
            "answers": answers[piece],
            "p50_ms": statistics.median(ranks[piece]),
            "cpu_ms": (window.samples[piece + 1] - window.samples[piece]) * 1000.0,
            "slowdown": statistics.median(readings[piece]) / REFERENCE_TICK_S,
        }
        for piece in range(count)
        if ranks[piece] and readings[piece]
    ]


def at_reference_speed(rows: list[dict]) -> dict | None:
    """The three timing metrics as if the host had run at reference speed.

    The build box's host runs the same Python anywhere between 1x and
    1.8x its best time, changing by the tenth of a second and staying
    slow for up to a minute, so identical runs spread 12-36 % (IQR over
    median, ten seeds) on the clock's numbers, and the best half-second
    of a window — what this used to report — 16-27 %: a slow phase can
    outlast the window.  Each segment is instead scaled by the slowdown
    measured inside it and the median over segments reported: the same
    kind of runs spread 2-11 %.  The clock's whole-window numbers and
    the rows stay in the record beside these.  ``None`` when the window
    holds fewer than two whole segments (a smoke run).
    """
    from client import SEGMENT

    if len(rows) < 2:
        return None
    return {
        "throughput_rps": statistics.median(
            row["answers"] / SEGMENT * row["slowdown"] for row in rows
        ),
        "rank_p50_ms": statistics.median(row["p50_ms"] / row["slowdown"] for row in rows),
        "server_cpu_ms_per_req": statistics.median(
            row["cpu_ms"] / row["answers"] / row["slowdown"] for row in rows
        ),
        "slowdown": statistics.median(row["slowdown"] for row in rows),
    }


def run_end_to_end(bench: Bench, seconds: float, repeats: int = SETUP_REPEATS) -> dict:
    """The tracing-off run: ``repeats`` set-ups, one timed window."""
    from client import percentile

    setups, raw_setups = [], []
    for _ in range(repeats - 1):
        with bench.serving() as (_server, _client, phases):
            setups.append(phases["setup_s"])
            raw_setups.append(phases["setup_raw_s"])
    with bench.serving() as (server, client, phases):
        setups.append(phases["setup_s"])
        raw_setups.append(phases["setup_raw_s"])
        failed = bench.check_probes(client)
        window = client.drive(
            bench.spec.ops(bench.seed), seconds=seconds, keep_every=KEEP_EVERY,
            lockstep=bench.spec.lockstep, sample=server.cpu_seconds,
            mark=(bench.spec.rss_ops, server.rss_high_water_mb),
        )
        cpu = server.cpu_seconds() - window.samples[0]
        # a window too short to reach rss_ops reads memory at its end
        rss = window.mark if window.mark is not None else server.rss_high_water_mb()
    failed += bench.verify(window)
    ranks = window.latencies_ms("rank")
    contexts = window.latencies_ms("context")
    if not ranks:
        raise LedgerError("no rank was answered inside the window")
    ok = sum(1 for status in window.status if status == 200)
    whole = {
        "throughput_rps": ok / window.seconds,
        "rank_p50_ms": percentile(ranks, 0.50),
        "rank_p95_ms": percentile(ranks, 0.95),
        "server_cpu_ms_per_req": cpu * 1000.0 / len(window.ops),
    }
    rows = segments(window)
    steady = at_reference_speed(rows) or whole  # smoke windows are too short
    return {
        "attempted": len(window.ops) + len(bench.probes),
        "failed": failed,
        "metrics": {
            "throughput_rps": steady["throughput_rps"],
            "rank_p50_ms": steady["rank_p50_ms"],
            "server_cpu_ms_per_req": steady["server_cpu_ms_per_req"],
            "server_rss_mb": rss,
            "setup_s": statistics.median(setups),
        },
        "also": {
            "whole_window": whole,  # as the clock read, host speed and all
            "slowdown": steady.get("slowdown"),
            "segments": rows,
            "rank_p99_ms": percentile(ranks, 0.99),
            "context_p50_ms": percentile(contexts, 0.50) if contexts else None,
            "failed_share": failed / (len(window.ops) + len(bench.probes)),
            "window_s": window.seconds,
            "samples": {"rank": len(ranks), "context": len(contexts)},
            "setup_runs_s": setups,
            "setup_runs_raw_s": raw_setups,
        },
    }


def run_traced(bench: Bench, seconds: float) -> dict:
    """Untraced reference window, then the traced window and its account."""
    from client import percentile
    from spans import account

    with bench.serving() as (server, client, _phases):
        failed = bench.check_probes(client)
        reference = client.drive(
            bench.spec.ops(bench.seed), seconds=seconds / 3, lockstep=bench.spec.lockstep,
            sample=server.cpu_seconds,
        )
    failed += bench.verify(reference)

    spans_path = bench.workdir / "spans.json"
    with bench.serving(spans=spans_path) as (server, client, phases):
        failed += bench.check_probes(client)
        before = _scrape(client)
        window = client.drive(
            bench.spec.ops(bench.seed), seconds=seconds * 2 / 3, keep_every=KEEP_EVERY,
            lockstep=bench.spec.lockstep, sample=server.cpu_seconds,
        )
        after = _scrape(client)
    failed += bench.verify(window)
    if not spans_path.exists():
        raise LedgerError("the traced server left no span dump")
    dump = json.loads(spans_path.read_text(encoding="utf-8"))

    round_trips = {
        op.index: done - sent
        for op, sent, done, status in zip(window.ops, window.sent, window.done, window.status)
        if status == 200
    }
    metrics = account(dump, round_trips)
    ranks = window.latencies_ms("rank")
    contexts = window.latencies_ms("context")
    reference_ranks = reference.latencies_ms("rank")
    if not ranks or not reference_ranks:
        raise LedgerError("no rank was answered inside the window")
    # Both servers start identical and see the same stream: compare the
    # same leading stretch (same cache warmth) at reference speed, so a
    # host speed change between the two windows is not read as overhead.
    reference_rows = segments(reference)
    rows = segments(window)
    traced_p50 = (at_reference_speed(rows[: len(reference_rows)]) or {}).get(
        "rank_p50_ms", percentile(ranks, 0.50)  # smoke windows are too short
    )
    reference_p50 = (at_reference_speed(reference_rows) or {}).get(
        "rank_p50_ms", percentile(reference_ranks, 0.50)
    )
    cache_hits = _delta(after, before, "cache", "hits")
    looked_up = cache_hits + _delta(after, before, "cache", "misses")
    session_hits = _delta(after, before, "registry", "hits")
    minted = _delta(after, before, "registry", "minted")
    batching = after["batching"]
    metrics.update(
        {
            "aio.loop_lag_p95_ms": after["gateway"]["loop_lag"]["p95_ms"],
            "aio.requests": _delta(after, before, "gateway", "requests"),
            "cache.hit_ratio": cache_hits / looked_up if looked_up else 0.0,
            "cache.evictions": _delta(after, before, "cache", "evictions"),
            "cache.invalidations": _delta(after, before, "cache", "invalidations"),
            "tenants.session_hit_ratio": (
                session_hits / (session_hits + minted) if session_hits + minted else 0.0
            ),
            "tenants.minted": minted,
            "tenants.evictions": _delta(after, before, "registry", "evictions"),
            "batching.queue_wait_p50_ms": batching["queue_wait"]["p50_ms"] if batching["enabled"] else None,
            "batching.coalesce_ratio": batching["coalesce_ratio"] if batching["enabled"] else None,
            "batching.mean_size": (
                batching["batched_requests"] / batching["batches"]
                if batching["enabled"] and batching["batches"] else None
            ),
            "client.busy_share": window.cpu_seconds / window.seconds,
            "client.slowdown": (
                statistics.median(reading for _when, reading in window.ticks) / REFERENCE_TICK_S
            ),
            "client.rank_max_ms": max(ranks),
            "client.rank_p95_ms": percentile(ranks, 0.95),
            "client.rank_p99_ms": percentile(ranks, 0.99),
            "client.context_p50_ms": percentile(contexts, 0.50) if contexts else None,
            "trace.overhead_pct": (traced_p50 / reference_p50 - 1.0) * 100.0,
        }
    )
    metrics.update({name: phases[name] for name in phases if name.startswith("store.")})
    missing = set(PER_LAYER) - set(metrics)
    if missing:
        raise LedgerError(f"per-layer metrics never computed: {sorted(missing)}")
    attempted = len(reference.ops) + len(window.ops) + 2 * len(bench.probes)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name in PER_LAYER},
        "also": {
            "unresolved_targets": dump["unresolved"],
            "window_s": window.seconds,
            "samples": {"rank": len(ranks), "context": len(contexts)},
        },
    }


# -- reporting ----------------------------------------------------------------


def _print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        shown = "null (absent on this workload)" if value is None else f"{value:.6g}"
        print(f"  {name:<30} {shown} {units[name]}")


def _driver_line(result: dict, units: dict) -> str:
    """The one JSON object the driver reads; ``null`` becomes 0.0 there
    (a layer this workload never enters, or an unresolved target —
    ``trace.resolved_share`` tells the two apart)."""
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": 0.0 if value is None else value, "unit": units[name]}
                for name, value in result["metrics"].items()
            },
        }
    )


def _stamp(seed: int, seconds: float, scale: float, cpu: int | None) -> dict:
    from repro.perf import backend_name

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=5
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        revision = None
    return {
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "cpu_count": os.cpu_count(),
        "affinity": cpu,  # server and generator share it
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_backend": backend_name(),
        "reference_tick_s": REFERENCE_TICK_S,
        "git_revision": revision,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload and end with the driver's JSON line")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the combined record to this JSON list")
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny worlds, sub-second windows: exercises every path, measures nothing",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; nothing to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, digest

    by_name = {spec.name: spec for spec in WORKLOADS}
    if args.workload is not None and args.workload not in by_name:
        print(f"error: unknown workload {args.workload!r}; have {sorted(by_name)}", file=sys.stderr)
        return 2
    scale = SMOKE_SCALE if args.smoke else 1.0
    seconds = min(args.seconds, 0.3) if args.smoke else args.seconds
    repeats = 1 if args.smoke else SETUP_REPEATS
    cpu = _pin()

    workdir = HERE / ".scratch" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload is not None:
            bench = Bench(by_name[args.workload], args.seed, workdir, scale)
            if args.trace:
                result, units = run_traced(bench, seconds), PER_LAYER
            else:
                result, units = run_end_to_end(bench, seconds, repeats), END_TO_END
            _print_metrics(f"{args.workload} (seed {args.seed}, trace {args.trace})", result["metrics"], units)
            print(_driver_line(result, units))
            return 0  # the line's "correct"/"failed" carry the verdict

        record = {"stamp": _stamp(args.seed, seconds, scale, cpu), "workloads": {}}
        failed = 0
        for spec in WORKLOADS:
            bench = Bench(spec, args.seed, workdir, scale)
            end_to_end = run_end_to_end(bench, seconds, repeats)
            traced = run_traced(bench, seconds)
            _print_metrics(f"{spec.name}: end to end (tracing off)", end_to_end["metrics"], END_TO_END)
            _print_metrics(f"{spec.name}: per layer (traced run)", traced["metrics"], PER_LAYER)
            failed += end_to_end["failed"] + traced["failed"]
            record["workloads"][spec.name] = {
                "digest": digest(spec, args.seed),
                "digest_ops": spec.digest_ops,
                "documents": bench.oracle.documents,
                "rules": sum(
                    1 for _ in (bench.rules if bench.rules is not None else bench.world.repository)
                ),
                "tenants": spec.tenants,
                "end_to_end": end_to_end,
                "per_layer": traced,
            }
        if args.out:
            out = Path(args.out)
            records = json.loads(out.read_text(encoding="utf-8")) if out.exists() else []
            records.append(record)
            out.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
        print(json.dumps(record))
        return 0 if failed == 0 else 1
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # unless another run is using it
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())
