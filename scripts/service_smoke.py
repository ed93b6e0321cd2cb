"""End-to-end smoke of the serving gateway, as CI runs it.

Five phases, each a real ``python -m repro serve`` subprocess on an
ephemeral port, all on the event-loop gateway:

1. **Single process** — waits for the announce line, hits ``/healthz``
   and ``/rank``, asserts a ranked JSON body with the paper's Table 1
   winner, asserts the repeated request is served from the response
   cache with identical scores, flips the tenant's context away and
   back and asserts the flip back is a cache hit answered on the event
   loop (``delta_hits_inline`` in ``/metrics``).  Booted with
   ``REPRO_FAULT_RANK_DELAY=1 REPRO_FAULT_TENANTS=slow``, it then
   asserts the deadline over the wire: ``/rank?tenant=slow&timeout=0.2``
   answers 504 in under 0.4 s, ``/metrics`` shows every session pin and
   every gateway dispatch back (``registry.pinned`` and
   ``gateway.pending_dispatch`` both 0), and another tenant still ranks.
   Before that it sends 2 000 ranks under never-seen context
   probabilities and asserts ``/metrics`` → ``reasoner.space_events``
   is what it was at boot.  Then it shuts down cleanly
   (SIGINT, bounded wait).
2. **Fleet** (``--workers 2``) — parses the per-worker pid announce
   lines, asserts ranked JSON comes back from the shared port and that
   ``/healthz`` identifies fleet workers, SIGINTs the parent, and
   asserts exit 0 with **no orphaned child processes** left behind.
3. **Chaos fleet** — a 2-worker fleet with ``REPRO_FAULT_KILL_EVERY``
   injected so workers SIGKILL themselves every few responses; ranked
   answers must keep flowing through the kill/respawn churn, ``/readyz``
   must stay ready (respawned slots are not fenced), and shutdown must
   again leave no orphans.
4. **Snapshot boot** — ``repro snapshot build`` writes a world snapshot,
   ``snapshot inspect`` verifies it, then a 2-worker fleet boots with
   ``--snapshot``: ``/healthz`` must report a snapshot-loaded world
   (never a rebuild), ranked answers must match Table 1 exactly, and
   after SIGKILLing a worker the respawned slot must answer again —
   still snapshot-loaded.
5. **Herd** — boots on default flags, drives herd rounds of 8
   concurrent cross-tenant requests sharing one novel context each,
   asserts identical scores within every round, a positive
   ``/metrics`` coalesce ratio (mates after the first reuse its scored
   view from the memo), a positive ``reasoner.binds_shared`` (and its
   bound kernel), a ``reasoner.memo_probabilities`` that did not grow
   (context atoms stay out of the shared base tier), and a clean
   SIGTERM drain with a herd in flight.

Both long-lived phases also assert the liveness/readiness split:
``/healthz`` says "the process is up", ``/readyz`` says "this worker
is willing to take traffic".

Exit code 0 only if every step held.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ANNOUNCE = "repro serve: listening on "
WORKER_LINE = re.compile(r"repro serve: fleet worker (\d+) pid (\d+)")


def spawn(*extra_args: str, extra_env: dict | None = None) -> subprocess.Popen:
    env = dict(os.environ)
    env.update(extra_env or {})
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")])
    )
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


def wait_for_announce(process: subprocess.Popen) -> str:
    """The base URL from the server's announce line (bounded wait)."""
    deadline = time.time() + 30
    assert process.stdout is not None
    while time.time() < deadline:
        line = process.stdout.readline()
        if not line:
            raise SystemExit(
                f"server exited before announcing (code {process.poll()})"
            )
        sys.stdout.write(line)
        if ANNOUNCE in line:
            return line.split(ANNOUNCE, 1)[1].split()[0]
    raise SystemExit("timed out waiting for the server announce line")


def collect_worker_pids(process: subprocess.Popen, expected: int) -> list[int]:
    """The pids from the fleet's per-worker announce lines."""
    deadline = time.time() + 30
    pids: list[int] = []
    assert process.stdout is not None
    while time.time() < deadline and len(pids) < expected:
        line = process.stdout.readline()
        if not line:
            raise SystemExit(
                f"server exited before announcing workers (code {process.poll()})"
            )
        sys.stdout.write(line)
        match = WORKER_LINE.search(line)
        if match:
            pids.append(int(match.group(2)))
    if len(pids) < expected:
        raise SystemExit(f"only saw {len(pids)}/{expected} worker announce lines")
    return pids


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as response:
        assert response.status == 200, f"{url} answered {response.status}"
        return json.loads(response.read())


def get_error(url: str) -> tuple[int, dict]:
    """``(status, body)`` of a request that must not answer 200."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            raise AssertionError(f"{url} answered {response.status}, expected an error")
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def shutdown(
    process: subprocess.Popen, what: str, sig: signal.Signals = signal.SIGINT
) -> None:
    process.send_signal(sig)
    try:
        code = process.wait(timeout=15)
    except subprocess.TimeoutExpired:
        process.kill()
        raise SystemExit(f"{what} did not shut down within 15s of {sig.name}")
    assert code == 0, f"{what} exited {code} on {sig.name}"


def assert_table1_winner(ranked: dict) -> dict:
    assert ranked["tenant"] == "alice", ranked
    assert ranked["items"], f"empty ranking: {ranked}"
    top = ranked["items"][0]
    assert top["document"] == "channel5_news", ranked
    assert abs(top["score"] - 0.6006) <= 1e-9, ranked
    return top


#: Ranks the single phase sends, each under a never-seen probability.
FRESH_RANKS = 2000


def fresh_context_ranks(base_url: str, count: int) -> None:
    """``count`` ranks over one keep-alive connection, each under a
    context probability no earlier rank used (a sensor stream)."""
    host, port = base_url.removeprefix("http://").rsplit(":", 1)
    connection = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        for index in range(count):
            probability = (index + 1) / (count + 1)
            connection.request(
                "GET",
                f"/rank?tenant=fresh{index % 20}&context=Weekend"
                f"&context=Breakfast:{probability!r}&top_k=3",
            )
            response = connection.getresponse()
            body = response.read()
            assert response.status == 200, (response.status, body)
    finally:
        connection.close()


def smoke_single_process() -> None:
    # A 1 s injected delay wedges tenant "slow" only (the deadline step).
    process = spawn(
        extra_env={"REPRO_FAULT_RANK_DELAY": "1", "REPRO_FAULT_TENANTS": "slow"}
    )
    try:
        base_url = wait_for_announce(process)

        health = get_json(f"{base_url}/healthz")
        assert health["status"] == "ok", health
        print(f"smoke: /healthz ok (max_sessions={health['registry']['max_sessions']})")

        ready = get_json(f"{base_url}/readyz")
        assert ready["status"] == "ready", ready
        assert ready["problems"] == [], ready
        print("smoke: /readyz ready, no problems")
        boot_space = get_json(f"{base_url}/metrics")["reasoner"]["space_events"]

        rank_url = (
            f"{base_url}/rank?tenant=alice&context=Weekend&context=Breakfast&top_k=3"
        )
        ranked = get_json(rank_url)
        top = assert_table1_winner(ranked)
        print(f"smoke: /rank ok (top={top['document']} score={top['score']})")

        repeat = get_json(rank_url)
        assert repeat.get("cached") is True, f"repeat not served from cache: {repeat}"
        assert len(repeat["items"]) == len(ranked["items"])
        for first, second in zip(ranked["items"], repeat["items"]):
            assert first["document"] == second["document"], (ranked, repeat)
            assert abs(first["score"] - second["score"]) <= 1e-9, (ranked, repeat)
        print("smoke: repeated /rank served from the response cache, scores identical")

        # Flip the context away and back: the flip back is a delta hit,
        # installed and answered on the event loop.
        get_json(f"{base_url}/rank?tenant=alice&context=Weekend&top_k=3")
        flipped_back = get_json(rank_url)
        assert flipped_back.get("cached") is True, f"flip back not a hit: {flipped_back}"
        assert flipped_back["items"] == repeat["items"], (repeat, flipped_back)
        print("smoke: context flipped back, served from the response cache")

        metrics = get_json(f"{base_url}/metrics")
        assert metrics["outcomes"].get("ok", 0) >= 1, metrics
        assert metrics["outcomes"].get("ok_cached", 0) >= 1, metrics
        assert metrics["cache"]["hits"] >= 1, metrics
        assert metrics["cache"]["delta_hits_inline"] >= 1, metrics["cache"]
        gateway = metrics["gateway"]
        assert gateway["kind"] == "aio", gateway
        assert gateway["requests"] >= 1, gateway
        print(
            "smoke: /metrics ok "
            f"(cache hits={metrics['cache']['hits']} "
            f"hit_ratio={metrics['cache']['hit_ratio']:.2f} "
            f"gateway requests={gateway['requests']})"
        )

        fresh_context_ranks(base_url, FRESH_RANKS)
        reasoner = get_json(f"{base_url}/metrics")["reasoner"]
        assert reasoner["space_events"] == boot_space, (boot_space, reasoner)
        print(
            f"smoke: {FRESH_RANKS} fresh-probability ranks, space_events "
            f"still {boot_space} (base-tier memo {reasoner['memo_probabilities']})"
        )

        # The deadline over the wire: the wedged rank answers 504 near
        # its 0.2 s deadline, not after the 1 s delay, with its session
        # pin and its gateway dispatch already back, and other tenants
        # still rank.
        started = time.monotonic()
        status, body = get_error(f"{base_url}/rank?tenant=slow&context=Weekend&timeout=0.2")
        elapsed = time.monotonic() - started
        assert status == 504 and "deadline" in body["error"], (status, body)
        assert elapsed < 0.4, f"504 took {elapsed:.3f}s against a 0.2s deadline"
        metrics = get_json(f"{base_url}/metrics")
        assert metrics["registry"]["pinned"] == 0, metrics["registry"]
        assert metrics["gateway"]["pending_dispatch"] == 0, metrics["gateway"]
        other = get_json(f"{base_url}/rank?tenant=bob&context=Weekend&top_k=3")
        assert other["items"], other
        print(
            f"smoke: wedged tenant answered 504 in {elapsed:.3f}s, "
            "every pin and dispatch back, another tenant ranked"
        )
    finally:
        shutdown(process, "server")
    print("smoke: clean shutdown ok")


def smoke_fleet(workers: int = 2) -> None:
    process = spawn("--workers", str(workers))
    try:
        base_url = wait_for_announce(process)
        worker_pids = collect_worker_pids(process, workers)
        print(f"smoke: fleet of {workers} announced (pids {worker_pids})")

        ranked = get_json(
            f"{base_url}/rank?tenant=alice&context=Weekend&context=Breakfast&top_k=3"
        )
        top = assert_table1_winner(ranked)
        print(f"smoke: fleet /rank ok (top={top['document']} score={top['score']})")

        health = get_json(f"{base_url}/healthz")
        assert health["worker"]["workers"] == workers, health
        assert health["worker"]["pid"] in worker_pids, (health, worker_pids)
        print(f"smoke: fleet /healthz ok (answered by pid {health['worker']['pid']})")

        ready = get_json(f"{base_url}/readyz")
        assert ready["status"] == "ready", ready
        assert ready["failed_workers"] == 0, ready
        print("smoke: fleet /readyz ready, no failed workers")
    finally:
        shutdown(process, "fleet")

    # No orphans: every announced worker must be gone shortly after the
    # parent exits.
    deadline = time.time() + 5
    remaining = set(worker_pids)
    while remaining and time.time() < deadline:
        for pid in list(remaining):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                remaining.discard(pid)
        if remaining:
            time.sleep(0.05)
    assert not remaining, f"orphaned fleet workers after shutdown: {sorted(remaining)}"
    print("smoke: fleet clean shutdown ok, no orphan workers")


def smoke_chaos_fleet(workers: int = 2) -> None:
    """Workers SIGKILL themselves every few served responses; the fleet
    must keep answering through the churn and still die clean."""
    process = spawn(
        "--workers",
        str(workers),
        extra_env={"REPRO_FAULT_KILL_EVERY": "5"},
    )
    survivors: set[int] = set()
    try:
        base_url = wait_for_announce(process)
        worker_pids = collect_worker_pids(process, workers)
        survivors.update(worker_pids)
        print(f"smoke: chaos fleet of {workers} announced (pids {worker_pids})")

        rank_url = (
            f"{base_url}/rank?tenant=alice&context=Weekend&context=Breakfast&top_k=3"
        )
        answered = 0
        deadline = time.time() + 60
        # Enough requests that every worker self-kills at least once
        # (kill-every-5 across 2 workers), tolerating the resets the
        # kills cause mid-flight.
        while answered < 25 and time.time() < deadline:
            try:
                ranked = get_json(rank_url)
            except (OSError, http.client.HTTPException):
                # A self-kill can land mid-response (another thread of
                # the same worker trips the counter): connection reset
                # or truncated body while the slot respawns. Retry.
                time.sleep(0.1)
                continue
            assert_table1_winner(ranked)
            answered += 1
        assert answered >= 25, f"only {answered} ranked answers under chaos"
        print(f"smoke: {answered} ranked answers through kill/respawn churn")

        # Respawned slots are healthy slots: readiness must hold.
        deadline = time.time() + 10
        ready = None
        while time.time() < deadline:
            try:
                ready = get_json(f"{base_url}/readyz")
                break
            except (OSError, http.client.HTTPException):
                time.sleep(0.1)
        assert ready is not None and ready["status"] == "ready", ready
        assert ready["failed_workers"] == 0, ready
        print("smoke: chaos fleet /readyz still ready (no slot fenced)")
    finally:
        shutdown(process, "chaos fleet")

    deadline = time.time() + 5
    while survivors and time.time() < deadline:
        for pid in list(survivors):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                survivors.discard(pid)
        if survivors:
            time.sleep(0.05)
    assert not survivors, f"orphaned chaos workers after shutdown: {sorted(survivors)}"
    print("smoke: chaos fleet clean shutdown ok, no orphan workers")


def smoke_snapshot_boot(workers: int = 2) -> None:
    """Build a snapshot, boot the fleet from it, survive a worker kill."""
    import tempfile

    snapshot_dir = tempfile.mkdtemp(prefix="repro-smoke-snap-")
    snapshot_path = os.path.join(snapshot_dir, "world.snap")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")])
    )
    for sub in (["build", snapshot_path], ["inspect", snapshot_path]):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "snapshot", *sub],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, (sub, result.stdout, result.stderr)
    assert "digest" in result.stdout, result.stdout
    print(f"smoke: snapshot built and verified at {snapshot_path}")

    process = spawn("--workers", str(workers), "--snapshot", snapshot_path)
    try:
        base_url = wait_for_announce(process)
        worker_pids = collect_worker_pids(process, workers)
        print(f"smoke: snapshot fleet of {workers} announced (pids {worker_pids})")

        health = get_json(f"{base_url}/healthz")
        assert health["worker"].get("world_source") == "snapshot", health
        print("smoke: snapshot fleet world_source=snapshot (no rebuild)")

        ranked = get_json(
            f"{base_url}/rank?tenant=alice&context=Weekend&context=Breakfast&top_k=3"
        )
        top = assert_table1_winner(ranked)
        print(f"smoke: snapshot fleet /rank ok (top={top['document']} score={top['score']})")

        # Kill one worker hard; the respawned slot must come back
        # serving from the same pre-loaded snapshot, never a rebuild.
        os.kill(worker_pids[0], signal.SIGKILL)
        deadline = time.time() + 30
        recovered = None
        while time.time() < deadline:
            try:
                recovered = get_json(
                    f"{base_url}/rank?tenant=alice&context=Weekend"
                    "&context=Breakfast&top_k=3"
                )
                health = get_json(f"{base_url}/healthz")
                if health["worker"]["pid"] not in worker_pids:
                    break  # answered by the respawned worker
            except (OSError, http.client.HTTPException):
                time.sleep(0.1)
        assert recovered is not None, "no ranked answer after worker kill"
        assert_table1_winner(recovered)
        assert health["worker"]["pid"] not in worker_pids, health
        assert health["worker"].get("world_source") == "snapshot", health
        print("smoke: killed worker respawned, still snapshot-loaded, Table 1 holds")
    finally:
        shutdown(process, "snapshot fleet")
    print("smoke: snapshot fleet clean shutdown ok")


def smoke_herd() -> None:
    """Boot on default flags, drive cross-tenant herds so mates share
    one scored view, then drain cleanly on SIGTERM with a herd still
    in flight."""
    process = spawn()
    try:
        base_url = wait_for_announce(process)

        ranked = get_json(
            f"{base_url}/rank?tenant=alice&context=Weekend&context=Breakfast&top_k=3"
        )
        assert_table1_winner(ranked)
        print("smoke: herd server /rank ok (Table 1 winner holds)")
        warm_reasoner = get_json(f"{base_url}/metrics")["reasoner"]

        def herd(tenants: list[str], context: str) -> list[dict]:
            bodies: list[dict | None] = [None] * len(tenants)

            def hit(index: int, tenant: str) -> None:
                bodies[index] = get_json(
                    f"{base_url}/rank?tenant={tenant}&context={context}&top_k=3"
                )

            threads = [
                threading.Thread(target=hit, args=(index, tenant))
                for index, tenant in enumerate(tenants)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive(), "herd request never returned"
            assert all(body is not None for body in bodies), bodies
            return bodies  # type: ignore[return-value]

        # Three herd rounds: 8 distinct tenants share one novel context
        # per round, so every request misses the view and response
        # caches, but mates coalesce on one scored view.  Coalescing
        # must not change answers: identical scores across the round.
        tenants = [f"herd_{index}" for index in range(8)]
        for round_no in range(3):
            bodies = herd(tenants, f"Weekend:0.{31 + round_no}")
            reference = [(item["document"], item["score"]) for item in bodies[0]["items"]]
            assert reference, bodies[0]
            for body in bodies[1:]:
                got = [(item["document"], item["score"]) for item in body["items"]]
                assert got == reference, (reference, got)
        print("smoke: 3 herd rounds of 8 concurrent tenants, scores identical per round")

        metrics = get_json(f"{base_url}/metrics")
        batching = metrics["batching"]
        assert batching["enabled"] is True, batching
        assert batching["batched_requests"] >= 8, batching
        assert batching["coalesce_ratio"] > 0.0, batching
        print(
            "smoke: /metrics memo coalescing "
            f"(batched_requests={batching['batched_requests']} "
            f"coalesce_ratio={batching['coalesce_ratio']:.2f})"
        )
        # Mates after the first take its bound kernel too, and the
        # rounds' context atoms never reach the fleet-wide base tier.
        reasoner = metrics["reasoner"]
        assert reasoner["binds_shared"] > 0, reasoner
        assert reasoner["memo_probabilities"] == warm_reasoner["memo_probabilities"], (
            warm_reasoner, reasoner,
        )
        print(
            f"smoke: /metrics binds_shared={reasoner['binds_shared']}, "
            f"memo_probabilities flat at {reasoner['memo_probabilities']}"
        )

        # Clean SIGTERM drain: launch one more herd of new tenants (their
        # mints go to the gateway pool), give the threads a beat to
        # connect, then signal.  Every in-flight request must still get
        # its answer and the process must exit 0.
        drain_bodies: list[dict | None] = [None] * 4

        def drain_hit(index: int) -> None:
            drain_bodies[index] = get_json(
                f"{base_url}/rank?tenant=drain_{index}&context=Weekend:0.97&top_k=3"
            )

        drain_threads = [
            threading.Thread(target=drain_hit, args=(index,)) for index in range(4)
        ]
        for thread in drain_threads:
            thread.start()
        time.sleep(0.1)
        shutdown(process, "herd server", sig=signal.SIGTERM)
        for thread in drain_threads:
            thread.join(timeout=10)
            assert not thread.is_alive(), "drain request never returned"
        assert all(body is not None for body in drain_bodies), drain_bodies
        assert all(body["items"] for body in drain_bodies), drain_bodies
        print("smoke: SIGTERM drained 4 in-flight herd requests, clean exit")
    finally:
        if process.poll() is None:
            shutdown(process, "herd server")


PHASES = {
    "single": smoke_single_process,
    "fleet": smoke_fleet,
    "chaos": smoke_chaos_fleet,
    "snapshot": smoke_snapshot_boot,
    "herd": smoke_herd,
}


def main(argv: list[str]) -> int:
    """Run the named phases (all of them with no arguments)."""
    names = argv or list(PHASES)
    unknown = [name for name in names if name not in PHASES]
    if unknown:
        raise SystemExit(f"unknown smoke phase(s) {unknown}; choose from {list(PHASES)}")
    for name in names:
        PHASES[name]()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
