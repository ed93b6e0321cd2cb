"""The pre-fork serving fleet: shared port, supervision, clean shutdown."""

import http.client
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.cache import InMemoryCacheAdapter
from repro.errors import EngineError
from repro.service import FleetSupervisor, RankingService, ServiceConfig, supports_fleet
from repro.store import write_world_snapshot
from repro.tenants import TenantRegistry
from repro.workloads import EXPECTED_TABLE1_SCORES, build_tvtouch

pytestmark = pytest.mark.skipif(not supports_fleet(), reason="needs fork + SO_REUSEPORT")

SRC = Path(__file__).resolve().parents[2] / "src"


def factory(worker_info):
    registry = TenantRegistry(build_tvtouch(), shards=2, max_sessions=64)
    return RankingService(
        registry,
        ServiceConfig(),
        cache=InMemoryCacheAdapter(),
        worker_info=dict(worker_info),
    )


def get(url, path, timeout=10):
    with urllib.request.urlopen(url + path, timeout=timeout) as response:
        return json.loads(response.read())


def assert_gone(pids, patience=5.0):
    deadline = time.monotonic() + patience
    remaining = set(pids)
    while remaining and time.monotonic() < deadline:
        for pid in list(remaining):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                remaining.discard(pid)
        if remaining:
            time.sleep(0.05)
    assert not remaining, f"orphaned fleet workers: {sorted(remaining)}"


@pytest.fixture()
def fleet():
    supervisor = FleetSupervisor(factory, workers=2, port=0, start_timeout=60.0)
    supervisor.start()
    try:
        yield supervisor
    finally:
        supervisor.stop()


class TestFleet:
    def test_two_workers_share_one_port_and_rank(self, fleet):
        assert len(fleet.worker_pids()) == 2
        body = get(fleet.url, "/rank?tenant=alice&context=Weekend&top_k=3")
        assert body["items"][0]["document"] == "channel5_news"
        assert body["items"][0]["score"] == pytest.approx(0.77, abs=1e-9)
        # Health answers come from whichever worker the kernel picks;
        # each reports its own pid and fleet identity.
        seen = set()
        for _ in range(20):
            worker = get(fleet.url, "/healthz")["worker"]
            assert worker["workers"] == 2
            seen.add(worker["pid"])
        assert seen <= set(fleet.worker_pids())

    def test_metrics_report_worker_and_cache(self, fleet):
        for _ in range(8):
            get(fleet.url, "/rank?tenant=alice&context=Weekend&top_k=3")
        snapshot = get(fleet.url, "/metrics")
        assert snapshot["worker"]["pid"] in fleet.worker_pids()
        assert snapshot["worker"]["index"] in (0, 1)
        assert snapshot["cache"]["enabled"] is True

    def test_parent_health_aggregates(self, fleet):
        health = fleet.health()
        assert health["status"] == "ok"
        assert health["alive"] == 2
        assert [entry["index"] for entry in health["fleet"]] == [0, 1]

    def test_dead_worker_is_respawned(self, fleet):
        victim = fleet.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            health = fleet.health()
            if health["alive"] == 2 and health["respawns"] >= 1:
                break
            time.sleep(0.05)
        else:  # pragma: no cover - diagnostic path
            pytest.fail(f"worker never respawned: {fleet.health()}")
        assert victim not in fleet.worker_pids()
        # The respawned worker rebinds the same (ephemeral) port.
        assert get(fleet.url, "/rank?tenant=bob&top_k=2")["items"]

    def test_stop_leaves_no_orphans_and_frees_the_port(self):
        supervisor = FleetSupervisor(factory, workers=2, port=0, start_timeout=60.0)
        supervisor.start()
        pids = supervisor.worker_pids()
        assert get(supervisor.url, "/healthz")["status"] == "ok"
        supervisor.stop()
        assert_gone(pids)
        with pytest.raises(Exception):
            get(supervisor.url, "/healthz", timeout=2)

    def test_stop_is_idempotent(self):
        supervisor = FleetSupervisor(factory, workers=1, port=0, start_timeout=60.0)
        with supervisor:
            pass
        supervisor.stop()

    def test_rejects_zero_workers(self):
        with pytest.raises(EngineError):
            FleetSupervisor(factory, workers=0)


def ttl_factory(worker_info):
    """A fleet whose worker 0 SIGKILLs itself shortly after boot —
    the crash-loop detector's drill vector."""
    from repro.service import FaultInjector

    registry = TenantRegistry(build_tvtouch(), shards=2, max_sessions=64)
    injector = (
        FaultInjector(worker_ttl=0.3)
        if worker_info.get("index") == 0
        else FaultInjector()
    )
    return RankingService(
        registry,
        ServiceConfig(),
        cache=InMemoryCacheAdapter(),
        worker_info=dict(worker_info),
        fault_injector=injector,
    )


class TestCrashLoopDetection:
    def test_crash_looping_worker_is_marked_failed(self):
        supervisor = FleetSupervisor(
            ttl_factory,
            workers=2,
            port=0,
            start_timeout=60.0,
            respawn_backoff=0.05,
            respawn_backoff_max=0.2,
            crash_loop_threshold=3,
            crash_loop_window=10.0,
        )
        supervisor.start()
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                health = supervisor.health()
                if health["failed"]:
                    break
                time.sleep(0.1)
            else:  # pragma: no cover - diagnostic path
                pytest.fail(f"crash loop never detected: {supervisor.health()}")
            health = supervisor.health()
            assert health["status"] == "degraded"
            assert [entry["index"] for entry in health["failed"]] == [0]
            assert health["failed"][0]["deaths_in_window"] >= 3
            assert supervisor.fleet_state.failed_workers == 1
            respawns_at_detection = health["respawns"]
            # The detector must stop feeding the slot: no further
            # respawns accumulate once it is marked failed.
            time.sleep(1.0)
            later = supervisor.health()
            assert later["respawns"] == respawns_at_detection
            assert not later["pending_respawns"]
            # The healthy sibling keeps serving...
            assert get(supervisor.url, "/rank?tenant=alice&top_k=2")["items"]
            # ...but reports the fleet degraded via /readyz.
            import urllib.error

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(supervisor.url, "/readyz")
            assert excinfo.value.code == 503
            body = json.loads(excinfo.value.read())
            assert "fleet_workers_failed" in body["problems"]
        finally:
            supervisor.stop()
        assert_gone(supervisor.worker_pids())

    def test_clean_exits_do_not_count_toward_the_crash_loop(self):
        """Exitcode 0 is a graceful cycle (direct SIGTERM, drained,
        returned 0), not a crash: it must be respawned without feeding
        the crash-loop window — an operator cycling one worker a few
        times must never fence the slot."""
        supervisor = FleetSupervisor(factory, workers=1, port=0)
        try:
            now = time.monotonic()
            for _ in range(5):
                supervisor._note_death(0, now, 0)
            assert not supervisor._failed  # clean exits: never fenced
            assert len(supervisor._pending) == 5  # but always respawned
            supervisor._pending.clear()
            for _ in range(3):
                supervisor._note_death(0, now, -signal.SIGKILL)
            assert 0 in supervisor._failed  # real crashes still fence
        finally:
            supervisor.stop()

    def test_graceful_sigterm_cycles_are_respawned_not_fenced(self):
        supervisor = FleetSupervisor(
            factory,
            workers=2,
            port=0,
            start_timeout=60.0,
            respawn_backoff=0.05,
            respawn_backoff_max=0.2,
            crash_loop_threshold=3,
            crash_loop_window=60.0,
        )
        supervisor.start()
        try:
            for cycle in range(3):
                victim = next(
                    entry["pid"]
                    for entry in supervisor.health()["fleet"]
                    if entry["index"] == 0 and entry["alive"]
                )
                os.kill(victim, signal.SIGTERM)  # worker drains, exits 0
                deadline = time.monotonic() + 20.0
                while time.monotonic() < deadline:
                    health = supervisor.health()
                    pids = [
                        entry["pid"]
                        for entry in health["fleet"]
                        if entry["index"] == 0 and entry["alive"]
                    ]
                    if health["alive"] == 2 and pids and victim not in pids:
                        break
                    time.sleep(0.05)
                else:  # pragma: no cover - diagnostic path
                    pytest.fail(
                        f"worker 0 not respawned after graceful cycle "
                        f"{cycle}: {supervisor.health()}"
                    )
            # Three clean exits inside one window: cycling, not crashing.
            health = supervisor.health()
            assert not health["failed"]
            assert health["status"] == "ok"
            assert supervisor.fleet_state.failed_workers == 0
        finally:
            supervisor.stop()
        assert_gone(supervisor.worker_pids())

    def test_spaced_deaths_keep_respawning(self, fleet):
        """Deaths spaced wider than the crash-loop window are bad luck,
        not a crash loop: the supervisor must keep respawning."""
        victim = fleet.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            health = fleet.health()
            if health["alive"] == 2 and health["respawns"] >= 1:
                break
            time.sleep(0.05)
        health = fleet.health()
        assert health["alive"] == 2
        assert not health["failed"]


#: ``repro serve --workers 2`` as the CLI runs it, plus one line with
#: the parent's thread count before every fork.
FORK_PROBE = """
import os, sys, threading
os.register_at_fork(
    before=lambda: print(f"fork threads={threading.active_count()}", flush=True)
)
from repro.cli import main
raise SystemExit(main(["serve", "--port", "0", "--workers", "2", *sys.argv[1:]]))
"""


def serve_kill_respawn(*flags, stop=signal.SIGINT):
    """Run the real ``repro serve --workers 2``, SIGKILL worker 0, wait
    until its respawn answers, then send ``stop`` to the parent.

    Returns the thread counts printed before each fork, the respawned
    worker's ``/healthz`` and full ``/rank`` bodies, the exit code, and
    the pids of the two workers alive when ``stop`` was sent.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    process = subprocess.Popen(
        [sys.executable, "-c", FORK_PROBE, *flags],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        lines, pids = [], []
        while len(pids) < 2:
            line = process.stdout.readline()
            assert line, f"server exited before announcing its workers: {lines}"
            lines.append(line)
            if "listening on http://127.0.0.1:" in line:
                port = int(line.split("http://127.0.0.1:", 1)[1].split()[0])
            if "fleet worker" in line:
                pids.append(int(line.split()[-1]))
        os.kill(pids[0], signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        health = ranked = None
        while ranked is None:
            assert time.monotonic() < deadline, "the respawned worker never answered"
            # One keep-alive connection is one worker: ask who answers,
            # and rank on the same connection if it is the respawn.
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                connection.request("GET", "/healthz")
                health = json.loads(connection.getresponse().read())
                if health["worker"]["pid"] not in pids:
                    connection.request(
                        "GET", "/rank?tenant=alice&context=Weekend&context=Breakfast"
                    )
                    ranked = json.loads(connection.getresponse().read())
            except (OSError, http.client.HTTPException):
                pass  # the victim's connection, reset mid-kill
            finally:
                connection.close()
            if ranked is None:
                time.sleep(0.05)
        process.send_signal(stop)
        rest, _ = process.communicate(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    counts = [
        int(line.split("=", 1)[1])
        for line in ("".join(lines) + rest).splitlines()
        if line.startswith("fork threads=")
    ]
    live = [pids[1], health["worker"]["pid"]]
    return counts, health, ranked, process.returncode, live


class TestServeCommand:
    """The real ``repro serve --workers 2``: every worker, respawns
    included, is a fork of the preloaded parent."""

    def test_every_fork_happens_in_a_single_threaded_parent(self):
        counts, _health, ranked, code, _live = serve_kill_respawn()
        # Two initial workers and one respawn.  Forking while another
        # thread runs can deadlock the child (Python 3.12 warns).
        assert counts == [1, 1, 1]
        assert ranked["items"]
        assert code == 0

    def test_sigterm_stops_the_parent_and_every_worker(self):
        # The supervise loop polls the flag SIGTERM sets, then fans the
        # stop out to the survivor and the respawn alike.
        counts, _health, _ranked, code, live = serve_kill_respawn(stop=signal.SIGTERM)
        assert counts == [1, 1, 1]
        assert code == 0
        assert_gone(live)

    def test_snapshot_fleet_respawn_answers_from_the_snapshot(self, tmp_path):
        path = tmp_path / "tv.snap"
        write_world_snapshot(path, build_tvtouch())
        _counts, health, ranked, code, _live = serve_kill_respawn(
            "--snapshot", str(path)
        )
        assert health["worker"]["world_source"] == "snapshot"
        scores = {item["document"]: item["score"] for item in ranked["items"]}
        assert set(scores) == set(EXPECTED_TABLE1_SCORES)
        for document, expected in EXPECTED_TABLE1_SCORES.items():
            assert abs(scores[document] - expected) <= 1e-9, document
        assert code == 0
