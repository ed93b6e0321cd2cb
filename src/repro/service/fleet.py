"""The pre-fork serving fleet: N worker processes behind one port.

The GIL caps a single Python process at one core of rank work; the
fleet escapes it the classic pre-fork way (the shape gunicorn and
nginx use):

* the **parent** resolves the port, forks ``workers`` children, then
  only supervises: respawn a worker that dies unexpectedly (with
  exponential backoff, and a crash-loop detector that *stops*
  respawning a worker dying repeatedly), fan ``SIGTERM``/``SIGINT``
  out on shutdown, and answer parent-side aggregated health via
  :meth:`FleetSupervisor.health`;
* each **worker** is a ``fork`` of the parent: it inherits the world
  its caller loaded copy-on-write (initial workers and respawns alike
  — nothing is rebuilt or re-loaded), builds its own
  :class:`~repro.service.pipeline.RankingService` (own registry, own
  response cache — processes share nothing mutable, so no
  cross-process coherence protocol is needed) and runs the event-loop
  gateway (:mod:`repro.service.aio`) on the shared port.

Every worker binds its *own* listening socket with ``SO_REUSEPORT``;
the kernel load-balances incoming connections across them.  The parent
holds a bound (never listening) *anchor* socket on the same port: it
pins the port for the fleet's lifetime (respawned workers rebind the
same number, even with ``--port 0``) and is how the parent learns the
ephemeral port in the first place.

Shutdown is graceful end to end: a worker's first ``SIGTERM`` stops
the accept loop, drains in-flight requests for the grace period, then
exits 0 (a second signal exits immediately); the supervise loop
distinguishes a supervised shutdown from an unexpected death and only
respawns the latter.

Crash-loop containment: ``crash_loop_threshold`` deaths of the same
worker slot within ``crash_loop_window`` seconds marks the slot
*failed* — no further respawns (a worker dying that fast is broken,
not unlucky; respawning it forever burns CPU and masks the problem).
The failure is published to every surviving worker through
:class:`~repro.service.resilience.SharedFleetState`, so their
``/readyz`` flips to degraded and load balancers can react.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import socket
import threading
import time
from collections import deque
from multiprocessing.connection import wait as _sentinel_wait
from typing import Callable, Mapping

from repro.errors import EngineError
from repro.service.aio import BACKLOG, DRAIN_GRACE, AioRankingServer
from repro.service.pipeline import RankingService
from repro.service.resilience import SharedFleetState

__all__ = ["FleetSupervisor", "serve_fleet", "supports_fleet"]

#: A worker factory: called *inside* the forked child with that
#: worker's identity mapping; must return a fully wired service.
ServiceFactory = Callable[[Mapping[str, object]], RankingService]


def supports_fleet() -> bool:
    """Whether this platform can run a fleet: ``fork`` + ``SO_REUSEPORT``."""
    if not hasattr(os, "fork") or not hasattr(socket, "SO_REUSEPORT"):
        return False
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        finally:
            probe.close()
    except OSError:  # pragma: no cover - platform-dependent
        return False
    return True


def _worker_main(supervisor: "FleetSupervisor", index: int, ready) -> None:
    """The forked child's whole life: build a service, serve the port.

    ``supervisor`` is the parent's, inherited through the fork.
    """
    # Drop the parent's handlers (``serve_fleet``'s only set a flag): a
    # stop that lands while the service is still being built must end
    # this child, not be swallowed.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    service = supervisor.service_factory(
        {"index": index, "workers": supervisor.workers}
    )
    # Fork-shared: lets this worker's /readyz report siblings the
    # supervisor has marked failed.
    service.fleet_state = supervisor.fleet_state
    listener = socket.create_server(
        (supervisor.host, supervisor.port), backlog=BACKLOG, reuse_port=True
    )
    server = AioRankingServer(listener, service)

    signalled = False

    def _graceful(signum, frame):  # noqa: ARG001 - signal API
        nonlocal signalled
        if signalled:
            # Second signal: the operator means it.  Daemon threads and
            # kernel socket cleanup make the hard exit safe.
            os._exit(0)
        signalled = True
        # Runs on the loop's own thread: only *request* the stop, so
        # nothing is raised into the callback the loop was in.
        server.request_shutdown()

    # SIGTERM is the parent's fan-out; SIGINT arrives directly when the
    # whole process group catches Ctrl-C.  Either way: stop accepting,
    # drain, exit 0.
    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)

    ttl = service.fault_injector.worker_ttl
    if ttl > 0:
        # Chaos hook: die hard (SIGKILL, no graceful path) this long
        # after boot — the crash-loop detector's test vector.
        timer = threading.Timer(ttl, os.kill, args=(os.getpid(), signal.SIGKILL))
        timer.daemon = True
        timer.start()

    try:
        ready.set()
        server.serve_forever()
        server.drain(DRAIN_GRACE)
    finally:
        service.close()
        server.server_close()


class _Worker:
    """Parent-side record of one child process."""

    __slots__ = ("index", "process", "ready")

    def __init__(self, index: int, process, ready):
        self.index = index
        self.process = process
        self.ready = ready


class FleetSupervisor:
    """Owns a fleet of gateway workers on one shared port.

    Parameters
    ----------
    service_factory:
        Called inside each forked worker with that worker's identity
        mapping; returns the worker's service.  Plain closures work —
        the child is a fork, so the factory and everything it closes
        over (a preloaded world) pass by reference, never by pickle.
    workers:
        Child process count (≥ 1).
    host / port:
        Bind address; ``port=0`` picks a free port once, which every
        worker (and every respawn) then shares.
    start_timeout:
        Seconds to wait for each worker's ready signal on start.
    respawn_backoff / respawn_backoff_max:
        Delay before respawning a dead worker: ``respawn_backoff``
        after the first death in the window, doubling per further
        death, capped at ``respawn_backoff_max``.
    crash_loop_threshold / crash_loop_window:
        ``threshold`` deaths of one worker slot within ``window``
        seconds marks the slot failed — no further respawns, and
        :meth:`health` degrades.  Clean exits (exitcode 0 — a worker
        SIGTERMed directly that drained and left gracefully) are
        respawned without counting toward the window.
    """

    def __init__(
        self,
        service_factory: ServiceFactory,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        start_timeout: float = 30.0,
        respawn_backoff: float = 0.1,
        respawn_backoff_max: float = 2.0,
        crash_loop_threshold: int = 3,
        crash_loop_window: float = 5.0,
    ):
        if workers < 1:
            raise EngineError(f"fleet needs at least one worker, got {workers!r}")
        if not supports_fleet():
            raise EngineError(
                "the serving fleet needs fork + SO_REUSEPORT; "
                "run single-process (--workers 1) instead"
            )
        if respawn_backoff <= 0 or respawn_backoff_max < respawn_backoff:
            raise EngineError(
                "respawn backoff must be positive and no greater than its cap, "
                f"got {respawn_backoff!r}/{respawn_backoff_max!r}"
            )
        if crash_loop_threshold < 2 or crash_loop_window <= 0:
            raise EngineError(
                "crash loop detection needs threshold >= 2 and a positive "
                f"window, got {crash_loop_threshold!r}/{crash_loop_window!r}"
            )
        self.service_factory = service_factory
        self.workers = workers
        self.host = host
        self.start_timeout = start_timeout
        self.respawn_backoff = respawn_backoff
        self.respawn_backoff_max = respawn_backoff_max
        self.crash_loop_threshold = crash_loop_threshold
        self.crash_loop_window = crash_loop_window
        self._mp = multiprocessing.get_context("fork")
        self.fleet_state = SharedFleetState(self._mp)
        self._lock = threading.Lock()
        self._fleet: list[_Worker] = []
        self._stopping = False
        #: Set by ``serve_fleet``'s signal handler, which runs on the
        #: supervising thread itself and so must take no lock.
        self._shutdown_requested = False
        self._started = False
        self._monitor: threading.Thread | None = None
        self._respawns = 0
        #: Per-slot death timestamps within the crash-loop window.
        self._deaths: dict[int, deque] = {}
        #: (respawn_at, index) — deaths waiting out their backoff.
        self._pending: list[tuple[float, int]] = []
        #: Slots the crash-loop detector has given up on.
        self._failed: dict[int, dict] = {}
        # Resolve the port up front, in the parent: a bound, never
        # listening anchor that the workers' listeners share.
        self._socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            self._socket.bind((host, port))
        except BaseException:
            self._socket.close()
            raise
        self.port = self._socket.getsockname()[1]

    # -- lifecycle ---------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Fork the fleet, wait until every worker is accepting, then
        supervise it from a ``fleet-monitor`` thread."""
        self._launch()
        self._monitor = threading.Thread(
            target=self._supervise, name="fleet-monitor", daemon=True
        )
        self._monitor.start()

    def _launch(self) -> None:
        """Fork the fleet and wait until every worker is accepting."""
        if self._started:
            raise EngineError("fleet already started")
        self._started = True
        # The preloaded world is inherited copy-on-write; freeze the
        # heap so the workers' cyclic collector never traverses it —
        # those header writes would privatize every shared page.
        # Respawned workers fork off this same frozen image.
        gc.collect()
        gc.freeze()
        with self._lock:
            for index in range(self.workers):
                self._fleet.append(self._spawn(index))
        for worker in list(self._fleet):
            if not worker.ready.wait(self.start_timeout):
                self.stop()
                raise EngineError(
                    f"fleet worker {worker.index} failed to become ready "
                    f"within {self.start_timeout}s"
                )

    def _spawn(self, index: int) -> _Worker:
        ready = self._mp.Event()
        process = self._mp.Process(
            target=_worker_main,
            args=(self, index, ready),
            name=f"repro-serve-worker-{index}",
        )
        process.start()
        return _Worker(index, process, ready)

    def _note_death(self, index: int, now: float, exitcode: int | None) -> None:
        """Record one worker death; schedule a respawn or give up."""
        if exitcode == 0:
            # A clean exit — the worker's own graceful handler drained
            # and returned 0 (an operator or orchestrator SIGTERMed it
            # directly).  That is a *cycle*, not a crash: respawn after
            # the base backoff without feeding the crash-loop window,
            # or a few routine cycles would fence the slot for good.
            self._pending.append((now + self.respawn_backoff, index))
            return
        deaths = self._deaths.setdefault(index, deque())
        deaths.append(now)
        while deaths and now - deaths[0] > self.crash_loop_window:
            deaths.popleft()
        if len(deaths) >= self.crash_loop_threshold:
            # Crash loop: this slot dies faster than it can serve.
            # Stop feeding it processes and tell the fleet.
            self._failed[index] = {
                "index": index,
                "deaths_in_window": len(deaths),
                "window_seconds": self.crash_loop_window,
                "failed_at": time.time(),
            }
            self.fleet_state.mark_failed()
            return
        backoff = min(
            self.respawn_backoff * (2 ** (len(deaths) - 1)),
            self.respawn_backoff_max,
        )
        self._pending.append((now + backoff, index))

    def _supervise(self) -> None:
        """Respawn workers that die without being asked to, until the
        fleet is stopped or a shutdown is requested."""
        while not self._shutdown_requested:
            with self._lock:
                if self._stopping:
                    return
                now = time.monotonic()
                due = [index for (at, index) in self._pending if at <= now]
                if due:
                    self._pending = [
                        (at, index) for (at, index) in self._pending if at > now
                    ]
                    for index in due:
                        self._fleet.append(self._spawn(index))
                        self._respawns += 1
                sentinels = {
                    worker.process.sentinel: worker for worker in self._fleet
                }
            if not sentinels:
                time.sleep(0.05)
                continue
            dead = _sentinel_wait(list(sentinels), timeout=0.1)
            if not dead:
                continue
            for sentinel in dead:
                # The sentinel (an fd closing) fires a beat before the
                # child is reapable: join briefly — outside the lock —
                # so ``exitcode`` below is the real code, not None.
                sentinels[sentinel].process.join(timeout=1.0)
            with self._lock:
                if self._stopping:
                    return
                now = time.monotonic()
                for sentinel in dead:
                    worker = sentinels[sentinel]
                    if worker not in self._fleet:
                        continue
                    self._fleet.remove(worker)
                    self._note_death(worker.index, now, worker.process.exitcode)

    def stop(self) -> None:
        """SIGTERM fan-out, grace, SIGKILL stragglers, release the port."""
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
            self._pending.clear()
            fleet = list(self._fleet)
        for worker in fleet:
            if worker.process.is_alive():
                worker.process.terminate()
        deadline = time.monotonic() + DRAIN_GRACE
        for worker in fleet:
            worker.process.join(max(0.0, deadline - time.monotonic()))
        for worker in fleet:
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.kill()
                worker.process.join(DRAIN_GRACE)
        if self._monitor is not None and self._monitor.is_alive():
            self._monitor.join(DRAIN_GRACE)
        self._socket.close()
        if self._started:
            # Undo the pre-fork freeze: no more workers will fork off
            # this image, so the heap can be collected normally again.
            gc.unfreeze()

    def __enter__(self) -> "FleetSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.stop()
        return False

    # -- parent-side observability ------------------------------------------
    def worker_pids(self) -> list[int]:
        with self._lock:
            return [
                worker.process.pid
                for worker in sorted(self._fleet, key=lambda w: w.index)
                if worker.process.pid is not None
            ]

    def health(self) -> dict:
        """The parent's aggregated fleet view (each worker's ``/healthz``
        reports only itself — the kernel picks who answers)."""
        with self._lock:
            fleet = sorted(self._fleet, key=lambda w: w.index)
            alive = sum(1 for worker in fleet if worker.process.is_alive())
            healthy = alive == self.workers and not self._failed
            body = {
                "status": "ok" if healthy else "degraded",
                "url": self.url,
                "workers": self.workers,
                "alive": alive,
                "respawns": self._respawns,
                "pending_respawns": len(self._pending),
                "failed": [
                    dict(self._failed[index]) for index in sorted(self._failed)
                ],
                "fleet": [
                    {
                        "index": worker.index,
                        "pid": worker.process.pid,
                        "alive": worker.process.is_alive(),
                    }
                    for worker in fleet
                ],
            }
        return body


def serve_fleet(
    service_factory: ServiceFactory,
    workers: int,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    announce: Callable[[FleetSupervisor], None] | None = None,
) -> int:
    """Run a fleet until SIGTERM/SIGINT (the ``repro serve --workers N`` body).

    The supervise loop runs on the calling thread, so every fork —
    initial workers and respawns — happens in a single-threaded
    parent.  ``announce`` is called once the whole fleet is accepting —
    the CLI prints the listening line (and per-worker pids) from it.
    Returns a process exit code.
    """
    supervisor = FleetSupervisor(service_factory, workers=workers, host=host, port=port)

    def _request_shutdown(signum, frame):  # noqa: ARG001 - signal API
        # Runs between two bytecodes of this thread, possibly inside
        # ``_supervise``'s critical section: set the flag the loop
        # polls, raise nothing, take no lock.
        supervisor._shutdown_requested = True

    previous_term = signal.signal(signal.SIGTERM, _request_shutdown)
    previous_int = signal.signal(signal.SIGINT, _request_shutdown)
    try:
        supervisor._launch()
        if announce is not None:
            announce(supervisor)
        supervisor._supervise()
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        signal.signal(signal.SIGINT, previous_int)
        supervisor.stop()
    return 0
