"""The stdlib HTTP/JSON gateway over :class:`RankingService`.

No third-party dependencies: a :class:`ThreadingHTTPServer` front
(one thread per connection, daemon threads so shutdown never hangs)
dispatching to the staged pipeline.  Endpoints:

``GET /rank?tenant=…&context=…&top_k=…``
    One ranking request.  ``context`` is repeatable
    (``CONCEPT[:PROB]``) and *replaces* the tenant's dynamic context
    for this and later requests; omit it to rank under the standing
    context.  Optional ``documents`` (repeatable / comma-separated),
    ``explain=1``, ``timeout`` (seconds; the ``X-Request-Timeout``
    header works too and the query parameter wins).

``POST /context``
    JSON body ``{"tenant": "...", "context": ["Weekend", "Breakfast:0.7"]}`` —
    install a standing context.

``GET /healthz``
    Liveness + registry occupancy ("this process runs").

``GET /readyz``
    Readiness ("send me traffic"): 503 + ``degraded`` while the
    global circuit breaker is open or a fleet sibling has been marked
    failed by the crash-loop detector.

``GET /metrics``
    Per-stage latency summaries, outcome counters, fleet counters,
    resilience counters + breaker state.

Degraded answers carry their HTTP contract in headers: overload and
breaker sheds send ``Retry-After``; stale serves send
``Warning: 110`` (response is stale) — both flow out of
``ServiceResponse.headers`` untouched.

Start one with :func:`make_server` (ephemeral ``port=0`` supported —
tests and benchmarks do) or the blocking :func:`serve` the CLI wraps::

    python -m repro serve --port 8080
    curl 'http://127.0.0.1:8080/rank?tenant=alice&context=Weekend&top_k=3'
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.service.pipeline import (
    MAX_BODY_BYTES,
    SERVER_VERSION,
    RankingService,
    ServiceResponse,
)

__all__ = ["RankingHTTPServer", "make_server", "serve"]


class _BodyTooLarge(ValueError):
    """Declared request body over :data:`MAX_BODY_BYTES` (a 413)."""


class _MalformedLength(ValueError):
    """Unparseable Content-Length: framing is unknown, close after 400."""


class _GatewayHandler(BaseHTTPRequestHandler):
    """Routes gateway endpoints onto the service pipeline."""

    server_version = SERVER_VERSION
    protocol_version = "HTTP/1.1"
    # A response leaves as header + body packets on one keep-alive
    # connection; with Nagle on, the body packet waits out the client's
    # delayed ACK (~40 ms p50 on loopback, measured in E13).
    disable_nagle_algorithm = True

    # The ThreadingHTTPServer subclass carries the service instance.
    @property
    def service(self) -> RankingService:
        return self.server.service  # type: ignore[attr-defined]

    # -- routing -----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self.server.request_begun()  # type: ignore[attr-defined]
        try:
            self._route_get()
        finally:
            self.server.request_done()  # type: ignore[attr-defined]

    def _route_get(self) -> None:
        url = urlsplit(self.path)
        if url.path == "/rank":
            params = parse_qs(url.query, keep_blank_values=True)
            header_timeout = self.headers.get("X-Request-Timeout")
            if header_timeout is not None and "timeout" not in params:
                params["timeout"] = [header_timeout]
            self._send(self.service.rank(params))
            # After the response is on the wire: the chaos hook that
            # periodically SIGKILLs this worker mid-traffic (noop when
            # fault injection is inactive).
            self.service.fault_injector.maybe_kill_worker()
        elif url.path == "/healthz":
            self._send_json(200, self.service.health())
        elif url.path == "/readyz":
            status, body = self.service.readiness()
            self._send_json(status, body)
        elif url.path == "/metrics":
            self._send_json(200, self.service.metrics_snapshot())
        else:
            self._send_json(404, {"error": f"unknown path {url.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self.server.request_begun()  # type: ignore[attr-defined]
        try:
            self._route_post()
        finally:
            self.server.request_done()  # type: ignore[attr-defined]

    def _route_post(self) -> None:
        url = urlsplit(self.path)
        if url.path != "/context":
            self._send_json(404, {"error": f"unknown path {url.path!r}"})
            return
        try:
            payload = self._read_json()
        except _BodyTooLarge as exc:
            # The unread body is still on the wire: the connection
            # cannot be reused for a next request.
            self.close_connection = True
            self._send_json(413, {"error": str(exc)})
            return
        except _MalformedLength as exc:
            self.close_connection = True
            self._send_json(400, {"error": str(exc)})
            return
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        if not isinstance(payload, dict) or "tenant" not in payload:
            self._send_json(400, {"error": "body must be {'tenant': ..., 'context': [...]}"})
            return
        context = payload.get("context", [])
        if isinstance(context, str):
            context = [context]
        if not isinstance(context, list):
            self._send_json(400, {"error": "'context' must be a list of CONCEPT[:PROB] strings"})
            return
        self._send(self.service.install_context(str(payload["tenant"]), context))

    # -- plumbing ----------------------------------------------------------
    def _read_json(self) -> object:
        raw_length = self.headers.get("Content-Length", "0")
        try:
            length = int(raw_length)
        except (TypeError, ValueError):
            # int() on header garbage must be a clean 400, not an
            # uncaught ValueError resetting the connection.
            raise _MalformedLength(
                f"malformed Content-Length header: {raw_length!r}"
            ) from None
        if length <= 0:
            raise ValueError("request body required")
        if length > MAX_BODY_BYTES:
            raise _BodyTooLarge(f"request body over {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON body: {exc}") from exc

    def _send(self, response: ServiceResponse) -> None:
        # encoded() memoises: a cache hit ships its stored bytes, and
        # nothing ever json.dumps the same response body twice.
        self._send_payload(response.status, response.encoded(), response.headers)

    def _send_json(
        self, status: int, body: dict, headers: dict[str, str] | None = None
    ) -> None:
        self._send_payload(status, json.dumps(body).encode("utf-8"), headers)

    def _send_payload(
        self, status: int, payload: bytes, headers: dict[str, str] | None = None
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if headers:
            for name, value in headers.items():
                self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # pragma: no cover - debug aid
            super().log_message(format, *args)


class RankingHTTPServer(ThreadingHTTPServer):
    """A threading HTTP front bound to one :class:`RankingService`.

    ``daemon_threads`` so in-flight handler threads never block
    interpreter shutdown; ``allow_reuse_address`` so quick restarts do
    not trip TIME_WAIT (Nagle is disabled on the handler).  Tracks
    in-flight requests so :meth:`drain` can bound a graceful stop.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        service: RankingService,
        *,
        verbose: bool = False,
        bind_and_activate: bool = True,
    ):
        # ``bind_and_activate=False`` lets the fleet adopt an already
        # bound socket (SO_REUSEPORT sibling or an inherited listener)
        # instead of binding a fresh one.
        super().__init__(address, _GatewayHandler, bind_and_activate=bind_and_activate)
        self.service = service
        self.verbose = verbose
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._idle = threading.Event()
        self._idle.set()

    # -- graceful drain ----------------------------------------------------
    def request_begun(self) -> None:
        with self._inflight_lock:
            self._inflight += 1
            self._idle.clear()

    def request_done(self) -> None:
        with self._inflight_lock:
            self._inflight = max(0, self._inflight - 1)
            if self._inflight == 0:
                self._idle.set()

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def drain(self, grace: float, settle: float = 0.05) -> bool:
        """Wait up to ``grace`` seconds for in-flight requests to finish.

        Call after ``shutdown()`` (no new connections are being
        accepted) and before ``server_close()``.  Idle alone is not
        proof: a connection accepted just before shutdown whose handler
        thread has not reached its method yet is invisible to the
        counter, so idle must still hold after a ``settle`` interval
        before it is believed.  Returns True when the server went idle
        within the grace, False when stragglers remain (they are daemon
        threads; closing anyway is safe).
        """
        deadline = time.monotonic() + max(0.0, grace)
        while True:
            if not self._idle.wait(timeout=max(0.0, deadline - time.monotonic())):
                return False
            time.sleep(min(settle, max(0.0, deadline - time.monotonic())))
            if self.inflight == 0:
                return True

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def make_server(
    service: RankingService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    verbose: bool = False,
) -> RankingHTTPServer:
    """Bind (but do not run) a gateway; ``port=0`` picks a free port.

    Callers own the lifecycle: ``serve_forever()`` on a thread of
    their choosing, ``shutdown()`` + ``server_close()`` to stop.
    """
    return RankingHTTPServer((host, port), service, verbose=verbose)


def serve(
    service: RankingService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    verbose: bool = False,
    grace: float = 5.0,
    ready=None,
) -> int:
    """Run the gateway until interrupted (the ``repro serve`` body).

    ``ready`` (if given) is called with the bound server once it is
    listening — tests and the CLI use it to learn the ephemeral port.
    On interrupt the gateway stops accepting, drains in-flight
    requests for up to ``grace`` seconds, then closes.  Returns a
    process exit code.
    """
    server = make_server(service, host, port, verbose=verbose)
    if ready is not None:
        ready(server)

    def _interrupt(signum, frame):  # noqa: ARG001 - signal API
        raise KeyboardInterrupt

    # SIGTERM (the supervisor/orchestrator stop signal) drains the same
    # way Ctrl-C does, matching the fleet parent's handler.
    try:
        previous_term = signal.signal(signal.SIGTERM, _interrupt)
    except ValueError:  # not on the main thread (embedded use)
        previous_term = None
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        if previous_term is not None:
            signal.signal(signal.SIGTERM, previous_term)
        server.shutdown()
        server.drain(grace)
        service.close()
        server.server_close()
    return 0
