"""The HTTP/JSON gateway: one event loop per worker owns the wire.

A stdlib-only ``asyncio.Protocol`` server over :class:`RankingService`.
Endpoints:

``GET /rank?tenant=…&context=…&top_k=…``
    One ranking request.  ``context`` is repeatable
    (``CONCEPT[:PROB]``) and *replaces* the tenant's dynamic context
    for this and later requests; omit it to rank under the standing
    context.  Optional ``documents`` (repeatable / comma-separated),
    ``explain=1``, ``timeout`` (seconds; the ``X-Request-Timeout``
    header works too and the query parameter wins).  The query string
    goes to the service unparsed: :meth:`ServiceRequest.from_query`
    parses and keys each distinct one once (``/metrics`` →
    ``gateway.query_memo``).

``POST /context``
    JSON body ``{"tenant": "...", "context": ["Weekend", "Breakfast:0.7"]}`` —
    install a standing context.

``GET /healthz`` / ``GET /readyz``
    Liveness, and readiness (503 + ``degraded`` while the global
    circuit breaker is open or a fleet sibling has been marked failed).

``GET /metrics``
    Per-stage latency summaries, outcome counters, resilience counters
    + breaker state, and this gateway's own ``gateway`` section.

Degraded answers carry their HTTP contract in headers (``Retry-After``
on sheds, ``Warning: 110`` on stale serves), straight from
``ServiceResponse.headers``.

* **one event loop** per worker process owns accept, parse and write;
  an idle keep-alive connection costs a registered fd, not a thread
  (a thread per connection cost ~60–75% of a worker's capacity under
  the GIL before the ranking kernel ran — E13/E18);
* **incremental HTTP/1.1 parsing** with bounded header/body buffers,
  keep-alive and pipelining (the next buffered request is parsed only
  after the current response is written, so responses stay ordered)
  and a slow-client **read deadline**: a connection holding a partial
  request longer than ``read_deadline`` seconds is answered 408 and
  closed — idle connections with an *empty* buffer are never timed
  out;
* **inline serving on the loop** for everything that need not wait:
  parse 400s, cache hits (stored pre-encoded bytes —
  :meth:`ServiceResponse.encoded`) — pure hits, and delta hits whose
  context install :meth:`RankingService.begin_rank` could take without
  waiting — warm misses and context installs on a resident tenant
  (:meth:`RankingService.finish_rank` and
  :meth:`RankingService.install_context` with ``blocking=False``: a
  pinned session, one kernel pass or a memo hit, under the request's
  deadline), ``/healthz``, ``/readyz``, ``/metrics`` and overload
  sheds;
* **off-loop dispatch** for what the loop must not do — mint a
  session, wait on a shard or engine lock, bind or compile cold,
  journal, or meet injected faults, which the ``blocking=False`` call
  reports by raising :class:`~repro.service.pipeline.WouldBlock`
  having taken nothing: the same call, blocking, runs on the
  gateway's one ``repro-gw`` thread — which runs the rank itself under
  the request's deadline — and its completion callback re-arms the
  connection for write.  That thread's queue bound
  (:data:`DISPATCH_LIMIT`) is the one overload valve: a request that
  would queue past it is shed on the loop
  (:meth:`RankingService.shed_inline`), a rank and a context install
  alike.

Start one with :func:`make_aio_server` (``port=0`` picks a free port)
or the blocking :func:`serve` the CLI wraps; :mod:`repro.service.fleet`
hands each worker its prepared listener instead.  Shutdown is graceful
in-loop: stop accepting → close idle connections → let in-flight
responses finish (bounded by ``drain_grace``) → abort stragglers → stop
the loop.

Wire-side observability (open connections, read/parse/write stage
times, loop-lag percentiles) lands in
:class:`~repro.service.metrics.GatewayMetrics` and is surfaced as the
``gateway`` section of ``GET /metrics`` via
:meth:`RankingService.attach_gateway`.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from urllib.parse import quote, urlsplit

from repro import __version__
from repro.service.metrics import GatewayMetrics
from repro.service.pipeline import (
    RankAttempt,
    RankingService,
    ServiceRequest,
    ServiceResponse,
    WouldBlock,
)

__all__ = ["AioRankingServer", "make_aio_server", "serve"]

#: Cap on buffered request-head bytes (request line + headers).
MAX_HEAD_BYTES = 16384

#: Cap on accepted request bodies (context installs are tiny; anything
#: bigger is a client error, not a reason to buffer unbounded bytes).
MAX_BODY_BYTES = 1 << 20

#: The Server header — derived from the package version so it can never
#: drift from a release again.
SERVER_VERSION = f"repro-serve/{__version__}"

#: Pending-connection queue of every listener the gateway opens.
BACKLOG = 128

#: Seconds a connection may hold a *partial* request before a 408.
DEFAULT_READ_DEADLINE = 5.0

#: Calls queued for the ``repro-gw`` thread beyond which the loop sheds.
#: The thread runs only what the loop must not — mints, lock waits,
#: cold binds, journal writes — and one of those is a fraction of a
#: millisecond on tvtouch (a mint and its rank: ~0.2 ms median on one
#: Xeon core), so a full queue is tens of milliseconds of debt, well
#: inside the default 2 s deadline: a burst of cold tenants is queued,
#: not shed.  Past it, more queueing is pure latency debt.  One thread,
#: not a pool: the loop answers warm misses itself, and under the GIL
#: more threads would only take turns at the same interpreter.
DISPATCH_LIMIT = 256

_REASONS: dict[int, str] = {}


def _reason(status: int) -> str:
    phrase = _REASONS.get(status)
    if phrase is None:
        try:
            phrase = HTTPStatus(status).phrase
        except ValueError:
            phrase = "Unknown"
        _REASONS[status] = phrase
    return phrase


class _Request:
    """One fully buffered HTTP request, ready to route."""

    __slots__ = ("method", "target", "version", "headers", "body")

    def __init__(self, method: str, target: str, version: str, headers: dict, body: bytes):
        self.method = method
        self.target = target
        self.version = version
        self.headers = headers  # lower-cased names
        self.body = body


class _HttpConnection(asyncio.Protocol):
    """One keep-alive client connection on the gateway loop.

    Every method runs on the loop thread: executor completions
    re-enter through ``call_soon_threadsafe``.  The
    connection is *busy* while exactly one request is being answered;
    pipelined bytes wait in ``buffer`` until the response is written.
    """

    __slots__ = (
        "server",
        "service",
        "metrics",
        "transport",
        "buffer",
        "busy",
        "closing",
        "closed",
        "read_timer",
        "read_started",
    )

    def __init__(self, server: "AioRankingServer"):
        self.server = server
        self.service = server.service
        self.metrics = server.gateway_metrics
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()
        self.busy = False
        self.closing = False
        self.closed = False
        self.read_timer: asyncio.TimerHandle | None = None
        self.read_started: float | None = None

    # -- transport events --------------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        self.metrics.connection_opened()
        self.server._connections.add(self)
        if self.server._draining:
            # Accepted in the race window after shutdown began.
            self.closing = True
            transport.close()

    def connection_lost(self, exc) -> None:  # noqa: ARG002 - protocol API
        self.closed = True
        self._cancel_read_timer()
        self.server._connections.discard(self)
        self.metrics.connection_closed()

    def data_received(self, data: bytes) -> None:
        if self.closed or self.closing:
            return
        if self.read_started is None:
            self.read_started = time.perf_counter()
        self.buffer += data
        if not self.busy:
            self._process_buffer()

    # -- incremental parsing -----------------------------------------------
    def _process_buffer(self) -> None:
        if self.busy or self.closing or self.closed:
            return
        if not self.buffer:
            self.read_started = None
            self._cancel_read_timer()
            return
        started = time.perf_counter()
        request = self._try_parse()
        if request is None:
            # Partial request (or the parser failed the connection).
            if self.buffer and not self.closing and not self.closed:
                self._arm_read_timer()
            return
        self.metrics.parse.observe(time.perf_counter() - started)
        if self.read_started is not None:
            self.metrics.read.observe(time.perf_counter() - self.read_started)
            self.read_started = None
        self._cancel_read_timer()
        self.busy = True
        self.server.request_begun()
        try:
            self._handle(request)
        except Exception as exc:  # noqa: BLE001 - the gateway must answer
            self._finish(
                _plain_response(500, {"error": f"{type(exc).__name__}: {exc}"})
            )

    def _try_parse(self) -> _Request | None:
        """One request off the buffer, or None (partial / failed)."""
        buf = self.buffer
        head_end = buf.find(b"\r\n\r\n")
        if head_end < 0:
            if len(buf) > MAX_HEAD_BYTES:
                self._fail(431, "request head too large")
            return None
        lines = bytes(buf[:head_end]).split(b"\r\n")
        try:
            parts = lines[0].decode("latin-1").split()
        except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
            parts = []
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            self._fail(400, f"malformed request line: {lines[0][:80]!r}")
            return None
        method, target, version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(b":")
            if not sep:
                self._fail(400, f"malformed header line: {line[:80]!r}")
                return None
            headers[name.decode("latin-1").strip().lower()] = value.decode(
                "latin-1"
            ).strip()
        if "transfer-encoding" in headers:
            self._fail(501, "chunked request bodies are not supported")
            return None
        length = 0
        raw_length = headers.get("content-length")
        if raw_length is not None:
            try:
                length = int(raw_length)
            except ValueError:
                self._fail(400, f"malformed Content-Length header: {raw_length!r}")
                return None
            if length < 0:
                self._fail(400, f"malformed Content-Length header: {raw_length!r}")
                return None
        if length > MAX_BODY_BYTES:
            self._fail(413, f"request body over {MAX_BODY_BYTES} bytes")
            return None
        total = head_end + 4 + length
        if len(buf) < total:
            return None
        body = bytes(buf[head_end + 4 : total])
        del buf[:total]
        return _Request(method, target, version, headers, body)

    def _arm_read_timer(self) -> None:
        deadline = self.server.read_deadline
        if self.read_timer is None and deadline is not None:
            self.read_timer = self.server._loop.call_later(
                deadline, self._read_timed_out
            )

    def _cancel_read_timer(self) -> None:
        if self.read_timer is not None:
            self.read_timer.cancel()
            self.read_timer = None

    def _read_timed_out(self) -> None:
        self.read_timer = None
        if self.busy or self.closed or self.closing or not self.buffer:
            return
        self.metrics.count_read_timeout()
        self._fail(408, "request read timed out", count_bad=False)

    def _fail(self, status: int, message: str, *, count_bad: bool = True) -> None:
        """Answer a wire-level error and close; the connection state is
        unknown (unread body bytes, garbage framing), so reuse is unsafe."""
        if count_bad:
            self.metrics.count_bad_request()
        self.closing = True
        self.buffer.clear()
        self._cancel_read_timer()
        if not self.closed and self.transport is not None:
            payload = json.dumps({"error": message}).encode("utf-8")
            self.transport.write(
                self.server._head(status, len(payload), None, close=True) + payload
            )
            self.transport.close()

    # -- routing -----------------------------------------------------------
    def _handle(self, request: _Request) -> None:
        if request.version == "HTTP/1.0" and request.headers.get(
            "connection", ""
        ).lower() != "keep-alive":
            self.closing = True
        elif request.headers.get("connection", "").lower() == "close":
            self.closing = True
        url = urlsplit(request.target)
        if request.method == "GET":
            if url.path == "/rank":
                self._handle_rank(request, url.query)
            elif url.path == "/healthz":
                self._finish(_plain_response(200, self.service.health()))
            elif url.path == "/readyz":
                status, body = self.service.readiness()
                self._finish(_plain_response(status, body))
            elif url.path == "/metrics":
                self._finish(_plain_response(200, self.service.metrics_snapshot()))
            else:
                self._finish(
                    _plain_response(404, {"error": f"unknown path {url.path!r}"})
                )
        elif request.method == "POST":
            if url.path != "/context":
                self._finish(
                    _plain_response(404, {"error": f"unknown path {url.path!r}"})
                )
                return
            self._handle_context(request)
        else:
            self._finish(
                _plain_response(
                    501, {"error": f"unsupported method {request.method!r}"}
                )
            )

    def _handle_rank(self, request: _Request, query: str) -> None:
        header_timeout = request.headers.get("x-request-timeout")
        if header_timeout is not None:
            # Ahead of the query's own parameters: the parser keeps the
            # last ``timeout``, so the query's wins when it has one.
            query = f"timeout={quote(header_timeout, safe='')}&{query}"
        attempt = self.service.begin_rank(query)
        # A parse 400 or a cache hit is answered by begin_rank, a warm
        # miss by the non-blocking finish: both here, on the loop.
        try:
            response = attempt.response or self.service.finish_rank(attempt, blocking=False)
        except WouldBlock:
            self._dispatch(lambda: self.service.finish_rank(attempt), attempt, chaos=True)
        else:
            self._finish(response, chaos=True)

    def _handle_context(self, request: _Request) -> None:
        if not request.body:
            self._finish(_plain_response(400, {"error": "request body required"}))
            return
        try:
            payload = json.loads(request.body)
        except json.JSONDecodeError as exc:
            self._finish(_plain_response(400, {"error": f"invalid JSON body: {exc}"}))
            return
        if not isinstance(payload, dict) or "tenant" not in payload:
            self._finish(
                _plain_response(
                    400, {"error": "body must be {'tenant': ..., 'context': [...]}"}
                )
            )
            return
        context = payload.get("context", [])
        if isinstance(context, str):
            context = [context]
        if not isinstance(context, list):
            self._finish(
                _plain_response(
                    400,
                    {"error": "'context' must be a list of CONCEPT[:PROB] strings"},
                )
            )
            return
        tenant = str(payload["tenant"])
        try:
            response = self.service.install_context(tenant, context, blocking=False)
        except WouldBlock:
            self._dispatch(lambda: self.service.install_context(tenant, context), None)
        else:
            self._finish(response)

    # -- off-loop dispatch ---------------------------------------------------
    def _dispatch(
        self, call, attempt: RankAttempt | None, *, chaos: bool = False
    ) -> None:
        """Run one blocking pipeline call on the gateway executor, or shed it.

        The one place the overload valve is checked: with
        :data:`DISPATCH_LIMIT` calls already queued, more queueing is pure
        latency debt, so the request is answered on the loop by
        :meth:`RankingService.shed_inline` (``attempt`` is the begun
        rank, stale-servable; ``None`` for a context install).
        Otherwise the completion callback re-enters the loop and re-arms
        the connection for write.
        """
        server = self.server
        if server._pending_dispatch >= DISPATCH_LIMIT:
            self._finish(self.service.shed_inline(attempt), chaos=chaos)
            return
        server._pending_dispatch += 1
        loop = server._loop

        def run() -> None:
            try:
                response = call()
            except Exception as exc:  # noqa: BLE001 - the gateway must answer
                response = _plain_response(
                    500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            try:
                loop.call_soon_threadsafe(done, response)
            except RuntimeError:  # pragma: no cover - loop force-stopped
                server._note_dispatch_done()

        def done(response: ServiceResponse) -> None:
            server._pending_dispatch -= 1
            self._finish(response, chaos=chaos)

        server._executor.submit(run)

    # -- responding ----------------------------------------------------------
    def _finish(self, response: ServiceResponse, *, chaos: bool = False) -> None:
        """Write one response and re-arm the connection (loop thread)."""
        if not self.closed and self.transport is not None:
            close = self.closing or self.server._draining
            started = time.perf_counter()
            payload = response.encoded()
            head = self.server._head(
                response.status, len(payload), response.headers, close=close
            )
            self.transport.write(head + payload)
            self.metrics.write.observe(time.perf_counter() - started)
            self.metrics.count_request()
        self.busy = False
        self.server.request_done()
        if chaos:
            # After the response is on the wire: the chaos hook that
            # periodically SIGKILLs this worker mid-traffic (noop when
            # fault injection is inactive).
            self.service.fault_injector.maybe_kill_worker()
        if self.closed:
            return
        if self.closing or self.server._draining:
            self.transport.close()
            return
        if self.buffer:
            # Pipelined request already buffered: re-enter via the loop
            # (not recursion) so other connections get a turn first.
            self.read_started = time.perf_counter()
            self.server._loop.call_soon(self._process_buffer)
        else:
            self.read_started = None


def _plain_response(status: int, body: dict) -> ServiceResponse:
    return ServiceResponse(status=status, body=body)


class AioRankingServer:
    """An event-loop HTTP front bound to one :class:`RankingService`.

    Serves ``listener``, an already listening socket (:func:`make_aio_server`
    opens one; a fleet worker gets its own from the supervisor), and
    owns it from then on.  Callers own the lifecycle: ``serve_forever``
    on a thread of their choosing; ``request_shutdown`` (signal-safe,
    returns at once) or ``shutdown`` (blocks until the loop exits, after
    an in-loop graceful drain bounded by ``drain_grace``) to stop; then
    ``drain`` and ``server_close``.

    ``read_deadline`` bounds how long a connection may sit on a
    partial request (408 + close).  What the loop must not run goes to
    one ``repro-gw`` thread, and :data:`DISPATCH_LIMIT` bounds the
    requests queued for it before the loop sheds ranks and context
    installs inline.
    """

    def __init__(
        self,
        listener: socket.socket,
        service: RankingService,
        *,
        read_deadline: float | None = DEFAULT_READ_DEADLINE,
    ):
        self.service = service
        self.read_deadline = read_deadline
        self.drain_grace = 5.0
        self.gateway_metrics = GatewayMetrics()
        service.attach_gateway(self._gateway_section)
        self.socket = listener
        self.server_address = listener.getsockname()[:2]
        self._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-gw")
        self._pending_dispatch = 0  # loop-thread only
        self._connections: set[_HttpConnection] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wake: asyncio.Event | None = None
        self._draining = False
        # A plain flag, not an Event: a signal handler sets it, and a
        # handler must not take a lock its own thread may be holding.
        self._shutdown_requested = False
        self._stopped = threading.Event()
        self._stopped.set()  # not running yet
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._idle = threading.Event()
        self._idle.set()
        self._date_cache: tuple[int, bytes] = (0, b"")

    # -- inflight accounting -------------------------------------------------
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

    def _note_dispatch_done(self) -> None:
        # Fallback for a dispatch completing after the loop died.
        self.request_done()

    # -- response head -------------------------------------------------------
    def _head(
        self,
        status: int,
        length: int,
        headers: dict[str, str] | None,
        *,
        close: bool = False,
    ) -> bytes:
        now = int(time.time())
        if self._date_cache[0] != now:
            from email.utils import formatdate

            self._date_cache = (now, formatdate(now, usegmt=True).encode("latin-1"))
        lines = [
            f"HTTP/1.1 {status} {_reason(status)}\r\n"
            f"Server: {SERVER_VERSION}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {length}\r\n".encode("latin-1"),
            b"Date: " + self._date_cache[1] + b"\r\n",
        ]
        if headers:
            for name, value in headers.items():
                lines.append(f"{name}: {value}\r\n".encode("latin-1"))
        if close:
            lines.append(b"Connection: close\r\n")
        lines.append(b"\r\n")
        return b"".join(lines)

    # -- lifecycle -----------------------------------------------------------
    def serve_forever(self) -> None:
        """Run the loop until :meth:`shutdown` (blocking, on this thread)."""
        self._stopped.clear()
        loop = asyncio.new_event_loop()
        self._loop = loop
        self._wake = asyncio.Event()
        task = None
        try:
            task = loop.create_task(self._run())
            loop.run_until_complete(task)
        except BaseException:
            # Interrupted mid-run (KeyboardInterrupt through the signal
            # handler): the graceful path inside _run has not executed,
            # and once this loop dies nothing in flight can finish — so
            # trigger shutdown and run the task to completion first.
            if task is not None and not task.done():
                self._shutdown_requested = True
                self._wake.set()
                try:
                    loop.run_until_complete(
                        asyncio.wait_for(task, self.drain_grace + 1.0)
                    )
                except BaseException:  # second interrupt / drain overrun
                    task.cancel()
                    try:
                        loop.run_until_complete(
                            asyncio.gather(task, return_exceptions=True)
                        )
                    except BaseException:  # pragma: no cover - teardown
                        pass
            raise
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            except Exception:  # pragma: no cover - teardown best-effort
                pass
            loop.close()
            self._loop = None
            self._stopped.set()

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        if self._shutdown_requested:
            return
        server = await loop.create_server(
            lambda: _HttpConnection(self),
            sock=self.socket,
            backlog=BACKLOG,
            start_serving=True,
        )
        lag_task = loop.create_task(self._watch_lag())
        try:
            await self._wake.wait()
        finally:
            lag_task.cancel()
            self._draining = True
            server.close()
            try:
                await server.wait_closed()
            except Exception:  # pragma: no cover - teardown best-effort
                pass
            # Idle keep-alive connections close now; busy ones after
            # their in-flight response is written (see _finish).
            for conn in list(self._connections):
                if not conn.busy and conn.transport is not None:
                    conn.transport.close()
            deadline = loop.time() + max(0.0, self.drain_grace)
            while (
                (self.inflight > 0 or self._pending_dispatch > 0)
                and loop.time() < deadline
            ):
                await asyncio.sleep(0.01)
            for conn in list(self._connections):
                if conn.transport is not None:
                    conn.transport.abort()
            # One last turn of the loop so aborted transports settle.
            await asyncio.sleep(0)

    async def _watch_lag(self, interval: float = 0.25) -> None:
        """Measure how late the loop's timers fire (loop lag)."""
        loop = asyncio.get_running_loop()
        while True:
            started = loop.time()
            await asyncio.sleep(interval)
            self.gateway_metrics.loop_lag.observe(
                max(0.0, loop.time() - started - interval)
            )

    def request_shutdown(self) -> None:
        """Ask the loop to stop accepting and drain; returns at once.

        Only sets a flag and wakes the loop, so it is safe from any
        thread *and* from a signal handler running on the loop's own
        thread: nothing is raised into whatever callback the loop was
        in, and the drain in :meth:`_run` stays the one shutdown path.
        """
        self._shutdown_requested = True
        loop, wake = self._loop, self._wake
        if loop is not None and wake is not None:
            try:
                loop.call_soon_threadsafe(wake.set)
            except RuntimeError:  # loop already closed
                pass

    def shutdown(self) -> None:
        """Stop accepting, drain in-loop, stop the loop (thread-safe).

        Blocks until ``serve_forever`` has returned, so callers can
        ``drain`` and ``server_close`` immediately after.  Never call it
        on the loop's own thread (a signal handler there included):
        use :meth:`request_shutdown`.
        """
        self.request_shutdown()
        self._stopped.wait()

    def drain(self, grace: float, settle: float = 0.05) -> bool:
        """Wait up to ``grace`` seconds for in-flight requests to finish.

        The loop's own shutdown already drains (bounded by
        ``drain_grace``); this is the cross-thread confirmation: idle
        must still hold after a ``settle`` interval before it is
        believed.
        """
        deadline = time.monotonic() + max(0.0, grace)
        while True:
            if not self._idle.wait(timeout=max(0.0, deadline - time.monotonic())):
                return False
            time.sleep(min(settle, max(0.0, deadline - time.monotonic())))
            if self.inflight == 0:
                return True

    def server_close(self) -> None:
        self._shutdown_requested = True
        try:
            self.socket.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self._executor.shutdown(wait=False)
        self.service.attach_gateway(None)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def _gateway_section(self) -> dict:
        section = self.gateway_metrics.snapshot()
        section["kind"] = "aio"
        section["dispatch_limit"] = DISPATCH_LIMIT
        section["pending_dispatch"] = self._pending_dispatch
        section["read_deadline"] = self.read_deadline
        memo = ServiceRequest.from_query.cache_info()
        section["query_memo"] = {
            "hits": memo.hits,
            "misses": memo.misses,
            "size": memo.currsize,
            "max_size": memo.maxsize,
        }
        return section


def make_aio_server(
    service: RankingService, host: str = "127.0.0.1", port: int = 8080
) -> AioRankingServer:
    """Listen on ``host:port`` (``port=0`` picks a free port) with a
    gateway that is not yet running; an ``OSError`` means the address
    cannot be bound.

    Callers own the lifecycle — ``serve_forever()`` on a thread of their
    choosing, ``shutdown()`` + ``server_close()`` to stop.
    """
    return AioRankingServer(socket.create_server((host, port), backlog=BACKLOG), service)


def serve(
    service: RankingService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    grace: float = 5.0,
    ready=None,
) -> int:
    """Run the gateway until SIGTERM or SIGINT (the ``repro serve`` body).

    ``ready`` (if given) is called with the listening server — the CLI
    uses it to announce the ephemeral port.  Returns a process exit code.

    The loop runs on this thread, so a handler that raised would land
    inside whatever callback the loop was running — between a request's
    in-flight increment and its decrement the count never returned to
    zero and the drains ran out their grace.  Both signals therefore
    only *request* the shutdown (:meth:`AioRankingServer.request_shutdown`).
    """
    import signal as _signal

    server = make_aio_server(service, host, port)
    server.drain_grace = grace
    if ready is not None:
        ready(server)

    def _stop(signum, frame):  # noqa: ARG001 - signal API
        server.request_shutdown()

    previous = {}
    try:
        for signum in (_signal.SIGTERM, _signal.SIGINT):
            previous[signum] = _signal.signal(signum, _stop)
    except ValueError:  # not on the main thread (embedded use)
        pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # embedded use: no handler of ours installed
        pass
    finally:
        for signum, handler in previous.items():
            if handler is not None:  # None: not installed from Python
                _signal.signal(signum, handler)
        server.shutdown()
        server.drain(grace)
        service.close()
        server.server_close()
    return 0
