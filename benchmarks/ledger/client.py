"""The ledger's load generator: one thread, two keep-alive connections.

Closed loop — a connection sends its next request only when the
previous answer is complete, and a tenant never has two requests in
flight (each tenant device waits for its ranking before asking again),
so per-tenant order is the schedule's order and every answer can be
checked.  One ``selectors`` thread with pre-built request bytes that
parses only the status line and ``Content-Length``: the threaded
``http.client`` generator it replaces was itself the bottleneck on a
two-core box (±23 % run to run; this one repeats within a tenth).
"""

from __future__ import annotations

import json
import math
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from workloads import Op

__all__ = ["SEGMENT", "LoadClient", "Window", "calibrate", "percentile"]

RESPONSE_TIMEOUT = 60.0
#: seconds between ``sample`` readings; also the ledger's segment length.
SEGMENT = 1.0
#: seconds between calibration readings
TICK = 0.1
CALIBRATION_ROWS = 250


def calibrate() -> float:
    """CPU seconds this thread needs for a fixed piece of server-like work.

    How fast the host is running right now, as the generator's core —
    which is the server's core — sees it: thread CPU time, so being
    preempted by the server is not counted.  The work allocates, hashes,
    sorts and encodes, like a request does.  (A bare arithmetic loop
    under-reads a slow host: over 24 runs the server's times grew as
    the 1.2-1.5th power of that loop's, but as the 0.85-1.0th of this
    one's.)  About 0.4 ms on the build box: a reading every ``TICK``
    costs 0.4 % of the core and delays fewer than one answer in a
    hundred.
    """
    started = time.thread_time()
    rows = [
        {"document": f"doc_{index}", "score": index * 0.5} for index in range(CALIBRATION_ROWS)
    ]
    rows.sort(key=lambda row: -row["score"])
    json.dumps(rows)
    return time.thread_time() - started


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (need not be sorted)."""
    ordered = sorted(samples)
    rank = math.ceil(round(len(ordered) * fraction, 9))  # 0.95 * 100 is 95.00000000000001
    return ordered[max(1, rank) - 1]


@dataclass
class Window:
    """What one driven stretch of traffic observed, per operation."""

    ops: list[Op] = field(default_factory=list)
    sent: list[float] = field(default_factory=list)
    done: list[float] = field(default_factory=list)
    status: list[int] = field(default_factory=list)  # 0 = transport error
    kept: dict[int, bytes] = field(default_factory=dict)  # position -> body
    samples: list[float] = field(default_factory=list)  # one per SEGMENT boundary
    ticks: list[tuple[float, float]] = field(default_factory=list)  # (when, calibrate())
    mark: float | None = None  # the reading taken at the n-th answer
    started: float = 0.0
    ended: float = 0.0
    cpu_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.ended - self.started

    def latencies_ms(self, kind: str) -> list[float]:
        return [
            (done - sent) * 1000.0
            for op, sent, done, status in zip(self.ops, self.sent, self.done, self.status)
            if op.kind == kind and status == 200
        ]


class _Conn:
    __slots__ = ("sock", "buf", "slot", "tenant", "status", "total", "head_end")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buf = bytearray()
        self.slot: int | None = None  # position in the window of the op in flight
        self.tenant: str | None = None
        self.status = 0
        self.total = -1  # full response length once the head is parsed
        self.head_end = -1


def _parse_head(buf: bytearray) -> tuple[int, int, int] | None:
    """``(status, head_end, total_length)`` once the head is buffered."""
    head_end = buf.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    status = int(buf[9:12])
    at = buf.find(b"Content-Length: ", 0, head_end)
    length = int(buf[at + 16 : buf.find(b"\r", at)]) if at >= 0 else 0
    return status, head_end, head_end + 4 + length


class LoadClient:
    """Two (by default) keep-alive loopback connections and one selector."""

    def __init__(self, port: int, connections: int = 2, host: str = "127.0.0.1"):
        self._address = (host, port)
        self._selector = selectors.DefaultSelector()
        self._conns = [self._connect() for _ in range(connections)]

    def _connect(self) -> _Conn:
        sock = socket.create_connection(self._address, timeout=RESPONSE_TIMEOUT)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Conn(sock)
        self._selector.register(sock, selectors.EVENT_READ, conn)
        return conn

    def _reconnect(self, conn: _Conn) -> None:
        self._selector.unregister(conn.sock)
        conn.sock.close()
        fresh = self._connect()
        self._conns[self._conns.index(conn)] = fresh

    def close(self) -> None:
        for conn in self._conns:
            self._selector.unregister(conn.sock)
            conn.sock.close()
        self._conns = []
        self._selector.close()

    def request(self, payload: bytes) -> tuple[int, bytes]:
        """One blocking exchange on the first connection (control traffic)."""
        conn = self._conns[0]
        conn.sock.sendall(payload)
        buf = bytearray()
        parsed = None
        while parsed is None or len(buf) < parsed[2]:
            data = conn.sock.recv(1 << 20)
            if not data:
                raise ConnectionError("server closed the control connection")
            buf += data
            if parsed is None:
                parsed = _parse_head(buf)
        status, head_end, total = parsed
        return status, bytes(buf[head_end + 4 : total])

    def get(self, path: str) -> tuple[int, bytes]:
        return self.request(f"GET {path} HTTP/1.1\r\nHost: ledger\r\n\r\n".encode("latin-1"))

    def drive(
        self,
        ops: Iterable[Op],
        *,
        seconds: float | None = None,
        keep_every: int = 0,
        lockstep: bool = False,
        sample: Callable[[], float] | None = None,
        mark: tuple[int, Callable[[], float]] | None = None,
    ) -> Window:
        """Issue ``ops`` closed-loop until they run out or ``seconds`` pass.

        Every ``keep_every``-th answer's body is kept for re-checking
        after the clock stops (0 keeps none); every status is recorded.
        Requests in flight when the time is up are completed and count.
        With ``lockstep`` the connections send together and wait for
        each other — a herd whose devices see the same context shift at
        the same moment — instead of drifting in and out of phase.
        ``sample`` is read at the start and then every ``SEGMENT``
        seconds into ``Window.samples`` (the server's CPU clock, so
        each segment knows what it cost).  A :func:`calibrate` reading
        goes into ``Window.ticks`` every ``TICK``, so each stretch also
        knows how fast the host was running.  ``mark=(n, read)`` stores
        ``read()`` in ``Window.mark`` when the ``n``-th answer arrives:
        a reading at a fixed amount of work, however long it took.
        """
        window = Window()
        stream = iter(ops)
        pending: Op | None = None
        exhausted = False
        inflight = 0
        answers = 0
        cpu_started = time.process_time()
        window.started = time.perf_counter()
        deadline = None if seconds is None else window.started + seconds
        next_sample = next_tick = window.started
        answered = window.started
        while True:
            now = time.perf_counter()
            while sample is not None and now >= next_sample:
                window.samples.append(sample())
                next_sample += SEGMENT
            if now >= next_tick:
                window.ticks.append((now, calibrate()))
                next_tick = max(next_tick + TICK, now)  # one reading after a stall, not a burst
            if (
                not exhausted
                and not (lockstep and inflight)
                and (deadline is None or now < deadline)
            ):
                for conn in self._conns:
                    if conn.slot is not None:
                        continue
                    if pending is None:
                        pending = next(stream, None)
                        if pending is None:
                            exhausted = True
                            break
                    if any(other.tenant == pending.tenant for other in self._conns):
                        break  # that tenant's device is still waiting for its answer
                    conn.slot = len(window.ops)
                    conn.tenant = pending.tenant
                    window.ops.append(pending)
                    window.done.append(0.0)
                    window.status.append(0)
                    window.sent.append(time.perf_counter())
                    try:
                        conn.sock.sendall(pending.payload)
                    except OSError:
                        self._finish(window, conn, 0)
                        self._reconnect(conn)
                    else:
                        inflight += 1
                    pending = None
            if inflight == 0:
                break
            due = next_tick if sample is None else min(next_sample, next_tick)
            events = self._selector.select(max(0.0, due - now))
            if events:
                answered = time.perf_counter()
            elif time.perf_counter() - answered < RESPONSE_TIMEOUT:
                continue  # only a sample or a calibration reading fell due
            else:  # nothing answered in time: fail what is in flight
                for conn in list(self._conns):
                    if conn.slot is not None:
                        self._finish(window, conn, 0)
                        self._reconnect(conn)
                inflight = 0
                answered = time.perf_counter()
                continue
            for key, _mask in events:
                conn = key.data
                try:
                    data = conn.sock.recv(1 << 20)
                except OSError:
                    data = b""
                if not data:
                    if conn.slot is not None:
                        self._finish(window, conn, 0)
                        inflight -= 1
                    self._reconnect(conn)
                    continue
                conn.buf += data
                if conn.total < 0:
                    parsed = _parse_head(conn.buf)
                    if parsed is None:
                        continue
                    conn.status, conn.head_end, conn.total = parsed
                if len(conn.buf) >= conn.total:
                    slot = conn.slot
                    if keep_every and slot % keep_every == 0:
                        window.kept[slot] = bytes(conn.buf[conn.head_end + 4 : conn.total])
                    del conn.buf[: conn.total]
                    self._finish(window, conn, conn.status)
                    inflight -= 1
                    answers += 1
                    if mark is not None and answers == mark[0]:
                        window.mark = mark[1]()
        window.ended = max(window.done, default=window.started)
        window.cpu_seconds = time.process_time() - cpu_started
        return window

    @staticmethod
    def _finish(window: Window, conn: _Conn, status: int) -> None:
        window.done[conn.slot] = time.perf_counter()
        window.status[conn.slot] = status
        conn.slot = None
        conn.tenant = None
        conn.total = -1
