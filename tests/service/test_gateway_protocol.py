"""Wire-level protocol behaviour of the HTTP gateway.

Raw-socket tests (no ``urllib`` smoothing): pipelined keep-alive
requests, slow/partial header delivery, oversized bodies, malformed
request lines and Content-Length headers, and mid-response client
disconnects.  Each case asserts the right status code *and* that the
gateway is still healthy afterwards — no wedged loop, in-flight
accounting back to zero.
"""

import contextlib
import email.utils
import json
import socket
import threading
import time

import pytest

from repro.reason import clear_registry
from repro.service import RankingService, ServiceConfig, WouldBlock, make_aio_server
from repro.service import aio
from repro.service.aio import (
    MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
    SERVER_VERSION,
    AioRankingServer,
)
from repro.tenants import TenantRegistry
from repro.workloads import build_tvtouch

#: Short slow-client deadline so the 408 path is testable in wall time.
READ_DEADLINE = 0.5


def tvtouch_service() -> RankingService:
    registry = TenantRegistry(build_tvtouch(), max_sessions=64)
    return RankingService(registry, ServiceConfig())


@contextlib.contextmanager
def running(server: AioRankingServer):
    """Serve ``server`` on a thread; shut it down and close it on exit."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture()
def gateway():
    clear_registry()
    server = AioRankingServer(
        socket.create_server(("127.0.0.1", 0)),
        tvtouch_service(),
        read_deadline=READ_DEADLINE,
    )
    with running(server):
        yield server
    clear_registry()


class Wire:
    """A raw client connection with a buffered response reader.

    Pipelined servers may deliver several responses in one segment;
    the buffer keeps the surplus for the next :meth:`read_response`.
    """

    def __init__(self, server):
        host, port = server.server_address[:2]
        self.sock = socket.create_connection((host, port), timeout=10)
        self.sock.settimeout(10)
        self.buffer = b""

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def close(self) -> None:
        self.sock.close()

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError(f"connection closed: buffer={self.buffer!r}")
        self.buffer += chunk

    def read_response(self) -> tuple[int, dict, bytes]:
        """One HTTP response off the wire: (status, headers, body)."""
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        head, _, self.buffer = self.buffer.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            headers[name.decode().strip().lower()] = value.decode().strip()
        length = int(headers.get("content-length", 0))
        while len(self.buffer) < length:
            self._fill()
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        return status, headers, body

    def assert_closed(self) -> None:
        """The server hangs up: EOF (never a fresh response)."""
        assert self.sock.recv(65536) == b""


def assert_still_serving(server) -> None:
    """The gateway answers a fresh connection and drains to idle."""
    wire = Wire(server)
    try:
        wire.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        status, _, body = wire.read_response()
        assert status == 200
        assert json.loads(body)["status"] == "ok"
    finally:
        wire.close()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and server.inflight:
        time.sleep(0.01)
    assert server.inflight == 0


class TestKeepAliveAndPipelining:
    def test_sequential_requests_reuse_one_connection(self, gateway):
        wire = Wire(gateway)
        try:
            for _ in range(3):
                wire.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                status, headers, _ = wire.read_response()
                assert status == 200
                assert headers.get("connection") != "close"
        finally:
            wire.close()
        assert_still_serving(gateway)

    def test_pipelined_requests_answer_in_order(self, gateway):
        wire = Wire(gateway)
        try:
            wire.send(
                b"GET /rank?tenant=pipe&context=Weekend&top_k=1 HTTP/1.1\r\nHost: t\r\n\r\n"
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                b"GET /readyz HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            first = json.loads(wire.read_response()[2])
            assert first["items"][0]["position"] == 1  # /rank answered first
            assert json.loads(wire.read_response()[2])["status"] == "ok"
            assert json.loads(wire.read_response()[2])["status"] == "ready"
        finally:
            wire.close()
        assert_still_serving(gateway)

    def test_request_split_across_many_packets_still_parses(self, gateway):
        wire = Wire(gateway)
        try:
            for piece in (
                b"GET /health",
                b"z HTTP/1.1\r\n",
                b"Host: t\r\n",
                b"\r\n",
            ):
                wire.send(piece)
                time.sleep(0.02)
            assert wire.read_response()[0] == 200
        finally:
            wire.close()
        assert_still_serving(gateway)


class TestSlowClients:
    def test_partial_head_hits_the_read_deadline(self, gateway):
        wire = Wire(gateway)
        try:
            wire.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\n")  # never finished
            # The loop answers 408 and closes once the deadline passes.
            status, headers, _ = wire.read_response()
            assert status == 408
            assert headers.get("connection") == "close"
            section = gateway.service.metrics_snapshot()["gateway"]
            assert section["read_timeouts"] >= 1
        finally:
            wire.close()
        assert_still_serving(gateway)

    def test_idle_keep_alive_connection_is_not_timed_out(self, gateway):
        # No bytes at all: the connection is idle, not slow — it must
        # survive past the read deadline and then serve normally.
        wire = Wire(gateway)
        try:
            time.sleep(READ_DEADLINE + 0.2)
            wire.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            assert wire.read_response()[0] == 200
        finally:
            wire.close()
        assert_still_serving(gateway)


class TestMalformedRequests:
    def test_malformed_request_line_is_400(self, gateway):
        wire = Wire(gateway)
        try:
            wire.send(b"GET / extra HTTP/1.1\r\n\r\n")
            assert wire.read_response()[0] == 400
        finally:
            wire.close()
        assert_still_serving(gateway)

    def test_garbage_request_line_does_not_wedge(self, gateway):
        wire = Wire(gateway)
        try:
            wire.send(b"NOT-EVEN-HTTP\r\n\r\n")
            assert wire.read_response()[0] == 400
            # Then the connection dies.
            with pytest.raises(ConnectionError):
                while True:
                    wire.read_response()
        finally:
            wire.close()
        assert_still_serving(gateway)

    def test_malformed_content_length_is_400(self, gateway):
        wire = Wire(gateway)
        try:
            wire.send(
                b"POST /context HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: banana\r\n\r\n"
            )
            status, _, body = wire.read_response()
            assert status == 400
            assert "Content-Length" in json.loads(body)["error"]
        finally:
            wire.close()
        assert_still_serving(gateway)

    def test_oversized_body_is_413(self, gateway):
        wire = Wire(gateway)
        try:
            wire.send(
                b"POST /context HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 9999999\r\n\r\n"
            )
            status, headers, body = wire.read_response()
            assert status == 413
            assert "bytes" in json.loads(body)["error"]
            assert headers.get("connection") == "close"
            # The unread body poisons the connection: the server hangs up.
            wire.assert_closed()
        finally:
            wire.close()
        assert_still_serving(gateway)

    def test_missing_body_is_400_and_keeps_the_connection(self, gateway):
        wire = Wire(gateway)
        try:
            wire.send(b"POST /context HTTP/1.1\r\nHost: t\r\n\r\n")
            status, _, body = wire.read_response()
            assert status == 400
            assert "body" in json.loads(body)["error"]
            # Framing was intact (zero-length body): reuse is safe.
            wire.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            assert wire.read_response()[0] == 200
        finally:
            wire.close()
        assert_still_serving(gateway)

    def test_oversized_head_is_431_and_closes(self, gateway):
        wire = Wire(gateway)
        try:
            padding = b"a" * (MAX_HEAD_BYTES + 100)
            wire.send(b"GET /healthz HTTP/1.1\r\nX-Pad: " + padding)
            status, headers, body = wire.read_response()
            assert status == 431
            assert "too large" in json.loads(body)["error"]
            assert headers.get("connection") == "close"
            wire.assert_closed()
        finally:
            wire.close()
        assert_still_serving(gateway)

    def test_chunked_request_body_is_501_and_closes(self, gateway):
        wire = Wire(gateway)
        try:
            wire.send(
                b"POST /context HTTP/1.1\r\nHost: t\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
            )
            status, headers, body = wire.read_response()
            assert status == 501
            assert "chunked" in json.loads(body)["error"]
            assert headers.get("connection") == "close"
            wire.assert_closed()
        finally:
            wire.close()
        assert_still_serving(gateway)

    def test_header_line_without_a_colon_is_400(self, gateway):
        wire = Wire(gateway)
        try:
            wire.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\nNoColonHere\r\n\r\n")
            status, headers, body = wire.read_response()
            assert status == 400
            assert "malformed header line" in json.loads(body)["error"]
            assert headers.get("connection") == "close"
        finally:
            wire.close()
        assert_still_serving(gateway)

    def test_negative_content_length_is_400(self, gateway):
        wire = Wire(gateway)
        try:
            wire.send(
                b"POST /context HTTP/1.1\r\nHost: t\r\nContent-Length: -1\r\n\r\n"
            )
            status, _, body = wire.read_response()
            assert status == 400
            assert "Content-Length" in json.loads(body)["error"]
        finally:
            wire.close()
        assert_still_serving(gateway)

    def test_body_exactly_at_the_cap_is_accepted(self, gateway):
        payload = json.dumps({"tenant": "cap", "context": ["Weekend"]}).encode()
        payload += b" " * (MAX_BODY_BYTES - len(payload))  # JSON allows trailing space
        wire = Wire(gateway)
        try:
            wire.send(
                b"POST /context HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                + payload
            )
            status, headers, body = wire.read_response()
            assert status == 200
            assert json.loads(body)["installed"] == 1
            assert headers.get("connection") != "close"
        finally:
            wire.close()
        assert_still_serving(gateway)

    def test_body_one_byte_over_the_cap_is_413(self, gateway):
        wire = Wire(gateway)
        try:
            wire.send(
                b"POST /context HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
            )
            assert wire.read_response()[0] == 413
            wire.assert_closed()
        finally:
            wire.close()
        assert_still_serving(gateway)


def post_context(payload: bytes) -> bytes:
    return (
        b"POST /context HTTP/1.1\r\nHost: t\r\n"
        + f"Content-Length: {len(payload)}\r\n\r\n".encode()
        + payload
    )


class TestConnectionSemantics:
    def test_connection_close_header_ends_the_connection(self, gateway):
        wire = Wire(gateway)
        try:
            wire.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            status, headers, _ = wire.read_response()
            assert status == 200
            assert headers.get("connection") == "close"
            wire.assert_closed()
        finally:
            wire.close()
        assert_still_serving(gateway)

    def test_http10_closes_by_default(self, gateway):
        wire = Wire(gateway)
        try:
            wire.send(b"GET /healthz HTTP/1.0\r\n\r\n")
            status, headers, _ = wire.read_response()
            assert status == 200
            assert headers.get("connection") == "close"
            wire.assert_closed()
        finally:
            wire.close()
        assert_still_serving(gateway)

    def test_http10_keep_alive_is_honoured(self, gateway):
        wire = Wire(gateway)
        try:
            for _ in range(2):
                wire.send(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                status, headers, _ = wire.read_response()
                assert status == 200
                assert headers.get("connection") != "close"
        finally:
            wire.close()
        assert_still_serving(gateway)

    def test_response_head_names_server_type_date_and_length(self, gateway):
        wire = Wire(gateway)
        try:
            wire.send(b"GET /rank?tenant=head&context=Weekend HTTP/1.1\r\nHost: t\r\n\r\n")
            status, headers, body = wire.read_response()
        finally:
            wire.close()
        assert status == 200
        assert headers["server"] == SERVER_VERSION
        assert headers["content-type"] == "application/json"
        assert int(headers["content-length"]) == len(body)
        sent = email.utils.parsedate_to_datetime(headers["date"]).timestamp()
        assert abs(sent - time.time()) < 60
        assert json.loads(body)["tenant"] == "head"

    def test_pipelined_install_is_seen_by_the_following_rank(self, gateway):
        # The next buffered request is parsed only after the current
        # response is written, so the off-loop install completes first.
        wire = Wire(gateway)
        try:
            wire.send(
                post_context(b'{"tenant": "seq", "context": ["Weekend", "Breakfast"]}')
                + b"GET /rank?tenant=seq&top_k=1 HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            status, _, body = wire.read_response()
            assert status == 200 and json.loads(body)["installed"] == 2
            status, _, body = wire.read_response()
            assert status == 200
            assert json.loads(body)["items"][0]["document"] == "channel5_news"
        finally:
            wire.close()
        assert_still_serving(gateway)

    def test_body_split_across_packets_is_reassembled(self, gateway):
        payload = b'{"tenant": "slow", "context": ["Weekend"]}'
        request = post_context(payload)
        wire = Wire(gateway)
        try:
            cut = len(request) - len(payload) // 2
            for piece in (request[:20], request[20:cut], request[cut:]):
                wire.send(piece)
                time.sleep(0.02)
            status, _, body = wire.read_response()
            assert status == 200
            assert json.loads(body)["installed"] == 1
        finally:
            wire.close()
        assert_still_serving(gateway)


class TestRouting:
    def test_unsupported_method_is_501_and_keeps_the_connection(self, gateway):
        wire = Wire(gateway)
        try:
            wire.send(b"PUT /rank HTTP/1.1\r\nHost: t\r\n\r\n")
            status, headers, body = wire.read_response()
            assert status == 501
            assert "unsupported method" in json.loads(body)["error"]
            assert headers.get("connection") != "close"
            wire.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            assert wire.read_response()[0] == 200
        finally:
            wire.close()
        assert_still_serving(gateway)

    def test_post_to_an_unknown_path_is_404(self, gateway):
        wire = Wire(gateway)
        try:
            wire.send(b"POST /rank HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n{}")
            status, _, body = wire.read_response()
            assert status == 404
            assert "/rank" in json.loads(body)["error"]
            wire.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            assert wire.read_response()[0] == 200
        finally:
            wire.close()
        assert_still_serving(gateway)

    @pytest.mark.parametrize(
        "payload, message",
        [
            (b'["Weekend"]', "body must be"),
            (b'{"context": ["Weekend"]}', "body must be"),
            (b'{"tenant": "a", "context": 5}', "must be a list"),
        ],
        ids=["not-an-object", "no-tenant", "context-not-a-list"],
    )
    def test_misshapen_context_body_is_400(self, gateway, payload, message):
        wire = Wire(gateway)
        try:
            wire.send(post_context(payload))
            status, _, body = wire.read_response()
            assert status == 400
            assert message in json.loads(body)["error"]
        finally:
            wire.close()
        assert_still_serving(gateway)

    def test_single_string_context_installs_one_spec(self, gateway):
        wire = Wire(gateway)
        try:
            wire.send(post_context(b'{"tenant": "one", "context": "Weekend"}'))
            status, _, body = wire.read_response()
            assert status == 200
            assert json.loads(body)["context"] == ["Weekend"]
        finally:
            wire.close()
        assert_still_serving(gateway)

    def test_query_timeout_wins_over_the_header(self, gateway):
        wire = Wire(gateway)
        try:
            wire.send(
                b"GET /rank?tenant=t&top_k=1&timeout=5 HTTP/1.1\r\nHost: t\r\n"
                b"X-Request-Timeout: nonsense\r\n\r\n"
            )
            assert wire.read_response()[0] == 200
        finally:
            wire.close()
        assert_still_serving(gateway)

    def test_exception_on_the_loop_is_500_and_the_gateway_survives(
        self, gateway, monkeypatch
    ):
        def boom():
            raise RuntimeError("boom")

        monkeypatch.setattr(gateway.service, "health", boom)
        wire = Wire(gateway)
        try:
            wire.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            status, _, body = wire.read_response()
            assert status == 500
            assert json.loads(body)["error"] == "RuntimeError: boom"
        finally:
            wire.close()
        monkeypatch.undo()
        assert_still_serving(gateway)

    def test_exception_off_the_loop_is_500_and_the_gateway_survives(
        self, gateway, monkeypatch
    ):
        def boom(attempt, *, blocking=True):
            if not blocking:
                raise WouldBlock("busy")  # the loop's try defers: the failure is off the loop
            raise RuntimeError("off-loop boom")

        monkeypatch.setattr(gateway.service, "finish_rank", boom)
        wire = Wire(gateway)
        try:
            wire.send(b"GET /rank?tenant=x&context=Weekend HTTP/1.1\r\nHost: t\r\n\r\n")
            status, _, body = wire.read_response()
            assert status == 500
            assert json.loads(body)["error"] == "RuntimeError: off-loop boom"
            # The connection is re-armed after an off-loop failure.
            wire.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            assert wire.read_response()[0] == 200
        finally:
            wire.close()
        assert_still_serving(gateway)


class TestClientDisconnects:
    def test_disconnect_before_the_response_does_not_wedge(self, gateway):
        # Fire a real rank (still in flight), then vanish without
        # reading the response.
        for _ in range(3):
            wire = Wire(gateway)
            wire.send(
                b"GET /rank?tenant=gone&context=Weekend&top_k=1 HTTP/1.1\r\n"
                b"Host: t\r\n\r\n"
            )
            wire.close()
        assert_still_serving(gateway)

    def test_disconnect_mid_request_head_does_not_wedge(self, gateway):
        wire = Wire(gateway)
        wire.send(b"GET /rank?tenant=gone HTTP/1.1\r\nHost")
        wire.close()
        assert_still_serving(gateway)


class TestGatewayMetricsSection:
    def test_gateway_reports_wire_metrics(self, gateway):
        wire = Wire(gateway)
        try:
            wire.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            assert wire.read_response()[0] == 200
        finally:
            wire.close()
        # The loop counts the request just *after* writing the response,
        # so give it a beat to run that line.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            section = gateway.service.metrics_snapshot()["gateway"]
            if section["requests"] >= 1:
                break
            time.sleep(0.01)
        assert section["kind"] == "aio"
        assert section["requests"] >= 1
        assert section["connections"]["accepted"] >= 1
        assert set(section["stages"]) == {"read", "parse", "write"}
        assert "p95_ms" in section["loop_lag"]

    def test_section_is_unattached_without_a_front_and_after_close(self):
        service = tvtouch_service()
        assert service.metrics_snapshot()["gateway"] == {"attached": False}
        server = AioRankingServer(socket.create_server(("127.0.0.1", 0)), service)
        assert service.metrics_snapshot()["gateway"]["attached"] is True
        server.server_close()
        assert service.metrics_snapshot()["gateway"] == {"attached": False}
        service.close()

    def test_section_reports_the_gateway_configuration(self, gateway):
        section = gateway.service.metrics_snapshot()["gateway"]
        assert section["read_deadline"] == READ_DEADLINE
        assert section["dispatch_limit"] == aio.DISPATCH_LIMIT == 256


class TestDispatchQueue:
    def test_saturated_queue_sheds_misses_on_the_loop(self, monkeypatch):
        clear_registry()
        monkeypatch.setattr(aio, "DISPATCH_LIMIT", 0)
        service = tvtouch_service()
        server = AioRankingServer(socket.create_server(("127.0.0.1", 0)), service)
        with running(server):
            wire = Wire(server)
            try:
                wire.send(
                    b"GET /rank?tenant=shed&context=Weekend HTTP/1.1\r\nHost: t\r\n\r\n"
                )
                status, headers, body = wire.read_response()
                assert status == 503
                assert "dispatch queue full" in json.loads(body)["error"]
                assert int(headers["retry-after"]) >= 1
                # Inline endpoints never queue, so they still answer.
                wire.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                assert wire.read_response()[0] == 200
            finally:
                wire.close()
            snapshot = service.metrics_snapshot()
            assert snapshot["resilience"]["counters"]["shed.overload"] == 1
            assert snapshot["outcomes"]["rejected"] == 1
            assert_still_serving(server)
        service.close()
        clear_registry()

    def test_saturated_queue_sheds_context_installs_too(self, monkeypatch):
        # POST /context may mint a whole session: the same valve as /rank.
        clear_registry()
        monkeypatch.setattr(aio, "DISPATCH_LIMIT", 0)
        service = tvtouch_service()
        server = AioRankingServer(socket.create_server(("127.0.0.1", 0)), service)
        with running(server):
            wire = Wire(server)
            try:
                body = b'{"tenant": "shed", "context": ["Weekend"]}'
                wire.send(
                    b"POST /context HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )
                status, headers, payload = wire.read_response()
                assert status == 503
                answer = json.loads(payload)
                assert "dispatch queue full" in answer["error"]
                assert "stale" not in answer
                assert int(headers["retry-after"]) >= 1
            finally:
                wire.close()
            assert service.registry.info().minted == 0  # nothing was installed
            snapshot = service.metrics_snapshot()
            assert snapshot["resilience"]["counters"]["shed.overload"] == 1
            assert snapshot["outcomes"] == {"rejected": 1}
            assert_still_serving(server)
        service.close()
        clear_registry()

    def test_every_deferred_call_runs_on_the_one_gateway_thread(self):
        # Every request is a new tenant, so every one mints: the loop
        # defers each rank and each context install to the gateway.
        clear_registry()
        service = tvtouch_service()
        ran_on = []
        for name in ("finish_rank", "install_context"):
            real = getattr(service, name)

            def spy(*args, _real=real, blocking=True, **kwargs):
                if blocking:
                    ran_on.append(threading.current_thread())
                return _real(*args, blocking=blocking, **kwargs)

            setattr(service, name, spy)
        server = AioRankingServer(socket.create_server(("127.0.0.1", 0)), service)
        connections, rounds = 4, 5
        statuses: list[int] = []
        start = threading.Barrier(connections)

        def client(index: int) -> None:
            wire = Wire(server)
            try:
                start.wait(10)
                for round_ in range(rounds):
                    wire.send(
                        b"GET /rank?tenant=r%d-%d&context=Weekend HTTP/1.1\r\n"
                        b"Host: t\r\n\r\n" % (index, round_)
                    )
                    statuses.append(wire.read_response()[0])
                    body = b'{"tenant": "c%d-%d", "context": ["Breakfast"]}' % (
                        index, round_,
                    )
                    wire.send(
                        b"POST /context HTTP/1.1\r\nHost: t\r\n"
                        b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                    )
                    statuses.append(wire.read_response()[0])
            finally:
                wire.close()

        with running(server):
            clients = [
                threading.Thread(target=client, args=(index,))
                for index in range(connections)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(30)
            assert statuses == [200] * (2 * connections * rounds)
            assert len(ran_on) == 2 * connections * rounds  # one deferral each
            assert len(set(ran_on)) == 1
            assert ran_on[0].name.startswith("repro-gw")
            snapshot = service.metrics_snapshot()
            assert snapshot["registry"]["minted"] == 2 * connections * rounds
            assert snapshot["registry"]["pinned"] == 0
            assert snapshot["gateway"]["pending_dispatch"] == 0
        service.close()
        clear_registry()

    def test_every_dispatch_comes_back(self):
        clear_registry()
        service = tvtouch_service()
        server = AioRankingServer(socket.create_server(("127.0.0.1", 0)), service)
        with running(server):
            wire = Wire(server)
            try:
                body = b'{"tenant": "alice", "context": ["Weekend"]}'
                wire.send(
                    b"POST /context HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )
                assert wire.read_response()[0] == 200
                for tenant in (b"alice", b"bob"):
                    wire.send(
                        b"GET /rank?tenant=%s&context=Breakfast HTTP/1.1\r\n"
                        b"Host: t\r\n\r\n" % tenant
                    )
                    assert wire.read_response()[0] == 200
                wire.send(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
                status, _headers, payload = wire.read_response()
            finally:
                wire.close()
            assert status == 200
            metrics = json.loads(payload)
            assert metrics["gateway"]["pending_dispatch"] == 0
            assert metrics["registry"]["pinned"] == 0
        service.close()
        clear_registry()


class TestReadDeadlineOff:
    def test_no_deadline_lets_a_slow_head_finish(self):
        clear_registry()
        server = AioRankingServer(
            socket.create_server(("127.0.0.1", 0)),
            tvtouch_service(),
            read_deadline=None,
        )
        with running(server):
            wire = Wire(server)
            try:
                wire.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\n")
                time.sleep(READ_DEADLINE + 0.2)
                wire.send(b"\r\n")
                assert wire.read_response()[0] == 200
            finally:
                wire.close()
            assert server.gateway_metrics.snapshot()["read_timeouts"] == 0
        clear_registry()


class TestLifecycle:
    def test_shutdown_requested_before_serving_returns_at_once(self):
        server = AioRankingServer(
            socket.create_server(("127.0.0.1", 0)), tvtouch_service()
        )
        server.request_shutdown()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()
        server.server_close()
        server.service.close()

    def test_shutdown_closes_idle_keep_alive_connections(self):
        clear_registry()
        server = AioRankingServer(
            socket.create_server(("127.0.0.1", 0)), tvtouch_service()
        )
        with running(server):
            wire = Wire(server)
            wire.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            assert wire.read_response()[0] == 200
            server.shutdown()
            try:
                wire.assert_closed()
            finally:
                wire.close()
        server.service.close()
        clear_registry()

    def test_a_closed_gateway_releases_its_port(self):
        server = make_aio_server(tvtouch_service(), port=0)
        host, port = server.server_address
        with running(server):
            pass
        server.service.close()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection((host, port), timeout=5).close()

    def test_make_aio_server_on_a_busy_port_raises_oserror(self):
        service = tvtouch_service()
        with socket.create_server(("127.0.0.1", 0)) as held:
            port = held.getsockname()[1]
            with pytest.raises(OSError):
                make_aio_server(service, port=port)
        service.close()

    def test_url_names_the_bound_address(self):
        server = make_aio_server(tvtouch_service(), port=0)
        try:
            host, port = server.socket.getsockname()[:2]
            assert server.url == f"http://{host}:{port}"
            assert port != 0
        finally:
            server.server_close()
            server.service.close()

    def test_drain_waits_for_inflight_requests(self):
        server = AioRankingServer(
            socket.create_server(("127.0.0.1", 0)), tvtouch_service()
        )
        try:
            server.request_begun()
            assert server.inflight == 1
            assert server.drain(0.05) is False
            server.request_done()
            assert server.drain(0.5) is True
        finally:
            server.server_close()
            server.service.close()


class TestSharedPort:
    def test_gateways_share_one_port_under_reuseport(self):
        # A fleet worker's listener: its own socket on the shared port,
        # bound under SO_REUSEPORT, handed to the gateway ready-made.
        clear_registry()
        first = AioRankingServer(
            socket.create_server(("127.0.0.1", 0), reuse_port=True), tvtouch_service()
        )
        port = first.server_address[1]
        second = AioRankingServer(
            socket.create_server(("127.0.0.1", port), reuse_port=True),
            tvtouch_service(),
        )
        with running(second):
            with running(first):
                for _ in range(8):
                    assert_still_serving(first)
            # The port outlives one of its listeners.
            for _ in range(4):
                assert_still_serving(second)
        for server in (first, second):
            server.service.close()
        clear_registry()
