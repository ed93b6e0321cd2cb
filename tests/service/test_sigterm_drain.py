"""SIGTERM never lands inside a loop callback (ledger finding).

``serve()`` used to turn SIGTERM into a ``KeyboardInterrupt`` raised
wherever the loop thread happened to be.  Between a request's in-flight
increment and its decrement that callback was lost, the count never
returned to zero, and both 5 s graces ran out before the process
exited.  The handler now only requests the shutdown, so the drain in
``AioRankingServer._run`` is the one way out.

Each cycle boots the real ``repro serve`` (through ``repro.cli.main``,
wrapped only to print the gateway's in-flight count on the way out),
sends keep-alive and ``Connection: close`` requests, leaves a pipelined
burst of loop-served hits unread so the loop is inside a callback when
the signal arrives, and sends SIGTERM with no pause.
"""

import http.client
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: ``repro serve`` as the CLI runs it, plus one line on the way out.
WRAPPER = """
from repro.service import aio
servers = []
make = aio.make_aio_server
def capture(*args, **kwargs):
    servers.append(make(*args, **kwargs))
    return servers[-1]
aio.make_aio_server = capture
from repro.cli import main
code = main(["serve", "--port", "0"])
print(f"inflight={servers[0].inflight}", flush=True)
raise SystemExit(code)
"""

CYCLES = 8
BURST = 200


def one_cycle(stop_signal):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    process = subprocess.Popen(
        [sys.executable, "-c", WRAPPER], env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        announce = process.stdout.readline()
        port = int(announce.split("http://127.0.0.1:", 1)[1].split()[0])
        keep = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        for index in range(20):
            if index % 2:
                keep.request("GET", "/rank?tenant=alice&context=Weekend&top_k=3")
                response = keep.getresponse()
            else:  # what urllib sends: one request, then the server closes
                once = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
                path = "/healthz" if index % 4 else "/rank?tenant=alice&top_k=3"
                once.request("GET", path, headers={"Connection": "close"})
                response = once.getresponse()
            response.read()
            assert response.status == 200
        keep.close()
        # Pure hits are answered on the loop: a pipelined burst of them
        # keeps it inside request callbacks while the signal arrives.
        burst = socket.create_connection(("127.0.0.1", port))
        burst.sendall(
            b"GET /rank?tenant=alice&top_k=3 HTTP/1.1\r\nHost: x\r\n\r\n" * BURST
        )
        last = socket.create_connection(("127.0.0.1", port))
        last.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        started = time.perf_counter()
        process.send_signal(stop_signal)
        output, _ = process.communicate(timeout=30)
        took = time.perf_counter() - started
        burst.close()
        last.close()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    return process.returncode, took, output


def test_sigterm_mid_callback_drains_at_once():
    for cycle in range(CYCLES):
        code, took, output = one_cycle(signal.SIGTERM)
        assert code == 0, (cycle, code, output)
        assert "inflight=0" in output, (cycle, output)
        assert took < 2.0, (cycle, took)


def test_ctrl_c_still_stops_the_server():
    code, took, output = one_cycle(signal.SIGINT)
    assert code == 0 and "inflight=0" in output, (code, output)
    assert took < 2.0
