"""Reach report: which function bodies under ``src/repro`` the product runs.

No coverage package is needed: ``sys.setprofile`` and
``threading.setprofile`` record the code object of every Python call,
and each is matched by ``(co_filename, co_firstlineno)`` against the
``ast`` function definitions under ``src/repro`` (a decorated
function's first line is its first decorator's, in both).

Entry points, all run in this one process while the tracer is on:

* the six scripts under ``examples/``;
* the paper benchmarks E1–E8 and E3b at smoke size
  (``REPRO_BENCH_SMOKE=1``, ``--benchmark-disable``: each test body
  runs once, no result file is written);
* every CLI verb: ``example``, ``rank``, ``mine``, ``scaling``,
  ``snapshot build``, ``snapshot inspect`` and ``serve``;
* ``repro serve`` four times on an ephemeral port — with ``--rules``;
  with ``--snapshot`` and ``--journal``; again on
  that journal, which it replays at boot; and from a stale snapshot
  (an older format version), which falls back to a rebuild — each
  driven by a fixed HTTP script that hits every endpoint: ranks with
  and without ``top_k``, ``explain``, ``documents`` and a timeout, a
  context flip and flip-back, an 8-thread herd, ``POST /context``,
  ``/healthz``, ``/readyz``, ``/metrics`` and the 400, 404 and 501
  answers.  Each run ends with SIGTERM, as an operator would stop it.

A function's body lines are its non-blank source lines, from its first
line to its last, less those of functions nested in it (they count as
their own).  The report prints reached and unreached body lines per
file and the totals, then lists every unreached function.  Run it
with ``make reach-report`` or::

    python scripts/reach_report.py

Not traced: ``--workers N`` fleet children (forked).  Whether the
herd coalesces depends on thread timing, so the reached total can move
by a few lines between runs.
"""

from __future__ import annotations

import ast
import contextlib
import http.client
import io
import json
import os
import runpy
import signal
import socket
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
#: The paper benchmarks: E1–E8 and E3b (E9 and up measure the engine
#: and the service, which the serve runs already reach).
BENCHMARKS = sorted(
    path
    for path in (ROOT / "benchmarks").glob("bench_e*.py")
    if path.name.split("_")[1] in {"e1", "e2", "e3", "e3b", "e4", "e5", "e6", "e7", "e8"}
)


# -- the function table ------------------------------------------------------
def function_table() -> dict[tuple[str, int], tuple[str, str, int]]:
    """``(file, first line) -> (file relative to src, qualname, body lines)``
    for every function definition under ``src/repro``."""
    table = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        relative = str(path.relative_to(SRC))
        spans = []  # (first, last, qualname)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(
                        [child.lineno] + [d.lineno for d in child.decorator_list]
                    )
                    name = f"{prefix}{child.name}"
                    spans.append((first, child.end_lineno, name))
                    visit(child, f"{name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(text, filename=str(path)), "")
        # Each line belongs to the innermost function containing it.
        owner = {}
        for first, last, name in sorted(spans, key=lambda s: s[0] - s[1]):
            for line in range(first, last + 1):
                owner[line] = (first, name)
        counts: dict[int, int] = {}
        for line, (first, _name) in owner.items():
            if lines[line - 1].strip():
                counts[first] = counts.get(first, 0) + 1
        real = os.path.realpath(path)
        for first, _last, name in spans:
            table[(real, first)] = (relative, name, counts.get(first, 0))
    return table


# -- the tracer ----------------------------------------------------------------
class Tracer:
    """Every code object called while active, on every thread."""

    def __init__(self):
        self.codes = set()

    def _hook(self, frame, event, _arg):
        if event == "call":
            self.codes.add(frame.f_code)

    def __enter__(self):
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        threading.setprofile(None)

    def reached(self) -> set[tuple[str, int]]:
        return {
            (os.path.realpath(code.co_filename), code.co_firstlineno)
            for code in self.codes
        }


# -- entry points ---------------------------------------------------------------
def run_examples() -> None:
    for path in EXAMPLES:
        argv = sys.argv
        sys.argv = [str(path)]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.argv = argv


def run_benchmarks() -> None:
    """The paper benchmarks at smoke size, in this process."""
    import pytest

    before = os.environ.get("REPRO_BENCH_SMOKE")
    os.environ["REPRO_BENCH_SMOKE"] = "1"
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = pytest.main(
                ["-q", "-p", "no:cacheprovider", "--benchmark-disable", *map(str, BENCHMARKS)]
            )
    finally:
        if before is None:
            del os.environ["REPRO_BENCH_SMOKE"]
        else:
            os.environ["REPRO_BENCH_SMOKE"] = before
    if code != 0:
        raise SystemExit(f"reach_report: the paper benchmarks exited {code}")


def stale_copy(snapshot: Path, stale: Path) -> None:
    """``snapshot`` as an older library version would have written it."""
    from repro.store.format import SNAPSHOT_FORMAT_VERSION

    image = bytearray(snapshot.read_bytes())
    image[10:14] = (SNAPSHOT_FORMAT_VERSION - 1).to_bytes(4, "little")
    stale.write_bytes(bytes(image))


def cli(*argv: str) -> None:
    from repro.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        code = main(list(argv))
    if code != 0:
        raise SystemExit(f"reach_report: 'repro {' '.join(argv)}' exited {code}")


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def http_script(port: int) -> list[str]:
    """The fixed traffic one ``repro serve`` run answers; returns the
    problems seen (an unexpected status)."""
    problems = []

    def call(method, target, expected, body=None, headers=None):
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            connection.request(method, target, body=body, headers=headers or {})
            response = connection.getresponse()
            response.read()
            if response.status != expected:
                problems.append(f"{method} {target}: {response.status} != {expected}")
        finally:
            connection.close()

    def post_context(payload, expected):
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        call("POST", "/context", expected, body, {"Content-Type": "application/json"})

    call("GET", "/healthz", 200)
    call("GET", "/readyz", 200)
    rank = "/rank?tenant=alice&context=Weekend&context=Breakfast"
    call("GET", f"{rank}&top_k=3", 200)
    call("GET", f"{rank}&top_k=3", 200)  # a response-cache hit
    call("GET", rank, 200)  # the full ranking
    call("GET", f"{rank}&explain=1", 200)
    call("GET", f"{rank}&documents=oprah,bbc_news&top_k=1", 200)
    call("GET", f"{rank}&timeout=5", 200)
    call("GET", "/rank?tenant=alice&context=Weekend", 200, headers={"X-Request-Timeout": "5"})
    call("GET", f"{rank}&top_k=3", 200)  # a context flip back
    call("GET", "/rank?tenant=bob", 200)
    call("GET", "/rank?tenant=alice&top_k=0", 400)
    call("GET", "/rank?tenant=alice&bogus=1", 400)
    call("GET", "/rank?tenant=alice&context=Weekend:7", 400)
    post_context({"tenant": "carol", "context": ["Breakfast:0.7"]}, 200)
    post_context({"tenant": "carol", "context": "Weekend"}, 200)
    post_context(b"{not json", 400)
    post_context({"context": []}, 400)
    post_context({"tenant": "carol", "context": 3}, 400)
    call("GET", "/rank?tenant=carol&top_k=2", 200)
    call("GET", "/nope", 404)
    call("POST", "/rank", 404, b"{}")
    call("PUT", "/rank", 501, b"{}")

    def herd(index):
        call("GET", f"/rank?tenant=h{index}&context=Breakfast:0.{31 + index}&top_k=3", 200)

    for round_ in range(3):
        threads = [threading.Thread(target=herd, args=(8 * round_ + i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    call("GET", "/metrics", 200)
    return problems


def run_serve(*flags: str) -> None:
    """``repro serve`` on this (the main) thread, driven from another."""
    port = free_port()
    done = threading.Event()
    outcome: dict = {}

    def drive():
        deadline = time.monotonic() + 60
        while not done.is_set() and time.monotonic() < deadline:
            try:
                socket.create_connection(("127.0.0.1", port), timeout=1).close()
            except OSError:
                time.sleep(0.05)
                continue
            try:
                outcome["problems"] = http_script(port)
            except Exception as error:  # a partial script under-counts reach
                outcome["problems"] = [f"the HTTP script stopped: {error!r}"]
            finally:
                os.kill(os.getpid(), signal.SIGTERM)
            return
        outcome["problems"] = ["the gateway never listened"]

    driver = threading.Thread(target=drive, name="reach-driver")
    driver.start()
    try:
        cli("serve", "--port", str(port), *flags)
    finally:
        done.set()
        driver.join()
    if outcome.get("problems"):
        raise SystemExit(
            f"reach_report: serve {' '.join(flags)}: " + "; ".join(outcome["problems"])
        )


def run_entry_points(workdir: Path) -> set[tuple[str, int]]:
    from repro.rules import render_rules
    from repro.workloads import build_tvtouch, sample_workday_mornings

    rules = workdir / "rules.prefs"
    rules.write_text(render_rules(build_tvtouch().repository), encoding="utf-8")
    history = workdir / "history.jsonl"
    sample_workday_mornings(episodes=200, seed=3).save(history)
    snapshot = workdir / "world.snap"
    stale = workdir / "stale.snap"
    journal = workdir / "overlays.journal"

    with Tracer() as tracer:
        run_examples()
        run_benchmarks()
        cli("example")
        cli("rank", str(rules), "--context", "Weekend", "--context", "Breakfast:0.7")
        cli("mine", str(history), "--min-support", "5", "--min-lift", "0.0")
        cli("scaling", "--max-rules", "2", "--scale", "0.05")
        cli("snapshot", "build", str(snapshot))
        cli("snapshot", "inspect", str(snapshot))
        stale_copy(snapshot, stale)
        run_serve("--rules", str(rules))
        run_serve("--snapshot", str(snapshot), "--journal", str(journal))
        run_serve("--snapshot", str(snapshot), "--journal", str(journal))  # a replay
        run_serve("--snapshot", str(stale))  # a fallback rebuild
    return tracer.reached()


# -- the report -------------------------------------------------------------------
def report(table, reached) -> str:
    per_file: dict[str, list[int]] = {}
    unreached = []
    for key, (relative, name, count) in table.items():
        row = per_file.setdefault(relative, [0, 0, 0, 0])
        if key in reached:
            row[0] += count
            row[2] += 1
        else:
            row[1] += count
            row[3] += 1
            unreached.append((relative, key[1], name, count))
    width = max(len(name) for name in per_file)
    out = [
        f"{'file':<{width}}  reached  unreached  functions unreached",
    ]
    totals = [0, 0, 0, 0]
    for relative in sorted(per_file):
        row = per_file[relative]
        totals = [a + b for a, b in zip(totals, row)]
        out.append(
            f"{relative:<{width}}  {row[0]:7d}  {row[1]:9d}  {row[3]:5d} of {row[2] + row[3]}"
        )
    lines = totals[0] + totals[1]
    out.append(
        f"total: {totals[0]} of {lines} function-body lines reached "
        f"({100.0 * totals[0] / max(lines, 1):.1f} %), {totals[1]} unreached; "
        f"{totals[3]} of {totals[2] + totals[3]} functions unreached"
    )
    out.append("")
    out.append("unreached functions (file:line qualname, body lines):")
    for relative, first, name, count in sorted(unreached):
        out.append(f"  {relative}:{first} {name} ({count})")
    return "\n".join(out)


def main() -> int:
    sys.path.insert(0, str(SRC))
    table = function_table()
    with tempfile.TemporaryDirectory(prefix="reach-") as workdir:
        reached = run_entry_points(Path(workdir))
    print(report(table, reached))
    return 0


if __name__ == "__main__":
    sys.exit(main())
