"""Boot report: what a worker loads, and what it costs before the first answer.

``make boot-report`` (``python scripts/boot_report.py``) prints, for the
source tree it is pointed at (``--src``, default this checkout — point
it at another checkout to compare two commits with one script):

* ``python -X importtime -c "import repro.cli"``: the import's
  cumulative time and the ``repro`` modules it loaded;
* ``repro`` module counts after ``import repro`` and after the boot
  ``repro serve`` performs plus one rank (in a child interpreter, the
  gateway's ``serve`` replaced by a single in-process ``service.rank``);
* for the Section 5 row, the in-process first rank split into the
  document bind, the kernel compile and numpy's import — the account of
  the ledger's ``store.first_rank_s``;
* a warm fresh-context miss on the same 2 000-program snapshot, as a
  top-3 (what every ``herd_miss`` request is) and as a full ranking
  (what every ``full_ranking`` request is), split into the view
  signature and its digest, the context install, the basis reuse
  check, the rule bind, the reasoner session lookup (inside the last
  two), the context-bound kernel's build, the kernel pass, the
  order/truncate step and the items' JSON — median microseconds per
  miss — and the mean number of rules a miss re-bound (``/metrics`` →
  ``reasoner.rules_rebound``; ``n/a`` on a tree that does not count
  them); one column for the first tenant to see a context, one for a
  herd mate (a second tenant, the same context, right after it);
* a response-cache hit on the TVTouch world (what ~95 % of the
  ledger's ``zipf_steady`` requests are), driven as the gateway drives
  it — the raw query string in, the encoded body out — split into the
  parse, the cache keying (ledger lookup and key), the delta install and
  its verification, the stage recording (``record``:
  ``ServiceMetrics.record_request``) and the encode, median
  microseconds per hit; one column for a pure hit (the tenant's
  standing context), one for a delta hit (a flip to a context it has
  ranked before);
* for the real ``python -m repro serve --port 0`` on two worlds — the
  default four-program TVTouch world and a 2 000-program Section 5
  snapshot, one on each side of the kernel's ``VECTOR_MIN`` size rule —
  seconds and resident memory at the announce line and after the first
  ``/rank`` answer, and what ``/metrics`` → ``worker`` says the process
  loaded (``numpy_loaded``, ``repro_modules_loaded``); a third row
  boots TVTouch with ``REPRO_KERNEL_BACKEND=numpy``, so the difference
  to the first row is numpy's share of the footprint (``n/a`` where
  numpy is not installed); a fourth boots a 10 000-program Section 5
  snapshot and shows the status its first rank gets under the default
  2 s request deadline (no ``timeout=`` on the request).

Medians over ``--repeat`` boots.  Nothing is asserted here: the budget
lives in ``tests/test_boot_budget.py``; this is the table the docs cite.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ANNOUNCE = "repro serve: listening on http://127.0.0.1:"
#: The ledger's Section 5 world size — the numpy side of ``VECTOR_MIN``.
SECTION5_PROGRAMS = 2000
#: The size at which the first rank used to outlast the default deadline.
LARGE_PROGRAMS = 10_000

#: ``repro serve`` up to the gateway, then one rank instead of the loop
#: (prefix it with ``CONTEXT = [...]`` and ``FLAGS = [...]``); also the
#: twin ``tests/test_boot_budget.py`` asserts the budget on.
BOOT_TWIN = """
import json, sys, time
from repro.service import aio
answers, timings = [], {}
def one_rank(service, *args, **kwargs):
    started = time.perf_counter()
    reply = service.rank({"tenant": ["boot"], "context": CONTEXT})
    timings["first_rank_s"] = time.perf_counter() - started
    assert reply.status == 200, reply.body
    answers.append(reply.body["items"][0])
    return 0
aio.serve = one_rank
# probes
from repro.cli import main
code = main(["serve", "--port", "0", *FLAGS])
print(json.dumps({"top": answers[0], "modules": sorted(sys.modules), "timings": timings}))
raise SystemExit(code)
"""
#: Replaces the twin's ``# probes`` line: seconds inside the document
#: bind, the kernel compile (numpy's import included) and numpy's import,
#: each wrapped under the name its caller uses.
FIRST_RANK_PROBES = """
import repro.core.kernel, repro.core.problem, repro.perf.backend
def probe(module, name, key):
    real = getattr(module, name)
    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            timings[key] = timings.get(key, 0.0) + time.perf_counter() - started
    setattr(module, name, timed)
probe(repro.core.problem, "bind_documents", "bind_s")
probe(repro.core.kernel, "compile_candidates", "compile_s")
probe(repro.perf.backend, "numpy_or_none", "numpy_import_s")
"""
#: ``repro serve`` up to the gateway, then fresh-context misses on warm
#: tenants instead of the loop (prefix it with ``FLAGS = [...]`` and
#: ``TOP_K = "3"``, or ``None`` for full rankings): the median
#: microseconds per miss spent in each probed step.  Whether an answer
#: was a miss is read off its rendered header, never by decoding it.
MISS_TWIN = """
import json, random, statistics, sys, time
import repro.cache.keys, repro.core.kernel, repro.engine.backends, repro.engine.basis
import repro.engine.engine, repro.engine.relevance, repro.reason.kb, repro.service.pipeline
from repro.service import aio
MISSES, TENANTS = 600, 20
STEPS = [
    (repro.engine.engine.RankingEngine, "_signature", "signature+digest"),
    (repro.cache.keys, "signature_digest", "signature+digest"),
    (repro.engine.backends.AboxContext, "install", "AboxContext.install"),
    (repro.engine.basis.ViewBasis, "reusable_for", "reusable_for"),
    (repro.engine.engine, "bind_rules", "bind_rules"),
    (repro.reason.kb.CompiledKB, "session", "CompiledKB.session"),
    (repro.core.kernel.ScoringKernel, "with_context", "ScoringKernel.with_context"),
    (repro.core.kernel.ScoringKernel, "score_vector", "kernel pass"),
    (repro.engine.relevance, "rank_columns", "rank_columns"),
    (repro.service.pipeline, "_items_json", "_items_json"),
]
spent, split = {}, {}
counters = getattr(repro.engine.engine, "context_bind_counters", None)
def rebound():
    return counters()["rules_rebound"] if counters is not None else 0
def probe(owner, name, step):
    real = getattr(owner, name)
    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            spent[step] = spent.get(step, 0.0) + time.perf_counter() - started
    setattr(owner, name, timed)
def misses(service, *args, **kwargs):
    rng = random.Random(7)
    def fresh():
        first, second = rng.sample(range(12), 2)
        return [f"CtxScenario_{first:02d}:0.{rng.randrange(1000, 9000):04d}",
                f"CtxScenario_{second:02d}:0.{rng.randrange(1000, 9000):04d}"]
    def miss(index, context):
        params = {"tenant": [f"t{index % TENANTS:02d}"], "context": context}
        if TOP_K is not None:
            params["top_k"] = [TOP_K]
        reply = service.rank(params)
        return reply.status == 200 and "cached" not in reply._rendered.tail
    for index in range(2 * TENANTS):
        miss(index, fresh())
    for owner, name, step in STEPS:
        probe(owner, name, step)
    # the first tenant to see a context, and a herd mate: another
    # tenant with the same context, right after it
    readings = {
        role: {"whole miss": [], **{step: [] for _owner, _name, step in STEPS}}
        for role in ("first", "herd mate")
    }
    rules = {role: [] for role in readings}
    for index in range(MISSES):
        context = fresh()
        for role, tenant in (("first", index), ("herd mate", index + TENANTS // 2)):
            spent.clear()
            before = rebound()
            started = time.perf_counter()
            if not miss(tenant, context):
                continue  # not a miss: its steps are not a miss's account
            spent["whole miss"] = time.perf_counter() - started
            rules[role].append(rebound() - before)
            for step, values in readings[role].items():
                values.append(spent.get(step, 0.0))
    for role, steps in readings.items():
        split[role] = {step: statistics.median(values) * 1e6 for step, values in steps.items()}
        split[role]["rules re-bound"] = (
            statistics.mean(rules[role]) if counters is not None else None
        )
    split["misses"] = min(len(steps["whole miss"]) for steps in readings.values())
    return 0
aio.serve = misses
from repro.cli import main
code = main(["serve", "--port", "0", *FLAGS])
print(json.dumps(split))
raise SystemExit(code)
"""
#: ``repro serve`` on TVTouch up to the gateway, then response-cache hits
#: on warm tenants instead of the loop, each driven as the gateway drives
#: one: the raw query string in, the encoded body out.  A pure hit
#: repeats a tenant's query under its standing context; a delta hit
#: flips the tenant to the other of two contexts it has ranked.  The
#: median microseconds per hit spent in each probed step — the delta's
#: ``install`` (``RankingEngine.install_context``) and its ``verify``
#: (the rest of ``RankingService._install_verified``: the fingerprint
#: and the ledger's digest check) apart, and the ``record`` of the
#: request's stage latencies; a tree whose service takes no
#: query string gets parsed parameters, the parse timed here as its
#: gateway's.  Then the ``repeated install`` alone: the median
#: microseconds of one ``install_context`` flipping a warm tenant between
#: the same two contexts, given as the service gives them (the request's
#: context value where the tree has one).
HIT_TWIN = """
import json, statistics, time
from urllib.parse import parse_qs
import repro.cache.keys
from repro.engine.engine import RankingEngine
from repro.service import aio
from repro.service.metrics import ServiceMetrics
from repro.service.pipeline import RankingService, ServiceRequest, ServiceResponse
HITS, TENANTS, INSTALLS = 1000, 20, 2000
CONTEXTS = ("&context=Weekend&context=Breakfast", "&context=Weekend:0.7&context=Breakfast:0.6")
from_query = getattr(ServiceRequest, "from_query", None)
STEPS = [
    (ServiceRequest, "from_query" if from_query is not None else "from_params", "parse"),
    (repro.cache.keys.ResponseKeyer, "lookup", "keying"),
    (repro.cache.keys.KeyLookup, "key", "keying"),
    (RankingEngine, "install_context", "install"),
    (RankingService, "_install_verified", "verify"),
    (ServiceMetrics, "record_request", "record"),
    (ServiceResponse, "encoded", "encode"),
]
spent, split = {}, {}
def timer(real, step):
    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            spent[step] = spent.get(step, 0.0) + time.perf_counter() - started
    return timed
def probe(owner, name, step):
    real = getattr(owner, name)
    if isinstance(real, property):
        setattr(owner, name, property(timer(real.fget, step)))
    else:
        setattr(owner, name, timer(real, step))
def hits(service, *args, **kwargs):
    def ask(query):
        if from_query is not None:
            attempt = service.begin_rank(query)
        else:
            started = time.perf_counter()
            params = parse_qs(query, keep_blank_values=True)
            spent["parse"] = spent.get("parse", 0.0) + time.perf_counter() - started
            attempt = service.begin_rank(params)
        reply = attempt.response or service.finish_rank(attempt)
        reply.encoded()
        return reply.status == 200 and "cached" in reply._rendered.tail
    tenants = [f"tenant=t{index:02d}&top_k=3" for index in range(TENANTS)]
    for tenant in tenants:
        for context in (*CONTEXTS, ""):
            ask(tenant + context)
    for owner, name, step in STEPS:
        probe(owner, name, step)
    readings = {
        role: {"whole hit": [], **{step: [] for _owner, _name, step in STEPS}}
        for role in ("pure hit", "delta hit")
    }
    for index in range(HITS):
        tenant = tenants[index % TENANTS]
        flip = CONTEXTS[(index // TENANTS) % 2]
        for role, query in (("delta hit", tenant + flip), ("pure hit", tenant)):
            spent.clear()
            started = time.perf_counter()
            if not ask(query):
                continue  # not a hit: its steps are not a hit's account
            spent["whole hit"] = time.perf_counter() - started
            # the install runs inside the install-and-verify
            spent["verify"] = spent.get("verify", 0.0) - spent.get("install", 0.0)
            for step, values in readings[role].items():
                values.append(spent.get(step, 0.0))
    for role, steps in readings.items():
        split[role] = {step: statistics.median(values) * 1e6 for step, values in steps.items()}
    split["hits"] = min(len(steps["whole hit"]) for steps in readings.values())
    engine = service.registry.session("t00").engine
    contexts = []
    for context in CONTEXTS:
        request = ServiceRequest.from_params(parse_qs("tenant=t00" + context))
        value = getattr(request, "context_value", None)
        contexts.append(((value,), {}) if value is not None else (request.context, {"tick": "svc"}))
    installs = []
    for index in range(INSTALLS):
        specs, kwargs = contexts[index % 2]
        spent.clear()
        engine.install_context(*specs, **kwargs)
        installs.append(spent["install"])
    split["delta hit"]["repeated install"] = statistics.median(installs) * 1e6
    split["pure hit"]["repeated install"] = None
    return 0
aio.serve = hits
from repro.cli import main
code = main(["serve", "--port", "0"])
print(json.dumps(split))
raise SystemExit(code)
"""
BARE_IMPORT = "import json, sys, repro; print(json.dumps({'modules': sorted(sys.modules)}))"


def twin(context: list[str], flags: list[str], probes: str = "") -> str:
    """The boot twin's code for one world, ``probes`` run before ``main``."""
    header = f"CONTEXT = {context!r}\nFLAGS = {flags!r}\n"
    return header + BOOT_TWIN.replace("# probes\n", probes)


def child_env(src: Path, backend: str | None = None) -> dict:
    """The child's environment: the size rule, unless ``backend`` forces one."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1")
    env.pop("REPRO_KERNEL_BACKEND", None)
    if backend is not None:
        env["REPRO_KERNEL_BACKEND"] = backend
    return env


def repro_count(modules) -> int:
    return sum(name == "repro" or name.startswith("repro.") for name in modules)


def run_child(code: str, src: Path, backend: str | None = None) -> dict:
    """Run ``code`` in a fresh interpreter; its last output line, as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(src, backend), capture_output=True,
        text=True, timeout=120,
    )
    if done.returncode != 0:
        raise SystemExit(f"boot_report: child failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def numpy_importable(src: Path) -> bool:
    """Whether a child interpreter can ``import numpy`` (CI has a box that cannot)."""
    done = subprocess.run(
        [sys.executable, "-c", "import numpy"], env=child_env(src), capture_output=True,
        timeout=120,
    )
    return done.returncode == 0


def importtime(src: Path) -> tuple[float, int]:
    """``(cumulative ms of import repro.cli, repro modules it loaded)``."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        env=child_env(src), capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise SystemExit(f"boot_report: import repro.cli failed:\n{done.stderr}")
    cumulative, names = 0.0, set()
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, total, name = (part.strip() for part in line[len("import time:"):].split("|"))
        names.add(name)  # a package under construction is listed again per submodule
        if name == "repro.cli":
            cumulative = int(total) / 1000.0
    return cumulative, repro_count(names)


def rss_mb(pid: int) -> float | None:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None  # not Linux


def boot_once(src: Path, flags: list[str], rank_path: str, backend: str | None) -> dict:
    """One real server: spawn → announce → first rank → /metrics → SIGTERM."""
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *flags],
        env=child_env(src, backend), stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    try:
        line = process.stdout.readline()
        announced = time.perf_counter() - started
        if ANNOUNCE not in line:
            raise SystemExit(f"boot_report: no announce line, got {line!r}")
        port = int(line.split(ANNOUNCE, 1)[1].split()[0])
        reading = {"announce_s": announced, "announce_rss_mb": rss_mb(process.pid)}
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        connection.request("GET", rank_path)
        response = connection.getresponse()
        body = json.loads(response.read())
        reading["first_rank_s"] = time.perf_counter() - started
        reading["status"] = response.status
        reading["first_rank_rss_mb"] = rss_mb(process.pid)
        reading["top"] = body["items"][0] if response.status == 200 else None
        connection.request("GET", "/metrics")
        worker = json.loads(connection.getresponse().read())["worker"]
        connection.close()
        reading["numpy_loaded"] = worker.get("numpy_loaded")
        reading["repro_modules_loaded"] = worker.get("repro_modules_loaded")
        process.send_signal(signal.SIGTERM)
        reading["exit_code"] = process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    return reading


def section5_flags(src: Path, workdir: Path, programs: int = SECTION5_PROGRAMS) -> list[str]:
    """Write the ledger's Section 5 world (snapshot + rule file) with the
    tree under report, and return the ``serve`` flags that boot it."""
    snapshot, rules = workdir / f"world-{programs}.snap", workdir / f"rules-{programs}.prefs"
    code = (
        "from repro.rules import render_rules\n"
        "from repro.store import write_world_snapshot\n"
        "from repro.workloads import Section5Counts, generate_rule_series, generate_test_database\n"
        "world = generate_test_database(seed=7, counts=Section5Counts(persons=50, "
        f"programs={programs}))\n"
        f"write_world_snapshot({str(snapshot)!r}, world)\n"
        f"open({str(rules)!r}, 'w', encoding='utf-8').write(render_rules(generate_rule_series(world, 12)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(src), capture_output=True, text=True,
        timeout=300,
    )
    if done.returncode != 0:
        raise SystemExit(f"boot_report: cannot write the Section 5 world:\n{done.stderr}")
    return ["--snapshot", str(snapshot), "--rules", str(rules)]


def median(readings: list[dict], key: str):
    values = [reading[key] for reading in readings if reading[key] is not None]
    return statistics.median(values) if values else None


def show(value, spec: str = ".2f") -> str:
    return "n/a" if value is None else format(value, spec)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree to report on")
    parser.add_argument("--repeat", type=int, default=3, help="boots per world (medians shown)")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2

    print(f"boot report for {src} (python {sys.version.split()[0]})")
    cumulative, imported = importtime(src)
    print(f'  python -X importtime -c "import repro.cli": {cumulative:.1f} ms cumulative, '
          f"{imported} repro modules")
    bare = run_child(BARE_IMPORT, src)["modules"]
    print(f"  import repro: {repro_count(bare)} repro modules")

    with tempfile.TemporaryDirectory(prefix="boot-report-") as scratch:
        tvtouch = (["Weekend", "Breakfast"], "/rank?tenant=boot&context=Weekend&context=Breakfast")
        section5 = (
            ["CtxScenario_01:0.4321"], "/rank?tenant=boot&context=CtxScenario_01:0.4321&top_k=10"
        )
        worlds = [
            ("tvtouch (4 programs)", [], *tvtouch, None),
            (f"section5 snapshot ({SECTION5_PROGRAMS} programs)",
             section5_flags(src, Path(scratch)), *section5, None),
            ("tvtouch, REPRO_KERNEL_BACKEND=numpy", [], *tvtouch, "numpy"),
        ]
        rows = []
        for name, flags, context, rank_path, backend in worlds:
            if backend == "numpy" and not numpy_importable(src):
                rows.append((name, None, []))  # nothing to force: the row reads n/a
                continue
            loaded = run_child(twin(context, flags), src, backend)["modules"]
            readings = [
                boot_once(src, flags, rank_path, backend) for _ in range(max(1, args.repeat))
            ]
            rows.append((name, loaded, readings))
        probed = twin(section5[0], worlds[1][1], FIRST_RANK_PROBES)
        splits = [run_child(probed, src)["timings"] for _ in range(max(1, args.repeat))]
        miss_splits = {}
        for top_k in ("3", None):
            miss_code = f"FLAGS = {worlds[1][1]!r}\nTOP_K = {top_k!r}\n" + MISS_TWIN
            miss_splits[top_k] = [run_child(miss_code, src) for _ in range(max(1, args.repeat))]
        hit_splits = [run_child(HIT_TWIN, src) for _ in range(max(1, args.repeat))]
        # real boots only: a first rank past the deadline is a reading, not a failure
        large = section5_flags(src, Path(scratch), LARGE_PROGRAMS)
        rows.append((
            f"section5 snapshot ({LARGE_PROGRAMS} programs)", (),
            [boot_once(src, large, section5[1], None) for _ in range(max(1, args.repeat))],
        ))

    print("  serve boot + one rank, in-process (gateway loaded, no socket):")
    for name, loaded, _readings in rows:
        if loaded is None:
            print(f"    {name:<36} n/a (numpy is not importable here)")
        if not loaded:
            continue
        extras = [m for m in ("numpy", "sqlite3", "http.server", "email") if m in loaded]
        print(f"    {name:<36} {repro_count(loaded):>3} repro modules, "
              f"{len(loaded)} modules in all; loaded of numpy/sqlite3/http.server/email: "
              f"{', '.join(extras) or 'none'}")
    numpy_s = median(splits, "numpy_import_s") or 0.0
    print(f"  first rank of the section5 snapshot ({SECTION5_PROGRAMS} programs), in-process, "
          f"medians of {len(splits)}: {median(splits, 'first_rank_s'):.3f} s = "
          f"bind {median(splits, 'bind_s'):.3f} s · "
          f"kernel compile {median(splits, 'compile_s') - numpy_s:.3f} s · "
          f"numpy import {numpy_s:.3f} s · the rest (install, score, render)")
    print(f"  a warm fresh-context miss on the section5 snapshot ({SECTION5_PROGRAMS} "
          f"programs), in-process, median us per miss (CompiledKB.session runs inside "
          f"reusable_for and bind_rules), medians of {max(1, args.repeat)} runs:")
    for top_k, runs in miss_splits.items():
        shape = "full ranking" if top_k is None else f"top-{top_k}"
        print(f"    {shape} ({min(run['misses'] for run in runs)}+ misses a run)"
              f"{'first':>18} {'herd mate':>10}")
        for step in runs[0]["first"]:
            cells = [
                median([run[role] for run in runs], step) for role in ("first", "herd mate")
            ]
            spec = ".1f"
            label = f"{step} (of 12)" if step == "rules re-bound" else step
            print(f"      {label:<36}" + "".join(f"{show(cell, spec):>11}" for cell in cells))
    print(f"  a response-cache hit on tvtouch (4 programs), in-process, query string in "
          f"and body bytes out, median us per hit, medians of {len(hit_splits)} runs:")
    label = f"({min(run['hits'] for run in hit_splits)}+ hits a run)"
    print(f"    {label:<38}{'pure hit':>11}{'delta hit':>11}")
    for step in hit_splits[0]["pure hit"]:
        cells = [
            median([run[role] for run in hit_splits], step) for role in ("pure hit", "delta hit")
        ]
        print(f"      {step:<36}" + "".join(f"{show(cell, '.1f'):>11}" for cell in cells))
    print(f"  real `repro serve --port 0`, medians of {max(1, args.repeat)} boots "
          "(status: the first rank's, under the default deadline):")
    header = (f"    {'world':<36} {'announce s':>10} {'RSS MB':>8} {'first rank s':>12} "
              f"{'status':>6} {'RSS MB':>8} {'numpy_loaded':>12} {'repro_modules_loaded':>20}")
    print(header)
    for name, _loaded, readings in rows:
        last = readings[-1] if readings else {}
        statuses = sorted({reading["status"] for reading in readings})
        print(f"    {name:<36} {show(median(readings, 'announce_s')):>10} "
              f"{show(median(readings, 'announce_rss_mb'), '.1f'):>8} "
              f"{show(median(readings, 'first_rank_s')):>12} "
              f"{'/'.join(map(str, statuses)) or 'n/a':>6} "
              f"{show(median(readings, 'first_rank_rss_mb'), '.1f'):>8} "
              f"{show(last.get('numpy_loaded'), ''):>12} "
              f"{show(last.get('repro_modules_loaded'), 'd'):>20}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
