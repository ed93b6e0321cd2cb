"""``repro serve`` with timing spans around each layer's public entry.

``python traced_serve.py SPANS.json serve --port 0 ...`` wraps the
callables in :data:`TARGETS`, then calls ``repro.cli.main`` with the
remaining arguments — the process layout is the untraced server's, so
the difference between the two runs' medians is the tracing overhead.

A span is ``(id, name, start, end, parent id, request id, rows, cells)``.
The request id is the ``X-Ledger-Id`` header the generator sends; it is
read off the raw bytes in the ``data_received`` wrapper, kept in a
thread-local for the span's duration, carried across both thread pools
by wrapping ``ThreadPoolExecutor.submit``, and stamped on the response
object so the loop-side write (which runs from a callback, on no
request's stack) still knows whose it is.  Spans stay in memory and are
written out when the server returns from its SIGTERM drain.

A target that no longer exists is reported as unresolved — its metric
becomes ``null`` — and never stops the server from starting.  Only
callables invoked O(1) times per request are wrapped.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

#: dotted target -> span name.  Several targets may share a name: the
#: name is the layer metric, the targets are the ways into the layer.
TARGETS: tuple[tuple[str, str], ...] = (
    ("repro.service.aio._HttpConnection.data_received", "aio"),
    ("repro.service.aio._HttpConnection._finish", "aio"),
    ("repro.service.pipeline.RankingService.begin_rank", "pipeline.begin"),
    ("repro.service.pipeline.RankingService.finish_rank", "pipeline.finish"),
    ("repro.service.pipeline.ServiceResponse.encoded", "pipeline.encode"),
    ("repro.service.pipeline.RankingService.install_context", "pipeline.context_post"),
    ("repro.service.resilience.CircuitBreaker.allow", "resilience.breaker"),
    ("repro.service.resilience.CircuitBreaker.record_success", "resilience.breaker"),
    ("repro.service.batching.BatchScheduler.execute", "batching.execute"),
    ("repro.cache.keys.ResponseKeyer.lookup", "cache.lookup"),
    ("repro.cache.memory.InMemoryCacheAdapter.get", "cache.get"),
    ("repro.cache.memory.InMemoryCacheAdapter.put", "cache.put"),
    ("repro.cache.keys.ResponseKeyer.learn", "cache.put"),
    ("repro.cache.memory.InMemoryCacheAdapter.invalidate_tenant", "cache.invalidate"),
    ("repro.cache.keys.ResponseKeyer.forget", "cache.invalidate"),
    ("repro.tenants.registry.TenantRegistry.checkout", "tenants.checkout"),
    ("repro.tenants.registry.UserSession.rank_in_context", "engine.rank"),
    ("repro.tenants.registry.UserSession.prepare_rank", "engine.rank"),
    ("repro.engine.engine.PreparedRank.complete", "engine.rank"),
    ("repro.engine.engine.RankingEngine.install_context", "engine.install"),
    ("repro.engine.basis.ViewBasis.reusable_for", "engine.basis_check"),
    ("repro.engine.relevance.GatedRelevance.combine", "engine.combine"),
    ("repro.engine.relevance.GatedRelevance.combine_top_k", "engine.combine"),
    # patched where the engine imported them, which is the name it calls
    ("repro.engine.engine.bind_rules", "reason.bind"),
    ("repro.core.kernel.ScoringKernel.with_context", "kernel.with_context"),
    ("repro.core.kernel.ScoringKernel.score_documents", "kernel.score"),
    ("repro.engine.engine.score_documents_batch", "kernel.score"),
)


class _Context(threading.local):
    def __init__(self):
        self.rid: int | None = None
        self.stack: list[int] = []


_ctx = _Context()
_ids = itertools.count()
SPANS: list[tuple] = []
_now = time.perf_counter


def _kernel_work(args: tuple) -> tuple[int, int]:
    """``(rows, cells)`` of one kernel pass: cells = documents x kept rules."""
    kernels = args[0] if isinstance(args[0], (list, tuple)) else (args[0],)
    try:
        return len(kernels), sum(k.document_count * len(k.kept_rules) for k in kernels)
    except AttributeError:
        return 0, 0


def _traced(name: str, fn, *, rid_from=None, stamp: bool = False):
    """``fn`` with a span around it.

    ``rid_from(args)`` supplies the request id when the thread-local has
    none (the wire entry points); ``stamp`` copies the id onto the
    returned response for the loop-side write.
    """

    counts_work = name == "kernel.score"

    def wrapper(*args, **kwargs):
        ctx = _ctx
        outer_rid = ctx.rid
        rid = outer_rid
        if rid_from is not None:
            found = rid_from(args)
            if found is not None:
                rid = ctx.rid = found
        stack = ctx.stack
        parent = stack[-1] if stack else -1
        span = next(_ids)
        stack.append(span)
        started = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            ended = _now()
            stack.pop()
            ctx.rid = outer_rid
            if rid is not None:
                work = _kernel_work(args) if counts_work else (0, 0)
                SPANS.append((span, name, started, ended, parent, rid, *work))
        if stamp and rid is not None:
            object.__setattr__(result, "_ledger_rid", rid)  # frozen dataclass
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _rid_from_bytes(args) -> int | None:
    data = args[1]
    at = data.find(b"X-Ledger-Id: ")
    if at < 0:
        return None
    try:
        return int(data[at + 13 : data.index(b"\r", at)])
    except ValueError:
        return None


def _rid_from_response(args) -> int | None:
    return getattr(args[1], "_ledger_rid", None)


class _TimedCheckout:
    """``TenantRegistry.checkout`` returns a lazy context manager; the
    lookup/mint happens in ``__enter__`` and the eviction sweep in
    ``__exit__``, so those are what the span must cover."""

    def __init__(self, inner):
        self._enter = _traced("tenants.checkout", inner.__enter__)
        self._exit = _traced("tenants.checkout", inner.__exit__)

    def __enter__(self):
        return self._enter()

    def __exit__(self, *exc_info):
        return self._exit(*exc_info)


#: the two wire entry points read the request id themselves ...
RID_FROM = {
    "repro.service.aio._HttpConnection.data_received": _rid_from_bytes,
    "repro.service.aio._HttpConnection._finish": _rid_from_response,
}
#: ... and these stamp it on the response they return, for ``_finish``.
STAMPED = {
    "repro.service.pipeline.RankingService.finish_rank",
    "repro.service.pipeline.RankingService.install_context",
}
CHECKOUT = "repro.tenants.registry.TenantRegistry.checkout"


def _wrap(target: str, name: str, owner, attr: str) -> None:
    fn = getattr(owner, attr)
    if target == CHECKOUT:
        wrapped = lambda *args, **kwargs: _TimedCheckout(fn(*args, **kwargs))  # noqa: E731
    else:
        wrapped = _traced(name, fn, rid_from=RID_FROM.get(target), stamp=target in STAMPED)
    setattr(owner, attr, wrapped)


def install() -> tuple[list[str], list[str]]:
    """Wrap every resolvable target.

    Returns the unresolved targets and the span names that still have
    at least one way in.
    """
    unresolved = []
    resolved_names = set()
    for target, name in TARGETS:
        parts = target.split(".")
        owner = None
        for split in range(len(parts) - 1, 0, -1):
            try:
                owner = importlib.import_module(".".join(parts[:split]))
            except ImportError:
                continue
            try:
                for attr in parts[split:-1]:
                    owner = getattr(owner, attr)
                getattr(owner, parts[-1])
            except AttributeError:
                owner = None
            break
        if owner is None:
            unresolved.append(target)
        else:
            _wrap(target, name, owner, parts[-1])
            resolved_names.add(name)

    submit = ThreadPoolExecutor.submit

    def traced_submit(self, fn, /, *args, **kwargs):
        rid = _ctx.rid
        parent = _ctx.stack[-1] if _ctx.stack else None

        def run():
            _ctx.rid = rid
            _ctx.stack = [parent] if parent is not None else []
            try:
                return fn(*args, **kwargs)
            finally:
                _ctx.rid = None
                _ctx.stack = []

        return submit(self, run)

    ThreadPoolExecutor.submit = traced_submit
    return unresolved, sorted(resolved_names)


def main(argv: list[str]) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    unresolved, resolved_names = install()
    from repro.cli import main as repro_main

    try:
        return repro_main(serve_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "targets": len(TARGETS),
                    "unresolved": unresolved,
                    "resolved_names": resolved_names,
                    "spans": SPANS,
                },
                handle,
            )


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
