"""Turn a traced run's spans into a per-layer account that sums up.

Self time of a span = its duration minus the part of that interval its
child spans cover (children are clipped to the parent, so a child that
runs after its parent returned — the executor hop — subtracts nothing).
Every time below is a *mean per operation* over the window, not a
median: means add, so for each workload

    mean round trip = sum(layer self times) + aio.hop_ms + trace.residual_ms

holds exactly, and a mixed hit/miss population does not make a layer
that half the requests skip flip between zero and its cost.

* ``aio.hop_ms`` — time between a request's first span start and last
  span end that no span covers: the executor queue, thread wake-ups and
  the loop callback between the wire and the pipeline.
* ``trace.residual_ms`` — round trip outside the server's spans:
  loopback, kernel socket work, the generator's own send/parse.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["LAYER_SPANS", "account"]

#: per-layer time metric -> span name (see ``traced_serve.TARGETS``).
LAYER_SPANS: dict[str, str] = {
    "aio.self_ms": "aio",
    "pipeline.begin_self_ms": "pipeline.begin",
    "pipeline.finish_self_ms": "pipeline.finish",
    "pipeline.encode_ms": "pipeline.encode",
    "pipeline.context_post_ms": "pipeline.context_post",
    "resilience.breaker_ms": "resilience.breaker",
    "batching.execute_ms": "batching.execute",
    "cache.lookup_ms": "cache.lookup",
    "cache.get_ms": "cache.get",
    "cache.put_ms": "cache.put",
    "cache.invalidate_ms": "cache.invalidate",
    "tenants.checkout_ms": "tenants.checkout",
    "engine.rank_self_ms": "engine.rank",
    "engine.install_ms": "engine.install",
    "engine.basis_check_ms": "engine.basis_check",
    "engine.combine_ms": "engine.combine",
    "reason.bind_ms": "reason.bind",
    "kernel.with_context_ms": "kernel.with_context",
    "kernel.score_ms": "kernel.score",
}


def account(dump: dict, round_trips: dict[int, float]) -> dict[str, float | None]:
    """Per-layer metrics for the operations in ``round_trips``.

    ``dump`` is what ``traced_serve`` wrote; ``round_trips`` maps each
    window operation's id to its client-observed seconds.  A layer whose
    every target was unresolved is ``None``.
    """
    spans = [span for span in dump["spans"] if span[5] in round_trips]
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        children[span[4]].append(span)

    self_by_name: dict[str, float] = defaultdict(float)
    busy: dict[int, float] = defaultdict(float)
    first: dict[int, float] = {}
    last: dict[int, float] = {}
    reached_engine: set[int] = set()
    reached_kernel: set[int] = set()
    rows = cells = 0
    for span_id, name, started, ended, _parent, rid, span_rows, span_cells in spans:
        covered = sum(
            max(0.0, min(child[3], ended) - max(child[2], started))
            for child in children.get(span_id, ())
        )
        own = max(0.0, (ended - started) - covered)
        self_by_name[name] += own
        busy[rid] += own
        first[rid] = min(first.get(rid, started), started)
        last[rid] = max(last.get(rid, ended), ended)
        if name == "engine.rank":
            reached_engine.add(rid)
        elif name == "kernel.score":
            reached_kernel.add(rid)
            rows += span_rows
            cells += span_cells

    count = len(round_trips)
    per_op_ms = 1000.0 / count
    # a layer is unresolved only when *every* target feeding it is
    unresolved_names = set(LAYER_SPANS.values()) - set(dump["resolved_names"])
    metrics: dict[str, float | None] = {
        metric: None if name in unresolved_names else self_by_name.get(name, 0.0) * per_op_ms
        for metric, name in LAYER_SPANS.items()
    }
    hop = sum((last[rid] - first[rid]) - busy[rid] for rid in first)
    metrics["aio.hop_ms"] = hop * per_op_ms
    round_trip = sum(round_trips.values())
    metrics["trace.round_trip_ms"] = round_trip * per_op_ms
    metrics["trace.residual_ms"] = (round_trip - sum(self_by_name.values()) - hop) * per_op_ms
    metrics["trace.joined_share"] = len(first) / count
    metrics["trace.resolved_share"] = 1.0 - len(dump["unresolved"]) / dump["targets"]
    metrics["engine.kernel_pass_share"] = (
        len(reached_kernel) / len(reached_engine) if reached_engine else 0.0
    )
    metrics["kernel.rows_scored"] = float(rows)
    metrics["kernel.cells_per_req"] = cells / len(reached_engine) if reached_engine else 0.0
    return metrics
