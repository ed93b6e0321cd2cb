"""Structured latency metrics for the serving runtime.

A :class:`LatencyRecorder` is a thread-safe accumulator: total count
and time forever, plus a bounded ring of recent samples for percentile
queries (p50/p95/p99 of the last ``capacity`` observations — the shape
a live dashboard wants, without unbounded memory under heavy traffic).

:class:`ServiceMetrics` groups one recorder per pipeline stage plus
request-outcome counters; its :meth:`~ServiceMetrics.snapshot` is the
JSON body of the gateway's ``GET /metrics``.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Mapping

__all__ = ["GatewayMetrics", "LatencyRecorder", "ServiceMetrics", "percentile"]


def percentile(samples: list[float], fraction: float) -> float:
    """The ``fraction``-quantile of ``samples`` (nearest-rank, sorted input).

    ``fraction`` is in [0, 1]; an empty sample list yields 0.0.
    """
    if not samples:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"percentile fraction must be in [0, 1], got {fraction!r}")
    rank = max(0, min(len(samples) - 1, round(fraction * (len(samples) - 1))))
    return samples[rank]


class LatencyRecorder:
    """Thread-safe latency accumulator with percentile queries.

    ``observe`` is O(1) under one small lock; ``summary`` sorts the
    retained window (bounded by ``capacity``), so it is cheap enough
    for a metrics endpoint but not meant for the per-request path.
    ``lock`` lets an owner of many recorders guard them all with its
    own lock, and so record into several under one hold
    (:meth:`ServiceMetrics.record_request`).
    """

    def __init__(self, capacity: int = 16384, lock: "threading.Lock | None" = None):
        if capacity < 1:
            raise ValueError(f"recorder needs a positive capacity, got {capacity!r}")
        self._lock = lock if lock is not None else threading.Lock()
        self._samples: "deque[float]" = deque(maxlen=capacity)
        self._count = 0
        self._total = 0.0
        self._max = 0.0

    def observe(self, seconds: float) -> None:
        with self._lock:
            self._add(seconds)

    def _add(self, seconds: float) -> None:  # call with the lock held
        self._samples.append(seconds)
        self._count += 1
        self._total += seconds
        if seconds > self._max:
            self._max = seconds

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def percentiles(self, *fractions: float) -> tuple[float, ...]:
        """Quantiles over the retained window, one per fraction."""
        with self._lock:
            window = sorted(self._samples)
        return tuple(percentile(window, fraction) for fraction in fractions)

    def summary(self) -> dict[str, float]:
        """Count, mean and tail latencies in milliseconds (JSON-able)."""
        with self._lock:
            window = sorted(self._samples)
            count, total, worst = self._count, self._total, self._max
        p50, p95, p99 = (percentile(window, f) for f in (0.50, 0.95, 0.99))
        return {
            "count": count,
            "mean_ms": (total / count * 1000.0) if count else 0.0,
            "p50_ms": p50 * 1000.0,
            "p95_ms": p95 * 1000.0,
            "p99_ms": p99 * 1000.0,
            "max_ms": worst * 1000.0,
        }


class ServiceMetrics:
    """Per-stage latency recorders plus request-outcome counters.

    Stages are created lazily on first observation, so the pipeline
    and the load generator can share one class without agreeing on a
    fixed stage list up front.  One lock guards the dicts *and* every
    stage recorder, so a finished request is recorded — all its stages,
    their tagged twins and its outcome — under a single hold
    (:meth:`record_request`).
    """

    def __init__(self, capacity: int = 16384):
        self._capacity = capacity
        self._lock = threading.Lock()
        self._stages: dict[str, LatencyRecorder] = {}
        #: tag -> stage -> the ``"{stage}.{tag}"`` recorder (also in
        #: ``_stages``): a tagged name is formatted once, not per request.
        self._tagged: dict[str, dict[str, LatencyRecorder]] = {}
        self._outcomes: dict[str, int] = {}
        self._counters: dict[str, dict[str, int]] = {}

    def _recorder(self, name: str) -> LatencyRecorder:  # call with the lock held
        recorder = self._stages.get(name)
        if recorder is None:
            recorder = self._stages[name] = LatencyRecorder(self._capacity, self._lock)
        return recorder

    def _observe(self, name: str, seconds: float, tag: str | None) -> None:
        # call with the lock held
        self._recorder(name)._add(seconds)
        if tag is not None:
            tagged = self._tagged.setdefault(tag, {})
            recorder = tagged.get(name)
            if recorder is None:
                recorder = tagged[name] = self._recorder(f"{name}.{tag}")
            recorder._add(seconds)

    def stage(self, name: str) -> LatencyRecorder:
        """The recorder for one pipeline stage (created on demand)."""
        with self._lock:
            return self._recorder(name)

    def observe_stage(self, name: str, seconds: float, *, tag: str | None = None) -> None:
        """Record one stage latency, optionally under a tag as well.

        A tagged observation lands in both the bare recorder (so
        aggregate stage numbers keep counting everything) and a
        ``"{name}.{tag}"`` recorder — the pipeline uses tags to split
        latencies into ``cached`` vs ``uncached`` populations.
        """
        with self._lock:
            self._observe(name, seconds, tag)

    def count_outcome(self, outcome: str) -> None:
        """Bump one request-outcome counter (``ok``/``rejected``/...)."""
        with self._lock:
            self._outcomes[outcome] = self._outcomes.get(outcome, 0) + 1

    def record_request(
        self, timings: Mapping[str, float], outcome: str, *, tag: str | None = None
    ) -> None:
        """Record one finished request under a single hold of the lock.

        Equivalent to :meth:`observe_stage` for every ``stage: seconds``
        entry of ``timings`` (each under ``tag`` as well, when given)
        followed by :meth:`count_outcome` — what the pipeline does once
        per response.
        """
        with self._lock:
            for name, seconds in timings.items():
                self._observe(name, seconds, tag)
            self._outcomes[outcome] = self._outcomes.get(outcome, 0) + 1

    def outcomes(self) -> dict[str, int]:
        with self._lock:
            return dict(self._outcomes)

    def count(self, group: str, name: str, amount: int = 1) -> None:
        """Bump one counter in a named group (``resilience`` etc.).

        Groups keep subsystem counters (timeouts, stale serves,
        breaker transitions…) out of the request-outcome dict, whose
        keys are one-per-request by contract.
        """
        with self._lock:
            counters = self._counters.setdefault(group, {})
            counters[name] = counters.get(name, 0) + amount

    def count_transition(self, scope: str, old: str, new: str) -> None:
        """Count one circuit-breaker move (the breaker's listener)."""
        kind = "global" if scope == "global" else "tenant"
        with self._lock:
            counters = self._counters.setdefault("resilience", {})
            for name in (f"breaker_{new}", f"breaker_{new}.{kind}"):
                counters[name] = counters.get(name, 0) + 1

    def counters(self, group: str | None = None) -> dict:
        """One group's counters, or every group keyed by name."""
        with self._lock:
            if group is not None:
                return dict(self._counters.get(group, {}))
            return {name: dict(values) for name, values in self._counters.items()}

    def snapshot(self) -> dict[str, object]:
        """The whole metrics surface as one JSON-able mapping."""
        with self._lock:
            stages = dict(self._stages)
            outcomes = dict(self._outcomes)
            counters = {name: dict(values) for name, values in self._counters.items()}
        return {
            "outcomes": outcomes,
            "stages": {name: recorder.summary() for name, recorder in sorted(stages.items())},
            "counters": counters,
        }


class GatewayMetrics:
    """Wire-side counters and stage latencies for an event-loop gateway.

    Tracks what the pipeline's stage recorders cannot see because it
    happens before/after the pipeline runs: socket-level **read** time
    (first byte of a request to its last), **parse** time (bytes to a
    routed request), **write** time (response bytes onto the
    transport), connection churn, and **event-loop lag** (how late the
    loop's timers fire — the single best health signal for a loop that
    must never block).  :meth:`snapshot` is the ``gateway`` section of
    ``GET /metrics`` (see :meth:`RankingService.attach_gateway`).
    """

    def __init__(self, capacity: int = 8192):
        self._lock = threading.Lock()
        self._open = 0
        self._accepted = 0
        self._requests = 0
        self._bad_requests = 0
        self._read_timeouts = 0
        self.read = LatencyRecorder(capacity)
        self.parse = LatencyRecorder(capacity)
        self.write = LatencyRecorder(capacity)
        self.loop_lag = LatencyRecorder(capacity)

    def connection_opened(self) -> None:
        with self._lock:
            self._open += 1
            self._accepted += 1

    def connection_closed(self) -> None:
        with self._lock:
            self._open = max(0, self._open - 1)

    def count_request(self) -> None:
        with self._lock:
            self._requests += 1

    def count_bad_request(self) -> None:
        with self._lock:
            self._bad_requests += 1

    def count_read_timeout(self) -> None:
        with self._lock:
            self._read_timeouts += 1

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            open_now, accepted = self._open, self._accepted
            requests, bad, timeouts = self._requests, self._bad_requests, self._read_timeouts
        return {
            "attached": True,
            "connections": {"open": open_now, "accepted": accepted},
            "requests": requests,
            "bad_requests": bad,
            "read_timeouts": timeouts,
            "stages": {
                "read": self.read.summary(),
                "parse": self.parse.summary(),
                "write": self.write.summary(),
            },
            "loop_lag": self.loop_lag.summary(),
        }
