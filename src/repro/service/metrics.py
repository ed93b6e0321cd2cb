"""Structured latency metrics for the serving runtime.

A :class:`LatencyRecorder` is a thread-safe, fixed log-bucket
histogram: an exact count, total and maximum, plus one counter per
bucket of :data:`BOUNDS`.  Its memory is the same after a thousand
observations as after a billion, and it counts everything since boot
(as a Prometheus histogram does), so two workers' counts add up.

:class:`ServiceMetrics` groups one recorder per pipeline stage plus
request-outcome counters; its :meth:`~ServiceMetrics.snapshot` is the
JSON body of the gateway's ``GET /metrics``.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from itertools import accumulate
from typing import Mapping

__all__ = ["GatewayMetrics", "LatencyRecorder", "ServiceMetrics", "percentile"]

#: Buckets per octave: one bucket spans a factor of 2 ** (1 / 16), so a
#: bucket-bounded quantile is at most +4.4 % above the sample it stands
#: for.
BUCKETS_PER_OCTAVE = 16

#: The upper edges of the buckets, in seconds: every power of
#: 2 ** (1 / 16) from 2 ** -24 s (~60 ns, under a perf_counter tick)
#: to 2 ** 8 s (256 s, past any request deadline) — 512 buckets in
#: 32 octaves.  An observation's bucket is ``bisect_right(BOUNDS, s)``:
#: one C call, where taking the float apart in Python (``frexp``, a
#: mantissa step) costs more than the rest of a recording.  Bucket 0
#: takes everything under the first edge, bucket ``len(BOUNDS)``
#: everything from the last one up.
BOUNDS: tuple[float, ...] = tuple(
    2.0 ** (step / BUCKETS_PER_OCTAVE)
    for step in range(-24 * BUCKETS_PER_OCTAVE, 8 * BUCKETS_PER_OCTAVE + 1)
)

#: What an empty recorder's :meth:`LatencyRecorder.summary` reads.
EMPTY_SUMMARY: dict[str, float] = {
    "count": 0,
    "mean_ms": 0.0,
    "p50_ms": 0.0,
    "p95_ms": 0.0,
    "p99_ms": 0.0,
    "max_ms": 0.0,
}


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


def _quantiles(counts: list[int], worst: float, fractions: tuple[float, ...]) -> list[float]:
    """Bucket-bounded nearest-rank quantiles of a histogram, in seconds.

    Each is the upper edge of the bucket holding the sample
    :func:`percentile` would pick from the raw samples, clamped to the
    exact maximum ``worst``: never below that sample, and at most one
    bucket width above it inside the bucketed range.
    """
    cumulative = list(accumulate(counts))
    count = cumulative[-1]
    found = []
    for fraction in fractions:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"percentile fraction must be in [0, 1], got {fraction!r}")
        if not count:
            found.append(0.0)
            continue
        rank = max(0, min(count - 1, round(fraction * (count - 1))))
        # the first bucket whose running count passes the rank holds it
        index = bisect_right(cumulative, rank)
        found.append(min(BOUNDS[index], worst) if index < len(BOUNDS) else worst)
    return found


class LatencyRecorder:
    """Thread-safe latency histogram with bucket-bounded quantiles.

    ``observe`` is O(1) under one small lock; ``summary`` walks the
    fixed bucket list, so it is cheap enough for a metrics endpoint but
    not meant for the per-request path.  ``lock`` lets an owner of many
    recorders guard them all with its own lock, and so record into
    several under one hold (:meth:`ServiceMetrics.record_request`,
    :meth:`GatewayMetrics.record_response`).
    """

    __slots__ = ("_lock", "_counts", "_total", "_max")

    def __init__(self, lock: "threading.Lock | None" = None):
        self._lock = lock if lock is not None else threading.Lock()
        self._counts = [0] * (len(BOUNDS) + 1)
        self._total = 0.0
        self._max = 0.0

    def observe(self, seconds: float) -> None:
        with self._lock:
            self._add(seconds)

    def _add(self, seconds: float) -> None:  # call with the lock held
        self._counts[bisect_right(BOUNDS, seconds)] += 1
        self._total += seconds
        if seconds > self._max:
            self._max = seconds

    @property
    def count(self) -> int:
        with self._lock:
            return sum(self._counts)

    def percentiles(self, *fractions: float) -> tuple[float, ...]:
        """Bucket-bounded quantiles since boot, one per fraction (seconds)."""
        with self._lock:
            counts, worst = list(self._counts), self._max
        return tuple(_quantiles(counts, worst, fractions))

    def summary(self) -> dict[str, float]:
        """Count, mean and tail latencies in milliseconds (JSON-able).

        ``count``, ``mean_ms`` and ``max_ms`` are exact; each quantile
        is bucket-bounded (see :func:`_quantiles`).
        """
        with self._lock:
            counts, total, worst = list(self._counts), self._total, self._max
        count = sum(counts)
        p50, p95, p99 = _quantiles(counts, worst, (0.50, 0.95, 0.99))
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
    fixed stage list up front.  One lock guards the tables *and* every
    stage recorder, so a finished request is recorded — all its stages,
    their tagged twins and its outcome — under a single hold
    (:meth:`record_request`).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._stages: dict[str, LatencyRecorder] = {}
        #: tag -> stage -> the recorders one observation lands in: the
        #: bare stage's and, under a tag, the ``"{stage}.{tag}"`` one
        #: (also in ``_stages``; ``None`` untagged).  Built under the lock
        #: on a route's first use, so a tagged name is formatted once,
        #: not per request.
        self._routes: dict[
            str | None, dict[str, tuple[LatencyRecorder, LatencyRecorder | None]]
        ] = {}
        self._outcomes: dict[str, int] = {}
        self._counters: dict[str, dict[str, int]] = {}

    def _recorder(self, name: str) -> LatencyRecorder:  # call with the lock held
        recorder = self._stages.get(name)
        if recorder is None:
            recorder = self._stages[name] = LatencyRecorder(self._lock)
        return recorder

    def _record(self, timings: Mapping[str, float], tag: str | None) -> None:
        # Call with the lock held.  Each stage's bucket is found once and
        # counted in its bare recorder and, under a tag, the tagged one
        # (written out twice: this runs per stage of every response).
        routes = self._routes.get(tag)
        if routes is None:
            routes = self._routes[tag] = {}
        for name, seconds in timings.items():
            route = routes.get(name)
            if route is None:
                route = routes[name] = (
                    self._recorder(name),
                    self._recorder(f"{name}.{tag}") if tag is not None else None,
                )
            index = bisect_right(BOUNDS, seconds)
            bare, tagged = route
            bare._counts[index] += 1
            bare._total += seconds
            if seconds > bare._max:
                bare._max = seconds
            if tagged is not None:
                tagged._counts[index] += 1
                tagged._total += seconds
                if seconds > tagged._max:
                    tagged._max = seconds

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
            self._record({name: seconds}, tag)

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
            self._record(timings, tag)
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

    def __init__(self):
        self._lock = threading.Lock()
        self._open = 0
        self._accepted = 0
        self._requests = 0
        self._bad_requests = 0
        self._read_timeouts = 0
        # The wire stages share the counters' lock: one hold per response
        # (:meth:`record_response`).
        self.read = LatencyRecorder(self._lock)
        self.parse = LatencyRecorder(self._lock)
        self.write = LatencyRecorder(self._lock)
        self.loop_lag = LatencyRecorder()

    def connection_opened(self) -> None:
        with self._lock:
            self._open += 1
            self._accepted += 1

    def connection_closed(self) -> None:
        with self._lock:
            self._open = max(0, self._open - 1)

    def record_response(self, parse: float, read: float | None, write: float | None) -> None:
        """Record one parsed request's wire stages under a single hold.

        ``read`` is ``None`` when no read was timed; ``write`` is
        ``None`` when the connection closed before the answer, which is
        then neither written nor counted as a request.
        """
        with self._lock:
            self.parse._add(parse)
            if read is not None:
                self.read._add(read)
            if write is not None:
                self.write._add(write)
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
