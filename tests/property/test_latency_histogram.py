"""Stage latencies as fixed log-bucket histograms.

A :class:`~repro.service.metrics.LatencyRecorder` keeps one counter per
bucket of :data:`~repro.service.metrics.BOUNDS` (16 per octave) plus an
exact count, total and maximum.  These tests hold it to its contract
against the exact nearest-rank :func:`~repro.service.metrics.percentile`
over the same samples: every reported quantile is at or above the true
one and at most one bucket width (2 ** (1 / 16)) above it inside the
bucketed range; count, mean and max are exact; the memory does not grow
with the number of observations; and concurrent recording loses nothing.
"""

from __future__ import annotations

import math
import random
import sys
import threading
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.metrics import (
    BOUNDS,
    EMPTY_SUMMARY,
    LatencyRecorder,
    ServiceMetrics,
    percentile,
)

#: One bucket's width, with a little room for the edges' float rounding.
WIDTH = 2.0 ** (1 / 16) * (1 + 1e-12)

FRACTIONS = (0.0, 0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0)

#: Latencies inside the bucketed range, drawn log-uniformly so every
#: octave (60 ns to 256 s) is reached.
inside = st.floats(min_value=math.log2(BOUNDS[0]), max_value=math.log2(BOUNDS[-1]) - 1e-9).map(
    lambda exponent: 2.0 ** exponent
)
#: ... and anywhere a timer can land, both tails and zero included.
anywhere = st.one_of(inside, st.floats(min_value=0.0, max_value=1e4), st.just(0.0))


def recorded(samples: list[float]) -> LatencyRecorder:
    recorder = LatencyRecorder()
    for seconds in samples:
        recorder.observe(seconds)
    return recorder


@settings(max_examples=200, deadline=None)
@given(st.lists(inside, min_size=1, max_size=300))
def test_quantiles_bound_the_nearest_rank_sample_within_one_bucket(samples):
    recorder = recorded(samples)
    ordered = sorted(samples)
    reported = recorder.percentiles(*FRACTIONS)
    for fraction, quantile in zip(FRACTIONS, reported):
        true = percentile(ordered, fraction)
        assert true <= quantile <= true * WIDTH, (fraction, true, quantile)
    summary = recorder.summary()
    assert summary["count"] == len(samples)
    assert summary["max_ms"] == max(samples) * 1000.0
    assert math.isclose(summary["mean_ms"], sum(samples) / len(samples) * 1000.0, rel_tol=1e-9)
    for key, fraction in (("p50_ms", 0.50), ("p95_ms", 0.95), ("p99_ms", 0.99)):
        true = percentile(ordered, fraction) * 1000.0
        assert true <= summary[key] <= true * WIDTH


@settings(max_examples=200, deadline=None)
@given(st.lists(anywhere, min_size=1, max_size=200))
def test_quantiles_never_under_report_and_never_pass_the_max(samples):
    recorder = recorded(samples)
    ordered = sorted(samples)
    for fraction, quantile in zip(FRACTIONS, recorder.percentiles(*FRACTIONS)):
        assert percentile(ordered, fraction) <= quantile <= max(samples)
    assert recorder.count == len(samples)


def test_an_empty_recorder_reads_the_empty_summary():
    assert LatencyRecorder().summary() == EMPTY_SUMMARY
    assert LatencyRecorder().percentiles(0.5, 0.99) == (0.0, 0.0)


def test_memory_does_not_grow_with_observations():
    """From 1 000 to 100 000 observations a recorder grows by at most one
    int object per bucket (a count past the small-int cache), where a
    sample ring grows by one float per observation."""
    rng = random.Random(7)
    samples = [2.0 ** rng.uniform(-17.0, -3.0) for _ in range(100_000)]  # ~8 us .. 125 ms
    recorder = LatencyRecorder()
    tracemalloc.start()
    try:
        for seconds in samples[:1_000]:
            recorder.observe(seconds)
        at_thousand = tracemalloc.get_traced_memory()[0]
        for seconds in samples[1_000:]:
            recorder.observe(seconds)
        at_hundred_thousand = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert at_hundred_thousand - at_thousand <= (len(BOUNDS) + 1) * sys.getsizeof(2**20)
    assert recorder.count == 100_000


def test_concurrent_record_request_counts_are_exact():
    metrics = ServiceMetrics()
    threads, per_thread = 8, 500
    timings = {"parse": 1e-5, "cache": 2e-5, "render": 5e-6, "total": 4e-5}
    barrier = threading.Barrier(threads)

    def hammer(index: int) -> None:
        barrier.wait()
        tag = "cached" if index % 2 else "uncached"
        for _ in range(per_thread):
            metrics.record_request(timings, "ok", tag=tag)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hammer, args=(index,)) for index in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
    snapshot = metrics.snapshot()
    assert snapshot["outcomes"] == {"ok": threads * per_thread}
    for stage, seconds in timings.items():
        assert snapshot["stages"][stage]["count"] == threads * per_thread
        assert math.isclose(snapshot["stages"][stage]["mean_ms"], seconds * 1000.0)
        for tag in ("cached", "uncached"):
            assert snapshot["stages"][f"{stage}.{tag}"]["count"] == threads // 2 * per_thread
