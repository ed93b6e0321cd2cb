"""LatencyRecorder / ServiceMetrics: the serving metrics surface."""

import threading

import pytest

from repro.service import LatencyRecorder, ServiceMetrics, percentile
from repro.service.metrics import BOUNDS


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.99) == 0.0

    def test_nearest_rank_on_known_samples(self):
        samples = [float(value) for value in range(1, 102)]  # 1..101
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 101.0
        assert percentile(samples, 0.50) == 51.0  # index round(0.5 * 100)
        assert percentile(samples, 0.95) == 96.0

    def test_rejects_out_of_range_fraction(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            percentile([1.0], 1.5)


class TestLatencyRecorder:
    def test_summary_reports_milliseconds(self):
        recorder = LatencyRecorder()
        for seconds in (0.001, 0.002, 0.003, 0.004):
            recorder.observe(seconds)
        summary = recorder.summary()
        assert summary["count"] == 4
        assert summary["mean_ms"] == pytest.approx(2.5)
        assert summary["max_ms"] == pytest.approx(4.0)
        # Nearest rank is 3 ms; a bucket-bounded p50 is never below it
        # and at most one bucket width (2 ** (1 / 16)) above.
        assert 3.0 <= summary["p50_ms"] <= 3.0 * 2 ** (1 / 16)

    def test_quantiles_are_cumulative_and_count_is_exact(self):
        recorder = LatencyRecorder()
        for index in range(100):
            recorder.observe(index / 1000.0)
        assert recorder.count == 100
        # Every observation since boot counts, not a recent window:
        # the nearest-rank p50 of 0..99 ms is 50 ms.
        assert 50.0 <= recorder.summary()["p50_ms"] <= 50.0 * 2 ** (1 / 16)

    def test_concurrent_observations_are_all_counted(self):
        recorder = LatencyRecorder()

        def hammer():
            for _ in range(500):
                recorder.observe(0.001)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert recorder.count == 8 * 500

    def test_memory_is_the_same_fixed_bucket_list_however_many_observations(self):
        recorder = LatencyRecorder()
        buckets = recorder._counts
        for index in range(20_000):
            recorder.observe(index * 1e-6)
        assert recorder._counts is buckets
        assert len(buckets) == len(BOUNDS) + 1
        assert recorder.count == 20_000


class TestServiceMetrics:
    def test_stages_created_on_demand_and_snapshotted(self):
        metrics = ServiceMetrics()
        metrics.observe_stage("rank", 0.002)
        metrics.observe_stage("rank", 0.004)
        metrics.observe_stage("parse", 0.001)
        metrics.count_outcome("ok")
        metrics.count_outcome("ok")
        metrics.count_outcome("rejected")
        snapshot = metrics.snapshot()
        assert snapshot["outcomes"] == {"ok": 2, "rejected": 1}
        assert set(snapshot["stages"]) == {"rank", "parse"}
        assert snapshot["stages"]["rank"]["count"] == 2

    def test_stage_returns_one_recorder_per_name(self):
        metrics = ServiceMetrics()
        assert metrics.stage("rank") is metrics.stage("rank")
        assert metrics.stage("rank") is not metrics.stage("parse")
