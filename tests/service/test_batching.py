"""The cross-request batch scheduler and its pipeline wiring.

Correctness bar: under any interleaving of arrivals, deadlines and
scoring failures, every request submitted to the scheduler gets exactly
one outcome — its sequential-identical scores, or the error the
sequential path would have raised, or `DeadlineExceeded` without ever
entering a kernel pass. Nothing is lost, duplicated or silently held
past its deadline.
"""

import threading
import time

import pytest

from repro.core.kernel import score_values
from repro.engine import RankingEngine, RankRequest
from repro.errors import EngineError, ReproError
from repro.service import (
    BatchScheduler,
    Deadline,
    DeadlineExceeded,
    RankingService,
    ServiceConfig,
)
from repro.service import batching as batching_module
from repro.tenants import TenantRegistry
from repro.workloads import build_tvtouch, set_breakfast_weekend_context


@pytest.fixture()
def engine():
    world = build_tvtouch()
    set_breakfast_weekend_context(world)
    engine = RankingEngine.from_world(world)
    engine.rank()  # publish the basis so prepare_rank is batchable
    return engine


def prepare(engine, probability):
    prepared = engine.prepare_rank((f"Weekend:{probability}",), RankRequest())
    assert prepared.response is None, "fixture must produce batchable snapshots"
    return prepared


def sequential_scores(prepared):
    return score_values(prepared.kernel.score_documents())


def run_concurrently(scheduler, jobs):
    """Submit every (prepared, deadline) pair from its own thread."""
    outcomes = [None] * len(jobs)

    def submit(index, prepared, deadline):
        try:
            outcomes[index] = ("ok", scheduler.execute(prepared, deadline))
        except BaseException as exc:  # noqa: BLE001 - the outcome under test
            outcomes[index] = ("error", exc)

    threads = [
        threading.Thread(target=submit, args=(index, prepared, deadline))
        for index, (prepared, deadline) in enumerate(jobs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive(), "a scheduler call never returned"
    return outcomes


class TestSchedulerConfig:
    def test_rejects_singleton_batches(self):
        with pytest.raises(ReproError):
            BatchScheduler(max_batch_size=1)

    def test_rejects_negative_wait(self):
        with pytest.raises(ReproError):
            BatchScheduler(max_wait_us=-1)


class TestBatchedExecution:
    def test_concurrent_group_fuses_and_matches_sequential(self, engine):
        scheduler = BatchScheduler(max_batch_size=4, max_wait_us=200_000)
        jobs = [(prepare(engine, f"0.{n}1"), None) for n in range(4)]
        expected = [sequential_scores(prepared) for prepared, _ in jobs]
        outcomes = run_concurrently(scheduler, jobs)
        for (state, scores_map), reference in zip(outcomes, expected):
            assert state == "ok"
            assert {k: v.value for k, v in scores_map.items()} == pytest.approx(
                reference, abs=1e-9
            )
        snapshot = scheduler.snapshot()
        assert snapshot["batches"] == 1
        assert snapshot["batch_size_histogram"] == {4: 1}
        assert snapshot["rows_scored"] == 4

    def test_full_batch_flushes_without_waiting_out_the_window(self, engine):
        scheduler = BatchScheduler(max_batch_size=2, max_wait_us=30_000_000)
        jobs = [(prepare(engine, "0.21"), None), (prepare(engine, "0.84"), None)]
        started = time.perf_counter()
        outcomes = run_concurrently(scheduler, jobs)
        assert time.perf_counter() - started < 5.0
        assert all(state == "ok" for state, _ in outcomes)

    def test_lone_leader_flushes_at_the_window(self, engine):
        scheduler = BatchScheduler(max_batch_size=8, max_wait_us=10_000)
        scores_map = scheduler.execute(prepare(engine, "0.33"), None)
        assert scores_map
        snapshot = scheduler.snapshot()
        assert snapshot["batch_size_histogram"] == {1: 1}
        assert snapshot["bypass"]["singleton_flushes"] == 1

    def test_expired_deadline_never_enters_a_kernel_pass(self, engine, monkeypatch):
        scheduler = BatchScheduler(max_batch_size=4, max_wait_us=1_000)

        def forbidden(prepared):
            raise AssertionError("expired request reached the scorer")

        monkeypatch.setattr(batching_module, "score_prepared_batch", forbidden)
        expired = Deadline(expires_at=time.monotonic() - 1.0, timeout=0.01)
        with pytest.raises(DeadlineExceeded):
            scheduler.execute(prepare(engine, "0.5"), expired)
        snapshot = scheduler.snapshot()
        assert snapshot["expired_in_queue"] == 1
        assert snapshot["batches"] == 0

    def test_deadline_clips_the_batching_window(self, engine):
        # Window 30s, member deadline 150ms: the flush must come at the
        # deadline, not the window, and must be counted as forced.
        scheduler = BatchScheduler(max_batch_size=8, max_wait_us=30_000_000)
        deadline = Deadline.after(0.15)
        started = time.perf_counter()
        scores_map = scheduler.execute(prepare(engine, "0.44"), deadline)
        elapsed = time.perf_counter() - started
        assert scores_map
        assert elapsed < 5.0, "leader waited the full window despite a deadline"
        assert scheduler.snapshot()["deadline_flushes"] == 1

    def test_scoring_failure_contained_per_entry(self, engine, monkeypatch):
        real = batching_module.score_prepared_batch
        poison = prepare(engine, "0.66")

        def flaky(prepared):
            if any(item is poison for item in prepared):
                raise RuntimeError("injected scorer fault")
            return real(prepared)

        monkeypatch.setattr(batching_module, "score_prepared_batch", flaky)
        scheduler = BatchScheduler(max_batch_size=2, max_wait_us=500_000)
        healthy = prepare(engine, "0.12")
        outcomes = run_concurrently(scheduler, [(healthy, None), (poison, None)])
        by_state = dict(outcomes)
        # The healthy mate is re-scored alone; only the poisoned one errors.
        assert "ok" in by_state and "error" in by_state
        assert isinstance(by_state["error"], RuntimeError)

    def test_close_drains_open_groups(self, engine):
        scheduler = BatchScheduler(max_batch_size=8, max_wait_us=30_000_000)
        outcome = []

        def leader():
            outcome.append(scheduler.execute(prepare(engine, "0.71"), None))

        thread = threading.Thread(target=leader)
        thread.start()
        deadline = time.perf_counter() + 5
        # A request is counted in the critical section that enqueues it.
        while scheduler.snapshot()["requests"] == 0:
            assert time.perf_counter() < deadline, "leader never enqueued"
            time.sleep(0.005)
        scheduler.close()
        thread.join(timeout=5)
        assert not thread.is_alive(), "close() left the leader waiting"
        assert outcome and outcome[0], "drained leader must still be scored"

    def test_post_close_bypasses_sequentially(self, engine):
        scheduler = BatchScheduler(max_batch_size=4, max_wait_us=30_000_000)
        scheduler.close()
        scores_map = scheduler.execute(prepare(engine, "0.27"), None)
        assert scores_map
        snapshot = scheduler.snapshot()
        assert snapshot["bypass"]["closed"] == 1
        assert snapshot["batches"] == 0

    def test_hammer_no_request_lost_or_duplicated(self, engine):
        # Churn: 24 requests across batches, mixed deadlines (some
        # pre-expired), every live request must come back with its own
        # sequential-identical scores, every expired one with a 504.
        scheduler = BatchScheduler(max_batch_size=4, max_wait_us=20_000)
        jobs = []
        expired_indices = set()
        for n in range(24):
            prepared = prepare(engine, f"0.{n + 10}")
            if n % 6 == 5:
                deadline = Deadline(expires_at=time.monotonic() - 1.0, timeout=0.01)
                expired_indices.add(n)
            else:
                deadline = Deadline.after(30.0)
            jobs.append((prepared, deadline))
        expected = [sequential_scores(prepared) for prepared, _ in jobs]
        outcomes = run_concurrently(scheduler, jobs)
        for index, ((state, payload), reference) in enumerate(zip(outcomes, expected)):
            if index in expired_indices:
                assert state == "error"
                assert isinstance(payload, DeadlineExceeded)
            else:
                assert state == "ok", f"request {index} got {payload!r}"
                assert {
                    k: v.value for k, v in payload.items()
                } == pytest.approx(reference, abs=1e-9)
        snapshot = scheduler.snapshot()
        assert snapshot["requests"] == 24
        assert snapshot["expired_in_queue"] == len(expired_indices)
        assert snapshot["batched_requests"] == 24 - len(expired_indices)


class TestPipelineWiring:
    def make_service(self, **overrides):
        config = dict(
            max_concurrency=8,
            batch_max_size=8,
            batch_max_wait_us=20_000,
        )
        config.update(overrides)
        registry = TenantRegistry(build_tvtouch(), shards=4, max_sessions=64)
        return RankingService(registry, ServiceConfig(**config))

    def test_config_validation(self):
        with pytest.raises(EngineError):
            ServiceConfig(batch_max_size=-1)
        with pytest.raises(EngineError):
            ServiceConfig(batch_max_wait_us=-0.5)

    def test_disabled_by_default(self):
        service = self.make_service(batch_max_size=0)
        try:
            assert service.batcher is None
            assert service.metrics_snapshot()["batching"] == {"enabled": False}
        finally:
            service.close()

    def test_batched_service_matches_unbatched(self):
        batched = self.make_service()
        sequential = self.make_service(batch_max_size=0)
        try:
            warm = {"tenant": ["warm"], "context": ["Weekend:0.5"], "top_k": ["3"]}
            assert batched.rank(warm).status == 200
            assert sequential.rank(warm).status == 200

            def params(n):
                return {
                    "tenant": [f"t{n}"],
                    "context": [f"Weekend:0.{n + 10}"],
                    "top_k": ["3"],
                }

            replies = [None] * 8
            threads = [
                threading.Thread(
                    target=lambda n=n: replies.__setitem__(n, batched.rank(params(n)))
                )
                for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            for n, reply in enumerate(replies):
                assert reply.status == 200
                reference = sequential.rank(params(n))
                assert reply.body["items"] == reference.body["items"]
            snapshot = batched.metrics_snapshot()["batching"]
            assert snapshot["enabled"]
            assert snapshot["batched_requests"] >= 1
            config = batched.metrics_snapshot()["config"]
            assert config["batch_max_size"] == 8
        finally:
            batched.close()
            sequential.close()

    def test_close_shuts_the_batcher(self):
        service = self.make_service()
        service.close()
        assert service.batcher is not None
        # The batcher is drained: anything submitted now bypasses to a
        # sequential score instead of waiting on a leader that cannot
        # come.
        assert service.batcher._closed
        assert service.metrics_snapshot()["batching"]["enabled"]
