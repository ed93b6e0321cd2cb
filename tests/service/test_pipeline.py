"""RankingService: the staged request pipeline over a tenant fleet."""

import threading

import pytest

from repro.errors import EngineError
from repro.reason import clear_registry
from repro.service import (
    RankingService,
    ServiceConfig,
    ServiceRequest,
    ServiceResponse,
)
from repro.tenants import TenantRegistry
from repro.workloads import EXPECTED_TABLE1_SCORES, build_tvtouch


@pytest.fixture(autouse=True)
def fresh_registry_state():
    clear_registry()
    yield
    clear_registry()


@pytest.fixture()
def service():
    registry = TenantRegistry(build_tvtouch(), shards=4, max_sessions=64)
    return RankingService(registry, ServiceConfig())


class TestParsing:
    def test_params_round_trip(self):
        request = ServiceRequest.from_params(
            {
                "tenant": ["alice"],
                "context": ["Weekend", "Breakfast:0.7"],
                "top_k": ["3"],
                "documents": ["a,b", "c"],
                "explain": ["true"],
            }
        )
        assert request == ServiceRequest(
            tenant="alice",
            context=("Weekend", "Breakfast:0.7"),
            top_k=3,
            documents=("a", "b", "c"),
            explain=True,
        )

    def test_missing_tenant_rejected(self):
        with pytest.raises(EngineError, match="tenant"):
            ServiceRequest.from_params({"context": ["Weekend"]})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(EngineError, match="unknown rank parameters"):
            ServiceRequest.from_params({"tenant": ["a"], "frobnicate": ["1"]})

    def test_bad_top_k_rejected(self):
        with pytest.raises(EngineError, match="top_k"):
            ServiceRequest.from_params({"tenant": ["a"], "top_k": ["three"]})


class TestPipeline:
    def test_rank_reproduces_table1_scores(self, service):
        reply = service.rank(
            {"tenant": ["peter"], "context": ["Weekend", "Breakfast"]}
        )
        assert isinstance(reply, ServiceResponse) and reply.ok
        scores = {item["document"]: item["score"] for item in reply.body["items"]}
        # The minted tenant user is 'peter' (the tenant id), so this is
        # exactly the paper's Section 4.2 arithmetic.
        for document, expected in EXPECTED_TABLE1_SCORES.items():
            assert scores[document] == pytest.approx(expected, abs=1e-9)
        assert reply.body["tenant"] == "peter"
        assert reply.body["context"] == ["Weekend", "Breakfast"]

    def test_tenants_never_write_the_shared_database(self):
        # Every tenant's engine reads the world's one Database; ranking
        # must leave it as built (SQL reads scores through the
        # `preferencescore` virtual column, never a table).
        world = build_tvtouch()
        tables = world.database.table_names
        service = RankingService(TenantRegistry(world, shards=2, max_sessions=8))
        try:
            for tenant in ("peter", "paula"):
                reply = service.rank({"tenant": [tenant], "context": ["Weekend", "Breakfast"]})
                assert reply.ok
            assert world.database.table_names == tables
            answer = service.registry.session("peter").engine.rank(
                "SELECT name, preferencescore FROM Programs "
                "WHERE preferencescore > 0.5 ORDER BY preferencescore DESC"
            )
            assert answer.result.rows == [("Channel 5 news", pytest.approx(0.6006, abs=1e-9))]
            assert world.database.table_names == tables
        finally:
            service.close()

    def test_standing_context_survives_between_requests(self, service):
        install = service.install_context("alice", ["Weekend", "Breakfast"])
        assert install.ok
        first = service.rank({"tenant": ["alice"]})
        second = service.rank({"tenant": ["alice"]})
        assert first.ok and second.ok
        assert first.body["items"] == second.body["items"]
        assert second.body["from_cache"] is True
        top = first.body["items"][0]
        assert top["document"] == "channel5_news"

    def test_empty_context_clears_the_standing_one(self, service):
        service.install_context("carol", ["Weekend", "Breakfast"])
        with_context = service.rank({"tenant": ["carol"]})
        cleared = service.rank({"tenant": ["carol"], "context": []})
        contextual = {item["document"]: item["score"] for item in with_context.body["items"]}
        top_scores = {item["document"]: item["score"] for item in cleared.body["items"]}
        # Context-free no rule applies: every document scores a flat 1.0
        # (empty product), so the ranking stops discriminating.
        assert set(top_scores.values()) == {1.0}
        assert len(set(contextual.values())) > 1

    def test_bad_context_spec_is_a_400_not_a_raise(self, service):
        reply = service.rank({"tenant": ["alice"], "context": ["Breakfast:nope"]})
        assert reply.status == 400
        assert "probability" in reply.body["error"]
        assert service.metrics.outcomes().get("bad_request") == 1

    def test_bad_spec_leaves_the_standing_context_intact(self, service):
        """A rejected delta must not half-install: the first (valid)
        spec of a bad menu must not clobber the standing context."""
        service.install_context("fred", ["Weekend", "Breakfast"])
        before = service.rank({"tenant": ["fred"]}).body["items"]
        # Valid first spec, invalid second: the whole delta is refused.
        reply = service.rank(
            {"tenant": ["fred"], "context": ["Weekend", "Breakfast:2.0"]}
        )
        assert reply.status == 400
        after = service.rank({"tenant": ["fred"]}).body["items"]
        assert after == before  # still Weekend+Breakfast, not just Weekend

    def test_bad_spec_in_install_context_keeps_previous(self, service):
        service.install_context("gina", ["Weekend", "Breakfast"])
        before = service.rank({"tenant": ["gina"]}).body["items"]
        reply = service.install_context("gina", ["Weekend", "Breakfast:nope"])
        assert reply.status == 400
        assert service.rank({"tenant": ["gina"]}).body["items"] == before

    def test_top_k_truncates(self, service):
        reply = service.rank(
            {"tenant": ["dora"], "context": ["Weekend"], "top_k": ["2"]}
        )
        assert reply.ok and len(reply.body["items"]) == 2

    def test_explain_attaches_motivations(self, service):
        reply = service.rank(
            {"tenant": ["eve"], "context": ["Weekend", "Breakfast"], "explain": ["1"]}
        )
        assert reply.ok
        assert "explanation" in reply.body and "r1" in reply.body["explanation"]

    def test_the_service_creates_no_threads(self, service):
        # The callers' threads are the concurrency bound: in process,
        # a rank and a context install run on the calling thread alone.
        before = set(threading.enumerate())
        assert service.install_context("alice", ["Weekend"]).ok
        assert service.rank({"tenant": ["alice"], "context": ["Breakfast"]}).ok
        assert set(threading.enumerate()) <= before
        assert service.registry.info().pinned == 0

    def test_per_stage_timings_recorded(self, service):
        service.rank({"tenant": ["alice"], "context": ["Weekend"]})
        snapshot = service.metrics.snapshot()
        for stage in ("parse", "resolve", "context", "rank", "render", "total"):
            assert snapshot["stages"][stage]["count"] == 1, stage
        assert "admit" not in snapshot["stages"]

    def test_include_timings_attaches_to_body(self):
        registry = TenantRegistry(build_tvtouch(), shards=2, max_sessions=8)
        service = RankingService(
            registry, ServiceConfig(include_timings=True)
        )
        reply = service.rank({"tenant": ["alice"]})
        assert reply.ok
        assert set(reply.body["timings_ms"]) >= {"rank", "total"}

    def test_health_reports_fleet_occupancy(self, service):
        service.rank({"tenant": ["alice"]})
        health = service.health()
        assert health["status"] == "ok"
        assert health["registry"]["active_sessions"] == 1
        assert health["registry"]["shards"] == 4

    def test_metrics_reasoner_block_stays_flat_under_fresh_context(self, service):
        boot = service.metrics_snapshot()["reasoner"]
        assert boot["space_events"] == len(service.registry.space)
        service.rank({"tenant": ["alice"], "context": ["Weekend", "Breakfast:0.7"]})
        warm = service.metrics_snapshot()["reasoner"]
        assert warm["memo_probabilities"] > 0  # the static events, priced once
        for index in range(40):
            reply = service.rank(
                {
                    "tenant": [f"t{index % 4}"],
                    "context": ["Weekend", f"Breakfast:{(index + 1) / 43!r}"],
                }
            )
            assert reply.ok
        after = service.metrics_snapshot()["reasoner"]
        for flat in ("space_events", "memo_probabilities"):
            assert after[flat] == warm[flat]
        assert warm["space_events"] == boot["space_events"]
        # The context-bind counters are the block's moving part.
        assert after["rules_rebound"] > warm["rules_rebound"]
        assert after["verdicts_carried"] > warm["verdicts_carried"]


class TestConcurrentRequests:
    def test_parallel_tenants_all_answer_correctly(self, service):
        errors = []
        replies = {}

        def worker(tenant):
            try:
                reply = service.rank(
                    {"tenant": [tenant], "context": ["Weekend", "Breakfast"]}
                )
                replies[tenant] = reply
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(f"tenant_{n}",)) for n in range(12)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(replies) == 12
        for reply in replies.values():
            assert reply.ok
            assert reply.body["items"][0]["document"] == "channel5_news"
