"""The HTTP/JSON gateway: endpoints, status codes, identity with the engine."""

import json
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.cache import InMemoryCacheAdapter
from repro.engine import RankingEngine
from repro.reason import clear_registry
from repro.service import RankingService, ServiceConfig, make_aio_server
from repro.tenants import TenantRegistry
from repro.workloads import build_tvtouch


@pytest.fixture()
def gateway():
    clear_registry()
    registry = TenantRegistry(build_tvtouch(), max_sessions=64)
    service = RankingService(registry, ServiceConfig())
    server = make_aio_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()
    clear_registry()


def get_json(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def post_json(url: str, payload: dict):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


class TestRankEndpoint:
    def test_rank_matches_the_in_process_engine(self, gateway):
        status, body = get_json(
            f"{gateway.url}/rank?tenant=peter&context=Weekend&context=Breakfast"
        )
        assert status == 200
        engine = RankingEngine.from_world(build_tvtouch())
        engine.install_context("Weekend", "Breakfast")
        expected = engine.preference_scores()
        served = {item["document"]: item["score"] for item in body["items"]}
        assert set(served) == set(expected)
        for document, value in expected.items():
            assert served[document] == pytest.approx(value, abs=1e-9)

    def test_top_k_and_positions(self, gateway):
        status, body = get_json(
            f"{gateway.url}/rank?tenant=a&context=Weekend&top_k=2"
        )
        assert status == 200
        assert [item["position"] for item in body["items"]] == [1, 2]

    def test_missing_tenant_is_400(self, gateway):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(f"{gateway.url}/rank?context=Weekend")
        assert excinfo.value.code == 400
        assert "tenant" in json.loads(excinfo.value.read())["error"]

    def test_unknown_path_is_404(self, gateway):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(f"{gateway.url}/nope")
        assert excinfo.value.code == 404

    def test_documents_restricts_the_candidates(self, gateway):
        status, body = get_json(
            f"{gateway.url}/rank?tenant=d&context=Weekend&documents=bbc_news,oprah"
        )
        assert status == 200
        assert [item["document"] for item in body["items"]] == ["oprah", "bbc_news"]

    def test_explain_attaches_the_explanation(self, gateway):
        status, body = get_json(
            f"{gateway.url}/rank?tenant=e&context=Weekend&top_k=1&explain=1"
        )
        assert status == 200
        assert body["items"][0]["document"] in body["explanation"]
        status, plain = get_json(f"{gateway.url}/rank?tenant=e&top_k=1")
        assert "explanation" not in plain

    def test_context_parameter_replaces_the_standing_context(self, gateway):
        post_json(
            f"{gateway.url}/context",
            {"tenant": "swap", "context": ["Weekend", "Breakfast"]},
        )
        status, body = get_json(f"{gateway.url}/rank?tenant=swap&context=Weekend")
        assert status == 200
        engine = RankingEngine.from_world(build_tvtouch())
        engine.install_context("Weekend")
        served = {item["document"]: item["score"] for item in body["items"]}
        assert served == pytest.approx(engine.preference_scores(), abs=1e-9)
        assert body["context"] == ["Weekend"]

    @pytest.mark.parametrize(
        "query, message",
        [
            ("tenant=a&bogus=1", "unknown rank parameters"),
            ("tenant=a&top_k=many", "top_k must be an integer"),
            ("tenant=a&tenant=b", "exactly one"),
            ("tenant=a&timeout=-1", "positive"),
        ],
        ids=["unknown-param", "bad-top-k", "two-tenants", "negative-timeout"],
    )
    def test_malformed_rank_query_is_400(self, gateway, query, message):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(f"{gateway.url}/rank?{query}")
        assert excinfo.value.code == 400
        assert message in json.loads(excinfo.value.read())["error"]


def test_repeat_under_an_unchanged_context_is_a_cache_hit():
    clear_registry()
    registry = TenantRegistry(build_tvtouch(), max_sessions=64)
    service = RankingService(
        registry, ServiceConfig(), cache=InMemoryCacheAdapter()
    )
    server = make_aio_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"{server.url}/rank?tenant=hit&context=Weekend&context=Breakfast&top_k=3"
        _, first = get_json(url)
        _, again = get_json(url)
        assert first.get("cached") is not True
        assert again["cached"] is True
        assert again["items"] == first["items"]
        _, metrics = get_json(f"{server.url}/metrics")
        assert metrics["outcomes"]["ok_cached"] == 1
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.close()
        clear_registry()
    assert not thread.is_alive()


class TestContextEndpoint:
    def test_post_context_sets_the_standing_context(self, gateway):
        status, body = post_json(
            f"{gateway.url}/context",
            {"tenant": "alice", "context": ["Weekend", "Breakfast"]},
        )
        assert status == 200 and body["installed"] == 2
        status, ranked = get_json(f"{gateway.url}/rank?tenant=alice")
        assert status == 200
        assert ranked["items"][0]["document"] == "channel5_news"

    def test_post_without_body_is_400(self, gateway):
        request = urllib.request.Request(f"{gateway.url}/context", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_post_invalid_json_is_400(self, gateway):
        request = urllib.request.Request(
            f"{gateway.url}/context", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_bad_context_spec_is_400(self, gateway):
        request = urllib.request.Request(
            f"{gateway.url}/context",
            data=json.dumps({"tenant": "a", "context": ["Breakfast:2.0"]}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400


class TestObservability:
    def test_healthz(self, gateway):
        status, body = get_json(f"{gateway.url}/healthz")
        assert status == 200 and body["status"] == "ok"
        assert body["registry"]["max_sessions"] == 64
        assert "shards" not in body["registry"]

    def test_metrics_counts_requests(self, gateway):
        get_json(f"{gateway.url}/rank?tenant=a&context=Weekend")
        get_json(f"{gateway.url}/rank?tenant=a")
        status, body = get_json(f"{gateway.url}/metrics")
        assert status == 200
        assert body["outcomes"]["ok"] == 2
        assert body["stages"]["rank"]["count"] == 2
        assert body["config"] == {
            "request_timeout": 2.0,
            "stale_max_age": 0.0,  # the in-process default: no cache
        }

    def test_concurrent_http_clients(self, gateway):
        errors = []
        winners = []

        def client(tenant):
            try:
                status, body = get_json(
                    f"{gateway.url}/rank?tenant={tenant}"
                    "&context=Weekend&context=Breakfast&top_k=1"
                )
                assert status == 200
                winners.append(body["items"][0]["document"])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(f"t{n}",)) for n in range(10)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert winners == ["channel5_news"] * 10


class TestResilienceSurface:
    def test_readyz_is_ready_on_a_healthy_gateway(self, gateway):
        status, body = get_json(f"{gateway.url}/readyz")
        assert status == 200
        assert body["status"] == "ready"
        assert body["problems"] == []
        assert body["breaker"]["enabled"] is True

    def test_readyz_degrades_while_the_breaker_is_open(self, gateway):
        service = gateway.service
        for _ in range(service.breaker.min_requests):
            service.breaker.record_failure("anyone")
        try:
            get_json(f"{gateway.url}/readyz")
        except urllib.error.HTTPError as error:
            assert error.code == 503
            body = json.loads(error.read())
            assert body["status"] == "degraded"
            assert "breaker_open" in body["problems"]
        else:  # pragma: no cover - failure path
            pytest.fail("/readyz answered 200 with the breaker open")

    def test_shed_carries_retry_after_header(self, gateway):
        service = gateway.service
        for _ in range(service.breaker.min_requests):
            service.breaker.record_failure("anyone")
        try:
            get_json(f"{gateway.url}/rank?tenant=anyone")
        except urllib.error.HTTPError as error:
            assert error.code == 503
            assert int(error.headers["Retry-After"]) >= 1
        else:  # pragma: no cover - failure path
            pytest.fail("breaker-open rank was not shed")

    def test_x_request_timeout_header_maps_to_the_timeout_param(self, gateway):
        request = urllib.request.Request(
            f"{gateway.url}/rank?tenant=alice&top_k=2",
            headers={"X-Request-Timeout": "nonsense"},
        )
        try:
            urllib.request.urlopen(request, timeout=10)
        except urllib.error.HTTPError as error:
            # The header reached the parse stage: a malformed value is
            # a 400, proving the mapping (a good value just works).
            assert error.code == 400
            assert "timeout" in json.loads(error.read())["error"]
        else:  # pragma: no cover - failure path
            pytest.fail("malformed X-Request-Timeout was not rejected")
        request = urllib.request.Request(
            f"{gateway.url}/rank?tenant=alice&top_k=2",
            headers={"X-Request-Timeout": "5"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 200

    @pytest.mark.parametrize(
        "query, header, status, timeout",
        [
            # the header applies when the query names no timeout ...
            ("tenant=alice&top_k=2", "1.5", 200, 1.5),
            # ... the query's wins when both do, even over a bad header ...
            ("tenant=alice&top_k=2&timeout=3", "1.5", 200, 3.0),
            ("timeout=3&tenant=alice", "nonsense", 200, 3.0),
            # ... a blank query timeout still wins (and is still a 400) ...
            ("tenant=alice&timeout=", "1.5", 400, None),
            # ... and a header is one value, never more parameters
            ("tenant=alice", "1&tenant=mallory", 400, None),
            ("tenant=alice", "", 400, None),
        ],
    )
    def test_x_request_timeout_precedence(self, gateway, query, header, status, timeout):
        seen = []
        begin_rank = gateway.service.begin_rank

        def spy(request):
            attempt = begin_rank(request)
            seen.append(attempt)
            return attempt

        gateway.service.begin_rank = spy
        request = urllib.request.Request(
            f"{gateway.url}/rank?{query}", headers={"X-Request-Timeout": header}
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                code, body = response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            code, body = error.code, json.loads(error.read())
        assert code == status, body
        assert len(seen) == 1
        if status == 200:
            assert body["tenant"] == "alice"
            assert seen[0].request.timeout == timeout
            assert seen[0].effective_timeout == timeout
        else:
            assert body["error"].startswith("timeout must be a")

    def test_metrics_exposes_resilience_section(self, gateway):
        get_json(f"{gateway.url}/rank?tenant=a&context=Weekend")
        status, body = get_json(f"{gateway.url}/metrics")
        assert status == 200
        resilience = body["resilience"]
        assert resilience["breaker"]["enabled"] is True
        assert resilience["breaker"]["state"] == "closed"
        assert resilience["fault_injection"]["active"] is False
        # Every pin and every dispatch of the answered rank came back.
        assert body["registry"]["pinned"] == 0
        assert body["gateway"]["pending_dispatch"] == 0
        assert body["config"]["request_timeout"] == 2.0

    def test_inflight_tracking_returns_to_idle(self, gateway):
        get_json(f"{gateway.url}/rank?tenant=a&top_k=1")
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and gateway.inflight:
            time.sleep(0.01)
        assert gateway.inflight == 0
        assert gateway.drain(0.5) is True
