"""Every failed-rank exit of the pipeline, row by row.

A rank that does not end in a fresh answer ends in one of five
outcomes — ``shed_breaker``, ``rejected`` (the gateway's overload
valve), ``timeout``, ``bad_request`` and ``error`` — each answered with
a fixed status, counted under fixed ``resilience`` counters, settling
the circuit breaker one fixed way and, where the row allows it, served
from a stale cache body instead.  These tests pin each exit from the
outside: status, headers, body, outcome label, the counters and stage
recorders the request moved, and the breaker's state after it.

Deterministic: the cache and the breaker run on fake clocks, and the
engine faults come from the seeded :class:`FaultInjector`.
"""

import pytest

from repro.cache import InMemoryCacheAdapter
from repro.reason import clear_registry
from repro.service import (
    CircuitBreaker,
    FaultInjector,
    RankingService,
    ServiceConfig,
)
from repro.tenants import TenantRegistry
from repro.workloads import build_tvtouch

#: The request every stale-servable case warms and then fails.
REQUEST = {"tenant": ["alice"], "context": ["Weekend", "Breakfast"], "top_k": ["3"]}

#: The server's default deadline; a client ``timeout`` below it is
#: "client-shortened" and says nothing about the engine's health.
REQUEST_TIMEOUT = 0.5

STALE_WARNING = {"Warning": '110 repro "Response is stale"'}


@pytest.fixture(autouse=True)
def fresh_registry_state():
    clear_registry()
    yield
    clear_registry()


class FakeClock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FixedRng:
    def random(self) -> float:
        return 0.0


class Case:
    """One service set up for one exit, and what the request moved."""

    def __init__(self, *, stale: bool, breaker: str):
        self.cache_clock = FakeClock()
        cache = InMemoryCacheAdapter(
            max_entries=64, ttl=5.0, clock=self.cache_clock, stale_max_age=600.0
        )
        registry = TenantRegistry(build_tvtouch(), max_sessions=64)
        self.service = RankingService(
            registry, ServiceConfig(request_timeout=REQUEST_TIMEOUT), cache=cache
        )
        if stale:
            assert self.service.rank(REQUEST).ok
            assert self.service.rank(REQUEST).body["cached"] is True
            # Expired 5 s ago, well within stale_max_age: a miss that
            # can be served stale.
            self.cache_clock.advance(10.0)
        self.breaker_clock = FakeClock()
        self.breaker = CircuitBreaker(
            min_requests=2,
            cooldown=5.0,
            jitter=0.0,
            clock=self.breaker_clock,
            rng=FixedRng(),
            on_transition=self.service.metrics.count_transition,
        )
        self.service.breaker = self.breaker
        if breaker in ("open", "half_open"):
            self.breaker.record_failure("alice")
            self.breaker.record_failure("alice")
            assert self.breaker.state() == "open"
        if breaker == "half_open":
            # Cooled down: the next request through is the probe.
            self.breaker_clock.advance(5.1)
        self._before = self._moved()

    def _moved(self) -> tuple[dict, dict, dict]:
        metrics = self.service.metrics
        stages = {
            name: summary["count"]
            for name, summary in metrics.snapshot()["stages"].items()
        }
        return metrics.outcomes(), metrics.counters("resilience"), stages

    def delta(self) -> tuple[dict, dict, set]:
        """``(outcomes, resilience counters, stage recorders)`` moved since setup."""
        after = self._moved()

        def diff(new, old):
            return {k: v - old.get(k, 0) for k, v in new.items() if v != old.get(k, 0)}

        outcomes, counters, stages = (diff(n, o) for n, o in zip(after, self._before))
        return outcomes, counters, set(stages)

    def probe_free(self) -> bool:
        """Would the next request for alice get through the breaker?"""
        return self.breaker.allow("alice").allowed

    def close(self) -> None:
        self.service.close()


#: Stage recorders a stale answer moves: the stages run, each also
#: under the ``stale`` tag, and ``total`` likewise.
def stale_stages(*stages: str) -> set:
    names = (*stages, "total")
    return {*names, *(f"{name}.stale" for name in names)}


def assert_stale(reply, reason: str) -> None:
    assert reply.status == 200
    assert reply.headers == STALE_WARNING
    body = reply.body
    assert body["stale"] is True and body["cached"] is True
    assert body["stale_reason"] == reason
    assert body["stale_age_seconds"] == pytest.approx(5.0)
    assert "stale_context_digest" not in body  # the exact key's body
    assert body["context"] == REQUEST["context"]
    assert [item["document"] for item in body["items"]][:1] == ["channel5_news"]


#: The counters a half-open probe's trip through the breaker moves
#: (both scopes, global and alice, go half-open) ...
HALF_OPEN = {"breaker_half_open": 2, "breaker_half_open.global": 1,
             "breaker_half_open.tenant": 1}
#: ... and a failure recorded against that probe (both re-open).
REOPEN = {"breaker_open": 2, "breaker_open.global": 1, "breaker_open.tenant": 1}


class TestShedBreaker:
    def test_open_breaker_sheds_503(self):
        case = Case(stale=False, breaker="open")
        reply = case.service.rank(REQUEST)
        assert reply.status == 503
        assert reply.headers == {"Retry-After": "5"}
        assert reply.body == {
            "error": "circuit breaker open (global): recent rank failures; request shed",
            "breaker_scope": "global",
            "retry_after_seconds": 5.0,
        }
        outcomes, counters, stages = case.delta()
        assert outcomes == {"shed_breaker": 1}
        assert counters == {"shed": 1, "shed.breaker": 1, "stale_miss": 1}
        assert stages == {"parse", "cache", "breaker", "total"}
        assert case.breaker.state() == "open" and not case.probe_free()
        case.close()

    def test_open_breaker_serves_stale(self):
        case = Case(stale=True, breaker="open")
        reply = case.service.rank(REQUEST)
        assert_stale(reply, "breaker_open")
        outcomes, counters, stages = case.delta()
        assert outcomes == {"ok_stale": 1}
        assert counters == {
            "shed": 1, "shed.breaker": 1,
            "stale_served": 1, "stale_served.breaker_open": 1,
        }
        assert stages == stale_stages("parse", "cache", "breaker")
        assert case.breaker.state() == "open" and not case.probe_free()
        case.close()

    def test_the_retry_after_follows_the_cooldown_left(self):
        case = Case(stale=False, breaker="open")
        case.breaker_clock.advance(2.5)
        reply = case.service.rank(REQUEST)
        assert reply.status == 503
        assert reply.body["retry_after_seconds"] == pytest.approx(2.5)
        assert reply.headers == {"Retry-After": "3"}  # rounded up
        case.close()


class TestRejected:
    def test_overload_shed_is_503(self):
        case = Case(stale=False, breaker="closed")
        attempt = case.service.begin_rank(REQUEST)
        assert attempt.response is None  # a miss the gateway would dispatch
        reply = case.service.shed_inline(attempt)
        assert reply.status == 503
        assert reply.headers == {"Retry-After": "1"}
        assert reply.body == {"error": "service overloaded: gateway dispatch queue full"}
        outcomes, counters, stages = case.delta()
        assert outcomes == {"rejected": 1}
        assert counters == {"shed": 1, "shed.overload": 1, "stale_miss": 1}
        assert stages == {"parse", "cache", "total"}
        assert case.breaker.state() == "closed" and case.probe_free()
        case.close()

    def test_overload_shed_serves_stale(self):
        case = Case(stale=True, breaker="closed")
        attempt = case.service.begin_rank(REQUEST)
        assert attempt.response is None
        reply = case.service.shed_inline(attempt)
        assert_stale(reply, "overload")
        outcomes, counters, stages = case.delta()
        assert outcomes == {"ok_stale": 1}
        assert counters == {
            "shed": 1, "shed.overload": 1,
            "stale_served": 1, "stale_served.overload": 1,
        }
        assert stages == stale_stages("parse", "cache")
        case.close()

    def test_a_shed_context_install_is_never_stale(self):
        case = Case(stale=True, breaker="closed")
        reply = case.service.shed_inline(None)
        assert reply.status == 503
        assert reply.headers == {"Retry-After": "1"}
        assert reply.body == {"error": "service overloaded: gateway dispatch queue full"}
        outcomes, counters, stages = case.delta()
        assert outcomes == {"rejected": 1}
        assert counters == {"shed": 1, "shed.overload": 1}
        assert stages == {"total"}
        case.close()

    def test_a_half_open_probe_is_not_taken_by_a_shed(self):
        case = Case(stale=False, breaker="half_open")
        case.service.shed_inline(case.service.begin_rank(REQUEST))
        outcomes, counters, _ = case.delta()
        assert outcomes == {"rejected": 1}
        assert counters == {"shed": 1, "shed.overload": 1, "stale_miss": 1}
        assert case.probe_free()  # the shed never reached the breaker
        case.close()


def slow(case: Case) -> Case:
    case.service.fault_injector = FaultInjector(rank_delay=5.0)
    return case


class TestTimeout:
    def test_server_deadline_is_504_and_a_breaker_failure(self):
        case = slow(Case(stale=False, breaker="half_open"))
        reply = case.service.rank(REQUEST)
        assert reply.status == 504
        assert reply.headers == {}
        assert reply.body == {
            "error": f"deadline exceeded: rank did not finish within {REQUEST_TIMEOUT:.3f}s",
            "timeout_seconds": REQUEST_TIMEOUT,
        }
        outcomes, counters, stages = case.delta()
        assert outcomes == {"timeout": 1}
        assert counters == {"timeouts": 1, "stale_miss": 1, **HALF_OPEN, **REOPEN}
        assert stages == {"parse", "cache", "breaker", "resolve", "context", "total"}
        assert case.breaker.state() == "open" and not case.probe_free()
        assert case.service.registry.info().pinned == 0
        case.close()

    def test_server_deadline_serves_stale(self):
        case = slow(Case(stale=True, breaker="half_open"))
        reply = case.service.rank(REQUEST)
        assert_stale(reply, "deadline")
        outcomes, counters, stages = case.delta()
        assert outcomes == {"ok_stale": 1}
        assert counters == {
            "timeouts": 1, "stale_served": 1, "stale_served.deadline": 1,
            **HALF_OPEN, **REOPEN,
        }
        assert stages == stale_stages("parse", "cache", "breaker", "resolve", "context")
        assert case.breaker.state() == "open" and not case.probe_free()
        case.close()

    def test_client_shortened_deadline_cancels_the_probe(self):
        case = slow(Case(stale=False, breaker="half_open"))
        reply = case.service.rank({**REQUEST, "timeout": ["0.08"]})
        assert reply.status == 504
        assert reply.headers == {}
        assert reply.body == {
            "error": "deadline exceeded: rank did not finish within 0.080s",
            "timeout_seconds": 0.08,
        }
        outcomes, counters, _ = case.delta()
        assert outcomes == {"timeout": 1}
        assert counters == {
            "timeouts": 1, "timeouts.client": 1, "stale_miss": 1, **HALF_OPEN,
        }
        assert case.breaker.state() == "half_open" and case.probe_free()
        case.close()

    def test_client_shortened_deadline_serves_stale(self):
        case = slow(Case(stale=True, breaker="half_open"))
        reply = case.service.rank({**REQUEST, "timeout": ["0.08"]})
        assert_stale(reply, "deadline")
        outcomes, counters, _ = case.delta()
        assert outcomes == {"ok_stale": 1}
        assert counters == {
            "timeouts": 1, "timeouts.client": 1,
            "stale_served": 1, "stale_served.deadline": 1, **HALF_OPEN,
        }
        assert case.breaker.state() == "half_open" and case.probe_free()
        case.close()


@pytest.mark.parametrize("breaker_enabled", [True, False])
def test_a_client_shortened_deadline_is_counted_whatever_the_breaker(breaker_enabled):
    """``timeouts.client`` counts what the client asked, so it moves with
    the breaker off too; the breaker only decides what the count does."""
    service = RankingService(
        TenantRegistry(build_tvtouch()),
        ServiceConfig(breaker_enabled=breaker_enabled),
        fault_injector=FaultInjector(rank_delay=2.0),
    )
    assert (service.breaker is not None) == breaker_enabled
    reply = service.rank("tenant=a&timeout=0.1")
    assert reply.status == 504
    counters = service.metrics.counters("resilience")
    assert counters["timeouts"] == 1
    assert counters["timeouts.client"] == 1
    service.close()


class TestBadRequest:
    def test_a_spec_that_does_not_parse_is_400_and_cancels_the_probe(self):
        case = Case(stale=True, breaker="half_open")
        reply = case.service.rank({"tenant": ["alice"], "context": ["Breakfast:nope"]})
        assert reply.status == 400
        assert reply.headers == {}
        assert set(reply.body) == {"error"} and "Breakfast:nope" in reply.body["error"]
        outcomes, counters, stages = case.delta()
        assert outcomes == {"bad_request": 1}
        assert counters == HALF_OPEN  # never served stale, never a failure
        assert stages == {"parse", "cache", "breaker", "resolve", "context", "total"}
        assert case.breaker.state() == "half_open" and case.probe_free()
        case.close()

    def test_a_malformed_query_is_400_before_the_breaker(self):
        case = Case(stale=True, breaker="half_open")
        reply = case.service.rank("tenant=alice&top_k=many")
        assert reply.status == 400
        assert reply.headers == {}
        assert reply.body == {"error": "top_k must be an integer, got 'many'"}
        outcomes, counters, stages = case.delta()
        assert outcomes == {"bad_request": 1}
        assert counters == {}
        assert stages == {"parse", "total"}
        assert case.probe_free()
        case.close()

    def test_a_bad_standing_context_is_400(self):
        case = Case(stale=True, breaker="half_open")
        reply = case.service.install_context("alice", ["Breakfast:nope"])
        assert reply.status == 400
        assert reply.headers == {}
        assert set(reply.body) == {"error"} and "Breakfast:nope" in reply.body["error"]
        outcomes, counters, stages = case.delta()
        assert outcomes == {"bad_request": 1}
        assert counters == {}
        assert stages == {"cache", "resolve", "context", "total"}
        assert case.probe_free()
        case.close()


def failing(case: Case) -> Case:
    case.service.fault_injector = FaultInjector(rank_error_rate=1.0, seed=1)
    return case


class TestError:
    def test_an_engine_error_is_500_and_a_breaker_failure(self):
        case = failing(Case(stale=False, breaker="half_open"))
        reply = case.service.rank(REQUEST)
        assert reply.status == 500
        assert reply.headers == {}
        assert reply.body == {
            "error": "InjectedFault: injected rank fault for 'alice' (rate=1.0)"
        }
        outcomes, counters, stages = case.delta()
        assert outcomes == {"error": 1}
        assert counters == {"rank_errors": 1, "stale_miss": 1, **HALF_OPEN, **REOPEN}
        assert stages == {"parse", "cache", "breaker", "resolve", "context", "total"}
        assert case.breaker.state() == "open" and not case.probe_free()
        assert case.service.registry.info().pinned == 0
        case.close()

    def test_an_engine_error_serves_stale(self):
        case = failing(Case(stale=True, breaker="half_open"))
        reply = case.service.rank(REQUEST)
        assert_stale(reply, "error")
        outcomes, counters, stages = case.delta()
        assert outcomes == {"ok_stale": 1}
        assert counters == {
            "rank_errors": 1, "stale_served": 1, "stale_served.error": 1,
            **HALF_OPEN, **REOPEN,
        }
        assert stages == stale_stages("parse", "cache", "breaker", "resolve", "context")
        assert case.breaker.state() == "open" and not case.probe_free()
        case.close()

    def test_a_failed_standing_context_install_is_500_and_counts_nothing(self, monkeypatch):
        case = Case(stale=False, breaker="half_open")
        session = case.service.registry.session("alice")

        def broken(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(type(session), "install_and_fingerprint", broken)
        reply = case.service.install_context("alice", ["Weekend"])
        assert reply.status == 500
        assert reply.headers == {}
        assert reply.body == {"error": "RuntimeError: disk on fire"}
        outcomes, counters, _ = case.delta()
        assert outcomes == {"error": 1}
        assert counters == {}  # not a rank: no rank_errors, no breaker failure
        assert case.breaker.state() == "open"  # untouched: no probe was taken
        assert case.probe_free()
        case.close()


class TestSuccessSettlesTheProbe:
    def test_a_fresh_answer_closes_a_half_open_breaker(self):
        case = Case(stale=False, breaker="half_open")
        reply = case.service.rank(REQUEST)
        assert reply.status == 200 and reply.headers == {}
        outcomes, counters, _ = case.delta()
        assert outcomes == {"ok": 1}
        assert counters == {
            **HALF_OPEN,
            "breaker_closed": 2, "breaker_closed.global": 1, "breaker_closed.tenant": 1,
        }
        assert case.breaker.state() == "closed" and case.probe_free()
        case.close()
