"""The robustness layer: deadlines, stale serving, breaker, chaos.

Every failure branch is driven deterministically — fake clocks for the
breaker and the cache, the seeded :class:`FaultInjector` for engine
failures — so these tests never depend on machine speed except where
they measure the deadline bound itself (generous margins there).
"""

import threading
import time

import pytest

from repro.cache import InMemoryCacheAdapter
from repro.cli import build_parser
from repro.core import ScoringKernel, bind_problem
from repro.core.problem import bind_documents
from repro.engine.engine import score_documents_batch
from repro.errors import EngineConfigError, EngineError
from repro.perf.backend import numpy_or_none
from repro.perf.columns import as_floats
from repro.reason import CompiledKB, ReasonerSession, clear_registry
from repro.service import resilience
from repro.service import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    FaultInjector,
    InjectedFault,
    RankingService,
    ServiceConfig,
    ServiceRequest,
    SharedFleetState,
    clamp_timeout,
    current_deadline,
    deadline_scope,
)
from repro.tenants import TenantRegistry
from repro.workloads import (
    Section5Counts,
    build_tvtouch,
    generate_rule_series,
    generate_test_database,
    set_breakfast_weekend_context,
)

KERNEL_BACKENDS = ["python"] + (["numpy"] if numpy_or_none() is not None else [])


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
    """random.Random stand-in with a constant random()."""

    def __init__(self, value: float = 0.0):
        self.value = value

    def random(self) -> float:
        return self.value


def make_service(config=None, cache=None, **kwargs) -> RankingService:
    registry = TenantRegistry(build_tvtouch(), max_sessions=64)
    return RankingService(
        registry,
        config if config is not None else ServiceConfig(),
        cache=cache,
        **kwargs,
    )


def tune_breaker(service: RankingService, **tuning) -> CircuitBreaker:
    """Give ``service`` a breaker of ``tuning`` in place of its default
    one, reporting transitions to its metrics as the default one does."""
    service.breaker = CircuitBreaker(
        on_transition=service.metrics.count_transition, **tuning
    )
    return service.breaker


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------

class TestDeadline:
    def test_after_counts_down_and_checks(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired()
        deadline.check()  # no raise
        clock.advance(2.5)
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded):
            deadline.check()

    def test_non_positive_budget_rejected(self):
        with pytest.raises(EngineConfigError):
            Deadline.after(0.0)

    def test_scope_publishes_and_restores(self):
        assert current_deadline() is None
        deadline = Deadline.after(5.0)
        with deadline_scope(deadline):
            assert current_deadline() is deadline
        assert current_deadline() is None

    def test_deadline_exceeded_is_not_a_repro_error(self):
        # ReproError maps to 400 in the pipeline; a blown deadline must
        # stay a 504, so the types must never overlap.
        from repro.errors import ReproError

        assert not issubclass(DeadlineExceeded, ReproError)

    def test_clamp_timeout(self, monkeypatch):
        assert clamp_timeout(None, 2.0) == 2.0
        assert clamp_timeout(5.0, 2.0) == 5.0
        assert clamp_timeout(99.0, 2.0) == resilience.MAX_REQUEST_TIMEOUT == 30.0
        assert clamp_timeout(5.0, None) is None  # deadlines disabled
        assert clamp_timeout(None, None) is None
        # The floor: a near-zero client timeout cannot manufacture
        # guaranteed 504s (which would poison the breaker's accounting).
        assert clamp_timeout(0.001, 2.0) == resilience.MIN_REQUEST_TIMEOUT == 0.05
        monkeypatch.setattr(resilience, "MIN_REQUEST_TIMEOUT", 5.0)
        assert clamp_timeout(None, 2.0) == 2.0  # default wins

    def test_timeout_request_parameter(self):
        request = ServiceRequest.from_params(
            {"tenant": ["alice"], "timeout": ["0.5"]}
        )
        assert request.timeout == 0.5
        with pytest.raises(EngineError, match="timeout"):
            ServiceRequest.from_params({"tenant": ["a"], "timeout": ["-1"]})
        with pytest.raises(EngineError, match="timeout"):
            ServiceRequest.from_params({"tenant": ["a"], "timeout": ["soon"]})


class TestDeadlineInPipeline:
    def test_wedged_rank_answers_504_within_twice_the_timeout(self):
        timeout = 0.15
        service = make_service(
            ServiceConfig(
                request_timeout=timeout,
                breaker_enabled=False,
            ),
            fault_injector=FaultInjector(rank_delay=1.0),
        )
        started = time.monotonic()
        reply = service.rank({"tenant": ["alice"], "context": ["Weekend"]})
        elapsed = time.monotonic() - started
        assert reply.status == 504
        assert "deadline" in reply.body["error"]
        assert elapsed < 2 * timeout + 0.25  # the acceptance bound + sched slack
        assert service.metrics.outcomes().get("timeout") == 1
        assert service.metrics.counters("resilience").get("timeouts") == 1
        # The thread that answered ran the rank and released its pin.
        assert service.registry.info().pinned == 0
        service.close()

    def test_a_held_engine_lock_answers_504_with_every_pin_back(self):
        # The one wait the kernel never checks: the engine lock.
        timeout = 0.15
        service = make_service(
            ServiceConfig(
                request_timeout=timeout, breaker_enabled=False
            )
        )
        assert service.rank({"tenant": ["t1"]}).ok  # t1's session is live
        engine = service.registry.session("t1").engine
        held, release = threading.Event(), threading.Event()

        def hold() -> None:
            with engine._lock:
                held.set()
                release.wait(10)

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        assert held.wait(5)
        try:
            started = time.monotonic()
            reply = service.rank({"tenant": ["t1"], "context": ["Weekend"]})
            elapsed = time.monotonic() - started
            assert reply.status == 504
            assert elapsed < 2 * timeout + 0.25
            assert service.registry.info().pinned == 0
            # A sibling tenant never waits on t1's lock.
            assert service.rank({"tenant": ["t2"], "context": ["Weekend"]}).ok
        finally:
            release.set()
            holder.join(5)
        assert service.rank({"tenant": ["t1"], "context": ["Weekend"]}).ok
        assert service.registry.info().pinned == 0
        service.close()

    def test_client_timeout_override_is_clamped(self, monkeypatch):
        monkeypatch.setattr(resilience, "MAX_REQUEST_TIMEOUT", 0.1)
        service = make_service(
            ServiceConfig(
                request_timeout=5.0,
                breaker_enabled=False,
            ),
            fault_injector=FaultInjector(rank_delay=1.0),
        )
        started = time.monotonic()
        reply = service.rank({"tenant": ["alice"], "timeout": ["60"]})
        elapsed = time.monotonic() - started
        assert reply.status == 504
        assert elapsed < 1.0  # clamped to MAX_REQUEST_TIMEOUT, not 60s
        service.close()

    # Expiring in the second column stops before the third; expiring in
    # the last one stops before the first candidate row.
    @pytest.mark.parametrize("expire_on", [2, 6])
    def test_a_cold_bind_stops_near_the_deadline(self, expire_on, monkeypatch):
        world = generate_test_database(
            seed=7, counts=Section5Counts(persons=10, programs=40)
        )
        rules = list(generate_rule_series(world, 6))
        kb = CompiledKB(world.abox, world.tbox, world.space)
        names = sorted(individual.name for individual in kb.column(world.target))
        deadline = Deadline.after(60.0)
        asked = []
        real = ReasonerSession.column

        def column(session, concept):
            asked.append(concept)
            if len(asked) == expire_on:
                deadline.expires_at = 0.0  # the budget runs out mid-bind
            return real(session, concept)

        monkeypatch.setattr(ReasonerSession, "column", column)
        with deadline_scope(deadline), pytest.raises(DeadlineExceeded):
            bind_documents(world.abox, world.tbox, rules, names, world.space, kb=kb)
        assert len(asked) == expire_on  # no later rule column was started
        # Without a deadline the same bind completes.
        bound = bind_documents(world.abox, world.tbox, rules, names, world.space, kb=kb)
        assert len(bound) == len(names) and len(asked) == expire_on + len(rules)

    # The kernel checks the deadline once, before each scoring pass (a
    # full pass is a fraction of a millisecond at serving sizes).
    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_an_expired_deadline_stops_the_kernel_pass(self, backend):
        world = build_tvtouch()
        set_breakfast_weekend_context(world)
        problem = bind_problem(
            world.abox, world.tbox, world.user, world.repository,
            world.program_ids, world.space,
        )
        kernel = ScoringKernel.compile(problem, backend=backend)
        mate = kernel.with_context(problem.bindings)
        deadline = Deadline.after(60.0)
        deadline.expires_at = 0.0
        with deadline_scope(deadline):
            with pytest.raises(DeadlineExceeded):
                kernel.score_vector()
            with pytest.raises(DeadlineExceeded):
                score_documents_batch(mate)  # the engine's pass
        alone = as_floats(kernel.score_vector())
        assert len(alone) == len(world.program_ids)
        assert as_floats(score_documents_batch(mate).vector) == alone

    def test_request_timeout_none_disables_deadlines(self):
        seen = []

        class Spy(FaultInjector):
            def before_rank(self, tenant):
                seen.append((threading.current_thread(), current_deadline()))
                super().before_rank(tenant)

        service = make_service(
            ServiceConfig(request_timeout=None),
            fault_injector=Spy(rank_delay=0.3),
        )
        # A client timeout cannot re-enable what the deployment disabled:
        # the slow rank still answers 200, on the caller's thread.
        reply = service.rank(
            {"tenant": ["alice"], "context": ["Weekend"], "timeout": ["0.05"]}
        )
        assert reply.ok
        assert seen == [(threading.current_thread(), None)]
        service.close()


# ---------------------------------------------------------------------------
# Circuit breaker (unit, fake clock + rng)
# ---------------------------------------------------------------------------

def make_breaker(**overrides) -> tuple[CircuitBreaker, FakeClock]:
    clock = FakeClock()
    defaults = dict(
        window=10.0,
        min_requests=4,
        failure_threshold=0.5,
        cooldown=5.0,
        jitter=0.0,
        clock=clock,
        rng=FixedRng(0.0),
    )
    defaults.update(overrides)
    return CircuitBreaker(**defaults), clock


class TestCircuitBreaker:
    def test_opens_at_failure_ratio_with_volume(self):
        breaker, _clock = make_breaker()
        for _ in range(3):
            breaker.record_failure("t")
        # Three failures but min_requests=4: not enough volume yet.
        assert breaker.state() == "closed"
        breaker.record_failure("t")
        assert breaker.state() == "open"
        decision = breaker.allow("t")
        assert not decision.allowed
        assert decision.scope == "global"
        assert decision.retry_after == pytest.approx(5.0)

    def test_successes_keep_it_closed(self):
        breaker, _clock = make_breaker()
        for _ in range(10):
            breaker.record_success("t")
        breaker.record_failure("t")
        assert breaker.state() == "closed"  # 1/11 failure ratio

    def test_window_forgets_old_failures(self):
        breaker, clock = make_breaker(min_requests=4)
        for _ in range(3):
            breaker.record_failure("t")
        clock.advance(11.0)  # past the 10s window
        breaker.record_failure("t")
        # Only one failure is in the window now: volume too low to open.
        assert breaker.state() == "closed"

    def test_half_open_probe_and_close(self):
        breaker, clock = make_breaker()
        for _ in range(4):
            breaker.record_failure("t")
        assert breaker.state() == "open"
        clock.advance(5.1)  # cooldown elapsed (jitter 0)
        probe = breaker.allow("t")
        assert probe.allowed and probe.state == "half_open"
        # Second concurrent request is shed while the probe is out.
        second = breaker.allow("t")
        assert not second.allowed and second.state == "half_open"
        breaker.record_success("t")
        assert breaker.state() == "closed"
        assert breaker.allow("t").allowed

    def test_half_open_failure_reopens(self):
        breaker, clock = make_breaker()
        for _ in range(4):
            breaker.record_failure("t")
        clock.advance(5.1)
        assert breaker.allow("t").allowed
        breaker.record_failure("t")
        assert breaker.state() == "open"
        assert not breaker.allow("t").allowed

    def test_jitter_extends_the_cooldown(self):
        breaker, clock = make_breaker(jitter=0.2, rng=FixedRng(1.0))
        for _ in range(4):
            breaker.record_failure("t")
        clock.advance(5.5)  # past base cooldown, inside the jittered one
        assert not breaker.allow("t").allowed
        clock.advance(0.6)  # past 5.0 * 1.2
        assert breaker.allow("t").allowed

    def test_tenant_isolation(self):
        breaker, _clock = make_breaker(min_requests=2)
        # 'bad' fails hard; the global stream also sees successes from
        # 'good', keeping the global ratio under the threshold.
        for _ in range(3):
            breaker.record_success("good")
        breaker.record_failure("bad")
        breaker.record_failure("bad")
        assert breaker.state("bad") == "open"
        assert breaker.state() == "closed"
        assert breaker.allow("good").allowed
        shed = breaker.allow("bad")
        assert not shed.allowed
        assert shed.scope == "tenant:bad"
        assert "bad" in breaker.snapshot()["open_tenants"]

    def test_transition_callback_fires(self):
        seen = []
        clock = FakeClock()
        breaker = CircuitBreaker(
            min_requests=2,
            cooldown=1.0,
            jitter=0.0,
            clock=clock,
            rng=FixedRng(0.0),
            on_transition=lambda scope, old, new: seen.append((scope, old, new)),
        )
        breaker.record_failure("t")
        breaker.record_failure("t")
        clock.advance(1.1)
        breaker.allow("t")
        breaker.record_success("t")
        states = [new for _scope, _old, new in seen if _scope == "global"]
        assert states == ["open", "half_open", "closed"]

    def test_tenant_table_is_bounded(self):
        breaker, _clock = make_breaker(max_tenants=8)
        for index in range(50):
            breaker.record_failure(f"tenant_{index}")
        assert breaker.snapshot()["tracked_tenants"] <= 8

    def test_probe_decision_names_its_scopes(self):
        breaker, clock = make_breaker()
        for _ in range(4):
            breaker.record_failure("t")
        clock.advance(5.1)
        probe = breaker.allow("t")
        assert probe.allowed
        assert "global" in probe.probes and "tenant:t" in probe.probes
        assert breaker.allow("fresh").probes == ()  # closed path: no debt

    def test_cancelled_probe_frees_the_slot(self):
        breaker, clock = make_breaker()
        for _ in range(4):
            breaker.record_failure("t")
        clock.advance(5.1)
        probe = breaker.allow("t")
        assert probe.allowed
        assert not breaker.allow("t").allowed  # single probe out
        # The probe's request terminated without an engine outcome
        # (a 400, a client-shortened timeout): unless cancelled, no
        # record_* call ever settles it and the breaker wedges half-open
        # forever.
        breaker.cancel_probe(probe)
        next_probe = breaker.allow("t")
        assert next_probe.allowed and next_probe.probes

    def test_lost_probe_is_reclaimed_after_cooldown(self):
        breaker, clock = make_breaker()
        for _ in range(4):
            breaker.record_failure("t")
        clock.advance(5.1)
        assert breaker.allow("t").allowed  # probe admitted, owner dies
        assert not breaker.allow("t").allowed
        clock.advance(5.1)  # a whole cooldown with no outcome: presumed lost
        assert breaker.allow("t").allowed  # the backstop reclaims the slot

    def test_tenant_denial_cancels_the_global_probe(self):
        breaker, clock = make_breaker(min_requests=2)
        breaker.record_failure("other")
        breaker.record_failure("other")  # opens global (and tenant 'other')
        clock.advance(3.0)
        breaker.record_failure("bad")  # tenant 'bad' opens 3s later
        breaker.record_failure("bad")
        clock.advance(2.1)  # global cooldown over; 'bad' still open
        denied = breaker.allow("bad")  # global grants its probe, tenant denies
        assert not denied.allowed and denied.scope == "tenant:bad"
        # The global probe the denied request briefly held must have
        # been handed back, or the whole service is blacked out.
        assert breaker.allow("fresh").allowed


# ---------------------------------------------------------------------------
# Breaker in the pipeline + stale serving
# ---------------------------------------------------------------------------

#: A breaker that opens on the second failure and stays open.
TRIGGER_HAPPY = dict(min_requests=2, failure_threshold=0.5, window=60.0, cooldown=60.0)


def make_tuned_service(config=None, **kwargs) -> RankingService:
    service = make_service(config, **kwargs)
    tune_breaker(service, **TRIGGER_HAPPY)
    return service


class TestBreakerInPipeline:
    def test_repeated_engine_errors_open_and_shed(self):
        service = make_tuned_service(
            fault_injector=FaultInjector(rank_error_rate=1.0, seed=3),
        )
        for _ in range(2):
            reply = service.rank({"tenant": ["alice"], "context": ["Weekend"]})
            assert reply.status == 500
        shed = service.rank({"tenant": ["alice"], "context": ["Weekend"]})
        assert shed.status == 503
        assert "circuit breaker open" in shed.body["error"]
        assert "Retry-After" in shed.headers
        assert int(shed.headers["Retry-After"]) >= 1
        outcomes = service.metrics.outcomes()
        assert outcomes.get("shed_breaker") == 1
        counters = service.metrics.counters("resilience")
        assert counters.get("rank_errors") == 2
        assert counters.get("shed.breaker") == 1
        # Both scopes opened on the same failure stream.
        assert counters.get("breaker_open.global") == 1
        assert counters.get("breaker_open.tenant") == 1
        service.close()

    def test_readiness_degrades_while_breaker_open(self):
        service = make_tuned_service(
            fault_injector=FaultInjector(rank_error_rate=1.0, seed=3),
        )
        status, body = service.readiness()
        assert status == 200 and body["status"] == "ready"
        for _ in range(2):
            service.rank({"tenant": ["alice"], "context": ["Weekend"]})
        status, body = service.readiness()
        assert status == 503
        assert body["status"] == "degraded"
        assert "breaker_open" in body["problems"]
        service.close()

    def test_readiness_degrades_on_failed_fleet_worker(self):
        service = make_service()
        service.fleet_state = SharedFleetState()
        status, _body = service.readiness()
        assert status == 200
        service.fleet_state.mark_failed()
        status, body = service.readiness()
        assert status == 503
        assert "fleet_workers_failed" in body["problems"]
        assert body["failed_workers"] == 1
        service.close()

    def make_half_open_service(self, **kwargs):
        """A service whose breaker just finished its cooldown for
        'alice': the next request through is the half-open probe."""
        clock = FakeClock()
        breaker = CircuitBreaker(
            min_requests=2,
            cooldown=5.0,
            jitter=0.0,
            clock=clock,
            rng=FixedRng(0.0),
        )
        service = make_service(**kwargs)
        service.breaker = breaker
        breaker.record_failure("alice")
        breaker.record_failure("alice")
        assert breaker.state() == "open"
        clock.advance(5.1)
        return service, breaker

    def test_client_shortened_timeout_probe_cannot_wedge_the_breaker(self):
        service, breaker = self.make_half_open_service(
            fault_injector=FaultInjector(rank_delay=1.0)
        )
        reply = service.rank({"tenant": ["alice"], "timeout": ["0.08"]})
        assert reply.status == 504
        # The probe request ended without an engine outcome; unless the
        # probe was handed back, the breaker is wedged half-open and
        # every request from now on is denied — a permanent outage.
        assert breaker.allow("alice").allowed
        service.close()

    def test_bad_request_probe_cannot_wedge_the_breaker(self):
        service, breaker = self.make_half_open_service()
        reply = service.rank({"tenant": ["alice"], "context": ["Breakfast:nope"]})
        assert reply.status == 400  # the probe request died as a client error
        assert breaker.allow("alice").allowed
        service.close()

    def test_client_shortened_timeout_does_not_feed_the_breaker(self):
        # One hostile/misconfigured client spamming tiny timeouts must
        # not open the global circuit for every tenant.
        service = make_tuned_service(
            ServiceConfig(request_timeout=5.0),
            fault_injector=FaultInjector(
                rank_delay=1.0, tenants=frozenset({"alice"})
            ),
        )
        for _ in range(3):
            reply = service.rank({"tenant": ["alice"], "timeout": ["0.08"]})
            assert reply.status == 504
        assert service.breaker.state() == "closed"
        assert service.rank({"tenant": ["bob"], "context": ["Weekend"]}).ok
        counters = service.metrics.counters("resilience")
        assert counters.get("timeouts") == 3
        assert counters.get("timeouts.client") == 3
        service.close()


class TestStaleServing:
    def make_stale_setup(self, ttl=5.0, stale_max_age=600.0):
        clock = FakeClock()
        cache = InMemoryCacheAdapter(
            max_entries=64, ttl=ttl, clock=clock, stale_max_age=stale_max_age
        )
        return make_tuned_service(cache=cache), clock

    def warm(self, service, context=("Weekend", "Breakfast")):
        request = {"tenant": ["alice"], "context": list(context), "top_k": ["3"]}
        first = service.rank(request)
        assert first.ok
        second = service.rank(request)
        assert second.ok and second.body.get("cached") is True
        return request

    def test_engine_error_serves_recently_expired_body(self):
        service, clock = self.make_stale_setup(ttl=5.0)
        request = self.warm(service)
        clock.advance(10.0)  # entry expired 5s ago, within stale_max_age
        service.fault_injector = FaultInjector(rank_error_rate=1.0, seed=1)
        reply = service.rank(request)
        assert reply.status == 200
        assert reply.body["stale"] is True
        assert reply.body["stale_reason"] == "error"
        assert reply.body["stale_age_seconds"] == pytest.approx(5.0)
        assert reply.headers.get("Warning", "").startswith("110 ")
        assert reply.body["items"]  # a real ranked body, not an error
        assert service.metrics.outcomes().get("ok_stale") == 1
        counters = service.metrics.counters("resilience")
        assert counters.get("stale_served") == 1
        assert counters.get("stale_served.error") == 1
        service.close()

    def test_stale_beyond_max_age_fails_for_real(self):
        service, clock = self.make_stale_setup(
            ttl=5.0, stale_max_age=3.0
        )
        request = self.warm(service)
        clock.advance(10.0)  # expired 5s ago > stale_max_age=3
        service.fault_injector = FaultInjector(rank_error_rate=1.0, seed=1)
        reply = service.rank(request)
        assert reply.status == 500
        assert service.metrics.counters("resilience").get("stale_miss") == 1
        service.close()

    def test_digest_stale_family_fallback(self):
        service, _clock = self.make_stale_setup(ttl=None)
        self.warm(service, context=("Weekend", "Breakfast"))
        service.fault_injector = FaultInjector(rank_error_rate=1.0, seed=1)
        # Different context -> different view digest -> exact key
        # misses; the family (tenant + query shape) still has the last
        # body ranked under the old context.
        reply = service.rank(
            {"tenant": ["alice"], "context": ["Weekend"], "top_k": ["3"]}
        )
        assert reply.status == 200
        assert reply.body["stale"] is True
        assert reply.body["stale_context_digest"] is True
        assert reply.body["context"] == ["Weekend"]  # the request's echo
        service.close()

    def test_overload_shed_serves_stale(self):
        service, clock = self.make_stale_setup(ttl=5.0)
        request = self.warm(service)
        clock.advance(10.0)  # entry expired 5s ago, within stale_max_age
        attempt = service.begin_rank(request)
        assert attempt.response is None  # a miss: the gateway would dispatch it
        reply = service.shed_inline(attempt)  # ... were its queue not full
        assert reply.status == 200
        assert reply.body["stale"] is True
        assert reply.body["stale_reason"] == "overload"
        assert reply.headers.get("Warning", "").startswith("110 ")
        assert service.metrics.outcomes().get("ok_stale") == 1
        counters = service.metrics.counters("resilience")
        assert counters.get("shed.overload") == 1
        assert counters.get("stale_served.overload") == 1
        service.close()

    def test_shed_context_install_is_never_stale(self):
        service, _clock = self.make_stale_setup(ttl=None)
        self.warm(service)
        reply = service.shed_inline(None)  # a POST /context the gateway shed
        assert reply.status == 503
        assert reply.headers == {"Retry-After": "1"}
        assert "stale" not in reply.body
        assert service.metrics.outcomes().get("rejected") == 1
        assert service.metrics.counters("resilience").get("shed.overload") == 1
        service.close()

    def test_breaker_open_serves_stale(self):
        service, clock = self.make_stale_setup(ttl=5.0)
        request = self.warm(service)
        clock.advance(10.0)
        service.fault_injector = FaultInjector(rank_error_rate=1.0, seed=1)
        for _ in range(2):
            service.rank(request)  # stale-served errors still record_failure
        assert service.breaker.state() == "open"
        reply = service.rank(request)
        assert reply.status == 200 and reply.body["stale_reason"] == "breaker_open"
        service.close()

    def test_pure_cache_hit_served_even_while_breaker_open(self):
        service, _clock = self.make_stale_setup(ttl=None)
        request = self.warm(service)
        # Force the breaker open without touching the cache entry.
        for _ in range(2):
            service.breaker.record_failure("alice")
        assert service.breaker.state() == "open"
        reply = service.rank(request)
        assert reply.ok and reply.body.get("cached") is True
        assert not reply.body.get("stale")
        service.close()

    def test_serve_stale_max_age_bounds_both_keeping_and_serving(self):
        # As `repro serve --stale-max-age 600` builds its cache: the one
        # bound keeps a body expired 400 s ago, so an error serves it.
        args = build_parser().parse_args(["serve", "--stale-max-age", "600"])
        clock = FakeClock()
        cache = InMemoryCacheAdapter(
            max_entries=args.cache_entries, clock=clock, stale_max_age=args.stale_max_age
        )
        service = make_service(cache=cache)
        request = self.warm(service)
        clock.advance(cache.ttl + 400.0)
        service.fault_injector = FaultInjector(rank_error_rate=1.0, seed=1)
        reply = service.rank(request)
        assert reply.status == 200
        assert reply.body["stale"] is True and reply.body["stale_reason"] == "error"
        assert reply.body["stale_age_seconds"] == pytest.approx(400.0)
        service.close()

    def test_stale_max_age_zero_serves_nothing_stale(self):
        service, clock = self.make_stale_setup(ttl=5.0, stale_max_age=0.0)
        request = self.warm(service)
        # A live exact body is no degraded-mode answer either.
        hit = service.begin_rank(request)
        assert hit.response.body["cached"] is True
        assert service._try_stale(hit, "error") is None
        service.fault_injector = FaultInjector(rank_error_rate=1.0, seed=1)
        # No family fallback: same query shape, another context.
        other = {"tenant": ["alice"], "context": ["Weekend"], "top_k": ["3"]}
        assert service.rank(other).status == 500
        # No expired exact body, and the breaker that error opened
        # sheds without one too.
        clock.advance(10.0)
        shed = service.rank(request)
        assert shed.status == 503 and "stale" not in shed.body
        # The cache is never even asked.
        counters = service.metrics.counters("resilience")
        assert "stale_served" not in counters and "stale_miss" not in counters
        assert service.cache.info().stale_misses == 0
        assert service.metrics.outcomes().get("ok_stale") is None
        service.close()


# ---------------------------------------------------------------------------
# Fault injector
# ---------------------------------------------------------------------------

class TestFaultInjector:
    def test_inactive_by_default(self):
        injector = FaultInjector()
        assert not injector.active
        injector.before_rank("anyone")  # no-op
        assert not injector.should_kill_worker()

    def test_error_rate_is_seeded_and_bounded(self):
        injector = FaultInjector(rank_error_rate=0.5, seed=42)
        faults = 0
        for _ in range(200):
            try:
                injector.before_rank("t")
            except InjectedFault:
                faults += 1
        assert 60 < faults < 140  # ~50% of 200, seeded so stable
        replay = FaultInjector(rank_error_rate=0.5, seed=42)
        replay_faults = 0
        for _ in range(200):
            try:
                replay.before_rank("t")
            except InjectedFault:
                replay_faults += 1
        assert replay_faults == faults

    def test_tenant_targeting(self):
        injector = FaultInjector(rank_error_rate=1.0, tenants=frozenset({"bad"}))
        injector.before_rank("good")  # not targeted: no raise
        with pytest.raises(InjectedFault):
            injector.before_rank("bad")

    def test_kill_every_counts_responses(self):
        injector = FaultInjector(worker_kill_every=3)
        decisions = [injector.should_kill_worker() for _ in range(7)]
        assert decisions == [False, False, True, False, False, True, False]

    def test_from_env(self):
        injector = FaultInjector.from_env(
            {
                "REPRO_FAULT_RANK_DELAY": "0.25",
                "REPRO_FAULT_RANK_ERROR_RATE": "0.1",
                "REPRO_FAULT_KILL_EVERY": "50",
                "REPRO_FAULT_SEED": "7",
                "REPRO_FAULT_TENANTS": "alice, bob",
            }
        )
        assert injector.rank_delay == 0.25
        assert injector.rank_error_rate == 0.1
        assert injector.worker_kill_every == 50
        assert injector.seed == 7
        assert injector.tenants == frozenset({"alice", "bob"})
        assert FaultInjector.from_env({}).active is False
        assert FaultInjector.from_env({"REPRO_FAULT_RANK_DELAY": " "}).active is False

    @pytest.mark.parametrize(
        "variable, value",
        [
            ("REPRO_FAULT_RANK_DELAY", "soon"),
            ("REPRO_FAULT_RANK_ERROR_RATE", "2"),
            ("REPRO_FAULT_KILL_EVERY", "1.5"),
            ("REPRO_FAULT_WORKER_TTL", "-1"),
        ],
    )
    def test_from_env_names_a_bad_variable(self, variable, value):
        with pytest.raises(EngineConfigError, match=f"^{variable}="):
            FaultInjector.from_env({variable: value})

    def test_validation(self):
        with pytest.raises(EngineConfigError):
            FaultInjector(rank_error_rate=1.5)
        with pytest.raises(EngineConfigError):
            FaultInjector(rank_delay=-1.0)


# ---------------------------------------------------------------------------
# The chaos hammer: pins always come back
# ---------------------------------------------------------------------------

class TestChaosHammer:
    def test_every_pin_survives_a_fault_storm(self):
        """8 threads hammer a service with injected delays, errors and
        tight deadlines; whatever mix of 200/500/503/504 comes out,
        every session pin must return once the storm settles."""
        service = make_service(
            ServiceConfig(request_timeout=0.1, breaker_enabled=True),
            cache=InMemoryCacheAdapter(max_entries=256, ttl=60.0),
            fault_injector=FaultInjector(
                rank_delay=0.02, rank_error_rate=0.3, seed=11
            ),
        )
        tune_breaker(service, min_requests=10, failure_threshold=0.6, cooldown=0.2)
        statuses = []
        lock = threading.Lock()

        def hammer(worker_id: int) -> None:
            for index in range(12):
                tenant = f"tenant_{(worker_id + index) % 3}"
                reply = service.rank(
                    {"tenant": [tenant], "context": ["Weekend"], "top_k": ["3"]}
                )
                with lock:
                    statuses.append(reply.status)

        threads = [
            threading.Thread(target=hammer, args=(worker_id,), daemon=True)
            for worker_id in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()

        assert len(statuses) == 96
        assert set(statuses) <= {200, 500, 503, 504}
        # Every request's own thread released its pin before answering.
        assert service.registry.info().pinned == 0
        service.close()
