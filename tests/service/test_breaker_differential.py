"""The O(1) breaker window against the recounting one it replaced.

``_BreakerCore`` keeps a running ``failures`` count, updated on append,
prune and clear, so an outcome costs the same whatever rate x window
holds.  The recount it replaced — ``sum`` over the whole deque on every
outcome — lives on here as the oracle: two breakers with the same
settings, the same injected clock and the same seeded jitter are driven
through one random stream of ``(dt, tenant, action)`` steps and must
agree after every step on each decision, every state, the window
contents, the failure count and ``snapshot()``.  No sleeps.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import CircuitBreaker

from tests.service.test_resilience import FakeClock

TENANTS = ["a", "b", "c", "d"]


class RecountingBreaker(CircuitBreaker):
    """The breaker as it was: every outcome recounts the window."""

    def _record_core(self, core, scope, ok, now):
        if core.state == "half_open":
            if ok:
                self._close(core, scope)
            else:
                self._open(core, scope, now)
            return
        if core.state == "open":
            return
        core.events.append((now, ok))
        horizon = now - self.window
        while core.events and core.events[0][0] < horizon:
            core.events.popleft()
        total = len(core.events)
        if total < self.min_requests:
            return
        failures = sum(1 for _, event_ok in core.events if not event_ok)
        if failures / total >= self.failure_threshold:
            self._open(core, scope, now)


#: What a request does once ``allow`` has spoken.  ``late_*`` record an
#: outcome with no ``allow`` first: a result from before the open.
ACTIONS = ["ok", "fail", "fail", "cancel", "late_ok", "late_fail"]

STEPS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.05, 0.3, 1.0, 2.5, 7.0]),
        st.sampled_from(TENANTS),
        st.sampled_from(ACTIONS),
    ),
    min_size=1,
    max_size=120,
)

SETTINGS = st.fixed_dictionaries(
    {
        "window": st.sampled_from([1.0, 5.0]),
        "min_requests": st.sampled_from([1, 3, 5]),
        "failure_threshold": st.sampled_from([0.3, 0.5, 1.0]),
        "cooldown": st.sampled_from([0.5, 2.0]),
        "jitter": st.sampled_from([0.0, 0.2]),
        "max_tenants": st.sampled_from([2, 3, 1024]),
    }
)


def cores(breaker):
    return [("global", breaker._global)] + list(breaker._tenants.items())


def step(breaker, tenant, action):
    """One request's dealings with the breaker; returns what it saw."""
    if action == "late_ok":
        return breaker.record_success(tenant)
    if action == "late_fail":
        return breaker.record_failure(tenant)
    decision = breaker.allow(tenant)
    if decision.allowed:
        if action == "ok":
            breaker.record_success(tenant)
        elif action == "fail":
            breaker.record_failure(tenant)
        else:
            breaker.cancel_probe(decision)
    return decision


@settings(max_examples=300, deadline=None)
@given(SETTINGS, STEPS, st.integers(min_value=0, max_value=3))
def test_running_count_agrees_with_the_recount(config, steps, seed):
    clock = FakeClock()
    seen = {"subject": [], "oracle": []}
    subject = CircuitBreaker(
        clock=clock, rng=random.Random(seed),
        on_transition=lambda *args: seen["subject"].append(args), **config,
    )
    oracle = RecountingBreaker(
        clock=clock, rng=random.Random(seed),
        on_transition=lambda *args: seen["oracle"].append(args), **config,
    )
    for dt, tenant, action in steps:
        clock.advance(dt)
        assert step(subject, tenant, action) == step(oracle, tenant, action)
        assert seen["subject"] == seen["oracle"]
        assert subject.snapshot() == oracle.snapshot()
        assert subject.state() == oracle.state()
        assert list(subject._tenants) == list(oracle._tenants)  # same LRU order
        for (name, mine), (_, theirs) in zip(cores(subject), cores(oracle)):
            assert subject.state(None if name == "global" else name) == theirs.state
            assert (mine.state, mine.probe_inflight, mine.probe_at) == (
                theirs.state, theirs.probe_inflight, theirs.probe_at
            )
            assert mine.events == theirs.events
            assert mine.failures == sum(1 for _, ok in theirs.events if not ok)


def test_a_long_window_prunes_back_to_zero():
    """Rate x window as a server sees it: thousands of outcomes in the
    window, then silence — the count follows the deque all the way."""
    clock = FakeClock()
    breaker = CircuitBreaker(window=10.0, min_requests=10, clock=clock)
    for index in range(6000):
        clock.advance(0.001)
        (breaker.record_failure if index % 5 == 0 else breaker.record_success)("t")
    core = breaker._global
    assert len(core.events) == 6000 and core.failures == 1200
    assert breaker.state() == "closed"  # a fifth failing is under the threshold
    clock.advance(7.0)
    breaker.record_success("t")
    assert core.failures == sum(1 for _, ok in core.events if not ok) == 600
    clock.advance(20.0)
    breaker.record_success("t")
    assert len(core.events) == 1 and core.failures == 0
