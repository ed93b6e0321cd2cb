"""The serving fleet's robustness layer: deadlines, breakers, fault injection.

The gateway's executor bounds *concurrency* and the response cache
absorbs repeats, but neither bounds *latency*, and without this module
every failure surfaced raw.  This module is the failure path, four
small mechanisms the pipeline, gateway and fleet supervisor compose:

* :class:`Deadline` — a monotonic per-request budget.  The pipeline
  derives one from ``ServiceConfig.request_timeout`` (a client override
  clamped into [:data:`MIN_REQUEST_TIMEOUT`, :data:`MAX_REQUEST_TIMEOUT`]
  by :func:`clamp_timeout`) and publishes it through a
  :mod:`contextvars` variable (:func:`deadline_scope`) around the rank
  it runs on the request's own thread.  Every wait on that path checks
  it *cooperatively* (:func:`current_deadline`): the engine-lock wait,
  a cold bind's rule columns and rows, the kernel pass (once, before
  it starts) and an injected delay.  A wedged rank answers 504 and its
  thread releases the session pin before answering.
* :class:`CircuitBreaker` — per-tenant + global rolling-window breaker
  (closed → open → half-open with a jittered probe).  When rank
  failures or timeouts spike, the pipeline sheds load fast — answering
  from stale cache while open — instead of queueing doomed work.
* :class:`FaultInjector` — deterministic chaos: injected rank delays,
  seeded rank error rates, kill-every-N-requests worker suicide and a
  worker time-to-live, configurable from the environment
  (``REPRO_FAULT_*``), so every failure path above is testable without
  real outages.
* :class:`SharedFleetState` — the one cross-process signal the fleet
  needs: a fork-shared counter of crash-looping workers the supervisor
  has given up on, so any worker's ``/readyz`` can report the fleet
  degraded.

Nothing here imports the pipeline; the dependency points one way
(pipeline → resilience), and the core and the engine reach
:func:`current_deadline` only through ``sys.modules``
(``repro.core.problem._active_deadline``) so neither imports the
service layer.
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
import threading
import time
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, NamedTuple

from repro.errors import EngineConfigError
from repro.perf import LRU

__all__ = [
    "BreakerDecision",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "FaultInjector",
    "InjectedFault",
    "SharedFleetState",
    "clamp_timeout",
    "current_deadline",
    "deadline_scope",
]


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------

class DeadlineExceeded(Exception):
    """A request ran past its deadline.

    Deliberately *not* a :class:`~repro.errors.ReproError`: the
    pipeline maps ReproError to 400 (client errors) and this to 504.
    """


class Deadline:
    """An absolute monotonic deadline for one request."""

    __slots__ = ("expires_at", "timeout", "_clock")

    def __init__(
        self,
        expires_at: float,
        timeout: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.expires_at = expires_at
        self.timeout = timeout
        self._clock = clock

    @classmethod
    def after(
        cls, seconds: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        if seconds <= 0:
            raise EngineConfigError(f"deadline needs a positive budget, got {seconds!r}")
        return cls(clock() + seconds, seconds, clock)

    def remaining(self) -> float:
        return self.expires_at - self._clock()

    def expired(self) -> bool:
        return self._clock() >= self.expires_at

    def check(self) -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self._clock() >= self.expires_at:
            raise DeadlineExceeded(
                f"request deadline exceeded ({self.timeout:.3f}s budget)"
            )

    def __repr__(self) -> str:
        return f"Deadline(timeout={self.timeout:.3f}s, remaining={self.remaining():.3f}s)"


#: The active request's deadline, visible to anything on the rank call
#: stack (the scoring kernel checks it once, before each pass).
_ACTIVE_DEADLINE: ContextVar[Deadline | None] = ContextVar(
    "repro_active_deadline", default=None
)


def current_deadline() -> Deadline | None:
    """The deadline of the request running on this thread, if any."""
    return _ACTIVE_DEADLINE.get()


@contextlib.contextmanager
def deadline_scope(deadline: Deadline | None) -> Iterator[Deadline | None]:
    """Publish ``deadline`` as the active one for the enclosed work."""
    token = _ACTIVE_DEADLINE.set(deadline)
    try:
        yield deadline
    finally:
        _ACTIVE_DEADLINE.reset(token)


#: The shortest deadline a client may ask for.  A near-zero client
#: timeout guarantees a 504 whatever the engine's health — unclamped,
#: it is free ammunition against any failure accounting downstream.
MIN_REQUEST_TIMEOUT = 0.05

#: The longest deadline a client may ask for: a rank that must wait
#: runs on the worker's one ``repro-gw`` thread, and no client may hold
#: it for longer than this.
MAX_REQUEST_TIMEOUT = 30.0


def clamp_timeout(requested: float | None, default: float | None) -> float | None:
    """The effective request timeout: a client override clamped into
    [:data:`MIN_REQUEST_TIMEOUT`, :data:`MAX_REQUEST_TIMEOUT`].

    ``None`` requested means "use the service default"; a ``None``
    default disables deadlines entirely (overrides included — a client
    cannot re-enable a feature the deployment turned off).  The default
    itself is the operator's and is not clamped.
    """
    if default is None:
        return None
    if requested is None:
        return default
    return min(max(requested, MIN_REQUEST_TIMEOUT), MAX_REQUEST_TIMEOUT)


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------

class BreakerDecision(NamedTuple):
    """One admission verdict from :meth:`CircuitBreaker.allow`.

    ``probes`` names the scopes where this request *is* the half-open
    probe.  Holding a probe is a debt: exactly one of
    :meth:`CircuitBreaker.record_success`,
    :meth:`CircuitBreaker.record_failure` or
    :meth:`CircuitBreaker.cancel_probe` must follow, or the core wedges
    in half-open with its single probe slot taken forever.
    """

    allowed: bool
    state: str
    retry_after: float
    scope: str  # "global", "tenant", or "" when allowed
    probes: tuple[str, ...] = ()


#: Seconds of outcomes a breaker core weighs: long enough to hold
#: :data:`BREAKER_MIN_REQUESTS` outcomes of one tenant at a few
#: requests a second, short enough to forget an outage soon after it.
BREAKER_WINDOW = 10.0

#: Outcomes a core must see in its window before it may open: a
#: tenant's first error or two is not a spike.
BREAKER_MIN_REQUESTS = 10

#: The failure share at which a core opens: half its ranks failing.
BREAKER_FAILURE_THRESHOLD = 0.5

#: Seconds an open core sheds before it admits one probe (jittered, so
#: the probes of many tenants do not arrive together).
BREAKER_COOLDOWN = 5.0


class _BreakerCore:
    """One rolling-window breaker state machine (no locking here).

    ``failures`` is the number of failed outcomes in ``events``, kept
    in step by the three methods that change the window — the request
    path never walks the deque, whatever rate x window holds.
    """

    __slots__ = (
        "state", "events", "failures", "probe_at", "probe_inflight", "probe_started_at"
    )

    def __init__(self):
        self.state = "closed"
        self.events: deque[tuple[float, bool]] = deque()
        self.failures = 0
        self.probe_at = 0.0
        self.probe_inflight = False
        self.probe_started_at = 0.0

    def append(self, now: float, ok: bool) -> None:
        self.events.append((now, ok))
        if not ok:
            self.failures += 1

    def prune(self, horizon: float) -> None:
        """Drop outcomes older than ``horizon`` (amortised O(1) per append)."""
        events = self.events
        while events and events[0][0] < horizon:
            if not events.popleft()[1]:
                self.failures -= 1

    def clear(self) -> None:
        self.events.clear()
        self.failures = 0


class CircuitBreaker:
    """Per-tenant + global rolling-window circuit breaker.

    One failure stream feeds two scopes: every rank outcome lands in
    the tenant's core *and* the global core, so one pathological
    tenant opens only its own circuit while a systemic failure (engine
    wedged, dependency down) opens the global one.  State machine per
    core: *closed* (counting a rolling ``window`` of outcomes; opens
    when at least ``min_requests`` landed and the failure ratio
    reaches ``failure_threshold``) → *open* (everything shed for a
    jittered ``cooldown``) → *half-open* (exactly one probe request
    admitted; success closes, failure re-opens with a fresh jittered
    cooldown).  ``clock`` and ``rng`` are injectable so tests drive
    every transition without sleeping.
    """

    def __init__(
        self,
        window: float = BREAKER_WINDOW,
        min_requests: int = BREAKER_MIN_REQUESTS,
        failure_threshold: float = BREAKER_FAILURE_THRESHOLD,
        cooldown: float = BREAKER_COOLDOWN,
        jitter: float = 0.2,
        max_tenants: int = 1024,
        clock: Callable[[], float] = time.monotonic,
        rng: random.Random | None = None,
        on_transition: Callable[[str, str, str], None] | None = None,
    ):
        if window <= 0 or cooldown <= 0:
            raise EngineConfigError(
                f"breaker window and cooldown must be positive, got "
                f"window={window!r} cooldown={cooldown!r}"
            )
        if min_requests < 1:
            raise EngineConfigError(
                f"breaker min_requests must be >= 1, got {min_requests!r}"
            )
        if not 0.0 < failure_threshold <= 1.0:
            raise EngineConfigError(
                f"breaker failure_threshold must be in (0, 1], got {failure_threshold!r}"
            )
        if jitter < 0:
            raise EngineConfigError(f"breaker jitter must be >= 0, got {jitter!r}")
        self.window = window
        self.min_requests = min_requests
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.jitter = jitter
        self._clock = clock
        self._rng = rng if rng is not None else random.Random()
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._global = _BreakerCore()
        self._tenants = LRU(max_tenants)
        self._transitions: dict[str, int] = {}

    # -- state machine (call with the lock held) ---------------------------
    def _transition(self, core: _BreakerCore, scope: str, new: str) -> None:
        old, core.state = core.state, new
        self._transitions[new] = self._transitions.get(new, 0) + 1
        if self._on_transition is not None:
            self._on_transition(scope, old, new)

    def _open(self, core: _BreakerCore, scope: str, now: float) -> None:
        self._transition(core, scope, "open")
        core.probe_at = now + self.cooldown * (1.0 + self.jitter * self._rng.random())
        core.probe_inflight = False
        core.clear()

    def _close(self, core: _BreakerCore, scope: str) -> None:
        self._transition(core, scope, "closed")
        core.probe_inflight = False
        core.clear()

    def _allow_core(self, core: _BreakerCore, scope: str, now: float) -> BreakerDecision:
        if core.state == "closed":
            return BreakerDecision(True, "closed", 0.0, "")
        if core.state == "open":
            if now < core.probe_at:
                return BreakerDecision(False, "open", core.probe_at - now, scope)
            self._transition(core, scope, "half_open")
        # half-open: exactly one probe in flight at a time.
        if core.probe_inflight:
            if now - core.probe_started_at < self.cooldown:
                return BreakerDecision(False, "half_open", self.cooldown * 0.1, scope)
            # The probe's outcome never arrived (its owner died, or a
            # termination path failed to settle it): reclaim the slot
            # rather than wedging in half-open forever.
            core.probe_inflight = False
        core.probe_inflight = True
        core.probe_started_at = now
        return BreakerDecision(True, "half_open", 0.0, "", probes=(scope,))

    def _record_core(self, core: _BreakerCore, scope: str, ok: bool, now: float) -> None:
        if core.state == "half_open":
            if ok:
                self._close(core, scope)
            else:
                self._open(core, scope, now)
            return
        if core.state == "open":
            return  # late result from before the open; the probe decides
        core.append(now, ok)
        core.prune(now - self.window)
        total = len(core.events)
        if total >= self.min_requests and core.failures / total >= self.failure_threshold:
            self._open(core, scope, now)

    def _cancel_probes(self, probes: tuple[str, ...]) -> None:
        for scope in probes:
            if scope == "global":
                core: _BreakerCore | None = self._global
            else:
                core = self._tenants.peek(scope.partition(":")[2])
            if core is not None and core.state == "half_open" and core.probe_inflight:
                core.probe_inflight = False

    # -- the pipeline surface ----------------------------------------------
    def allow(self, tenant: str) -> BreakerDecision:
        """May a request for ``tenant`` reach the engine right now?"""
        with self._lock:
            now = self._clock()
            decision = self._allow_core(self._global, "global", now)
            if not decision.allowed:
                return decision
            core = self._tenants.get(tenant)
            if core is None:
                return decision
            tenant_decision = self._allow_core(core, f"tenant:{tenant}", now)
            if not tenant_decision.allowed:
                # The global core may just have made this request its
                # half-open probe; the tenant denial means no outcome
                # will ever be recorded for it, so hand the slot back
                # now or the global breaker can never recover.
                self._cancel_probes(decision.probes)
                return tenant_decision
            if tenant_decision.probes:
                decision = decision._replace(
                    probes=decision.probes + tenant_decision.probes
                )
            return decision

    def cancel_probe(self, decision: BreakerDecision) -> None:
        """Return half-open probe slots a request could not settle.

        The pipeline calls this on every termination path that records
        no engine outcome — client-error 400, client-shortened
        timeout.  Without it a probe admitted by
        :meth:`allow` leaks, every later request is denied, and the
        breaker never leaves half-open.
        """
        if not decision.probes:
            return
        with self._lock:
            self._cancel_probes(decision.probes)

    def record_success(self, tenant: str) -> None:
        with self._lock:
            now = self._clock()
            self._record_core(self._global, "global", True, now)
            core = self._tenants.get(tenant)
            if core is not None:
                self._record_core(core, f"tenant:{tenant}", True, now)

    def record_failure(self, tenant: str) -> None:
        with self._lock:
            now = self._clock()
            self._record_core(self._global, "global", False, now)
            core = self._tenants.get(tenant)
            if core is None:
                core = _BreakerCore()
                self._tenants.put(tenant, core)
            self._record_core(core, f"tenant:{tenant}", False, now)

    # -- observability ------------------------------------------------------
    def state(self, tenant: str | None = None) -> str:
        with self._lock:
            if tenant is None:
                return self._global.state
            core = self._tenants.peek(tenant)
            return core.state if core is not None else "closed"

    def snapshot(self) -> dict:
        with self._lock:
            open_tenants = sorted(
                tenant
                for tenant, core in self._tenants.items()
                if core.state != "closed"
            )
            return {
                "enabled": True,
                "state": self._global.state,
                "open_tenants": open_tenants,
                "tracked_tenants": len(self._tenants),
                "transitions": dict(self._transitions),
                "window_seconds": self.window,
                "cooldown_seconds": self.cooldown,
            }


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

class InjectedFault(Exception):
    """A deliberately injected engine failure (chaos testing only)."""


#: Environment knobs, the one way to configure ``repro serve``'s faults:
#: ``REPRO_FAULT_<suffix>`` -> (field, parser).  ``TENANTS`` is a
#: comma-separated list.
_ENV_PREFIX = "REPRO_FAULT_"
_ENV_FIELDS = {
    "RANK_DELAY": ("rank_delay", float),
    "RANK_ERROR_RATE": ("rank_error_rate", float),
    "KILL_EVERY": ("worker_kill_every", int),
    "WORKER_TTL": ("worker_ttl", float),
    "SEED": ("seed", int),
}


@dataclass
class FaultInjector:
    """Deterministic fault injection for the serving stack.

    All faults default off; an all-zero injector is free on the hot
    path (one attribute read).  ``rank_delay`` sleeps before every
    rank, ``rank_error_rate`` raises :class:`InjectedFault` with the
    given probability (seeded RNG, so runs replay), ``worker_kill_every``
    SIGKILLs the serving process after every N-th ``/rank`` response
    (the fleet supervisor's respawn path), and ``worker_ttl`` kills the
    worker that many seconds after boot (the crash-loop path).
    ``tenants`` restricts rank faults to the named tenants.
    """

    rank_delay: float = 0.0
    rank_error_rate: float = 0.0
    worker_kill_every: int = 0
    worker_ttl: float = 0.0
    tenants: frozenset[str] | None = None
    seed: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)
    _rng: random.Random = field(init=False, repr=False)
    _responses: int = field(default=0, init=False, repr=False)
    _rank_faults: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.rank_delay < 0 or self.worker_ttl < 0:
            raise EngineConfigError(
                f"fault delays must be >= 0, got rank_delay={self.rank_delay!r} "
                f"worker_ttl={self.worker_ttl!r}"
            )
        if not 0.0 <= self.rank_error_rate <= 1.0:
            raise EngineConfigError(
                f"rank_error_rate must be in [0, 1], got {self.rank_error_rate!r}"
            )
        if self.worker_kill_every < 0:
            raise EngineConfigError(
                f"worker_kill_every must be >= 0, got {self.worker_kill_every!r}"
            )
        self._rng = random.Random(self.seed)

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "FaultInjector":
        """Build from ``REPRO_FAULT_*`` variables (unset or blank means off).

        A value that does not parse, or is out of range, raises
        :class:`EngineConfigError` naming the variable.
        """
        env = os.environ if environ is None else environ
        values: dict = {}
        for suffix, (name, parse) in _ENV_FIELDS.items():
            variable = _ENV_PREFIX + suffix
            raw = env.get(variable, "").strip()
            if not raw:
                continue
            try:
                values[name] = parse(raw)
                cls(**{name: values[name]})  # the range check, per variable
            except (ValueError, EngineConfigError) as exc:
                raise EngineConfigError(f"{variable}={raw!r}: {exc}") from None
        tenants = {
            part.strip() for part in env.get(_ENV_PREFIX + "TENANTS", "").split(",")
        } - {""}
        return cls(tenants=frozenset(tenants) or None, **values)

    @property
    def active(self) -> bool:
        return bool(
            self.rank_delay
            or self.rank_error_rate
            or self.worker_kill_every
            or self.worker_ttl
        )

    def targets_rank(self, tenant: str) -> bool:
        """Would :meth:`before_rank` inject a delay or an error for ``tenant``?"""
        return bool(self.rank_delay or self.rank_error_rate) and (
            self.tenants is None or tenant in self.tenants
        )

    def before_rank(self, tenant: str) -> None:
        """Inject the configured rank faults for one request.

        Runs on the request's own thread inside its deadline scope; the
        injected delay checks that deadline every slice, so a wedge
        drill answers 504 when the deadline passes, not when the delay
        ends.
        """
        if not self.targets_rank(tenant):
            return
        if self.rank_delay:
            # Sleep in slices, honouring any active deadline — real slow
            # work (the kernel) is deadline-cooperative, so the injected
            # kind is too.
            deadline = current_deadline()
            until = time.monotonic() + self.rank_delay
            while True:
                remaining = until - time.monotonic()
                if remaining <= 0:
                    break
                if deadline is not None:
                    deadline.check()
                time.sleep(min(0.05, remaining))
        if self.rank_error_rate:
            with self._lock:
                fault = self._rng.random() < self.rank_error_rate
                if fault:
                    self._rank_faults += 1
            if fault:
                raise InjectedFault(
                    f"injected rank fault for {tenant!r} "
                    f"(rate={self.rank_error_rate})"
                )

    def should_kill_worker(self) -> bool:
        """Count one served response; True on every N-th."""
        if self.worker_kill_every < 1:
            return False
        with self._lock:
            self._responses += 1
            return self._responses % self.worker_kill_every == 0

    def maybe_kill_worker(self) -> None:  # pragma: no cover - kills the process
        if self.should_kill_worker():
            os.kill(os.getpid(), signal.SIGKILL)

    def info(self) -> dict:
        with self._lock:
            return {
                "active": self.active,
                "rank_delay": self.rank_delay,
                "rank_error_rate": self.rank_error_rate,
                "worker_kill_every": self.worker_kill_every,
                "worker_ttl": self.worker_ttl,
                "tenants": sorted(self.tenants) if self.tenants is not None else None,
                "seed": self.seed,
                "rank_faults_injected": self._rank_faults,
                "responses_counted": self._responses,
            }


# ---------------------------------------------------------------------------
# Cross-process fleet state
# ---------------------------------------------------------------------------

class SharedFleetState:
    """Fork-shared fleet degradation signal (supervisor → workers).

    The supervisor increments ``failed`` when its crash-loop detector
    gives up on a worker index; every worker's ``/readyz`` reads it to
    report the *fleet* degraded even though the answering process is
    healthy.  A plain ``multiprocessing.Value`` — one int, one lock —
    is all the cross-process state the design needs.
    """

    def __init__(self, context=None):
        if context is None:
            # Loaded with the first fleet: a single-process worker has
            # no sibling to share state with and never pays for it.
            import multiprocessing as context
        self._failed = context.Value("i", 0)

    def mark_failed(self) -> None:
        with self._failed.get_lock():
            self._failed.value += 1

    @property
    def failed_workers(self) -> int:
        return int(self._failed.value)

    def __repr__(self) -> str:
        return f"SharedFleetState(failed_workers={self.failed_workers})"
