"""The :class:`RankingService` request pipeline.

The paper's tvtouch scenario is an always-on service: one shared domain
ontology, many users, volatile context arriving *with each request*.
This module is that request path, staged and instrumented::

    parse → cache → breaker → resolve → context → rank → render

* **parse** — normalise raw query-string parameters into a frozen
  :class:`ServiceRequest`; malformed input is a 400
  before any shared resource is touched.  The request's deadline is
  derived here too (``ServiceConfig.request_timeout``, client override
  clamped by ``max_request_timeout``).
* **cache** — the response-cache lookup (:mod:`repro.cache`): derive
  the key this request would rank under from the tenant's learned
  view digest and the canonicalised query, and probe the adapter.  A
  hit is served here, before any blocking stage — a hit is a dict
  copy, too cheap to shed.  A *pure* hit has no context delta to install; a
  *delta* hit first installs the delta as the tenant's standing
  context (the client-visible side effect of ``/rank?context=...``),
  taking the engine fingerprint in the same critical section, and is
  served only if the ledger's prediction is confirmed by it.  That
  install never waits: when the engine is busy, the session is not
  live or the registry journals (file I/O), the attempt goes on to
  the blocking stages, which run the same install-and-verify there
  (:meth:`RankingService._install_verified`).  Misses fall through and
  fill the cache after **render**; invalidation is by reachability
  (any context change moves the tenant to a new view digest — see
  :mod:`repro.cache.keys`) plus eviction hooks and
  :meth:`RankingService.invalidate_tenant`.
* **breaker** — the circuit breaker (:mod:`repro.service.resilience`):
  when rank failures or timeouts have spiked for this tenant (or
  globally), the request is shed before it touches a session —
  answered from stale cache when possible, a 503 with ``Retry-After``
  otherwise.
* **resolve** — a *pinned* checkout of the tenant's session from the
  sharded :class:`~repro.tenants.TenantRegistry`; the pin guarantees
  LRU eviction can never yank the overlay from an in-flight request.
* **context** — validate every spec of the per-request context delta
  (``None`` keeps the tenant's standing context); a bad spec is a 400
  *here*, with the tenant's standing context untouched (and the
  engine's own install validates-before-clearing too, so no error
  path can leave a half-installed context).
* **rank** — :meth:`UserSession.prepare_rank`, then
  :meth:`PreparedRank.complete`: the delta install and the snapshot of
  what to score under one hold of the engine lock, atomic per tenant;
  the kernel pass — or the view an earlier request with the same
  context binding scored, from the tenant-blind
  :class:`~repro.engine.engine.ScoredViewMemo` — and the response
  assembly after it is released.  It runs on the thread that took the
  session pin, inside the request's deadline scope: behind the
  gateway, the event loop itself for a warm miss
  (:meth:`RankingService.finish_rank` with ``blocking=False``),
  the ``repro-gw`` thread for a miss that would wait, mint, compile
  or journal.  The deadline is cooperative: the engine-lock wait, a
  cold bind's rule columns and rows, the start of the kernel pass and
  an injected delay all check it, so an expiry unwinds the work itself
  and answers 504 (or stale) — and the pin is released before the
  answer, whatever the outcome.
* **render** — the ranked items, written straight from the ranking's
  columns into one pre-encoded JSON fragment inside a small header
  (:class:`RankBody`); hit/stale/context-echo/timing decorations only
  ever touch the header.

Overload control is not a stage.  The service creates no threads, so
its callers' threads bound the work in flight: behind the gateway, the
loop plus its one ``repro-gw`` thread, whose dispatch queue limit is
the one overload valve (:meth:`RankingService.shed_inline`).  Every
failed request is answered by one row of :data:`_FAILURES`.

Every stage's latency lands in :class:`~repro.service.metrics.ServiceMetrics`
(the ``GET /metrics`` surface), plus an end-to-end ``total`` recorder.
"""

from __future__ import annotations

import json
import math
import operator
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, repeat
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence
from urllib.parse import parse_qs

from repro.cache.keys import KeyLookup, QueryKey, ResponseKeyer, query_key
from repro.cache.none import NoCacheAdapter
from repro.cache.protocol import CacheAdapter
from repro.engine.backends import parse_context_spec
from repro.engine.requests import RankedItems, RankRequest
from repro.errors import EngineError, ReproError
from repro.reason import base_tier, session_counters
from repro.engine.engine import ScoredViewMemo, context_bind_counters
from repro.service.metrics import LatencyRecorder, ServiceMetrics
from repro.service.resilience import (
    BreakerDecision,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    FaultInjector,
    SharedFleetState,
    clamp_timeout,
    deadline_scope,
)
from repro.tenants.registry import TenantRegistry

__all__ = [
    "RankAttempt",
    "RankBody",
    "RankingService",
    "ServiceConfig",
    "ServiceRequest",
    "ServiceResponse",
    "STAGES",
    "WouldBlock",
]

#: Pipeline stages, in request order (``total`` is recorded on top).
STAGES = ("parse", "cache", "breaker", "resolve", "context", "rank", "render")

#: How a delta hit was answered: ``inline`` by :meth:`RankingService.begin_rank`,
#: or deferred to :meth:`RankingService.finish_rank` for the reason named.
_DELTA_HIT_PATHS = ("inline", "engine_busy", "not_resident", "journal", "refuted")

#: Distinct ``/rank`` query strings whose parsed request is remembered
#: (:meth:`ServiceRequest.from_query`).  Sized from the traffic it
#: serves: the e13 Zipf schedule asks at most 1 000 distinct queries
#: (200 tenants x 5 context choices), which all fit; over 5 000 Zipf
#: tenants (exponent 1.1) the 1 024 most asked carry ~88 % of the
#: requests.  Never-repeated queries (a fresh context per request) only
#: cycle through it, so the bound is also what they cost: ~0.6 KB an
#: entry (query, request, key material), ~0.6 MB when full.
QUERY_MEMO_SIZE = 1024

#: Where the event loop's try at a miss ended: answered ``inline``, or
#: deferred to the gateway thread for the reason named (see
#: :meth:`RankingService.finish_rank`).
_MISS_PATHS = ("inline", "not_resident", "busy", "cold", "journal", "fault")


class WouldBlock(Exception):
    """A ``blocking=False`` call met work its thread must not do.

    Raised, like :class:`BlockingIOError` from a non-blocking socket,
    once the call has handed back everything it took; ``reason`` names
    the work (``_MISS_PATHS`` for a rank).  The caller re-runs the same
    call blocking on a thread that may wait.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the serving pipeline.

    ``include_timings`` attaches per-stage latencies to every response
    body (handy for tracing, off by default to keep payloads lean).

    Resilience tunables: ``request_timeout`` is the default per-request
    deadline (``None`` disables deadlines, and nothing else); a client's
    ``timeout`` parameter / ``X-Request-Timeout`` header is clamped into
    ``[min_request_timeout, max_request_timeout]`` (the floor keeps a
    near-zero client timeout from manufacturing guaranteed 504s).
    ``serve_stale`` allows degraded-mode answers from the response
    cache (recently expired or digest-stale bodies no older than
    ``stale_max_age`` seconds) on overload, breaker-open, engine error
    or deadline expiry.  The ``breaker_*`` knobs shape the per-tenant + global
    circuit breaker (see :class:`~repro.service.resilience.CircuitBreaker`).
    """

    include_timings: bool = False
    request_timeout: float | None = 2.0
    min_request_timeout: float = 0.05
    max_request_timeout: float = 30.0
    serve_stale: bool = True
    stale_max_age: float = 300.0
    breaker_enabled: bool = True
    breaker_window: float = 10.0
    breaker_min_requests: int = 10
    breaker_failure_threshold: float = 0.5
    breaker_cooldown: float = 5.0
    breaker_jitter: float = 0.2

    def __post_init__(self) -> None:
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise EngineError(
                f"request_timeout must be positive or None, got {self.request_timeout!r}"
            )
        if self.max_request_timeout <= 0:
            raise EngineError(
                f"max_request_timeout must be positive, got {self.max_request_timeout!r}"
            )
        if not 0 <= self.min_request_timeout <= self.max_request_timeout:
            raise EngineError(
                f"min_request_timeout must be in [0, max_request_timeout], got "
                f"{self.min_request_timeout!r} (max {self.max_request_timeout!r})"
            )
        if self.stale_max_age < 0:
            raise EngineError(
                f"stale_max_age must be non-negative, got {self.stale_max_age!r}"
            )


#: Marks a derived value of a :class:`ServiceRequest` not yet derived.
_UNDERIVED = object()


@dataclass(frozen=True, slots=True)
class ServiceRequest:
    """One parsed ranking request.

    ``context=None`` keeps the tenant's standing context;
    ``context=()`` explicitly clears it (rank context-free).
    ``timeout`` is the client's per-request deadline override in
    seconds (clamped to ``ServiceConfig.max_request_timeout``; ignored
    when the deployment disabled deadlines).

    What the pipeline derives from the request alone —
    :attr:`rank_request` and :attr:`query_key` — is computed on first
    use and kept on it, so a request :meth:`from_query` remembers
    derives them once for every repeat of its query string.  Slotted,
    as :data:`QUERY_MEMO_SIZE` of them may be remembered.
    """

    tenant: str
    context: tuple[str, ...] | None = None
    top_k: int | None = None
    documents: tuple[str, ...] | None = None
    explain: bool = False
    timeout: float | None = None
    _rank_request: object = field(default=_UNDERIVED, init=False, repr=False, compare=False)
    _query_key: object = field(default=_UNDERIVED, init=False, repr=False, compare=False)

    @staticmethod
    @lru_cache(maxsize=QUERY_MEMO_SIZE)
    def from_query(query: str) -> "ServiceRequest":
        """Parse a raw ``/rank`` query string, memoised by its text.

        The one query-string parser of the gateway:
        ``from_params(parse_qs(query, keep_blank_values=True))``, which
        is a pure function of ``query``, remembered for the last
        :data:`QUERY_MEMO_SIZE` distinct strings.  A malformed query
        raises as :meth:`from_params` does and is never remembered.
        ``from_query.cache_info()`` counts hits, misses and size.
        """
        return ServiceRequest.from_params(parse_qs(query, keep_blank_values=True))

    @classmethod
    def from_params(cls, params: Mapping[str, Sequence[str]]) -> "ServiceRequest":
        """Build from query-string shaped parameters (``parse_qs`` output).

        Recognised keys: ``tenant`` (required), ``context``
        (repeatable, ``CONCEPT[:PROB]``), ``top_k``, ``documents``
        (repeatable and/or comma-separated), ``explain``, ``timeout``
        (seconds, positive).
        """
        known = {"tenant", "context", "top_k", "documents", "explain", "timeout"}
        unknown = set(params) - known
        if unknown:
            raise EngineError(
                f"unknown rank parameters {sorted(unknown)}; known: {sorted(known)}"
            )
        tenants = list(params.get("tenant", ()))
        if len(tenants) != 1 or not str(tenants[0]).strip():
            raise EngineError("exactly one non-empty 'tenant' parameter is required")
        context: tuple[str, ...] | None = None
        if "context" in params:
            context = tuple(str(spec) for spec in params["context"])
        top_k = None
        if "top_k" in params:
            values = list(params["top_k"])
            try:
                top_k = int(values[-1])
            except (TypeError, ValueError):
                raise EngineError(
                    f"top_k must be an integer, got {values[-1]!r}"
                ) from None
        documents = None
        if "documents" in params:
            flattened = [
                part.strip()
                for value in params["documents"]
                for part in str(value).split(",")
                if part.strip()
            ]
            documents = tuple(flattened)
        explain = False
        if "explain" in params:
            explain = str(list(params["explain"])[-1]).lower() in ("1", "true", "yes")
        timeout = None
        if "timeout" in params:
            raw = list(params["timeout"])[-1]
            try:
                timeout = float(raw)
            except (TypeError, ValueError):
                raise EngineError(
                    f"timeout must be a number of seconds, got {raw!r}"
                ) from None
            if not timeout > 0 or not math.isfinite(timeout):
                raise EngineError(
                    f"timeout must be a positive finite number, got {raw!r}"
                )
        return cls(
            tenant=str(tenants[0]),
            context=context,
            top_k=top_k,
            documents=documents,
            explain=explain,
            timeout=timeout,
        )

    @property
    def rank_request(self) -> RankRequest:
        """The engine request; raises on an invalid ``top_k`` (never kept)."""
        derived = self._rank_request
        if derived is _UNDERIVED:
            derived = _rank_request(self.documents, self.top_k, self.explain)
            object.__setattr__(self, "_rank_request", derived)
        return derived

    @property
    def query_key(self) -> QueryKey | None:
        """The response-cache key material (:func:`~repro.cache.keys.query_key`).

        ``None`` when a context spec does not parse: the pipeline's
        context stage answers that request 400, and the cache stays
        out of the error path.
        """
        derived = self._query_key
        if derived is _UNDERIVED:
            try:
                derived = query_key(
                    self.tenant, self.context, self.documents, self.top_k, self.explain
                )
            except ReproError:
                derived = None
            object.__setattr__(self, "_query_key", derived)
        return derived


@lru_cache(maxsize=256)
def _rank_request(
    documents: tuple[str, ...] | None, top_k: int | None, explain: bool
) -> RankRequest:
    # Few distinct shapes serve many requests: one (frozen) engine
    # request each, shared by every request of that shape.
    return RankRequest(documents=documents, top_k=top_k, explain=explain)


def _dumps(value: object) -> bytes:
    return json.dumps(value).encode("utf-8")


def _float_texts(values: Iterable[float]) -> list[str]:
    """Each score as ``json.dumps`` would write it (``float.__repr__``)."""
    texts = list(map(repr, values))
    # inf / nan: json spells them differently; so does a numpy scalar a
    # custom backend put in a list (``np.float64(0.5)``, never ``0.5``)
    if "n" in "".join(texts):
        texts = [json.dumps(value) for value in values]
    return texts


#: ``_POSITION_HEADS[i]`` opens item ``i + 1`` of an ``items`` array (the
#: first one opens the array too).  A head depends on nothing but the
#: position, so the table is shared process-wide and grown — on demand,
#: never at start-up — to the longest ranking rendered so far.
_POSITION_HEADS = ['[{"position": 1, "document": ']
_POSITION_HEADS_LOCK = threading.Lock()


def _position_heads(count: int) -> list[str]:
    """The heads of positions 1 to ``count``."""
    heads = _POSITION_HEADS
    if len(heads) < count:
        with _POSITION_HEADS_LOCK:  # entries are only ever appended
            heads.extend(
                f', {{"position": {position}, "document": '
                for position in range(len(heads) + 1, count + 1)
            )
    return heads[:count]


def _tails(scores: Sequence[float], preferences: Sequence[float]) -> list[str]:
    """The closing ``, "score": S, "preference": P}`` fragment of each pair."""
    score_texts = _float_texts(scores)
    preference_texts = score_texts if preferences is scores else _float_texts(preferences)
    return [
        f', "score": {score}, "preference": {preference}}}'
        for score, preference in zip(score_texts, preference_texts)
    ]


def _run_tails(scores, preferences) -> list[str]:
    """Each item's tail of an ndarray ranking, formatted once per tie run.

    Documents with the same feature pattern tie, so a ranking of
    thousands often holds a handful of distinct scores, and a sorted
    ranking keeps them adjacent: a run starts wherever the (score,
    preference) bit pattern differs from its predecessor's — ``-0.0``
    and ``0.0``, or two NaN payloads, split a run by their bits — and
    ``repr``, the dearest step of a render, runs once per run.
    """
    score_bits = scores.view("u8")
    changes = score_bits[1:] != score_bits[:-1]
    if preferences is not scores:
        preference_bits = preferences.view("u8")
        changes |= preference_bits[1:] != preference_bits[:-1]
    starts = [0, *(changes.nonzero()[0] + 1).tolist()]
    run_scores = scores[starts].tolist()
    run_preferences = run_scores if preferences is scores else preferences[starts].tolist()
    lengths = map(operator.sub, [*starts[1:], len(scores)], starts)
    return list(chain.from_iterable(map(repeat, _tails(run_scores, run_preferences), lengths)))


def _items_json(items: RankedItems) -> bytes:
    """The ``items`` array of a ``/rank`` body, assembled from fragments.

    Byte-identical to ``json.dumps`` of the per-item dicts
    (``position``, ``document``, ``score``, ``preference``) without
    building one: an item is a position head, the document's
    pre-encoded name from the ranking's name table and a score tail,
    interleaved by slice assignment and joined once.  A numpy ranking
    stays columnar until the join: its names are one ``take`` on the
    table's name literals and its tails are formatted per tie run; list
    columns are gathered and formatted per item.
    """
    rows = items.rows
    count = len(rows)
    if not count:
        return b"[]"
    parts = ["]"] * (3 * count + 1)
    parts[0:-1:3] = _position_heads(count)
    if hasattr(rows, "take"):  # rank_columns' vectors: a numpy table, float64 columns
        parts[1::3] = items.table.json_name_array.take(rows).tolist()
        parts[2::3] = _run_tails(items.scores, items.preferences)
    else:
        names = items.table.json_names
        parts[1::3] = [names[row] for row in rows]
        parts[2::3] = _tails(items.scores, items.preferences)
    return "".join(parts).encode("ascii")


class RankBody:
    """A rendered ``/rank`` body: one encoded ``items`` fragment in a small header.

    Stands for the dict ``{"tenant": tenant, "items": [...], **tail}``
    and serialises to exactly ``json.dumps`` of it.  Immutable:
    decorating a body (:meth:`extended`) copies the few header entries
    and shares ``items_json``, so the response cache stores — and
    evicts — one ``bytes`` object per body whatever its length, and a
    hit never re-encodes the ranking.
    """

    __slots__ = ("tenant", "items_json", "tail")

    def __init__(self, tenant: str, items_json: bytes, tail: Mapping[str, object]):
        self.tenant = tenant
        self.items_json = items_json
        self.tail = tail

    @property
    def nbytes(self) -> int:
        """What the body weighs in a cache: its ``items`` fragment."""
        return len(self.items_json)

    def extended(self, **fields: object) -> "RankBody":
        """This body with ``fields`` appended to (or replaced in) the header."""
        return RankBody(self.tenant, self.items_json, {**self.tail, **fields})

    def without(self, field_name: str) -> "RankBody":
        """This body minus one header field."""
        tail = {name: value for name, value in self.tail.items() if name != field_name}
        return RankBody(self.tenant, self.items_json, tail)

    def encode(self) -> bytes:
        """The UTF-8 JSON of the whole body: the header spliced around the fragment."""
        return b"".join(
            (
                b'{"tenant": ',
                _dumps(self.tenant),
                b', "items": ',
                self.items_json,
                b", ",
                _dumps(self.tail)[1:],  # never empty: from_cache is always there
            )
        )

    def to_dict(self) -> dict:
        """The JSON-able dict this body stands for (decodes the fragment)."""
        return {"tenant": self.tenant, "items": json.loads(self.items_json), **self.tail}

    def __repr__(self) -> str:
        return f"RankBody(tenant={self.tenant!r}, items={len(self.items_json)}B, {self.tail!r})"


class ServiceResponse:
    """One pipeline answer: an HTTP-ish status, a JSON-able body, timings.

    ``headers`` carries response headers the gateway must forward
    (``Retry-After`` on sheds, ``Warning: 110`` on stale serves).

    Gateways send :meth:`encoded` — the UTF-8 JSON, computed at most
    once per response; a ranked answer splices its pre-encoded
    :class:`RankBody` and never builds the dict.  In-process callers
    read :attr:`body`, which decodes a :class:`RankBody` on first
    access (and is the plain dict it was given otherwise).
    """

    def __init__(
        self,
        status: int,
        body: "dict | RankBody",
        timings: dict[str, float] | None = None,
        headers: dict[str, str] | None = None,
    ):
        self.status = status
        self.timings = timings if timings is not None else {}
        self.headers = headers if headers is not None else {}
        self._rendered = body
        self._encoded: bytes | None = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def body(self) -> dict:
        """The body as a dict (decoded once, then kept)."""
        rendered = self._rendered
        if isinstance(rendered, RankBody):
            # Keep the bytes first: the wire form must not depend on
            # what an in-process caller later does to the dict.
            self.encoded()
            rendered = self._rendered = rendered.to_dict()
        return rendered

    def encoded(self) -> bytes:
        """The body as UTF-8 JSON, encoded at most once and then cached."""
        data = self._encoded
        if data is None:
            rendered = self._rendered
            data = rendered.encode() if isinstance(rendered, RankBody) else _dumps(rendered)
            self._encoded = data  # benign race: concurrent encoders agree
        return data

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServiceResponse):
            return NotImplemented
        return self.status == other.status and self.body == other.body

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ServiceResponse(status={self.status!r}, body={self._rendered!r})"


@dataclass
class RankAttempt:
    """The inline-safe prefix of one ranking request.

    :meth:`RankingService.begin_rank` runs the non-blocking stages —
    parse and the cache probe — and parks their results here.  When
    ``response`` is already set the request was answered without
    waiting on any contended resource (a parse 400, a cache hit) and
    an event-loop gateway may send it directly from the loop;
    otherwise the attempt goes to :meth:`RankingService.finish_rank`
    (breaker / session / rank) — on the loop when it need not wait,
    on a thread that may block when it must.
    """

    clock: _StageClock
    request: ServiceRequest | None = None
    rank_request: RankRequest | None = None
    deadline: Deadline | None = None
    effective_timeout: float | None = None
    lookup: KeyLookup | None = None
    cached_body: RankBody | None = None
    probe: BreakerDecision | None = None  # the half-open probe it holds
    response: ServiceResponse | None = None


class _Span:
    """One timed stage of a :class:`_StageClock` (a context manager)."""

    __slots__ = ("_timings", "_name", "_start")

    def __init__(self, timings: dict[str, float], name: str):
        self._timings = timings
        self._name = name

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._timings[self._name] = time.perf_counter() - self._start
        return False


class _StageClock:
    """Accumulates per-stage wall time for one request.

    Unlocked: one thread at a time times a request — the loop for
    :meth:`RankingService.begin_rank` and any non-blocking try, then
    the one thread that runs :meth:`RankingService.finish_rank` to the
    answer.
    """

    __slots__ = ("timings", "_started")

    def __init__(self):
        self.timings: dict[str, float] = {}
        self._started = time.perf_counter()

    def stage(self, name: str) -> _Span:
        return _Span(self.timings, name)

    def total(self) -> float:
        return time.perf_counter() - self._started


#: The RFC 7234 stale-response warning attached to degraded serves.
_STALE_WARNING = '110 repro "Response is stale"'


class _Failure(NamedTuple):
    """How one outcome fails a request: a row of :data:`_FAILURES`.

    ``breaker`` is ``"failure"`` (an engine outcome), ``"cancel"`` (hand
    back the half-open probe the request held) or ``None`` (it never
    held one); ``stale`` is the ``stale_reason`` of a body served
    instead (``None``: never stale); ``retry_after`` the shortest
    ``Retry-After`` in seconds (``None``: no header).
    """

    status: int
    counters: tuple[str, ...]  # ``resilience`` counters, bumped once each
    breaker: str | None
    stale: str | None
    retry_after: float | None


#: Every way a request fails, by outcome label.  A breaker shed asks for
#: the cooldown left, at least 0.1 s; a full dispatch queue drains in
#: well under a second, so an overload shed asks the shortest wait there is.
_FAILURES: dict[str, _Failure] = {
    "shed_breaker": _Failure(503, ("shed", "shed.breaker"), None, "breaker_open", 0.1),
    "rejected": _Failure(503, ("shed", "shed.overload"), None, "overload", 1.0),
    "timeout": _Failure(504, ("timeouts",), "failure", "deadline", None),
    "bad_request": _Failure(400, (), "cancel", None, None),
    "error": _Failure(500, ("rank_errors",), "failure", "error", None),
}


class RankingService:
    """The concurrent request pipeline over a tenant fleet.

    One service fronts one :class:`~repro.tenants.TenantRegistry`;
    requests for any number of tenants flow through the staged pipeline
    concurrently.  The service creates no threads: every request runs
    on its caller's, so the callers bound the work in flight — behind
    the gateway its event loop and its one ``repro-gw`` thread, in
    process however many threads call
    :meth:`rank`.  Herd mates share scored views through one
    tenant-blind :class:`~repro.engine.engine.ScoredViewMemo`
    (``memo``), always on.  The service
    itself is stateless beyond metrics — all ranking state lives in the
    registry's sessions — so it is safe to share one instance across
    every gateway thread.
    """

    def __init__(
        self,
        registry: TenantRegistry,
        config: ServiceConfig | None = None,
        metrics: ServiceMetrics | None = None,
        cache: CacheAdapter | None = None,
        worker_info: Mapping[str, object] | None = None,
        fault_injector: FaultInjector | None = None,
    ):
        self.registry = registry
        self.config = config if config is not None else ServiceConfig()
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.cache: CacheAdapter = cache if cache is not None else NoCacheAdapter()
        #: Extra identity reported under ``worker`` in health/metrics
        #: (the fleet supervisor stamps worker index and bind mode).
        self.worker_info = dict(worker_info) if worker_info else {}
        self.fault_injector = (
            fault_injector if fault_injector is not None else FaultInjector()
        )
        self.breaker: CircuitBreaker | None = None
        if self.config.breaker_enabled:
            self.breaker = CircuitBreaker(
                window=self.config.breaker_window,
                min_requests=self.config.breaker_min_requests,
                failure_threshold=self.config.breaker_failure_threshold,
                cooldown=self.config.breaker_cooldown,
                jitter=self.config.breaker_jitter,
                on_transition=self._breaker_transition,
            )
        #: The fleet supervisor wires its cross-process state in after
        #: the fork; single-process deployments leave it None.
        self.fleet_state: SharedFleetState | None = None
        self._keyer = ResponseKeyer()
        #: Delta hits by how they were answered (``_DELTA_HIT_PATHS``):
        #: plain counters, so the hit path takes no lock for them.  Only
        #: :meth:`begin_rank` writes them — behind a gateway, the event
        #: loop's thread alone.
        self._delta_hits = dict.fromkeys(_DELTA_HIT_PATHS, 0)
        #: Misses by where :meth:`finish_rank` ``blocking=False`` left
        #: them (``_MISS_PATHS``); written by the event loop alone.
        self._misses = dict.fromkeys(_MISS_PATHS, 0)
        if self.cache.enabled:
            # A session eviction drops the tenant's standing context,
            # so everything learned (and stored) for it must go too.
            self.registry.add_evict_listener(self._tenant_evicted)
        #: One scored view per distinct context binding, across tenants.
        self.memo = ScoredViewMemo()
        #: ``(items, fragment)`` of the last ranking rendered: a herd
        #: mate's cut is the same object (the memo shares it), so its
        #: ``items`` fragment is rendered once.
        self._last_render: tuple = (None, b"")
        #: The serving front's stats provider (see :meth:`attach_gateway`).
        self._gateway_stats: Callable[[], Mapping[str, object]] | None = None
        self._started_at = time.time()

    # -- the staged pipeline ----------------------------------------------
    def rank(
        self, request: ServiceRequest | str | Mapping[str, Sequence[str]]
    ) -> ServiceResponse:
        """Answer one ranking request through the full pipeline.

        Accepts a parsed :class:`ServiceRequest`, a raw query string or
        query-string parameters (parsed as the ``parse`` stage; see
        :meth:`begin_rank`).  Never raises for
        request-shaped failures: malformed input is a 400 body,
        a breaker shed a 503 (stale-served when possible), a blown
        deadline a 504, unexpected engine errors a
        500 — the gateway maps ``status`` straight onto HTTP.

        In-process callers use this; the HTTP gateway calls the same
        two halves itself — :meth:`begin_rank` on the loop, then
        :meth:`finish_rank` on the loop when it need not wait, on the
        gateway thread otherwise.
        """
        attempt = self.begin_rank(request)
        if attempt.response is not None:
            return attempt.response
        return self.finish_rank(attempt)

    def begin_rank(
        self, request: ServiceRequest | str | Mapping[str, Sequence[str]]
    ) -> RankAttempt:
        """Run the inline-safe prefix: parse and the cache probe.

        ``request`` is a parsed :class:`ServiceRequest`, a raw query
        string (the gateway's: :meth:`ServiceRequest.from_query`, so a
        repeated query is parsed and keyed once) or query-string shaped
        parameters (:meth:`ServiceRequest.from_params`).  Never blocks
        and never raises for request-shaped failures.
        Returns a :class:`RankAttempt`; when its ``response`` is set
        (parse 400, pure or delta cache hit) the request is fully
        answered and :meth:`finish_rank` must *not* be called.  Both
        stages run exactly once per request regardless of which entry
        point the gateway used, so cache hit/miss accounting never
        double-counts.
        """
        clock = _StageClock()
        attempt = RankAttempt(clock=clock)
        try:
            with clock.stage("parse"):
                if isinstance(request, str):
                    request = ServiceRequest.from_query(request)
                elif not isinstance(request, ServiceRequest):
                    request = ServiceRequest.from_params(request)
                attempt.request = request
                attempt.rank_request = request.rank_request
                # Per request: the clamp reads the service's config.
                attempt.effective_timeout = clamp_timeout(
                    request.timeout,
                    self.config.request_timeout,
                    self.config.max_request_timeout,
                    self.config.min_request_timeout,
                )
                attempt.deadline = (
                    Deadline.after(attempt.effective_timeout)
                    if attempt.effective_timeout is not None
                    else None
                )
        except ReproError as exc:
            attempt.response = self._fail("bad_request", {"error": str(exc)}, attempt)
            return attempt

        if self.cache.enabled:
            with clock.stage("cache"):
                derived = request.query_key
                if derived is not None:
                    lookup = attempt.lookup = self._keyer.lookup(derived)
                    attempt.cached_body = self.cache.get(lookup.key)
            if attempt.cached_body is not None and (
                not lookup.needs_install or self._delta_hit_inline(attempt)
            ):
                # Pure hit: the tenant's standing context already *is*
                # the state this body was ranked under.  Delta hit: it
                # is now, and the fingerprint taken with the install
                # says so.  Either way no deadline or fault injection,
                # and served even while the breaker is open: a hit
                # touches nothing the breaker protects.
                with clock.stage("render"):
                    body = self._serve_hit(request, attempt.cached_body)
                attempt.response = self._reply(
                    clock, 200, body, outcome="ok_cached", cached=True
                )
        return attempt

    def _delta_hit_inline(self, attempt: RankAttempt) -> bool:
        """Install-and-verify a delta hit on the calling thread, never waiting.

        ``True``: the delta is installed and the stored body confirmed.
        Otherwise the attempt is left to :meth:`finish_rank`, counted
        under why: the registry journals (file I/O), the session is not
        live or its shard is busy (a mint or a wait), the engine lock is
        held (a wait) — or the fingerprint refuted the prediction, so
        the stored body is dropped from the attempt and it ranks.
        """
        request = attempt.request
        if self.registry.journal is not None:
            path = "journal"
        else:
            with attempt.clock.stage("context"), self.registry.resident(
                request.tenant
            ) as session:
                verified = session is not None and self._install_verified(
                    session, request, attempt.lookup, blocking=False
                )
            if verified:
                path = "inline"
            elif session is None:
                path = "not_resident"
            elif verified is None:
                path = "engine_busy"
            else:
                path = "refuted"
                attempt.cached_body = None
        self._delta_hits[path] += 1
        return path == "inline"

    def _install_verified(
        self,
        session,
        request: ServiceRequest,
        lookup: KeyLookup,
        *,
        blocking: bool,
    ) -> bool | None:
        """Install a delta hit's context; is the stored body its answer?

        The one install-and-verify, with two callers: the loop
        (:meth:`begin_rank`, ``blocking=False``) and the gateway
        thread (:meth:`finish_rank`, ``blocking=True``, waiting for the
        engine lock no longer than the deadline).  The delta and the
        engine fingerprint are taken under one hold of the engine lock,
        so the fingerprint is the state *this* request installed, and
        the body is confirmed only when the digest learned from it is
        the one the lookup predicted.  ``None``: the engine was busy
        and nothing was installed.
        """
        fingerprint = session.install_and_fingerprint(
            request.context, tick="svc", blocking=blocking
        )
        if fingerprint is None:
            return None
        return self._keyer.learn(lookup, fingerprint) == lookup.view_digest

    def shed_inline(self, attempt: RankAttempt | None) -> ServiceResponse:
        """Shed one request without touching any blocking stage.

        The service's one overload valve, opened by the event-loop
        gateway: when its dispatch queue is saturated, queueing more
        work onto the gateway thread only builds latency debt, so the
        request is answered on the loop.  A begun rank (``attempt``) is
        answered from stale cache when the policy allows it; a context
        install (``None``) has no stale answer.  Otherwise a 503 with
        ``Retry-After``: the ``rejected`` row of :data:`_FAILURES`.
        """
        body = {"error": "service overloaded: gateway dispatch queue full"}
        return self._fail("rejected", body, attempt)

    def finish_rank(self, attempt: RankAttempt, *, blocking: bool = True) -> ServiceResponse:
        """Run the remaining stages of a begun request to an answer.

        Breaker, resolve, context, rank, render — all on the calling
        thread, which may wait on a registry shard or the engine lock.
        ``attempt`` must come from :meth:`begin_rank` with ``response``
        unset.

        ``blocking=False`` is the event loop's try, never waiting: it
        answers a warm miss in place, or raises :class:`WouldBlock`
        having taken nothing — no pin, no breaker probe, no outcome or
        stage — when the request would mint a session (the tenant is
        not resident or its shard is busy), wait on the engine lock,
        compile or bind cold, do file I/O (the registry journals) or
        meet injected rank faults aimed at its tenant.  The caller then
        runs it blocking on a thread that may wait, and that run is the
        request's one outcome.  Each try is counted under
        ``misses_inline`` (whatever the answer) or ``misses_deferred``
        by reason; only the loop tries, so the counters take no lock.

        The rank runs inside ``deadline_scope(attempt.deadline)`` either
        way; every wait on its way checks the deadline, and an expiry
        answers 504 (or stale).  The session pin is released before the
        answer.
        """
        response = self._finish_rank(attempt, blocking)
        if not blocking:
            self._misses["inline"] += 1
        return response

    def _finish_rank(self, attempt: RankAttempt, blocking: bool) -> ServiceResponse:
        clock = attempt.clock
        request = attempt.request
        if not blocking:
            reason = (
                "journal" if self.registry.journal is not None
                else "fault" if self.fault_injector.targets_rank(request.tenant)
                else None
            )
            if reason is not None:
                self._misses[reason] += 1
                raise WouldBlock(reason)
        stages = dict(clock.timings)

        # While a breaker core is half-open, this request may *be* its
        # single probe; every termination path below must then settle
        # it — record an outcome, or cancel the probe — or the probe
        # slot leaks and the breaker wedges half-open, denying every
        # request, forever.
        if self.breaker is not None:
            with clock.stage("breaker"):
                decision = self.breaker.allow(request.tenant)
            attempt.probe = decision if decision.probes else None
            if not decision.allowed:
                retry = max(_FAILURES["shed_breaker"].retry_after, decision.retry_after)
                body = {
                    "error": (
                        f"circuit breaker open ({decision.scope}): "
                        "recent rank failures; request shed"
                    ),
                    "breaker_scope": decision.scope,
                    "retry_after_seconds": retry,
                }
                return self._fail("shed_breaker", body, attempt, retry_after=retry)

        try:
            with clock.stage("resolve"):
                checkout = self.registry.checkout(request.tenant, blocking=blocking)
                session = checkout.__enter__()
            try:
                if session is None:
                    raise WouldBlock("not_resident")
                with clock.stage("context"):
                    # Pre-flight every spec: a bad one 400s here with
                    # the tenant's standing context untouched.  The
                    # cache stage parsed them all if it produced a
                    # lookup (``lookup.canon_digest``); only a request
                    # it could not key — cache off, or a spec that
                    # does not parse — is parsed here.
                    specs = request.context  # None keeps the standing context
                    if specs is not None and attempt.lookup is None:
                        for spec in specs:
                            parse_context_spec(spec)
                with deadline_scope(attempt.deadline):
                    body, served_hit = self._run_rank(attempt, session, specs, blocking)
            finally:
                checkout.__exit__(None, None, None)
        except WouldBlock as deferred:
            if attempt.probe is not None:
                self.breaker.cancel_probe(attempt.probe)
            clock.timings = stages
            self._misses[deferred.reason] += 1
            raise
        except DeadlineExceeded:
            # A deadline the client shrank below the server default says
            # nothing about engine health: counting those 504s as breaker
            # failures would let one misconfigured (or hostile) client
            # open the *global* circuit and shed every tenant's traffic.
            timeout = attempt.effective_timeout
            client_shortened = (
                request.timeout is not None
                and self.config.request_timeout is not None
                and timeout < self.config.request_timeout
            )
            if client_shortened and self.breaker is not None:
                self.metrics.count("resilience", "timeouts.client")
            error = f"deadline exceeded: rank did not finish within {timeout:.3f}s"
            body = {"error": error, "timeout_seconds": timeout}
            effect = "cancel" if client_shortened else None
            return self._fail("timeout", body, attempt, breaker=effect)
        except ReproError as exc:
            return self._fail("bad_request", {"error": str(exc)}, attempt)
        except Exception as exc:  # noqa: BLE001 - the gateway must answer
            error = f"{type(exc).__name__}: {exc}"
            return self._fail("error", {"error": error}, attempt)
        if self.breaker is not None:
            self.breaker.record_success(request.tenant)
        return self._reply(
            clock,
            200,
            body,
            outcome="ok_cached" if served_hit else "ok",
            cached=served_hit,
        )

    def _fail(
        self,
        outcome: str,
        body: dict,
        attempt: RankAttempt | None = None,
        *,
        clock: _StageClock | None = None,
        breaker: str | None = None,
        retry_after: float = 0.0,
    ) -> ServiceResponse:
        """Answer one failed request by its row of :data:`_FAILURES`.

        Bumps the row's counters and settles the breaker as the row
        says (``breaker`` overrides it: a client-shortened timeout
        cancels the probe), then serves a stale body for ``attempt``
        when the row allows one and the cache has it; otherwise replies
        ``body`` with the row's status and a ``Retry-After`` of at least
        the row's (``retry_after`` asks a longer one).  A request with
        no ``attempt`` (a context install) is timed by ``clock``.
        """
        row = _FAILURES[outcome]
        for name in row.counters:
            self.metrics.count("resilience", name)
        effect = breaker or row.breaker
        if effect == "failure" and self.breaker is not None:
            self.breaker.record_failure(attempt.request.tenant)
        elif effect == "cancel" and attempt is not None and attempt.probe is not None:
            self.breaker.cancel_probe(attempt.probe)
        if attempt is not None:
            clock = attempt.clock
            if row.stale is not None:
                stale = self._try_stale(attempt, row.stale)
                if stale is not None:
                    return stale
        elif clock is None:
            clock = _StageClock()
        headers = None
        if row.retry_after is not None:
            wait = max(row.retry_after, retry_after)
            headers = {"Retry-After": str(max(1, math.ceil(wait)))}
        return self._reply(clock, row.status, body, outcome=outcome, headers=headers)

    def _run_rank(
        self, attempt: RankAttempt, session, specs, blocking: bool
    ) -> tuple[RankBody, bool]:
        """The work unit: ``(body, served from the cache)``.

        Runs inside the request's deadline scope, on the thread that
        holds its session pin.  Not ``blocking``, raises
        :class:`WouldBlock` where it would wait or work cold.
        """
        clock = attempt.clock
        request = attempt.request
        lookup = attempt.lookup
        if attempt.deadline is not None:
            attempt.deadline.check()  # spent waiting for this thread
        self.fault_injector.before_rank(request.tenant)
        if attempt.cached_body is not None:
            # A delta hit begin_rank could not settle: the same
            # install-and-verify, blocking when this thread may wait.
            with clock.stage("rank"):
                verified = self._install_verified(session, request, lookup, blocking=blocking)
            if verified is None:
                raise WouldBlock("busy")
            if verified:
                with clock.stage("render"):
                    return self._serve_hit(request, attempt.cached_body), True
        with clock.stage("rank"):
            # Install and snapshot under one hold of the engine lock —
            # after a refuted delta hit too, so the ranking is this
            # request's context whatever ran since its install.
            response = self._rank_session(session, specs, attempt.rank_request, blocking)
        with clock.stage("render"):
            body = self._render(request, response)
        if lookup is not None:
            self._fill(lookup, response.fingerprint, body)
        return body, False

    def _rank_session(self, session, specs, rank_request, blocking: bool):
        """Rank one session request: prepare → score → complete.

        ``prepare_rank`` installs the delta and snapshots the bound
        problem under the engine lock — taking a herd mate's bound
        kernel from the memo when the context is tenant-blind; the
        scored view — the memo's, when any request has scored an equal
        binding of the same candidates, else one kernel pass — and the
        response assembly (a mate's ranked cut, when it has one) then
        come outside it.  Requests answered on the spot (view-cache
        hits, cold basis, ...) carry no kernel and skip the memo.  Not
        ``blocking``, a busy engine or a cold snapshot defers.
        """
        prepared = session.prepare_rank(
            specs, rank_request, tick="svc", blocking=blocking, memo=self.memo
        )
        if prepared is None:
            raise WouldBlock("busy")
        if prepared.cold:
            raise WouldBlock("cold")
        view = self.memo.execute(prepared) if prepared.kernel is not None else None
        return prepared.complete(view)

    def install_context(
        self, tenant: str, specs: Iterable[str], *, blocking: bool = True
    ) -> ServiceResponse:
        """Install a *standing* context for a tenant (``POST /context``).

        Subsequent ``/rank`` requests without a ``context`` parameter
        rank under this context until it is replaced.  ``blocking=False``
        is the event loop's try, as for :meth:`finish_rank`:
        :class:`WouldBlock`, nothing installed or counted, when the
        install would mint a session, wait on the shard or engine lock,
        or journal.  The
        gateway then dispatches it like a miss — and sheds it like one
        when its dispatch queue is full (:meth:`shed_inline` with no
        attempt).
        """
        if not blocking and self.registry.journal is not None:
            raise WouldBlock("journal")
        clock = _StageClock()
        specs = tuple(str(spec) for spec in specs)
        lookup: KeyLookup | None = None
        if self.cache.enabled:
            with clock.stage("cache"):
                # Era fence read *before* the install: if the tenant is
                # invalidated mid-install, the learn below is discarded.
                try:
                    lookup = self._keyer.lookup(
                        query_key(str(tenant), specs, None, None, False)
                    )
                except ReproError:
                    pass  # the install below answers the bad spec 400
        try:
            with clock.stage("resolve"):
                checkout = self.registry.checkout(str(tenant), blocking=blocking)
                session = checkout.__enter__()
            try:
                if session is None:
                    raise WouldBlock("not_resident")
                with clock.stage("context"):
                    # One hold of the engine lock: the fingerprint is
                    # the state this install left, not a later one.
                    fingerprint = session.install_and_fingerprint(
                        specs, tick="svc", blocking=blocking
                    )
                if fingerprint is None:
                    raise WouldBlock("busy")
                if lookup is not None:
                    # Read-your-writes: the very next /rank without a
                    # context parameter should already hit under the
                    # new standing digest.
                    self._keyer.learn(lookup, fingerprint)
            finally:
                checkout.__exit__(None, None, None)
        except WouldBlock:
            raise
        except ReproError as exc:
            return self._fail("bad_request", {"error": str(exc)}, clock=clock)
        except Exception as exc:  # noqa: BLE001 - the gateway must answer
            # Not the ``error`` row: an install is no rank, so it counts
            # no ``rank_errors`` and tells the breaker nothing.
            return self._reply(
                clock, 500, {"error": f"{type(exc).__name__}: {exc}"}, outcome="error"
            )
        return self._reply(
            clock,
            200,
            {"tenant": str(tenant), "installed": len(specs), "context": list(specs)},
            outcome="ok",
        )

    # -- degraded-mode serving ----------------------------------------------
    def _try_stale(self, attempt: RankAttempt, reason: str) -> ServiceResponse | None:
        """A stale cache body for a request the healthy path failed.

        Probes the exact key first (a recently expired body for this
        precise context), then the family fallback (the tenant's most
        recent answer to the same query shape under *some* context) —
        bounded by ``stale_max_age`` either way.  ``None`` means the
        caller must fail the request for real.
        """
        lookup = attempt.lookup
        if not self.config.serve_stale or lookup is None or not self.cache.enabled:
            return None
        hit = self.cache.get_stale(
            lookup.key, family=lookup.family, max_age=self.config.stale_max_age
        )
        if hit is None:
            self.metrics.count("resilience", "stale_miss")
            return None
        self.metrics.count("resilience", "stale_served")
        self.metrics.count("resilience", f"stale_served.{reason}")
        marks: dict[str, object] = {}
        if attempt.request.context is not None:
            marks["context"] = list(attempt.request.context)
        marks.update(
            cached=True, stale=True, stale_reason=reason, stale_age_seconds=round(hit.age, 3)
        )
        if not hit.exact:
            marks["stale_context_digest"] = True  # ranked under an older context
        return self._reply(
            attempt.clock,
            200,
            hit.body.extended(**marks),
            outcome="ok_stale",
            tag="stale",
            headers={"Warning": _STALE_WARNING},
        )

    # -- invalidation -------------------------------------------------------
    def invalidate_tenant(self, tenant: str) -> int:
        """Purge everything cached for one tenant; returns entries dropped.

        The explicit invalidation path for knowledge changes the
        service cannot see — direct session mutation
        (``session.assert_fact`` on a handle you hold), administrative
        rule edits, and so on.  Context changes flowing through the
        service API never need this: they move the tenant to a new
        view digest and strand the old entries (see
        :mod:`repro.cache.keys`).
        """
        self._keyer.forget(str(tenant))
        return self.cache.invalidate_tenant(str(tenant))

    def _tenant_evicted(self, tenant_id: str) -> None:
        # Registry eviction hook (fired outside shard locks): the
        # session — and with it the standing context — is gone, so the
        # ledger's learned digests and the stored bodies must go too.
        self._keyer.forget(tenant_id)
        self.cache.invalidate_tenant(tenant_id)

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Nothing to drain: the service owns no thread and no queue —
        every request runs on its caller's thread.  Kept so fronts can
        close whatever service they were given."""

    # -- observability -----------------------------------------------------
    def _breaker_transition(self, scope: str, old: str, new: str) -> None:
        self.metrics.count("resilience", f"breaker_{new}")
        kind = "global" if scope == "global" else "tenant"
        self.metrics.count("resilience", f"breaker_{new}.{kind}")

    def _worker_section(self) -> dict:
        section: dict = {
            "pid": os.getpid(),
            "uptime_seconds": time.time() - self._started_at,
        }
        section.update(self.worker_info)
        return section

    def health(self) -> dict:
        """The ``GET /healthz`` body: liveness plus fleet occupancy."""
        info = self.registry.info()
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self._started_at,
            "worker": self._worker_section(),
            "registry": {
                "active_sessions": info.active,
                "max_sessions": info.max_sessions,
                "shards": info.shards,
                "pinned": info.pinned,
                "minted": info.minted,
                "hits": info.hits,
                "evictions": info.evictions,
            },
        }

    def readiness(self) -> tuple[int, dict]:
        """The ``GET /readyz`` answer: ``(status_code, body)``.

        Liveness (:meth:`health`) says "this process runs"; readiness
        says "send me traffic".  Degraded — 503, so load balancers
        rotate the worker out — when the global breaker is open or the
        fleet supervisor has marked a crash-looping sibling failed.
        """
        problems: list[str] = []
        if self.breaker is not None and self.breaker.state() == "open":
            problems.append("breaker_open")
        failed = self.fleet_state.failed_workers if self.fleet_state is not None else 0
        if failed > 0:
            problems.append("fleet_workers_failed")
        body = {
            "status": "ready" if not problems else "degraded",
            "problems": problems,
            "failed_workers": failed,
            "breaker": (
                self.breaker.snapshot()
                if self.breaker is not None
                else {"enabled": False}
            ),
            "worker": self._worker_section(),
        }
        return (200 if not problems else 503), body

    def metrics_snapshot(self) -> dict:
        """The ``GET /metrics`` body: stage latencies, outcomes, fleet."""
        snapshot = self.metrics.snapshot()
        snapshot["config"] = {
            "request_timeout": self.config.request_timeout,
            "min_request_timeout": self.config.min_request_timeout,
            "max_request_timeout": self.config.max_request_timeout,
            "serve_stale": self.config.serve_stale,
            "stale_max_age": self.config.stale_max_age,
        }
        memo = self.memo.info()
        # The memo under the section's old keys: every memo request is
        # "batched", every kernel pass a "batch", and nothing waits.
        snapshot["batching"] = {
            "enabled": True,
            **memo,
            "batched_requests": memo["requests"],
            "batches": memo["passes"],
            "coalesce_ratio": memo["hits"] / memo["requests"] if memo["requests"] else 0.0,
            "queue_wait": LatencyRecorder().summary(),
        }
        snapshot["registry"] = self.health()["registry"]
        registry = self.registry
        space = registry.space
        # Both flat while serving: context atoms live in the tenant
        # sessions that installed them, not in the shared space or the
        # fleet-wide base tier.
        snapshot["reasoner"] = {
            "space_events": len(space) if space is not None else 0,
            "memo_probabilities": base_tier(
                registry.abox, registry.tbox, space
            ).memo_probabilities,
            # How warm misses bound their context, process-wide.
            **context_bind_counters(),
            # ... how many took a herd mate's bound kernel ...
            "binds_shared": memo["binds_shared"],
            # ... and how the reasoner sessions moved under them.
            **session_counters(),
        }
        snapshot["cache"] = self.cache.info().to_dict()
        snapshot["cache"]["enabled"] = bool(self.cache.enabled)
        deferred = dict(self._delta_hits)
        snapshot["cache"]["delta_hits_inline"] = deferred.pop("inline")
        snapshot["cache"]["delta_hits_deferred"] = deferred
        misses = dict(self._misses)
        snapshot["cache"]["misses_inline"] = misses.pop("inline")
        snapshot["cache"]["misses_deferred"] = misses
        snapshot["resilience"] = {
            "counters": self.metrics.counters("resilience"),
            "breaker": (
                self.breaker.snapshot()
                if self.breaker is not None
                else {"enabled": False}
            ),
            "fault_injection": self.fault_injector.info(),
        }
        provider = self._gateway_stats
        snapshot["gateway"] = (
            dict(provider()) if provider is not None else {"attached": False}
        )
        worker = self._worker_section()
        # What this process has actually loaded: which kernel backend
        # its matrices called for, and whether an import-on-use edge
        # (SQL, explain, batching, ...) has fired since boot.
        worker["numpy_loaded"] = "numpy" in sys.modules
        worker["repro_modules_loaded"] = sum(
            name == "repro" or name.startswith("repro.") for name in list(sys.modules)
        )
        snapshot["worker"] = worker
        return snapshot

    def attach_gateway(self, provider: Callable[[], Mapping[str, object]] | None) -> None:
        """Register the serving front's stats provider.

        The gateway that owns the sockets contributes its own section
        to ``GET /metrics`` — open connections, wire-stage latencies,
        loop lag.  ``None`` detaches (a service with no front reports
        ``{"attached": False}``).
        """
        self._gateway_stats = provider

    # -- internals ---------------------------------------------------------
    def _render(self, request: ServiceRequest, response) -> RankBody:
        tail: dict[str, object] = {"from_cache": response.from_cache}
        if request.context is not None:
            tail["context"] = list(request.context)
        if response.explanation is not None:
            tail["explanation"] = response.explanation
        items = response.items
        last = self._last_render
        if last[0] is items:
            fragment = last[1]
        else:
            fragment = _items_json(items)
            self._last_render = (items, fragment)
        return RankBody(request.tenant, fragment, tail)

    def _serve_hit(self, request: ServiceRequest, stored: RankBody) -> RankBody:
        # Stored bodies are canonical and shared between hits: mark the
        # header as served from the response cache and re-attach the
        # per-request context echo; the items fragment is shared as is.
        if request.context is None:
            return stored.extended(cached=True)
        return stored.extended(cached=True, context=list(request.context))

    def _fill(self, lookup: KeyLookup, fingerprint: tuple | None, body: RankBody) -> None:
        if fingerprint is None:
            # The engine bypassed its materialised view (explicit
            # candidate ranking under prune settings, etc.) — there is
            # no signature proving what this body depends on.
            return
        digest = self._keyer.learn(lookup, fingerprint)
        if digest is None:
            return  # invalidated while in flight: do not resurrect
        # The context echo is per-request, not content.
        self.cache.put(
            lookup.query.key(digest),
            body.without("context"),
            tenant=lookup.tenant,
            family=lookup.family,
        )

    def _reply(
        self,
        clock: _StageClock,
        status: int,
        body: "dict | RankBody",
        *,
        outcome: str,
        cached: bool | None = None,
        tag: str | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> ServiceResponse:
        timings = dict(clock.timings)
        timings["total"] = clock.total()
        if tag is None and cached is not None:
            tag = "cached" if cached else "uncached"
        self.metrics.record_request(timings, outcome, tag=tag)
        if self.config.include_timings:
            timings_ms = {name: seconds * 1000.0 for name, seconds in timings.items()}
            if isinstance(body, RankBody):
                body = body.extended(timings_ms=timings_ms)
            else:
                body = {**body, "timings_ms": timings_ms}
        return ServiceResponse(
            status=status,
            body=body,
            timings=timings,
            headers=dict(headers) if headers else {},
        )
