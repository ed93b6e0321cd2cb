"""The ledger's four workloads: worlds, server flags, request bytes, oracle.

Everything the load depends on lives here and nowhere in ``src/`` — the
schedules, the context menus, the Zipf draw — so a later change to
``repro.workloads.traffic`` cannot alter what the ledger sends.  A
workload is deterministic in ``--seed``: the same seed yields the same
request bytes (see :func:`digest`), whatever the server does with them.

Why these four (each stresses layers the others leave idle; the README
carries the full table):

* ``zipf_steady`` — the working set fits every cache, so the wire, the
  pipeline and the response cache do nearly all the work;
* ``herd_miss``   — every request carries a never-repeated context, so
  the response and view caches are bypassed and the engine, reasoner,
  kernel and batcher do the work;
* ``full_ranking`` — the same miss path without ``top_k``: combine,
  render, encode and a ~1 MB write dominate instead of the top-k path;
* ``churn_writes`` — context writes beside reads with more tenants than
  session or cache slots, so minting, eviction and invalidation show.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Callable, Iterator
from urllib.parse import urlencode

__all__ = ["WORKLOADS", "Op", "Oracle", "Workload", "build_world", "digest"]

#: Context deltas of the tvtouch fleet: certain, partial, probabilistic.
MENUS: tuple[tuple[str, ...], ...] = (
    ("Weekend", "Breakfast"),
    ("Weekend",),
    ("Breakfast",),
    ("Weekend:0.7", "Breakfast:0.6"),
)

#: The 15 standing contexts ``churn_writes`` posts.
CHURN_MENU: tuple[tuple[str, ...], ...] = tuple(
    (f"Weekend:{p}", f"Breakfast:{q}")
    for p in ("0.5", "0.6", "0.7", "0.8", "0.9")
    for q in ("0.4", "0.6", "0.8")
)

RULE_COUNT = 12
ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class Op:
    """One scheduled operation, ready to put on the wire.

    ``context`` is the context the answer must be ranked under when the
    request names one; ``None`` means the tenant's standing context.
    """

    index: int
    kind: str  # "rank" | "context"
    tenant: str
    context: tuple[str, ...] | None
    top_k: int | None
    payload: bytes


def _request(method: str, target: str, index: int, body: bytes = b"") -> bytes:
    head = f"{method} {target} HTTP/1.1\r\nHost: ledger\r\n"
    if index >= 0:  # warm-up operations (negative index) stay out of the trace
        head += f"X-Ledger-Id: {index}\r\n"
    if body:
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    return head.encode("latin-1") + b"\r\n" + body


def rank_op(
    index: int,
    tenant: str,
    context: tuple[str, ...] | None,
    top_k: int | None,
    timeout: int | None = None,
) -> Op:
    params = [("tenant", tenant)]
    if top_k is not None:
        params.append(("top_k", str(top_k)))
    if context is not None:
        params.extend(("context", spec) for spec in context)
    if timeout is not None:
        params.append(("timeout", str(timeout)))
    return Op(
        index, "rank", tenant, context, top_k,
        _request("GET", "/rank?" + urlencode(params), index),
    )


def context_op(index: int, tenant: str, context: tuple[str, ...]) -> Op:
    body = json.dumps({"tenant": tenant, "context": list(context)}).encode("utf-8")
    return Op(index, "context", tenant, context, None, _request("POST", "/context", index, body))


def tenant_ids(count: int) -> list[str]:
    return [f"tenant_{index:05d}" for index in range(count)]


class _ZipfTenants:
    """Seeded Zipf-popular tenant draws (rank 1 is the hottest)."""

    def __init__(self, count: int, rng: random.Random):
        self.ids = tenant_ids(count)
        self._cum = list(accumulate(1.0 / rank**ZIPF_EXPONENT for rank in range(1, count + 1)))
        self._rng = rng

    def draw(self) -> str:
        return self._rng.choices(self.ids, cum_weights=self._cum)[0]


class _FreshContexts:
    """Two-concept probabilistic contexts that never repeat in a run."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._seen: set[tuple[str, str]] = set()

    def draw(self) -> tuple[str, str]:
        rng = self._rng
        while True:
            first, second = rng.sample(range(RULE_COUNT), 2)
            context = (
                f"CtxScenario_{first:02d}:0.{rng.randrange(1000, 9000):04d}",
                f"CtxScenario_{second:02d}:0.{rng.randrange(1000, 9000):04d}",
            )
            if context not in self._seen:
                self._seen.add(context)
                return context


def _zipf_steady(spec: "Workload", rng: random.Random, index: int) -> Iterator[Op]:
    tenants = _ZipfTenants(spec.tenants, rng)
    while True:
        tenant = tenants.draw()
        context = MENUS[rng.randrange(len(MENUS))] if rng.random() < 0.5 else None
        yield rank_op(index, tenant, context, spec.top_k)
        index += 1


def _herd_miss(spec: "Workload", rng: random.Random, index: int) -> Iterator[Op]:
    # Consecutive pairs share one context and are sent in lockstep, so
    # the pair is in flight together: that is what lets the batcher
    # coalesce every pair across tenants, run after run.  (Free-running
    # connections drift apart: 46 % coalesced in a probe.)
    tenants = _ZipfTenants(spec.tenants, rng)
    fresh = _FreshContexts(rng)
    while True:
        context = fresh.draw()
        first = second = tenants.draw()
        while second == first:  # the same tenant twice would be a cache hit
            second = tenants.draw()
        yield rank_op(index, first, context, spec.top_k)
        yield rank_op(index + 1, second, context, spec.top_k)
        index += 2


def _full_ranking(spec: "Workload", rng: random.Random, index: int) -> Iterator[Op]:
    tenants = _ZipfTenants(spec.tenants, rng)
    fresh = _FreshContexts(rng)
    while True:
        yield rank_op(index, tenants.draw(), fresh.draw(), spec.top_k)
        index += 1


def _churn_writes(spec: "Workload", rng: random.Random, index: int) -> Iterator[Op]:
    tenants = _ZipfTenants(spec.tenants, rng)
    while True:
        tenant = tenants.draw()
        if rng.random() < 0.25:
            yield context_op(index, tenant, CHURN_MENU[rng.randrange(len(CHURN_MENU))])
        else:
            yield rank_op(index, tenant, None, spec.top_k)
        index += 1


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one world behind one set of server flags.

    ``digest_ops`` is how many leading operations the drift digest
    covers; ``warm_ops`` > 0 replays that many operations of a separate
    seeded stream as warm-up (for pools that must be *full*, not merely
    touched) instead of touching every tenant once.  ``full_ranking``
    runs with a 32-entry response cache that warm-up fills: under the
    default 4 096 entries the cache never fills inside a window, the
    heap grows by 0.4 MB a request, and some 500 requests in the server
    slows by a third for good — a step that lands in the middle of the
    window, earlier or later with the host's speed.
    """

    name: str
    why: str
    world: str  # "tvtouch" | "section5"
    programs: int
    flags: tuple[str, ...]
    tenants: int
    digest_ops: int
    #: the answer at which server memory is read — the same amount of
    #: work on every box, and few enough that a slow run still gets there
    rss_ops: int
    stream: Callable[["Workload", random.Random, int], Iterator[Op]]
    warm_ops: int = 0
    top_k: int | None = 3
    #: the connections send together (see ``LoadClient.drive``)
    lockstep: bool = False
    #: standing-context answers may also be the empty-context ranking:
    #: a session eviction silently drops the tenant's standing context.
    evicts: bool = False

    def ops(self, seed: int) -> Iterator[Op]:
        """The endless, seed-determined operation stream."""
        return self.stream(self, random.Random(f"{self.name}:{seed}"), 0)

    def warmup(self, seed: int) -> list[Op]:
        """Untimed operations that bring the server to steady state.

        Warm-up carries ``timeout=30``: at 10 000 programs the first
        rank of the first tenant compiles the basis and outlasts the
        2 s default deadline (it answers 504 otherwise).
        """
        touches = [rank_op(-1, tenant, None, 1, timeout=30) for tenant in tenant_ids(self.tenants)]
        if self.warm_ops:
            stream = self.stream(
                self, random.Random(f"{self.name}:warm:{seed}"), -self.warm_ops
            )
            return touches[:1] + list(islice(stream, self.warm_ops))
        return touches

    def probes(self, seed: int) -> list[tuple[str, ...]]:
        """The fixed contexts compared with the oracle before each window."""
        if self.world == "tvtouch":
            return list(MENUS) + ([CHURN_MENU[0], CHURN_MENU[-1]] if self.evicts else [])
        fresh = _FreshContexts(random.Random(f"{self.name}:probe:{seed}"))
        return [fresh.draw() for _ in range(8)]


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="zipf_steady",
        why="200 Zipf tenants, 4 documents, half the ranks carry a menu context: "
        "every cache fits, so wire + pipeline + response cache do the work",
        world="tvtouch", programs=4, flags=(), tenants=200,
        digest_ops=5_000, rss_ops=10_000, stream=_zipf_steady,
    ),
    Workload(
        name="herd_miss",
        why="2 000 programs x 12 rules, every pair of ranks shares a never-repeated "
        "context: response and view caches are bypassed, engine + kernel + batcher work",
        world="section5", programs=2000,
        flags=("--batch-max-size", "2", "--batch-max-wait-us", "20000"), tenants=200,
        digest_ops=3_000, rss_ops=1_000, stream=_herd_miss, lockstep=True,
    ),
    Workload(
        name="full_ranking",
        why="2 000 programs, fresh context, no top_k (~0.2 MB body): the miss path "
        "where combine, render, encode and the write dominate, not top-k",
        world="section5", programs=2000, flags=("--cache-entries", "32"), tenants=50,
        digest_ops=240, rss_ops=240, stream=_full_ranking, warm_ops=40, top_k=None,
    ),
    Workload(
        name="churn_writes",
        why="5 000 Zipf tenants over 1 024 session and cache slots, 25% POST /context: "
        "minting, eviction and invalidation beside reads on the same layers",
        world="tvtouch", programs=4,
        flags=("--max-sessions", "1024", "--cache-entries", "1024"), tenants=5000,
        digest_ops=5_000, rss_ops=8_000, stream=_churn_writes, warm_ops=3000, evicts=True,
    ),
)


def digest(spec: Workload, seed: int) -> str:
    """SHA-256 over the first ``digest_ops`` request payloads of ``seed``."""
    sha = hashlib.sha256()
    for op in islice(spec.ops(seed), spec.digest_ops):
        sha.update(op.payload)
    return sha.hexdigest()


def build_world(spec: Workload, scale: float = 1.0):
    """A fresh ``(world, rules)`` for ``spec`` (rules ``None`` = the world's own).

    ``scale`` < 1 shrinks the Section 5 document count (smoke runs); the
    request bytes do not depend on it.
    """
    if spec.world == "tvtouch":
        from repro.workloads import build_tvtouch

        return build_tvtouch(), None
    from repro.workloads import Section5Counts, generate_rule_series, generate_test_database

    programs = max(40, int(spec.programs * scale))
    world = generate_test_database(seed=7, counts=Section5Counts(persons=50, programs=programs))
    return world, generate_rule_series(world, RULE_COUNT)


class Oracle:
    """Expected answers from an in-process, sequential ``RankingEngine``.

    Built over its own fresh copy of the world, for a fresh individual
    that — like a minted tenant — knows nothing but the installed
    context.  No service, cache, batcher or overlay in between.
    """

    def __init__(self, spec: Workload, scale: float = 1.0):
        from repro.dl.vocabulary import Individual
        from repro.engine import EngineBuilder

        world, rules = build_world(spec, scale)
        user = world.abox.register_individual(Individual("ledger_oracle"))
        builder = EngineBuilder().knowledge(world.abox, world.tbox, user, world.space)
        builder.target(world.target).preferences(rules if rules is not None else world.repository)
        self._engine = builder.build()
        self._memo: dict[tuple, list[tuple[str, float]]] = {}
        self.documents = len(self.expected((), None))

    def expected(self, context: tuple[str, ...], top_k: int | None) -> list[tuple[str, float]]:
        from repro.engine import RankRequest

        key = (context, top_k)
        answer = self._memo.get(key)
        if answer is None:
            response = self._engine.rank_in_context(
                context, RankRequest(top_k=top_k), tick="oracle"
            )
            answer = [(item.document, item.score) for item in response.items]
            if len(self._memo) < 64:  # the menus; fresh contexts never recur
                self._memo[key] = answer
        return answer

    def matches(self, body: bytes, context: tuple[str, ...], top_k: int | None) -> bool:
        """Same documents in the same order, every score within 1e-9."""
        try:
            items = json.loads(body)["items"]
        except (ValueError, KeyError, TypeError):
            return False
        want = self.expected(context, top_k)
        return len(items) == len(want) and all(
            item.get("document") == name and abs(item.get("score", -1.0) - score) <= 1e-9
            for item, (name, score) in zip(items, want)
        )
