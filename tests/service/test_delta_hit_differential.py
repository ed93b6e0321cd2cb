"""The response cache's hit paths against a cache-less service.

Two services over two fresh tvtouch worlds see one random interleaving
of tenants and operations: ranks under the standing context, under one
of the four context menus or under a churn probability pair, standing
installs (``POST /context``) and session evictions.  One service caches
— pure hits and delta hits, answered inline or deferred — and the other
ranks every request.  After every step:

* the cached service's ``items`` are byte-identical to the cache-less
  service's;
* ``cached`` tells the truth: a hit is only ever an answer the service
  ranked earlier for the same tenant under the same context;
* a following context-less rank answers under the context just sent
  (read-your-writes) and, that state having just been answered, is a hit.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import InMemoryCacheAdapter, NoCacheAdapter
from repro.engine.backends import canonical_context
from repro.reason import clear_registry
from repro.service import RankingService, ServiceConfig
from repro.tenants import TenantRegistry
from repro.workloads import build_tvtouch
from repro.workloads.traffic import CONTEXT_MENUS

TENANTS = ("t1", "t2", "t3")

#: ``None`` ranks under the standing context.
CONTEXTS = (
    None,
    *CONTEXT_MENUS,
    ("Weekend:0.5", "Breakfast:0.4"),
    ("Weekend:0.9", "Breakfast:0.8"),
)

STEPS = st.lists(
    st.tuples(
        st.sampled_from(("rank", "rank", "rank", "rank", "post", "evict")),
        st.sampled_from(TENANTS),
        st.sampled_from(CONTEXTS),
    ),
    min_size=1,
    max_size=30,
)


def make_service(cache):
    clear_registry()
    registry = TenantRegistry(build_tvtouch(), max_sessions=16)
    return RankingService(registry, ServiceConfig(request_timeout=None), cache=cache)


def rank(service, tenant, context):
    request = {"tenant": [tenant]}
    if context is not None:
        request["context"] = list(context)
    reply = service.rank(request)
    assert reply.status == 200, reply.body
    return reply.body


def wire_items(body):
    return json.dumps(body["items"])


@settings(max_examples=150, deadline=None)
@given(STEPS)
def test_every_hit_is_the_answer_a_cache_less_service_ranks(steps):
    cached = make_service(InMemoryCacheAdapter())
    plain = make_service(NoCacheAdapter())
    standing = dict.fromkeys(TENANTS, ())  # canonical standing context
    answered = {tenant: set() for tenant in TENANTS}  # states ranked since the last eviction
    for operation, tenant, context in steps:
        if operation == "evict":
            for service in (cached, plain):
                service.registry.evict(tenant)
            standing[tenant] = ()
            answered[tenant].clear()
            continue
        if operation == "post":
            specs = list(context or ())
            for service in (cached, plain):
                assert service.install_context(tenant, specs).status == 200
            standing[tenant] = canonical_context(specs)
            continue
        state = standing[tenant] if context is None else canonical_context(context)
        body = rank(cached, tenant, context)
        expected = rank(plain, tenant, context)
        assert wire_items(body) == wire_items(expected)
        if body.get("cached"):
            assert state in answered[tenant]
        answered[tenant].add(state)
        standing[tenant] = state
        # read-your-writes: the standing context is the one just sent
        follow = rank(cached, tenant, None)
        assert follow.get("cached") is True
        assert wire_items(follow) == wire_items(body) == wire_items(rank(plain, tenant, None))
    for service in (cached, plain):
        service.close()
