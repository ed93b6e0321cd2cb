"""The scored-view memo that replaced the cross-request batch scheduler.

Correctness bar: a view the memo serves is bit-identical — scores,
preferences, order and pruning — to a fresh ``score_documents_batch``
pass for the request in hand, whichever tenant scored it first; and two
requests share one view only when their context bindings are equal over
the same compiled candidates under the same pruning.  The memo key is
what makes that hold, so the differential is also run against two
planted keys — one blind to ``prune_documents``, one by ``id()`` that
does not hold the candidates — and must fail on each.
"""

import dataclasses
import struct
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.kernel import ScoredView
from repro.engine import RankRequest
from repro.engine.engine import (
    MEMO_ENTRIES,
    PreparedRank,
    ScoredViewMemo,
    score_documents_batch,
)
from repro.perf.backend import numpy_or_none
from repro.reason import clear_registry
from repro.service import RankingService, ServiceConfig
from repro.tenants import TenantRegistry
from repro.workloads import (
    Section5Counts,
    build_tvtouch,
    generate_rule_series,
    generate_test_database,
)
from tests.property.test_columnar_identity import kernel_backend

BACKENDS = ["python"] + (["numpy"] if numpy_or_none() is not None else [])
TENANTS = ("ann", "bob")
#: Few probabilities, so equal contexts recur and the memo is hit.
PROBABILITIES = ("0.25", "0.5", "0.75")


def section5_registry():
    world = generate_test_database(seed=7, counts=Section5Counts(persons=10, programs=70))
    return TenantRegistry(world, rules=generate_rule_series(world, 6), max_sessions=8)


def bits(values):
    return [struct.pack("<d", value) for value in values]


def view_facts(view):
    """Everything a view answers, bit for bit: order, scores, breakdowns."""
    return (
        view.names,
        bits(view.vector),
        view.prune_documents,
        [tuple(score.contributions) for score in view.values()],
    )


def item_facts(response):
    items = response.items
    return (items.documents(), bits(items.scores), bits(items.preferences))


def prepare(registry, tenant, context, prune):
    """A scorable snapshot of ``context`` for ``tenant``, pruned or not."""
    specs = tuple(f"CtxScenario_{concept:02d}:{probability}" for concept, probability in context)
    session = registry.session(tenant)
    for _attempt in range(2):  # the first rank of a world compiles the basis
        session.engine.invalidate_cache()  # rescore: never a view-cache hit
        prepared = session.prepare_rank(specs, RankRequest(), tick="svc")
        if prepared.kernel is not None:
            return dataclasses.replace(prepared, prune_documents=prune)
        prepared.complete()
    raise AssertionError("the basis never became reusable")


def run_differential(registry, steps):
    """Serve every step through one memo; compare each view with a fresh pass."""
    memo = ScoredViewMemo()
    owners = {}  # id(view) -> (view, what it was scored for); holds views alive
    trivial = False
    for tenant, context, prune in steps:
        prepared = prepare(registry, tenant, context, prune)
        served = memo.execute(prepared)
        fresh = score_documents_batch(prepared.kernel, prepared.prune_documents)
        assert view_facts(served) == view_facts(fresh)
        assert item_facts(prepared.complete(served)) == item_facts(prepared.complete(fresh))
        scored_for = (context, prune)
        _view, owner = owners.setdefault(id(served), (served, scored_for))
        assert owner == scored_for, "two different bindings share one view"
        # Every view entry's key holds the candidates its view was
        # scored on: a key that merely names them could alias a later
        # matrix.  (Bound-kernel entries hold their basis instead.)
        for key, (view, *_rest) in memo._entries.items():
            if isinstance(view, ScoredView):
                assert any(part is view.kernel.candidates for part in key)
        trivial = trivial or bool(fresh.kernel.trivial_rows())
    return memo, trivial


CONTEXTS = st.lists(
    st.tuples(st.integers(0, 5), st.sampled_from(PROBABILITIES)),
    min_size=1,
    max_size=2,
    unique_by=lambda pair: pair[0],
).map(lambda pairs: tuple(sorted(pairs)))
STEPS = st.lists(
    st.tuples(st.sampled_from(TENANTS), CONTEXTS, st.booleans()), min_size=1, max_size=12
)


@pytest.fixture(params=BACKENDS)
def registry(request):
    with kernel_backend(request.param):
        clear_registry()
        yield section5_registry()
        clear_registry()


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(steps=STEPS)
def test_a_memo_served_view_is_a_fresh_pass_bit_for_bit(registry, steps):
    run_differential(registry, steps)


#: A herd over both tenants and both pruning modes, with contexts one
#: probability apart: the deterministic witness for the planted keys.
HERD = [
    (tenant, ((0, "0.25"), (3, probability)), prune)
    for probability in ("0.5", "0.75")
    for prune in (True, False)
    for tenant in TENANTS
]


def test_the_herd_shares_one_view_per_binding(registry):
    memo, trivial = run_differential(registry, HERD)
    assert trivial, "the witness needs pruned rows, or pruning changes nothing"
    info = memo.info()
    assert (info["requests"], info["passes"], info["hits"]) == (8, 4, 4)


def test_a_key_blind_to_pruning_fails_the_differential(registry, monkeypatch):
    monkeypatch.setattr(
        PreparedRank,
        "memo_key",
        property(lambda self: (self.kernel.candidates, self.kernel.coalesce_key)),
    )
    with pytest.raises(AssertionError):
        run_differential(registry, HERD)


def test_a_key_by_id_fails_the_differential(registry, monkeypatch):
    monkeypatch.setattr(
        PreparedRank,
        "memo_key",
        property(
            lambda self: (
                id(self.kernel.candidates), self.prune_documents, self.kernel.coalesce_key
            )
        ),
    )
    with pytest.raises(AssertionError):
        run_differential(registry, HERD)


def test_the_memo_keeps_the_most_recent_views(registry):
    memo = ScoredViewMemo()
    contexts = [((0, f"0.{10 + n}"),) for n in range(MEMO_ENTRIES + 2)]
    views = [memo.execute(prepare(registry, "ann", context, True)) for context in contexts]
    assert memo.info()["entries"] == MEMO_ENTRIES
    # the newest is still served; the oldest was evicted and is rescored
    assert memo.execute(prepare(registry, "bob", contexts[-1], True)) is views[-1]
    assert memo.execute(prepare(registry, "bob", contexts[0], True)) is not views[0]
    assert memo.info()["passes"] == len(contexts) + 1


class TestPipelineWiring:
    def make_service(self):
        registry = TenantRegistry(build_tvtouch(), max_sessions=64)
        return RankingService(registry, ServiceConfig())

    def test_the_batch_fields_are_gone(self):
        for field in ("batch_max_size", "batch_max_wait_us"):
            with pytest.raises(TypeError):
                ServiceConfig(**{field: 2})
            assert field not in self.make_service().metrics_snapshot()["config"]

    def test_the_ledger_name_is_the_memo(self):
        from repro.service import BatchScheduler

        assert BatchScheduler is ScoredViewMemo
        assert BatchScheduler.execute is ScoredViewMemo.execute

    def test_memo_served_answers_match_a_fresh_service(self):
        served = self.make_service()
        fresh = self.make_service()
        warm = {"tenant": ["warm"], "context": ["Weekend:0.5"], "top_k": ["3"]}
        assert served.rank(warm).status == 200

        def params(n):
            # pairs of tenants share a context: the second mate may hit
            return {"tenant": [f"t{n}"], "context": [f"Weekend:0.{n // 2 + 10}"], "top_k": ["3"]}

        replies = [None] * 8
        threads = [
            threading.Thread(target=lambda n=n: replies.__setitem__(n, served.rank(params(n))))
            for n in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        for n, reply in enumerate(replies):
            assert reply.status == 200
            assert reply.body["items"] == fresh.rank(params(n)).body["items"]
        section = served.metrics_snapshot()["batching"]
        assert section["enabled"] is True
        assert section["batched_requests"] == section["requests"] >= 4
        assert section["batches"] == section["passes"] >= 4
        assert section["hits"] > 0
        assert section["coalesce_ratio"] == section["hits"] / section["requests"]
        assert section["queue_wait"]["count"] == 0  # nothing waits for a mate
