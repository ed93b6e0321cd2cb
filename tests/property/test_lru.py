"""The one bounded table, against a dict-and-list model.

Every cache, pool and ledger on the request path is a
:class:`repro.perf.LRU`, so its contract is pinned here once: an exact
bound, ``get`` counts and freshens, ``peek`` and ``in`` do neither,
``put`` returns what the bound evicted, ``pop`` is no eviction,
``evict`` is one, ``clear`` keeps the counters, iteration runs oldest
first.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import LRU

KEYS = st.sampled_from("abcdefg")
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("get"), KEYS),
        st.tuples(st.just("peek"), KEYS),
        st.tuples(st.just("contains"), KEYS),
        st.tuples(st.just("put"), KEYS, st.integers(0, 9)),
        st.tuples(st.just("pop"), KEYS),
        st.tuples(st.just("evict"), KEYS),
        st.tuples(st.just("clear")),
    ),
    max_size=60,
)


class Model:
    """An LRU as a dict and a list of keys, least recent first."""

    def __init__(self, max_entries):
        self.max_entries = max_entries
        self.values = {}
        self.order = []
        self.hits = self.misses = self.evictions = 0

    def _freshen(self, key):
        self.order.remove(key)
        self.order.append(key)

    def get(self, key):
        if key not in self.values:
            self.misses += 1
            return None
        self.hits += 1
        self._freshen(key)
        return self.values[key]

    def peek(self, key):
        return self.values.get(key)

    def contains(self, key):
        return key in self.values

    def put(self, key, value):
        if key in self.values:
            self.order.remove(key)
        self.values[key] = value
        self.order.append(key)
        if len(self.order) > self.max_entries:
            oldest = self.order.pop(0)
            self.evictions += 1
            return oldest, self.values.pop(oldest)
        return None

    def pop(self, key):
        if key in self.values:
            self.order.remove(key)
        return self.values.pop(key, None)

    def evict(self, key):
        if key not in self.values:
            return None
        self.evictions += 1
        return self.pop(key)

    def clear(self):
        self.values.clear()
        self.order.clear()


@settings(max_examples=300, deadline=None)
@given(max_entries=st.one_of(st.integers(1, 5), st.none()), ops=OPS)
def test_lru_matches_the_model(max_entries, ops):
    # ``None``: the owner bounds the table (the tenant registry's sweep).
    bound = float("inf") if max_entries is None else max_entries
    table, model = LRU(max_entries), Model(bound)
    for op, *args in ops:
        if op == "contains":
            assert (args[0] in table) == model.contains(*args)
        elif op == "clear":
            table.clear()
            model.clear()
        else:
            assert getattr(table, op)(*args) == getattr(model, op)(*args), (op, args)
        assert list(table) == model.order
        assert list(table.items()) == [(key, model.values[key]) for key in model.order]
        assert list(table.values()) == [model.values[key] for key in model.order]
        assert len(table) == len(model.order) <= bound
        assert (table.hits, table.misses, table.evictions) == (
            model.hits, model.misses, model.evictions,
        )


def test_get_and_peek_tell_a_stored_none_from_a_miss():
    table = LRU(2)
    table.put("seen", None)
    assert table.get("seen", "absent") is None and table.hits == 1
    assert table.get("other", "absent") == "absent" and table.misses == 1
    assert table.peek("other", "absent") == "absent"
    assert table.evict("seen") is None and table.evictions == 1 and "seen" not in table


def test_rejects_an_empty_bound():
    with pytest.raises(ValueError):
        LRU(0)
