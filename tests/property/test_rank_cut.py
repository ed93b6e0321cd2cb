"""A top-k is the full ranking cut at k, bit for bit.

``rank_columns`` with ``k`` below the row count selects before it sorts
on numpy (only the rows not worse than the k-th best are sorted).  For
every float — heavy ties, NaN, ±inf, ±0 — and every ``k`` around the
row count, with and without ``keep``, its rows, scores and ``others``
must be exactly those of the full stable sort (``k=None``) cut at k, on
both backends.  Where no NaN is drawn the order must also be the
library's documented one: score descending, name ascending.
"""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.columns import VECTOR_MIN, NameTable, as_floats, rank_columns

SPECIAL = [0.0, -0.0, 0.5, 1.0, -1.0, math.inf, -math.inf, math.nan]
#: Most draws from a handful of values: heavy ties.
SCORES = st.one_of(
    st.sampled_from(SPECIAL),
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True),
)


def bits(values):
    return struct.pack(f"<{len(values)}d", *values)


@st.composite
def rankings(draw):
    backend = draw(st.sampled_from(["numpy", "flat"]))
    low = VECTOR_MIN if backend == "numpy" else 1
    n = draw(st.integers(min_value=low, max_value=low + 12))
    # names out of row order, so the tie-break is not the row order
    names = tuple(draw(st.permutations([f"doc{index:03d}" for index in range(n)])))
    scores = draw(st.lists(SCORES, min_size=n, max_size=n))
    other = draw(st.lists(SCORES, min_size=n, max_size=n))
    keep = draw(st.one_of(st.none(), st.sets(st.integers(0, n - 1), min_size=1).map(sorted)))
    size = n if keep is None else len(keep)
    k = draw(st.sampled_from([1, size - 1, size, size + 5]).filter(lambda k: k > 0))
    table = NameTable(names, np if backend == "numpy" else None)
    if backend == "numpy":
        assert table.np is np
        scores, other = np.array(scores), np.array(other)
    return table, scores, other, keep, k


@settings(max_examples=150, deadline=None)
@given(rankings())
def test_the_cut_is_the_full_sort_cut_at_k(ranking):
    table, scores, other, keep, k = ranking
    rows, ranked, (gathered,) = rank_columns(table, scores, [other], k=k, keep=keep)
    all_rows, all_ranked, (all_gathered,) = rank_columns(table, scores, [other], keep=keep)
    assert as_floats(rows) == as_floats(all_rows)[:k]
    assert bits(ranked) == bits(all_ranked[:k])
    assert bits(gathered) == bits(all_gathered[:k])
    candidates = range(len(table.names)) if keep is None else keep
    if not any(math.isnan(scores[row]) for row in candidates):
        expected = sorted(candidates, key=lambda row: (-scores[row], table.names[row]))
        assert as_floats(rows) == expected[:k]
