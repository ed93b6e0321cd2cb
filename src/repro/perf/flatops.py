"""Flat-array loops for the pure-python kernel backend.

Each rule's equation-(4) factor is linear in the document's preference
probability ``p_f``::

    factor = (1 - p_g) + p_g * (p_f * sigma + (1 - p_f) * (1 - sigma))
           = a + b * p_f,   a = (1 - p_g) + p_g * (1 - sigma),
                            b = p_g * (2 * sigma - 1)

so a document's score is a fused multiply-add chain over the compiled
coefficient list — no dataclasses, no per-rule allocation.  The numpy
backend computes the same ``a + b * p_f`` columns vectorised; these
loops are the fallback.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = [
    "LOG_FLOOR",
    "batch_row_scores",
    "row_scores",
    "log_linear_rows",
]

#: Floor applied inside the log-linear mixture's logs so an impossible
#: part does not produce -inf.  It lives here, beside the loop that
#: consumes it, so the engine's relevance strategies share the IR
#: mixture's exact clamping (:mod:`repro.ir.combine` re-exports it)
#: without loading the IR package.
LOG_FLOOR = 1e-12


def row_scores(
    data: Sequence[float],
    row_count: int,
    rule_count: int,
    coeffs: Sequence[tuple[int, float, float]],
) -> list[float]:
    """Clamped equation-(4) products for every row of a flat matrix.

    ``data`` is row-major ``row_count x rule_count``; ``coeffs`` holds
    ``(column, a, b)`` per *kept* rule (pruned rules contribute their
    implicit factor 1 by absence).
    """
    values = []
    append = values.append
    for row in range(row_count):
        base = row * rule_count
        score = 1.0
        for column, a, b in coeffs:
            score *= a + b * data[base + column]
        append(min(1.0, max(0.0, score)))
    return values


def batch_row_scores(
    data: Sequence[float],
    row_count: int,
    rule_count: int,
    coeff_sets: Sequence[Sequence[tuple[int, float, float]]],
) -> list[list[float]]:
    """:func:`row_scores` for many coefficient sets over one matrix.

    The batched shape of the fused loop: each matrix row is walked
    *once* and every batch-mate's factor chain is advanced against it,
    so N concurrent requests sharing a compiled ``P(f)`` matrix pay one
    pass of row reads instead of N.  Each mate's multiplication order
    is identical to the sequential :func:`row_scores` (its own kept
    columns, in index order), so per-mate results are bit-identical to
    scoring alone.
    """
    values: list[list[float]] = [[] for _ in coeff_sets]
    appends = [column.append for column in values]
    mates = list(zip(appends, coeff_sets))
    for row in range(row_count):
        base = row * rule_count
        for append, coeffs in mates:
            score = 1.0
            for column, a, b in coeffs:
                score *= a + b * data[base + column]
            append(min(1.0, max(0.0, score)))
    return values


def log_linear_rows(
    query_scores: Sequence[float],
    preference_scores: Sequence[float],
    mixing_weight: float,
    floor: float,
) -> list[float]:
    """The IR log-linear mixture over parallel score rows (fallback path)."""
    lam = mixing_weight
    complement = 1.0 - lam
    log = math.log
    return [
        lam * log(qd if qd > floor else floor) + complement * log(qi if qi > floor else floor)
        for qd, qi in zip(query_scores, preference_scores)
    ]
