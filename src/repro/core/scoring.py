"""The paper's scoring model: equation (4) and the Section 3.3 expectation.

Three interchangeable scorers compute ``P(D=d | U=u_sit)``:

``enumeration``
    The paper's own formulation: enumerate every combination of context
    feature vector ``g`` and document feature vector ``f`` (2^n x 2^n
    for n rules), weight each by its probability under feature
    independence, and multiply in the equation-(4) factors.  Exponential
    — this is the naive implementation whose blow-up Section 5 measures.

``factorised``
    Algebraically identical under the same independence assumption, but
    computed per rule in O(n):

    ``score = prod over rules r of
      [ (1 - P(g_r))  +  P(g_r) * (P(f_r) * sigma_r + (1 - P(f_r)) * (1 - sigma_r)) ]``

    This is the Section 6 "performance" fix: the expectation
    distributes over the product because each rule's factor depends
    only on its own feature indicators.

``exact``
    Drops the independence assumption entirely: computes the
    expectation of the equation-(4) product over the *joint*
    distribution of the underlying event expressions (shared sensor
    atoms, mutex groups) by Shannon-expanding over the union of their
    atoms.  The reference semantics when features are correlated.

Equality of the three on independent features is a property-tested
invariant; their runtime divergence is benchmark E3/E4.

:func:`mix_scores` is the Section 6 mixture of such a score with a
query-dependent one — here, beside the formulas it combines, so the
engine's relevance strategies do not load the SQL-backed
:mod:`~repro.core.ranker` to reach it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as cartesian_product

from repro.errors import ComplexityLimitError, ScoringError
from repro.events.atoms import BasicEvent
from repro.events.expr import EventExpr
from repro.events.space import EventSpace
from repro.core.problem import DocumentBinding, RuleBinding, ScoringProblem

__all__ = [
    "RuleContribution",
    "DocumentScore",
    "score_certain",
    "enumeration_score",
    "factorised_score",
    "exact_event_score",
    "score_document",
    "mix_scores",
    "SCORING_METHODS",
]

#: Guard for the naive enumerator: 4^n grows fast.
MAX_ENUMERATION_RULES = 14

#: Guard for the exact scorer's Shannon recursion.
MAX_EXACT_ATOMS = 40


@dataclass(frozen=True)
class RuleContribution:
    """One rule's share of a document's score (for explanations)."""

    rule_id: str
    sigma: float
    context_probability: float
    preference_probability: float
    factor: float

    def __str__(self) -> str:
        return (
            f"{self.rule_id}: P(context)={self.context_probability:.3f}, "
            f"P(preference)={self.preference_probability:.3f}, sigma={self.sigma:.3f} "
            f"-> factor {self.factor:.4f}"
        )


@dataclass(frozen=True)
class DocumentScore:
    """A scored document with its per-rule breakdown."""

    document: str
    value: float
    contributions: tuple[RuleContribution, ...] = ()
    method: str = "factorised"

    def __str__(self) -> str:
        return f"{self.document}: {self.value:.4f}"


def _factor(sigma: float, context_holds: bool, preference_holds: bool) -> float:
    """Equation (4): 1 if g not in g; sigma if also f in f; 1-sigma otherwise."""
    if not context_holds:
        return 1.0
    return sigma if preference_holds else 1.0 - sigma


def score_certain(
    bindings: tuple[RuleBinding, ...] | list[RuleBinding],
    context_holds: list[bool],
    preference_holds: list[bool],
) -> float:
    """Equation (4) under fully certain features.

    ``context_holds[i]`` / ``preference_holds[i]`` state whether rule
    ``i``'s context and preference features hold.
    """
    if not (len(bindings) == len(context_holds) == len(preference_holds)):
        raise ScoringError("feature vectors must match the rule count")
    score = 1.0
    for binding, g, f in zip(bindings, context_holds, preference_holds):
        score *= _factor(binding.sigma, g, f)
    return score


def enumeration_score(bindings: list[RuleBinding], document: DocumentBinding) -> float:
    """The naive Section 3.3 computation: sum over all feature vectors.

    Exact when all feature events are independent; exponential in the
    rule count (the paper's bottleneck).
    """
    n = len(bindings)
    if n > MAX_ENUMERATION_RULES:
        raise ComplexityLimitError(
            f"enumeration over {n} rules needs 4^{n} terms; "
            f"limit is {MAX_ENUMERATION_RULES} rules (use the factorised scorer)"
        )
    sigmas = [binding.sigma for binding in bindings]
    p_context = [binding.context_probability for binding in bindings]
    p_preference = list(document.preference_probabilities)

    # The 2^n document-feature weights do not depend on the context
    # vector, so they are computed once here instead of inside the
    # g-vector loop (which would redo all of them 2^n times and push
    # the naive scorer from O(4^n) towards O(4^n * n)).
    f_entries = []
    for f_vector in cartesian_product((True, False), repeat=n):
        weight_f = 1.0
        for f, p in zip(f_vector, p_preference):
            weight_f *= p if f else 1.0 - p
        if weight_f == 0.0:
            continue
        f_entries.append((f_vector, weight_f))

    total = 0.0
    for g_vector in cartesian_product((True, False), repeat=n):
        weight_g = 1.0
        for g, p in zip(g_vector, p_context):
            weight_g *= p if g else 1.0 - p
        if weight_g == 0.0:
            continue
        for f_vector, weight_f in f_entries:
            term = weight_g * weight_f
            for sigma, g, f in zip(sigmas, g_vector, f_vector):
                term *= _factor(sigma, g, f)
            total += term
    return min(1.0, max(0.0, total))


def factorised_score(bindings: list[RuleBinding], document: DocumentBinding) -> float:
    """The O(n) per-rule factorisation (Section 6 performance fix)."""
    score = 1.0
    for binding, p_f in zip(bindings, document.preference_probabilities):
        p_g = binding.context_probability
        sigma = binding.sigma
        inner = p_f * sigma + (1.0 - p_f) * (1.0 - sigma)
        score *= (1.0 - p_g) + p_g * inner
    return min(1.0, max(0.0, score))


def exact_event_score(
    bindings: list[RuleBinding],
    document: DocumentBinding,
    space: EventSpace | None,
) -> float:
    """Expectation of the eq.(4) product over the joint event distribution.

    Correct even when context and preference features share basic
    events or mutex groups (e.g. two rules conditioned on the same
    sensor reading).  Shannon-expands jointly over the union of the
    atoms of every involved event expression, memoising on the reduced
    expression vector.
    """
    expressions: list[EventExpr] = []
    for binding, preference_event in zip(bindings, document.preference_events):
        expressions.append(binding.context_event)
        expressions.append(preference_event)
    sigmas = [binding.sigma for binding in bindings]

    all_atoms: set[BasicEvent] = set()
    for expression in expressions:
        all_atoms.update(expression.atoms())
    if len(all_atoms) > MAX_EXACT_ATOMS:
        raise ComplexityLimitError(
            f"exact scoring over {len(all_atoms)} atoms exceeds the limit {MAX_EXACT_ATOMS}"
        )

    memo: dict[tuple, float] = {}

    def leaf_value(exprs: list[EventExpr]) -> float:
        value = 1.0
        for index, sigma in enumerate(sigmas):
            g = exprs[2 * index].is_certain
            f = exprs[2 * index + 1].is_certain
            value *= _factor(sigma, g, f)
        return value

    def pick_atom(exprs: list[EventExpr]) -> BasicEvent | None:
        counts: dict[BasicEvent, int] = {}
        for expression in exprs:
            for event in expression.atoms():
                counts[event] = counts.get(event, 0) + 1
        if not counts:
            return None
        return max(counts, key=lambda event: (counts[event], event.name))

    def expectation(exprs: list[EventExpr]) -> float:
        pivot = pick_atom(exprs)
        if pivot is None:
            return leaf_value(exprs)
        key = tuple(expression.sort_key() for expression in exprs)
        cached = memo.get(key)
        if cached is not None:
            return cached

        group = space.group_of(pivot.name) if space is not None else None
        if group is None:
            positive = [expression.substitute({pivot.name: True}) for expression in exprs]
            negative = [expression.substitute({pivot.name: False}) for expression in exprs]
            value = pivot.probability * expectation(positive) + (
                pivot.complement_probability
            ) * expectation(negative)
        else:
            appearing = [
                event
                for event in group.members
                if any(event in expression.atoms() for expression in exprs)
            ]
            member_names = [event.name for event in appearing]
            value = 0.0
            for chosen in appearing:
                assignment = {name: name == chosen.name for name in member_names}
                value += chosen.probability * expectation(
                    [expression.substitute(assignment) for expression in exprs]
                )
            none_probability = 1.0 - sum(event.probability for event in appearing)
            if none_probability > 0.0:
                assignment = {name: False for name in member_names}
                value += none_probability * expectation(
                    [expression.substitute(assignment) for expression in exprs]
                )
        memo[key] = value
        return value

    return min(1.0, max(0.0, expectation(expressions)))


def mix_scores(query_dependent: float, preference: float, mixing_weight: float) -> float:
    """The Section 6 log-linear mixture ``qd^λ · pref^(1-λ)``, with the
    λ = 0 and λ = 1 boundaries defined explicitly.

    * ``mixing_weight == 0.0`` is *pure context*: the combined score is
      the preference score, and the query-dependent part is ignored
      entirely — including for documents absent from the query result
      (no gating, and no reliance on Python's ``0.0 ** 0.0 == 1.0``).
    * ``mixing_weight == 1.0`` is *pure IR*: the combined score is the
      query-dependent score, and the preference part is ignored — a
      document the query missed scores 0 even with a perfect preference
      score.
    * For ``0 < λ < 1`` a zero in either part gates the document to 0
      (both parts must hold, as in the naive union).
    """
    if not 0.0 <= mixing_weight <= 1.0:
        raise ValueError(f"mixing weight must be in [0, 1], got {mixing_weight!r}")
    if mixing_weight == 0.0:
        return preference
    if mixing_weight == 1.0:
        return query_dependent
    if query_dependent <= 0.0 or preference <= 0.0:
        return 0.0
    return (query_dependent ** mixing_weight) * (preference ** (1.0 - mixing_weight))


def score_document(
    problem: ScoringProblem,
    document: DocumentBinding,
    method: str = "factorised",
) -> DocumentScore:
    """Score one document with the chosen method, with rule breakdown."""
    bindings = list(problem.bindings)
    if method == "enumeration":
        value = enumeration_score(bindings, document)
    elif method == "factorised":
        value = factorised_score(bindings, document)
    elif method == "exact":
        value = exact_event_score(bindings, document, problem.space)
    else:
        raise ScoringError(
            f"unknown scoring method {method!r}; choose from {sorted(SCORING_METHODS)}"
        )
    contributions = []
    for binding, p_f in zip(bindings, document.preference_probabilities):
        p_g = binding.context_probability
        sigma = binding.sigma
        inner = p_f * sigma + (1.0 - p_f) * (1.0 - sigma)
        contributions.append(
            RuleContribution(
                rule_id=binding.rule.rule_id,
                sigma=sigma,
                context_probability=p_g,
                preference_probability=p_f,
                factor=(1.0 - p_g) + p_g * inner,
            )
        )
    return DocumentScore(document.document.name, value, tuple(contributions), method)


SCORING_METHODS = ("enumeration", "factorised", "exact")
