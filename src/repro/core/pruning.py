"""Pruning: the Section 6 performance levers.

"There are possible ways to address this challenge, if we can prune the
amount of applicable rules and candidate documents in early stages."

Two prunes are implemented, both measured by ablation benchmark E4:

* **rule pruning** — drop rules whose context probability does not
  exceed a threshold.  At threshold 0 this is *lossless*: a rule with
  an impossible context contributes the constant factor 1 to eq. (4).
  Positive thresholds trade exactness for speed (the dropped factor is
  close to, but not exactly, 1).
* **document pruning** — candidates that satisfy *no* rule's preference
  (all preference events impossible) share one "all-miss" score,
  ``prod over rules of (1 - P(g_r) * sigma_r)``, computed once instead
  of per document.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.problem import DocumentBinding, RuleBinding, ScoringProblem

__all__ = ["PruneReport", "prune_rules", "split_trivial_documents", "all_miss_score"]


@dataclass(frozen=True)
class PruneReport:
    """What pruning removed (for explanations and the ablation bench)."""

    kept_rules: int
    dropped_rules: int
    trivial_documents: int
    scored_documents: int


def prune_rules(problem: ScoringProblem, threshold: float = 0.0) -> ScoringProblem:
    """Drop rule bindings whose context probability is <= ``threshold``.

    Documents' preference-event tuples are narrowed consistently.
    """
    keep = [
        index
        for index, binding in enumerate(problem.bindings)
        if binding.context_probability > threshold
    ]
    if len(keep) == len(problem.bindings):
        return problem
    bindings = tuple(problem.bindings[index] for index in keep)
    documents = tuple(
        DocumentBinding(
            document.document,
            tuple(document.preference_events[index] for index in keep),
            tuple(document.preference_probabilities[index] for index in keep),
        )
        for document in problem.documents
    )
    return ScoringProblem(bindings, documents, problem.space)


def all_miss_score(bindings: tuple[RuleBinding, ...] | list[RuleBinding]) -> float:
    """Score shared by every document that satisfies no preference.

    With ``P(f_r) = 0`` for all rules, the factorised score reduces to
    ``prod (1 - P(g_r) + P(g_r) * (1 - sigma_r))``: each rule's factor
    ``a`` in the kernel's own arithmetic, multiplied in rule order, so
    the shared score is bit for bit what scoring the document would
    give (``1 - P(g_r) * sigma_r`` is the same number only on paper).
    """
    score = 1.0
    for binding in bindings:
        p_g = binding.context_probability
        score *= (1.0 - p_g) + p_g * (1.0 - binding.sigma)
    return score


def split_trivial_documents(
    problem: ScoringProblem,
) -> tuple[list[DocumentBinding], list[DocumentBinding]]:
    """Partition candidates into (needs scoring, trivially all-miss)."""
    interesting: list[DocumentBinding] = []
    trivial: list[DocumentBinding] = []
    for document in problem.documents:
        if any(not event.is_impossible for event in document.preference_events):
            interesting.append(document)
        else:
            trivial.append(document)
    return interesting, trivial
