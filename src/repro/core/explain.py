"""Explanations: the paper's traceability goal, made concrete.

Section 6, "Explanation of results": the system should "provide the
user with a motivation for the 'context based' answer" without
requiring them to read the preference rules themselves.  This module
renders a scored document as structured text: which rules applied, how
certainly the context and the document matched them, and how each rule
moved the score — plus (optionally) the raw event lineage for full
data-provenance tracing.
"""

from __future__ import annotations

from repro.rules.repository import RuleRepository
from repro.core.problem import ScoringProblem
from repro.core.scoring import DocumentScore

__all__ = ["explain_score", "explain_ranking", "explain_document_events"]


def _describe_factor(contribution) -> str:
    if contribution.context_probability == 0.0:
        return "context impossible -> rule ignored"
    direction = "raises" if contribution.factor > 1.0 - contribution.context_probability * contribution.sigma else "lowers"
    if contribution.preference_probability >= 0.5:
        match = f"document matches the preference (P={contribution.preference_probability:.2f})"
    else:
        match = f"document mostly misses the preference (P={contribution.preference_probability:.2f})"
    return f"{match}; factor {contribution.factor:.4f} {direction} the score"


def explain_score(score: DocumentScore, repository: RuleRepository | None = None) -> str:
    """A per-rule motivation for one document's score.

    >>> # explain_score(view.explain("channel5_news"), repo)
    """
    lines = [f"{score.document}: P(ideal | context) = {score.value:.4f}  [{score.method}]"]
    if not score.contributions:
        lines.append("  no applicable rule mentioned this document's features")
        return "\n".join(lines)
    for contribution in score.contributions:
        rule_text = contribution.rule_id
        if repository is not None and contribution.rule_id in repository:
            rule = repository.get(contribution.rule_id)
            when = "always" if rule.is_default else f"when {rule.context}"
            rule_text = f"{contribution.rule_id} ({when}, prefer {rule.preference}, sigma={rule.sigma:g})"
        lines.append(f"  rule {rule_text}")
        lines.append(
            f"    context holds with P={contribution.context_probability:.2f}; "
            + _describe_factor(contribution)
        )
    return "\n".join(lines)


def explain_ranking(scores: list[DocumentScore], repository: RuleRepository | None = None) -> str:
    """A readable ranking table with per-document motivations."""
    lines = ["rank  score   document"]
    for position, score in enumerate(scores, start=1):
        lines.append(f"{position:>4}  {score.value:.4f}  {score.document}")
    lines.append("")
    for score in scores:
        lines.append(explain_score(score, repository))
        lines.append("")
    return "\n".join(lines).rstrip()


def explain_document_events(problem: ScoringProblem, document_name: str) -> str:
    """Raw event lineage of one document's feature events (provenance)."""
    from repro.dl.vocabulary import Individual
    from repro.events.lineage import render_tree

    binding = problem.document(Individual(document_name))
    lines = [f"event lineage for {document_name}:"]
    for rule_binding, event in zip(problem.bindings, binding.preference_events):
        lines.append(f"  rule {rule_binding.rule.rule_id} preference event:")
        lines.append("    " + render_tree(event, indent="    ").replace("\n", "\n    "))
    return "\n".join(lines)
