"""Scored preference rules: (Context, Preference, sigma).

Section 4.1: "we will use preference rules [...] which consist of a
tuple of the form (Context, Preference) where both Context and
Preference are DL concept expressions.  However, to be able to
incorporate the ideas presented in this paper we extend the tuple with
a score σ.  We will call rules of the extended form scored preference
rules."

The score's semantics is the history-derived probability of
:mod:`repro.history.sigma`: whenever a past context satisfied the
Context concept and a document satisfying the Preference concept was
choosable, the user chose such a document with probability σ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import RuleError
from repro.events.atoms import validate_probability
from repro.dl.concepts import Concept, Top
from repro.dl.parser import parse_concept

__all__ = ["PreferenceRule"]


@dataclass(frozen=True)
class PreferenceRule:
    """A scored preference rule.

    Parameters
    ----------
    rule_id:
        Unique identifier within a repository (e.g. ``"r1"``).
    context:
        The DL concept the situated user must satisfy for the rule to
        apply.  :class:`~repro.dl.concepts.Top` makes a *default rule*,
        applicable in any context (Section 4.1's fallback for contexts
        no specific rule covers).
    preference:
        The DL concept preferred documents satisfy.
    sigma:
        The score, a probability in ``[0, 1]``.

    Examples
    --------
    >>> from repro.dl import parse_concept
    >>> rule = PreferenceRule(
    ...     "r1",
    ...     parse_concept("Weekend"),
    ...     parse_concept("TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST}"),
    ...     0.8,
    ... )
    >>> rule.is_default
    False
    """

    rule_id: str
    context: Concept
    preference: Concept
    sigma: float

    def __post_init__(self) -> None:
        if not isinstance(self.rule_id, str) or not self.rule_id:
            raise RuleError(f"rule_id must be a non-empty string, got {self.rule_id!r}")
        if not isinstance(self.context, Concept):
            raise RuleError(f"rule {self.rule_id!r}: context must be a Concept")
        if not isinstance(self.preference, Concept):
            raise RuleError(f"rule {self.rule_id!r}: preference must be a Concept")
        try:
            validate_probability(self.sigma, f"sigma of rule {self.rule_id!r}")
        except Exception as exc:
            raise RuleError(str(exc)) from exc

    @staticmethod
    def parse(rule_id: str, context: str, preference: str, sigma: float) -> "PreferenceRule":
        """Build a rule from textual concept syntax."""
        return PreferenceRule(rule_id, parse_concept(context), parse_concept(preference), sigma)

    @property
    def is_default(self) -> bool:
        """True when the rule applies in every context (context = ⊤)."""
        return isinstance(self.context, Top)

    # The two keys are rendered once per (frozen) rule: every engine
    # signature reads them for every rule, on every request.
    @cached_property
    def context_key(self) -> str:
        """Canonical string key of the context concept (feature g)."""
        return str(self.context)

    @cached_property
    def preference_key(self) -> str:
        """Canonical string key of the preference concept (feature f)."""
        return str(self.preference)

    @property
    def feature_pair(self) -> tuple[str, str]:
        """The (g, f) pair this rule contributes to the relation H."""
        return (self.context_key, self.preference_key)

    def with_sigma(self, sigma: float) -> "PreferenceRule":
        """A copy of this rule with a different score."""
        return PreferenceRule(self.rule_id, self.context, self.preference, sigma)

    def to_dsl(self) -> str:
        """Render in the rule DSL (round-trips through the parser)."""
        when = "ALWAYS" if self.is_default else f"WHEN {self.context}"
        return f"RULE {self.rule_id}: {when} PREFER {self.preference} WITH {self.sigma:g}"

    def __str__(self) -> str:
        return self.to_dsl()
