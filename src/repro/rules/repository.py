"""The rule repository: the paper's repository table, as an object.

Section 5: "All preference rules together are stored as rows in a
repository table consisting of the name of the preference view, the
name of the context view, and the score of the rule."  The repository
here stores the rules themselves, determines which are *applicable* in
the current context (their context membership event is possible), warns
about uncovered contexts, and can materialise itself into a relational
table of exactly the paper's shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import RuleError
from repro.events.expr import EventExpr
from repro.events.probability import probability
from repro.events.space import EventSpace
from repro.dl.abox import ABox, content_digest
from repro.dl.instances import membership_event
from repro.dl.tbox import TBox
from repro.dl.vocabulary import Individual
from repro.rules.rule import PreferenceRule

if TYPE_CHECKING:  # pragma: no cover - types only; see ``to_table``
    from repro.storage.database import Database
    from repro.storage.table import Table

__all__ = ["ApplicableRule", "RuleRepository", "REPOSITORY_TABLE"]

REPOSITORY_TABLE = "preference_rules"


@dataclass(frozen=True)
class ApplicableRule:
    """A rule together with its context event in the current situation."""

    rule: PreferenceRule
    context_event: EventExpr
    context_probability: float


class RuleRepository:
    """An ordered collection of uniquely named preference rules.

    Examples
    --------
    >>> from repro.rules import PreferenceRule
    >>> repo = RuleRepository()
    >>> repo.add(PreferenceRule.parse("r1", "Weekend", "TvProgram", 0.8))
    >>> len(repo)
    1
    """

    def __init__(self, rules: Iterable[PreferenceRule] = ()):
        self._rules: dict[str, PreferenceRule] = {}
        #: Bumped by every :meth:`add` / :meth:`remove` (rules are frozen,
        #: so these are the only edits).
        self.revision = 0
        self._frozen: tuple[int, tuple[PreferenceRule, ...], str] = (-1, (), "")
        for rule in rules:
            self.add(rule)

    # -- collection basics --------------------------------------------
    def add(self, rule: PreferenceRule) -> None:
        if rule.rule_id in self._rules:
            raise RuleError(f"rule id {rule.rule_id!r} already in repository")
        self._rules[rule.rule_id] = rule
        self.revision += 1

    def remove(self, rule_id: str) -> PreferenceRule:
        try:
            rule = self._rules.pop(rule_id)
        except KeyError as exc:
            raise RuleError(f"no rule named {rule_id!r} in repository") from exc
        self.revision += 1
        return rule

    def _frozen_state(self) -> tuple[int, tuple[PreferenceRule, ...], str]:
        """``(revision, rules, fingerprint)``, built once per revision."""
        frozen = self._frozen
        if frozen[0] != self.revision:
            rules = tuple(self._rules.values())
            digest = content_digest(
                tuple(
                    (rule.rule_id, rule.context_key, rule.preference_key, rule.sigma)
                    for rule in rules
                )
            )
            frozen = self._frozen = (self.revision, rules, digest)
        return frozen

    def fingerprint(self) -> str:
        """A content digest of the rules: ids, concept keys and sigmas, in order.

        Equal rule sets give equal fingerprints whatever repository
        holds them; like :attr:`rules` it is built once per
        :attr:`revision`.
        """
        return self._frozen_state()[2]

    def get(self, rule_id: str) -> PreferenceRule:
        try:
            return self._rules[rule_id]
        except KeyError as exc:
            raise RuleError(f"no rule named {rule_id!r} in repository") from exc

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[PreferenceRule]:
        return iter(self._rules.values())

    @property
    def rules(self) -> tuple[PreferenceRule, ...]:
        """The rules in insertion order: one tuple per :attr:`revision`."""
        return self._frozen_state()[1]

    @property
    def default_rules(self) -> tuple[PreferenceRule, ...]:
        return tuple(rule for rule in self if rule.is_default)

    # -- context applicability ------------------------------------------
    def applicable(
        self,
        abox: ABox,
        tbox: TBox,
        user: Individual,
        space: EventSpace | None = None,
        threshold: float = 0.0,
    ) -> list[ApplicableRule]:
        """Rules whose context holds with probability above ``threshold``.

        This is the paper's Section 6 pruning opportunity ("prune the
        amount of applicable rules ... in early stages"): rules whose
        context event is impossible in the current situation contribute
        the constant factor 1 to equation (4) and can be dropped before
        any scoring work.
        """
        result: list[ApplicableRule] = []
        for rule in self:
            event = membership_event(abox, tbox, user, rule.context)
            if event.is_impossible:
                continue
            context_probability = probability(event, space)
            if context_probability > threshold:
                result.append(ApplicableRule(rule, event, context_probability))
        return result

    def covers_context(
        self,
        abox: ABox,
        tbox: TBox,
        user: Individual,
    ) -> bool:
        """Is the current context covered by at least one rule?

        When no rule applies, equation (4) degenerates to the constant 1
        for every document and "the retrieval system is unable to return
        any meaningful probability" (Section 4.1) — callers should fall
        back to default rules or refuse to rank.
        """
        return any(
            not membership_event(abox, tbox, user, rule.context).is_impossible for rule in self
        )

    # -- relational materialisation ---------------------------------------
    def to_table(self, database: Database, name: str = REPOSITORY_TABLE) -> Table:
        """Store the repository as the paper's repository table."""
        # The only method that needs the relational layer: loaded here so
        # the rules package stands without it.
        from repro.storage.schema import Column, ColumnType, Schema

        schema = Schema(
            [
                Column("rule_id", ColumnType.TEXT),
                Column("context_view", ColumnType.TEXT),
                Column("preference_view", ColumnType.TEXT),
                Column("sigma", ColumnType.REAL),
            ]
        )
        table = database.create_table(name, schema)
        for rule in self:
            table.insert((rule.rule_id, rule.context_key, rule.preference_key, rule.sigma))
        return table

    @staticmethod
    def from_table(table: Table) -> "RuleRepository":
        """Rebuild a repository from a repository table."""
        repository = RuleRepository()
        for row in table.iter_dicts():
            repository.add(
                PreferenceRule.parse(
                    str(row["rule_id"]),
                    str(row["context_view"]),
                    str(row["preference_view"]),
                    float(row["sigma"]),  # type: ignore[arg-type]
                )
            )
        return repository

    def __repr__(self) -> str:
        return f"RuleRepository(rules={len(self._rules)})"
