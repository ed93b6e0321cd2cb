"""Unit tests for preference rules, the repository and the DSL."""

import pytest

from repro.errors import ParseError, RuleError
from repro.events import ALWAYS, EventSpace
from repro.dl import ABox, Individual, TBox, TOP, parse_concept
from repro.rules import (
    PreferenceRule,
    RuleRepository,
    load_rules,
    parse_rule,
    parse_rules,
    render_rules,
)
from repro.storage import Database

R1_TEXT = "RULE r1: WHEN Weekend PREFER TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST} WITH 0.8"
R2_TEXT = "RULE r2: WHEN Breakfast PREFER TvProgram AND EXISTS hasSubject.NewsSubject WITH 0.9"


@pytest.fixture()
def r1():
    return parse_rule(R1_TEXT)


@pytest.fixture()
def r2():
    return parse_rule(R2_TEXT)


class TestPreferenceRule:
    def test_fields(self, r1):
        assert r1.rule_id == "r1"
        assert r1.sigma == 0.8
        assert not r1.is_default
        assert r1.context == parse_concept("Weekend")

    def test_sigma_validation(self):
        with pytest.raises(RuleError):
            PreferenceRule.parse("bad", "TOP", "TvProgram", 1.5)

    def test_empty_id_rejected(self):
        with pytest.raises(RuleError):
            PreferenceRule("", TOP, parse_concept("TvProgram"), 0.5)

    def test_default_rule(self):
        rule = PreferenceRule("d", TOP, parse_concept("TvProgram"), 0.5)
        assert rule.is_default
        assert rule.to_dsl().startswith("RULE d: ALWAYS PREFER")

    def test_feature_pair(self, r1):
        g, f = r1.feature_pair
        assert g == "Weekend"
        assert "HUMAN-INTEREST" in f

    def test_with_sigma(self, r1):
        adjusted = r1.with_sigma(0.5)
        assert adjusted.sigma == 0.5
        assert adjusted.context == r1.context


class TestDsl:
    def test_round_trip(self, r1, r2):
        repo = RuleRepository([r1, r2])
        text = render_rules(repo)
        reparsed = parse_rules(text)
        assert len(reparsed) == 2
        assert reparsed.get("r1").preference == r1.preference
        assert reparsed.get("r2").sigma == r2.sigma

    def test_comments_and_blanks_ignored(self):
        text = "\n".join(["# heading", "", R1_TEXT + "  # trailing", ""])
        repo = parse_rules(text)
        assert len(repo) == 1

    def test_always_rule(self):
        rule = parse_rule("RULE d0: ALWAYS PREFER TvProgram WITH 0.5")
        assert rule.is_default

    @pytest.mark.parametrize(
        "line",
        [
            "RULE x: PREFER TvProgram WITH 0.5",
            "RULE x: WHEN Weekend PREFER TvProgram",
            "RULE x: WHEN Weekend WITH 0.5",
            "RULE x: WHEN Weekend PREFER TvProgram WITH much",
            "RULE : WHEN A PREFER B WITH 0.5",
            "nonsense",
        ],
    )
    def test_malformed_rules_rejected(self, line):
        with pytest.raises(ParseError):
            parse_rule(line)

    def test_parse_error_carries_line_number(self):
        text = R1_TEXT + "\nRULE broken PREFER X WITH 0.5"
        with pytest.raises(ParseError) as excinfo:
            parse_rules(text)
        assert "line 2" in str(excinfo.value)

    def test_load_rules_from_file(self, tmp_path):
        path = tmp_path / "rules.prefs"
        path.write_text(R1_TEXT + "\n" + R2_TEXT + "\n", encoding="utf-8")
        repo = load_rules(path)
        assert {rule.rule_id for rule in repo} == {"r1", "r2"}


class TestRepository:
    def test_unique_ids(self, r1):
        repo = RuleRepository([r1])
        with pytest.raises(RuleError):
            repo.add(r1)

    def test_get_remove(self, r1, r2):
        repo = RuleRepository([r1, r2])
        assert repo.get("r2") is r2
        removed = repo.remove("r1")
        assert removed is r1
        assert "r1" not in repo
        with pytest.raises(RuleError):
            repo.get("r1")

    def test_fingerprint_is_content_derived(self, r1, r2):
        repo = RuleRepository([r1, r2])
        assert repo.fingerprint() == RuleRepository([r1, r2]).fingerprint()
        assert repo.fingerprint() != RuleRepository([r2, r1]).fingerprint()
        assert repo.fingerprint() != RuleRepository([r1, r2.with_sigma(0.25)]).fingerprint()
        # built once per revision; every add and remove is one
        revision, fingerprint, rules = repo.revision, repo.fingerprint(), repo.rules
        assert repo.fingerprint() is fingerprint and repo.rules is rules
        with pytest.raises(RuleError):
            repo.remove("r9")  # a refused edit edits nothing
        assert repo.revision == revision and repo.fingerprint() is fingerprint
        repo.remove("r2")
        assert repo.revision == revision + 1 and repo.rules == (r1,)
        assert repo.fingerprint() == RuleRepository([r1]).fingerprint()
        repo.add(r2)
        assert repo.fingerprint() == fingerprint and repo.rules == rules

    def test_default_rules_listed(self, r1):
        default = PreferenceRule("d0", TOP, parse_concept("TvProgram"), 0.5)
        repo = RuleRepository([r1, default])
        assert repo.default_rules == (default,)

    def test_applicable_filters_by_context(self, r1, r2):
        space = EventSpace()
        abox = ABox()
        peter = Individual("peter")
        abox.assert_concept("Weekend", peter, ALWAYS, dynamic=True)
        abox.assert_concept("Breakfast", peter, space.atom("brk", 0.7), dynamic=True)
        repo = RuleRepository([r1, r2])
        applicable = repo.applicable(abox, TBox(), peter, space)
        by_id = {a.rule.rule_id: a for a in applicable}
        assert by_id["r1"].context_probability == pytest.approx(1.0)
        assert by_id["r2"].context_probability == pytest.approx(0.7)

    def test_applicable_drops_impossible_contexts(self, r1, r2):
        abox = ABox()
        peter = Individual("peter")
        abox.assert_concept("Weekend", peter)
        repo = RuleRepository([r1, r2])
        applicable = repo.applicable(abox, TBox(), peter)
        assert [a.rule.rule_id for a in applicable] == ["r1"]

    def test_covers_context(self, r1):
        abox = ABox()
        peter = Individual("peter")
        abox.register_individual(peter)
        repo = RuleRepository([r1])
        assert not repo.covers_context(abox, TBox(), peter)
        abox.assert_concept("Weekend", peter)
        assert repo.covers_context(abox, TBox(), peter)

    def test_default_rule_always_applicable(self):
        default = PreferenceRule("d0", TOP, parse_concept("TvProgram"), 0.5)
        repo = RuleRepository([default])
        abox = ABox()
        peter = Individual("peter")
        abox.register_individual(peter)
        assert repo.covers_context(abox, TBox(), peter)

    def test_table_round_trip(self, r1, r2):
        repo = RuleRepository([r1, r2])
        db = Database()
        table = repo.to_table(db)
        assert len(table) == 2
        restored = RuleRepository.from_table(table)
        assert restored.get("r1").preference == r1.preference
        assert restored.get("r2").sigma == pytest.approx(0.9)
