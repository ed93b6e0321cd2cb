"""The TVTouch running example — Table 1 and the Section 4.2 arithmetic.

Builds the paper's worked example exactly:

=============================  ==============  ===========  ================  ===========
program                        genre           P(genre)     subject           P(subject)
=============================  ==============  ===========  ================  ===========
Oprah                          human interest  0.85         —                 —
BBC news                       —               —            weather bulletin  1.0
Channel 5 news                 human interest  0.95         weather bulletin  0.85
Monty Python's Flying Circus   —               —            —                 —
=============================  ==============  ===========  ================  ===========

with Peter's two scored preference rules:

* R1: *when Weekend, prefer TvProgram ⊓ ∃hasGenre.{HUMAN-INTEREST}*, σ = 0.8;
* R2: *when Breakfast, prefer TvProgram ⊓ ∃hasSubject.NewsSubject*, σ = 0.9.

Modelling note (asserted by ``benchmarks/bench_e1_table1_example.py``;
table in ``benchmarks/results/e1_table1_factorised.txt``): in Section
4.2 the paper multiplies the "weather bulletin" subject probabilities
against R2's σ, i.e. a weather bulletin subject *counts as news*.  We
encode that taxonomically — ``WeatherBulletinSubject ⊑ NewsSubject``
in the TBox — so R2's preference is written with a concept filler and
matches through subsumption, reproducing the paper's arithmetic exactly:
Channel 5 news = 0.6006, Oprah = 0.071, BBC news = 0.18, MPFS = 0.02
in a certain breakfast-during-the-weekend context.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.events.expr import ALWAYS
from repro.events.space import EventSpace
from repro.dl.abox import ABox
from repro.dl.concepts import Concept, atomic
from repro.dl.tbox import TBox
from repro.dl.vocabulary import Individual
from repro.rules.dsl import parse_rules
from repro.rules.repository import RuleRepository
from repro.storage.database import Database
from repro.storage.schema import Column, ColumnType, Schema

__all__ = [
    "TvTouchWorld",
    "build_tvtouch",
    "set_breakfast_weekend_context",
    "EXPECTED_TABLE1_SCORES",
    "PROGRAMS",
]

#: Program ids and display names, in Table 1 order.
PROGRAMS: tuple[tuple[str, str], ...] = (
    ("oprah", "Oprah"),
    ("bbc_news", "BBC news"),
    ("channel5_news", "Channel 5 news"),
    ("mpfs", "Monty Python's Flying Circus"),
)

#: The Section 4.2 results, to reproduce to 1e-9.
EXPECTED_TABLE1_SCORES: dict[str, float] = {
    "channel5_news": 0.6006,
    "oprah": 0.071,
    "bbc_news": 0.18,
    "mpfs": 0.02,
}

RULES_TEXT = """
# Peter's scored preference rules (Section 4)
RULE r1: WHEN Weekend PREFER TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST} WITH 0.8
RULE r2: WHEN Breakfast PREFER TvProgram AND EXISTS hasSubject.NewsSubject WITH 0.9
"""


@dataclass
class TvTouchWorld:
    """The assembled TVTouch example: knowledge base, rules, database."""

    space: EventSpace
    abox: ABox
    tbox: TBox
    user: Individual
    repository: RuleRepository
    database: Database
    target: Concept
    #: The table user queries target and its document-id column — read
    #: by ``RankingEngine.from_world`` to wire the storage backend.
    data_table: str = "Programs"
    id_column: str = "id"

    @property
    def program_ids(self) -> list[str]:
        return [program_id for program_id, _name in PROGRAMS]


def build_tvtouch() -> TvTouchWorld:
    """Construct the full TVTouch example world (no context installed yet).

    Examples
    --------
    >>> world = build_tvtouch()
    >>> sorted(world.program_ids)
    ['bbc_news', 'channel5_news', 'mpfs', 'oprah']
    """
    space = EventSpace("tvtouch")
    abox = ABox()
    tbox = TBox()
    user = Individual("peter")
    abox.register_individual(user)

    # Subject taxonomy: weather bulletins count as news (Table 1 / §4.2).
    tbox.add_subsumption("NewsSubject", "Subject")
    tbox.add_subsumption("WeatherBulletinSubject", "NewsSubject")

    # Static program facts, Table 1.
    for program_id, _display_name in PROGRAMS:
        abox.assert_concept("TvProgram", program_id)
    abox.assert_concept("WeatherBulletinSubject", "WEATHER-BULLETIN")
    abox.assert_role("hasGenre", "oprah", "HUMAN-INTEREST", space.atom("genre:oprah:hi", 0.85))
    abox.assert_role("hasGenre", "channel5_news", "HUMAN-INTEREST", space.atom("genre:ch5:hi", 0.95))
    abox.assert_role("hasSubject", "bbc_news", "WEATHER-BULLETIN", ALWAYS)
    abox.assert_role("hasSubject", "channel5_news", "WEATHER-BULLETIN", space.atom("subject:ch5:weather", 0.85))

    repository = parse_rules(RULES_TEXT)

    database = Database("tvtouch")
    database.load_abox(abox)
    programs = database.create_table(
        "Programs",
        Schema([Column("id", ColumnType.TEXT), Column("name", ColumnType.TEXT)]),
    )
    for program_id, display_name in PROGRAMS:
        programs.insert((program_id, display_name))

    return TvTouchWorld(space, abox, tbox, user, repository, database, atomic("TvProgram"))


def set_breakfast_weekend_context(
    world: TvTouchWorld,
    weekend_probability: float = 1.0,
    breakfast_probability: float = 1.0,
    tick: str = "t1",
) -> None:
    """Install the Section 4.2 context (optionally uncertain).

    With both probabilities 1.0 this is the paper's certain
    "breakfast during the weekend"; lower values exercise the
    Section 3.3 sum over context feature vectors (experiment E8).
    """
    world.abox.clear_dynamic()
    weekend_event = (
        ALWAYS
        if weekend_probability >= 1.0
        else world.space.atom(f"ctx:{tick}:weekend", weekend_probability)
    )
    breakfast_event = (
        ALWAYS
        if breakfast_probability >= 1.0
        else world.space.atom(f"ctx:{tick}:breakfast", breakfast_probability)
    )
    world.abox.assert_concept("Weekend", world.user, weekend_event, dynamic=True)
    world.abox.assert_concept("Breakfast", world.user, breakfast_event, dynamic=True)
    world.database.load_abox(world.abox, refresh=True)
