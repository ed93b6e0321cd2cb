"""Builder validation and config-driven construction."""

import json

import pytest

from repro.engine import (
    AboxContext,
    EngineBuilder,
    MixedRelevance,
    RankingEngine,
    RankRequest,
)
from repro.errors import EngineConfigError
from repro.workloads import build_tvtouch, set_breakfast_weekend_context

RULES_TEXT = (
    "RULE r1: WHEN Weekend PREFER TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST} WITH 0.8\n"
    "RULE r2: WHEN Breakfast PREFER TvProgram AND EXISTS hasSubject.NewsSubject WITH 0.9\n"
)


@pytest.fixture()
def world():
    world = build_tvtouch()
    set_breakfast_weekend_context(world)
    return world


class TestValidation:
    def test_missing_knowledge_base(self):
        with pytest.raises(EngineConfigError, match="knowledge base"):
            EngineBuilder().build()

    def test_missing_preferences(self, world):
        builder = EngineBuilder().knowledge(
            world.abox, world.tbox, world.user, world.space
        ).target("TvProgram")
        with pytest.raises(EngineConfigError, match="preference rules"):
            builder.build()

    def test_missing_target(self, world):
        builder = EngineBuilder().knowledge(
            world.abox, world.tbox, world.user, world.space
        ).preferences(world.repository)
        with pytest.raises(EngineConfigError, match="target concept"):
            builder.build()

    def test_unknown_method(self, world):
        with pytest.raises(EngineConfigError, match="scoring method"):
            EngineBuilder().world(world).method("quantum").build()

    def test_rule_threshold_out_of_range(self, world):
        with pytest.raises(EngineConfigError, match="rule_threshold"):
            EngineBuilder().world(world).rule_threshold(1.5).build()

    def test_bad_cache_size(self, world):
        with pytest.raises(EngineConfigError, match="cache_size"):
            EngineBuilder().world(world).cache_size(0).build()

    def test_unknown_relevance_name(self, world):
        with pytest.raises(EngineConfigError, match="unknown relevance strategy"):
            EngineBuilder().world(world).relevance("psychic").build()

    def test_bad_relevance_options(self, world):
        with pytest.raises(EngineConfigError, match="invalid options"):
            EngineBuilder().world(world).relevance("gated", mixing_weight=0.5).build()

    def test_mixing_weight_out_of_range(self, world):
        with pytest.raises(EngineConfigError, match="mixing weight"):
            EngineBuilder().world(world).relevance("mixed", mixing_weight=2.0).build()

    def test_bad_preferences_object(self, world):
        with pytest.raises(EngineConfigError, match="preferences"):
            EngineBuilder().world(world).preferences(object())

    def test_bad_context_backend(self, world):
        with pytest.raises(EngineConfigError, match="context backend"):
            EngineBuilder().world(world).context(object())

    def test_storage_without_data_table(self, world):
        with pytest.raises(EngineConfigError, match="data_table"):
            EngineBuilder().world(world).storage(world.database)

    def test_bad_storage_object(self, world):
        with pytest.raises(EngineConfigError, match="storage"):
            EngineBuilder().world(world).storage(object())

    def test_unknown_option(self, world):
        with pytest.raises(EngineConfigError, match="unknown engine option"):
            EngineBuilder().world(world).options(warp_speed=9)

    def test_world_without_knowledge(self):
        with pytest.raises(EngineConfigError, match="no 'abox'"):
            EngineBuilder().world(object())


class TestAssembly:
    def test_world_shortcut_wires_everything(self, world):
        engine = EngineBuilder().world(world).build()
        assert engine.storage is not None
        response = engine.rank(
            "SELECT id, preferencescore FROM Programs WHERE preferencescore > 0.5"
        )
        assert response.documents() == ["channel5_news"]

    def test_custom_context_backend(self, world):
        backend = AboxContext(world.abox)
        engine = EngineBuilder().world(world).context(backend).build()
        assert engine.context is backend

    def test_target_parses_strings(self, world):
        engine = (
            EngineBuilder()
            .knowledge(world.abox, world.tbox, world.user, world.space)
            .preferences(world.repository)
            .target("TvProgram")
            .build()
        )
        assert engine.rank().documents()[0] == "channel5_news"

    def test_options_keyword_driving(self, world):
        engine = (
            EngineBuilder()
            .world(world)
            .options(method="exact", cache_size=4, relevance=MixedRelevance(0.5))
            .build()
        )
        assert engine.method == "exact"
        assert engine.cache_info().max_entries == 4
        assert isinstance(engine.relevance, MixedRelevance)

    def test_builder_from_engine_classmethod(self):
        assert isinstance(RankingEngine.builder(), EngineBuilder)


class TestFromConfig:
    def test_mapping_config(self, tmp_path):
        rules = tmp_path / "rules.prefs"
        rules.write_text(RULES_TEXT, encoding="utf-8")
        engine = RankingEngine.from_config(
            {
                "workload": "tvtouch",
                "rules": str(rules),
                "context": ["Weekend", "Breakfast"],
                "method": "factorised",
            }
        )
        response = engine.rank(RankRequest(documents=["channel5_news"]))
        assert response.scores()["channel5_news"] == pytest.approx(0.6006, abs=1e-9)

    def test_json_file_config(self, tmp_path):
        config_path = tmp_path / "engine.json"
        config_path.write_text(
            json.dumps({"context": ["Weekend", "Breakfast"]}), encoding="utf-8"
        )
        engine = RankingEngine.from_config(config_path)
        assert engine.rank().documents()[0] == "channel5_news"

    def test_relevance_and_mixing_weight(self):
        engine = RankingEngine.from_config(
            {"relevance": "mixed", "mixing_weight": 0.25}
        )
        assert isinstance(engine.relevance, MixedRelevance)
        assert engine.relevance.mixing_weight == 0.25

    def test_unknown_key_rejected(self):
        with pytest.raises(EngineConfigError, match="unknown engine config keys"):
            RankingEngine.from_config({"warp": 9})

    def test_unknown_workload_rejected(self):
        with pytest.raises(EngineConfigError, match="workload"):
            RankingEngine.from_config({"workload": "netflix"})

    def test_bad_context_type_rejected(self):
        with pytest.raises(EngineConfigError, match="context"):
            RankingEngine.from_config({"context": "Weekend"})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(EngineConfigError, match="cannot load"):
            RankingEngine.from_config(str(tmp_path / "nope.json"))

    def test_non_mapping_rejected(self):
        with pytest.raises(EngineConfigError, match="mapping"):
            RankingEngine.from_config(42)
