"""Builder validation and keyword-driven construction."""

import pytest

from repro.engine import (
    AboxContext,
    EngineBuilder,
    MixedRelevance,
    RankingEngine,
)
from repro.errors import EngineConfigError
from repro.workloads import build_tvtouch, set_breakfast_weekend_context


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
