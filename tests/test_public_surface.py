"""The top-level public surface: every exported name resolves, without warnings."""

import re
import warnings
from pathlib import Path

import pytest

import repro


class TestPublicSurface:
    def test_new_api_importable_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from repro import (  # noqa: F401
                EngineBuilder,
                RankRequest,
                RankResponse,
                RankingEngine,
            )

    def test_all_names_resolve(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in repro.__all__:
                assert getattr(repro, name) is not None, name

    def test_dir_lists_the_public_names(self):
        listing = dir(repro)
        assert "RankingEngine" in listing
        assert "ContextAwareScorer" not in listing

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.DefinitelyNotAThing

    def test_scorer_lives_in_core_only(self):
        with pytest.raises(AttributeError):
            repro.ContextAwareScorer
        from repro.core import ContextAwareScorer

        assert ContextAwareScorer.__module__.startswith("repro.core")

    def test_one_package_version(self):
        # A regex, not tomllib: the oldest supported Python has none.
        root = Path(__file__).resolve().parents[1]
        pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
        setup = (root / "setup.py").read_text(encoding="utf-8")
        declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
        shimmed = re.search(r'^\s*version="([^"]+)",$', setup, re.MULTILINE)
        assert declared and shimmed
        assert declared.group(1) == shimmed.group(1) == repro.__version__


class TestServingKnobs:
    """The serving stack's tunables, counted: a new knob edits this test."""

    def test_service_config_has_twelve_fields(self):
        from dataclasses import fields

        from repro.service import ServiceConfig

        assert len(fields(ServiceConfig)) == 12

    def test_the_gateway_takes_one_keyword_option(self):
        import inspect

        from repro.service.aio import AioRankingServer

        parameters = inspect.signature(AioRankingServer.__init__).parameters
        keywords = [
            name for name, parameter in parameters.items()
            if parameter.kind is inspect.Parameter.KEYWORD_ONLY
        ]
        assert keywords == ["read_deadline"]
