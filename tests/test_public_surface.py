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
    """The serving stack's knobs, by name: a new knob edits this test.

    A knob stays only while two of its values matter to an operator or
    a second caller; any other setting is a module constant beside its
    reason (``resilience.MAX_REQUEST_TIMEOUT``, ``aio.DRAIN_GRACE``, ...).
    """

    def test_service_config_fields(self):
        from dataclasses import fields

        from repro.service import ServiceConfig

        assert [f.name for f in fields(ServiceConfig)] == [
            "request_timeout", "breaker_enabled",
        ]

    def test_serve_options(self):
        import argparse

        from repro.cli import build_parser

        (commands,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        options = [
            option
            for action in commands.choices["serve"]._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        ]
        assert options == [
            "--host", "--port", "--rules", "--max-sessions", "--request-timeout",
            "--stale-max-age", "--no-breaker", "--batch-max-size", "--batch-max-wait-us",
            "--workers", "--snapshot", "--journal", "--cache-entries",
        ]

    def test_the_gateway_takes_one_keyword_option(self):
        import inspect

        from repro.service.aio import AioRankingServer

        parameters = inspect.signature(AioRankingServer.__init__).parameters
        keywords = [
            name for name, parameter in parameters.items()
            if parameter.kind is inspect.Parameter.KEYWORD_ONLY
        ]
        assert keywords == ["read_deadline"]

    def test_the_registry_takes_no_shard_count(self):
        import inspect

        from repro.tenants import TenantRegistry

        parameters = inspect.signature(TenantRegistry.__init__).parameters
        assert list(parameters) == [
            "self", "world", "rules", "max_sessions", "journal", "engine_options",
        ]

    def test_the_response_cache_takes_no_shard_count(self):
        import inspect

        from repro.cache import InMemoryCacheAdapter

        parameters = inspect.signature(InMemoryCacheAdapter.__init__).parameters
        assert list(parameters) == ["self", "max_entries", "ttl", "clock", "stale_max_age"]

    def test_the_drain_grace_is_one_constant(self):
        import inspect

        from repro.service import aio
        from repro.service.fleet import FleetSupervisor

        assert list(inspect.signature(aio.serve).parameters) == [
            "service", "host", "port", "ready",
        ]
        assert list(inspect.signature(FleetSupervisor.__init__).parameters) == [
            "self", "service_factory", "workers", "host", "port", "start_timeout",
            "respawn_backoff", "respawn_backoff_max", "crash_loop_threshold",
            "crash_loop_window",
        ]
        assert aio.DRAIN_GRACE == 5.0
