"""Fluent assembly and validation of :class:`RankingEngine` instances.

The builder is where misconfiguration dies: :meth:`EngineBuilder.build`
checks every seam (knowledge base present, rules present, target known,
method and relevance resolvable, thresholds in range) and raises
:class:`~repro.errors.EngineConfigError` with an actionable message —
instead of letting a half-wired engine fail mid-request.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.scoring import SCORING_METHODS
from repro.dl.abox import ABox
from repro.dl.concepts import Concept
from repro.dl.parser import parse_concept
from repro.dl.tbox import TBox
from repro.dl.vocabulary import Individual
from repro.errors import EngineConfigError
from repro.events.space import EventSpace
from repro.reason import CompiledKB
from repro.rules.repository import RuleRepository
from repro.storage.database import Database
from repro.engine.backends import AboxContext, DatabaseStorage, RepositoryPreferences
from repro.engine.relevance import resolve_relevance

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.engine.protocols import (
        ContextBackend,
        PreferenceBackend,
        StorageBackend,
    )

__all__ = ["EngineBuilder"]


class EngineBuilder:
    """Builds a validated :class:`~repro.engine.RankingEngine`.

    Examples
    --------
    >>> from repro.workloads import build_tvtouch, set_breakfast_weekend_context
    >>> world = build_tvtouch()
    >>> set_breakfast_weekend_context(world)
    >>> engine = (EngineBuilder()
    ...           .world(world)
    ...           .relevance("mixed", mixing_weight=0.3)
    ...           .build())
    >>> round(engine.preference_scores()["channel5_news"], 4)
    0.6006
    """

    def __init__(self) -> None:
        self._abox: ABox | None = None
        self._tbox: TBox | None = None
        self._user: Individual | None = None
        self._space: EventSpace | None = None
        self._context: ContextBackend | None = None
        self._preferences: PreferenceBackend | None = None
        self._storage: StorageBackend | None = None
        self._relevance_spec: object = "gated"
        self._relevance_options: dict[str, object] = {}
        self._target: Concept | None = None
        self._method: str = "factorised"
        self._rule_threshold: float = 0.0
        self._prune_documents: bool = True
        self._cache_size: int = 16
        self._incremental: bool = True
        self._kb: CompiledKB | None = None

    # -- knowledge base ----------------------------------------------------
    def knowledge(
        self,
        abox: ABox,
        tbox: TBox,
        user: Individual | str,
        space: EventSpace | None = None,
    ) -> "EngineBuilder":
        """The knowledge base and situated user the engine ranks for."""
        self._abox = abox
        self._tbox = tbox
        self._user = Individual(user) if isinstance(user, str) else user
        self._space = space
        return self

    def world(self, world: object) -> "EngineBuilder":
        """Pull every available piece from a ready-made world object.

        Reads ``abox``/``tbox``/``user`` (required), plus ``space``,
        ``target``, ``repository``, and — when the world carries a
        ``database`` with a ``data_table`` — the storage backend.

        Overlay worlds are accepted too: an object exposing an
        ``overlay``/``base`` pair (e.g. a :class:`repro.tenants.UserSession`,
        or anything wrapping a :class:`~repro.dl.abox.LayeredABox`)
        ranks over the overlay, with every attribute the wrapper does
        not carry itself resolved from the base world.
        """
        overlay = getattr(world, "overlay", None)
        base = getattr(world, "base", None) if isinstance(overlay, ABox) else None

        def pick(attribute: str):
            value = getattr(world, attribute, None)
            if value is None and base is not None:
                value = getattr(base, attribute, None)
            return value

        if isinstance(overlay, ABox):
            # An overlay/base pair: the overlay is the knowledge the
            # engine ranks over; the base world fills in the rest.
            abox, tbox, user = overlay, pick("tbox"), pick("user")
            if tbox is None or user is None:
                missing = "tbox" if tbox is None else "user"
                raise EngineConfigError(
                    f"overlay world {type(world).__name__} resolves no "
                    f"{missing!r} (checked the object and its base); pass "
                    "the knowledge base with .knowledge(...) instead"
                )
        else:
            for attribute in ("abox", "tbox", "user"):
                if not hasattr(world, attribute):
                    raise EngineConfigError(
                        f"world {type(world).__name__} has no {attribute!r}; "
                        "pass the knowledge base with .knowledge(...) instead — "
                        "or, for per-user setups over one shared world, mint "
                        "ready-made overlay sessions with repro.tenants.TenantRegistry"
                    )
            abox, tbox, user = world.abox, world.tbox, world.user

        self.knowledge(abox, tbox, user, pick("space"))
        target = pick("target")
        if target is not None:
            self.target(target)
        repository = pick("repository")
        if repository is not None:
            self.preferences(repository)
        database, data_table = pick("database"), pick("data_table")
        if database is not None and data_table is not None:
            self.storage(database, data_table, pick("id_column") or "id")
        return self

    # -- backends ----------------------------------------------------------
    def context(self, backend: ContextBackend) -> "EngineBuilder":
        """A custom context backend (default: :class:`AboxContext`)."""
        if not callable(getattr(backend, "signature", None)) or not callable(
            getattr(backend, "refresh", None)
        ):
            raise EngineConfigError(
                f"context backend {backend!r} must provide signature() and refresh()"
            )
        self._context = backend
        return self

    def preferences(
        self, source: PreferenceBackend | RuleRepository
    ) -> "EngineBuilder":
        """The preference rules: a repository or a full backend."""
        if isinstance(source, RuleRepository):
            self._preferences = RepositoryPreferences(source)
        elif callable(getattr(source, "repository", None)) and callable(
            getattr(source, "fingerprint", None)
        ):
            self._preferences = source
        else:
            raise EngineConfigError(
                f"preferences must be a RuleRepository or a PreferenceBackend, got {source!r}"
            )
        return self

    def storage(
        self,
        source: StorageBackend | Database,
        data_table: str | None = None,
        id_column: str = "id",
    ) -> "EngineBuilder":
        """The SQL storage: a database plus its data table, or a backend."""
        if isinstance(source, Database):
            if not data_table:
                raise EngineConfigError(
                    "storage(database, ...) needs the data_table the queries target"
                )
            self._storage = DatabaseStorage(source, data_table, id_column)
        elif callable(getattr(source, "execute", None)):
            self._storage = source
        else:
            raise EngineConfigError(
                f"storage must be a Database or a StorageBackend, got {source!r}"
            )
        return self

    def relevance(self, spec: object, **options: object) -> "EngineBuilder":
        """The relevance strategy: a name (``"gated"``, ``"mixed"``,
        ``"log_linear"``), a :class:`RelevanceBackend`, or a class."""
        self._relevance_spec = spec
        self._relevance_options = dict(options)
        return self

    # -- scoring configuration --------------------------------------------
    def target(self, concept: Concept | str) -> "EngineBuilder":
        """The concept whose members the preference view scores."""
        self._target = parse_concept(concept) if isinstance(concept, str) else concept
        return self

    def method(self, name: str) -> "EngineBuilder":
        self._method = name
        return self

    def rule_threshold(self, threshold: float) -> "EngineBuilder":
        self._rule_threshold = threshold
        return self

    def prune_documents(self, prune: bool) -> "EngineBuilder":
        self._prune_documents = bool(prune)
        return self

    def cache_size(self, max_entries: int) -> "EngineBuilder":
        self._cache_size = max_entries
        return self

    def incremental(self, enabled: bool) -> "EngineBuilder":
        """Toggle basis reuse for context-only changes (default on)."""
        self._incremental = bool(enabled)
        return self

    def reasoner(self, kb: CompiledKB) -> "EngineBuilder":
        """An explicit compiled reasoner (:class:`repro.reason.CompiledKB`).

        Defaults to the shared registry instance for the knowledge
        base; pass one here to pin several engines to a privately
        scoped KB (or a private KB to an engine).
        """
        if not isinstance(kb, CompiledKB):
            raise EngineConfigError(
                f"reasoner must be a repro.reason.CompiledKB, got {kb!r}"
            )
        self._kb = kb
        return self

    def options(self, **options: object) -> "EngineBuilder":
        """Apply builder options by keyword (for config-driven callers).

        Each key must name a builder method taking one argument, e.g.
        ``options(method="exact", cache_size=4, rules=repository)``
        (``rules`` is an alias for :meth:`preferences`).
        """
        aliases = {"rules": "preferences"}
        for key, value in options.items():
            setter = getattr(self, aliases.get(key, key), None)
            if setter is None or key.startswith("_"):
                raise EngineConfigError(f"unknown engine option {key!r}")
            setter(value)
        return self

    # -- assembly ----------------------------------------------------------
    def build(self):
        """Validate the configuration and assemble the engine."""
        from repro.engine.engine import RankingEngine

        if self._abox is None or self._tbox is None or self._user is None:
            raise EngineConfigError(
                "no knowledge base configured; call .world(world) or "
                ".knowledge(abox, tbox, user, space)"
            )
        if self._preferences is None:
            raise EngineConfigError(
                "no preference rules configured; call .preferences(repository) "
                "(worlds without a repository need explicit rules)"
            )
        if self._target is None:
            raise EngineConfigError(
                "no target concept configured; call .target('TvProgram') or "
                "use a world that carries one"
            )
        if self._method not in SCORING_METHODS:
            raise EngineConfigError(
                f"unknown scoring method {self._method!r}; "
                f"choose from {sorted(SCORING_METHODS)}"
            )
        if not 0.0 <= self._rule_threshold <= 1.0:
            raise EngineConfigError(
                f"rule_threshold must be in [0, 1], got {self._rule_threshold!r}"
            )
        if not isinstance(self._cache_size, int) or self._cache_size < 1:
            raise EngineConfigError(
                f"cache_size must be a positive integer, got {self._cache_size!r}"
            )
        if self._kb is not None and (
            self._kb.abox is not self._abox
            or self._kb.tbox is not self._tbox
            or self._kb.space is not self._space
        ):
            raise EngineConfigError(
                "the configured reasoner was compiled over a different "
                "knowledge base (ABox, TBox and event space must be the "
                "engine's own)"
            )
        relevance = resolve_relevance(self._relevance_spec, **self._relevance_options)
        context = self._context or AboxContext(self._abox)
        return RankingEngine(
            abox=self._abox,
            tbox=self._tbox,
            user=self._user,
            space=self._space,
            context=context,
            preferences=self._preferences,
            relevance=relevance,
            storage=self._storage,
            target=self._target,
            method=self._method,
            rule_threshold=self._rule_threshold,
            prune_documents=self._prune_documents,
            cache_size=self._cache_size,
            incremental=self._incremental,
            kb=self._kb,
        )
