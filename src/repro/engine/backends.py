"""Default backend implementations for the engine protocols.

* :class:`AboxContext` — context read straight from the ABox's dynamic
  assertions (the library's native representation); its signature is a
  canonical rendering of those assertions, so any context change — manual,
  sensor-driven, or CLI-installed — invalidates the engine's cache.
* :class:`SensedContext` — an :class:`AboxContext` wired to a
  :class:`~repro.context.manager.ContextManager`, for sensor-driven
  scenarios.
* :class:`RepositoryPreferences` — rules from a
  :class:`~repro.rules.repository.RuleRepository`, fingerprinted by
  content so rule additions/removals/edits invalidate the cache even
  when the repository object is mutated in place.
* :class:`DatabaseStorage` — SQL over the library's
  :class:`~repro.storage.database.Database` with the preference view
  attached as the ``preferencescore`` virtual column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Hashable, Iterable

from repro._lazy import lazy_module
from repro.dl.abox import ABox, ConceptAssertion
from repro.dl.parser import parse_concept
from repro.dl.vocabulary import Individual
from repro.errors import EngineConfigError
from repro.events.atoms import BasicEvent
from repro.events.expr import Atom, atom
from repro.rules.repository import RuleRepository

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.context.manager import ContextManager
    from repro.context.sensors import GroundTruth
    from repro.core.preference_view import PreferenceView
    from repro.storage.database import Database
    from repro.storage.sql import ResultSet, SqlSession

#: The SQL front end, loaded by the first SQL request: every engine over
#: a world with a database holds a :class:`DatabaseStorage`, few run SQL.
_sql = lazy_module("repro.storage.sql")

__all__ = [
    "AboxContext",
    "SensedContext",
    "RepositoryPreferences",
    "DatabaseStorage",
    "parse_context_spec",
]


#: Distinct context-concept names whose syntax check is remembered.
_NAME_MEMO_SIZE = 512


@lru_cache(maxsize=_NAME_MEMO_SIZE)
def _check_concept_syntax(name: str) -> None:
    """Parse ``name`` as a concept, once per name.

    Context names repeat from request to request (they come from the
    vocabulary) while whole specs may never do (a fresh probability
    each time), so the memo is keyed by name.  A name that fails to
    parse raises every time: ``lru_cache`` keeps no exceptions.
    """
    parse_concept(name)


def parse_context_spec(spec: str) -> tuple[str, float]:
    """Validate one ``CONCEPT[:PROB]`` spec into ``(concept, probability)``.

    Raises :class:`EngineConfigError` on bad syntax or an out-of-range
    probability.  Shared by :meth:`AboxContext.install` (which
    validates *every* spec before touching the knowledge base, so a
    bad spec can never leave a half-installed context), the response
    cache's key stage and the serving pipeline's pre-flight check.
    """
    name, _, prob_text = spec.partition(":")
    _check_concept_syntax(name)  # validate the syntax early
    try:
        probability = float(prob_text) if prob_text else 1.0
    except ValueError:
        raise EngineConfigError(
            f"bad context spec {spec!r}: the part after ':' must be a "
            "probability, e.g. 'Breakfast:0.7'"
        ) from None
    if not 0.0 <= probability <= 1.0:
        raise EngineConfigError(
            f"bad context spec {spec!r}: probability must be in [0, 1]"
        )
    return name, probability


@dataclass
class AboxContext:
    """Context backend over the ABox's dynamic assertions.

    The knowledge base already *is* the context store — sensors, the
    context manager and manual installs all write dynamic assertions
    into the ABox — so the signature is a canonical rendering of those
    assertions (:meth:`ABox.context_signature`: concept/role,
    individuals, and the event each holds under), paired with the
    ABox's *static* mutation epoch so changes to the static knowledge
    (a new catalogue entry, a new feature) invalidate too.  It is only
    recomputed after an actual ABox mutation (tracked through
    :attr:`ABox.mutation_count`), so on the hot path an unchanged
    context signs in O(1); and because the dynamic part is
    content-based, *restoring* an earlier context restores its
    signature — and its cache entry.

    Over a :class:`~repro.dl.abox.LayeredABox` the shared base's sensed
    context enters as one digest, cached on the base per mutation
    epoch, beside the overlay's own dynamic rows and the overlay keys
    that shadow base dynamic rows: a fresh context costs a render of
    the delta, not of the world.  Equal knowledge state reached the
    same way signs equal; one state reached through two overlay shapes
    (an overlay that re-asserts a base row, say) may sign differently,
    which costs a cache miss, never a wrong hit.
    """

    abox: ABox
    _seen_mutation: int | None = field(default=None, repr=False, compare=False)
    _cached_signature: Hashable = field(default=None, repr=False, compare=False)

    def signature(self) -> Hashable:
        mutation = self.abox.mutation_count
        if mutation != self._seen_mutation:
            self._cached_signature = (
                self.abox.static_mutation_count,
                *self.abox.context_signature(),
            )
            self._seen_mutation = mutation
        return self._cached_signature

    def refresh(self) -> None:
        """Static context: nothing to pull."""

    def install(
        self,
        user: Individual | str,
        specs: Iterable[str],
        tick: str = "ctx",
    ) -> None:
        """Replace the dynamic context with ``CONCEPT[:PROB]`` specs.

        The CLI's ``--context Weekend --context Breakfast:0.7`` syntax:
        each spec asserts the concept on ``user``, certainly or under a
        probabilistic atom named by its content (:func:`_context_atom`).
        All specs are validated *before* the existing dynamic
        assertions are cleared, so a bad spec raises with the previous
        context fully intact — never half-installed.
        """
        parsed = [parse_context_spec(spec) for spec in specs]
        self.abox.clear_dynamic()
        for name, probability in parsed:
            if probability >= 1.0:
                self.abox.assert_concept(name, user, dynamic=True)
            else:
                self.abox.assert_concept(
                    name, user, _context_atom(tick, name, probability), dynamic=True
                )


def _context_atom(tick: str, name: str, probability: float) -> Atom:
    """The basic event for one uncertain context spec, named by its content.

    The name is ``tick:Concept@p`` (``p`` as parsed, ``-0.0`` read as
    ``0.0``), so it can never stand for two probabilities, and
    re-installing a context rebuilds the same interned atom — the
    context signature, and the cache entry, come back with it.  The
    atom is not registered in the world's event space: the engines
    consult the space only for mutex groups, which a context atom never
    joins.  It lives as long as the overlay assertions and reasoner
    memos of the session that installed it.
    """
    probability += 0.0
    return atom(BasicEvent(f"{tick}:{name}@{probability!r}", probability))


@dataclass
class SensedContext(AboxContext):
    """An ABox context fed by a sensor-driven context manager.

    :meth:`observe` runs one sensor sweep against a ground truth; the
    manager replaces the ABox's dynamic assertions, so the inherited
    signature picks the change up automatically.
    """

    manager: "ContextManager | None" = None

    def __post_init__(self) -> None:
        if self.manager is None:
            raise EngineConfigError("SensedContext needs a ContextManager")

    @classmethod
    def of(cls, manager: "ContextManager") -> "SensedContext":
        """Wrap a manager, sharing its ABox."""
        return cls(abox=manager.abox, manager=manager)

    def observe(self, truth: "GroundTruth") -> None:
        """Read all sensors against ``truth`` and install the snapshot."""
        assert self.manager is not None
        self.manager.refresh(truth)


@dataclass
class RepositoryPreferences:
    """Preference backend over a plain rule repository.

    The fingerprint is the repository's content digest (rule ids,
    concept keys and sigmas, :meth:`RuleRepository.fingerprint`), rebuilt
    only when an in-place edit — the supported mutation path — bumped
    its revision, so the caller need not cooperate.
    """

    _repository: RuleRepository

    def repository(self) -> RuleRepository:
        return self._repository

    def fingerprint(self) -> Hashable:
        return self._repository.fingerprint()


@dataclass
class DatabaseStorage:
    """Storage backend over the library's probabilistic database.

    Parameters
    ----------
    database:
        The database user queries run against.
    data_table / id_column:
        The table the paper's example query targets (``Programs``) and
        the column joining its rows to scored documents.
    """

    database: Database
    data_table: str
    id_column: str = "id"

    def session(self, view: "PreferenceView") -> SqlSession:
        """A SQL session with ``preferencescore`` attached to the data table."""
        session = _sql().SqlSession(self.database)
        view.attach_to_session(session, self.data_table, self.id_column)
        return session

    def execute(self, sql: str, view: "PreferenceView") -> ResultSet:
        return self.session(view).execute(sql)

    def document_ids(self, result: ResultSet) -> list[str] | None:
        if self.id_column not in result.columns:
            return None
        return [str(value) for value in result.column(self.id_column)]
