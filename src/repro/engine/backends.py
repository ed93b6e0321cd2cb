"""Default backend implementations for the engine protocols.

* :class:`ContextValue` — one installed context as a value: its
  ``CONCEPT[:PROB]`` specs parsed, canonicalised and built into concept
  names and atoms once, interned weakly per process
  (:func:`context_value`).
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

import threading
import weakref
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Hashable, Iterable

from repro._lazy import lazy_module
from repro.dl.abox import ABox, ConceptAssertion, content_digest
from repro.dl.parser import parse_concept
from repro.dl.vocabulary import ConceptName, Individual
from repro.errors import EngineConfigError
from repro.events.atoms import BasicEvent
from repro.events.expr import ALWAYS, Atom, EventExpr, atom, disj
from repro.perf import LRU
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
    "ContextValue",
    "SensedContext",
    "RepositoryPreferences",
    "DatabaseStorage",
    "canonical_context",
    "context_counters",
    "context_value",
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


#: One shared :class:`ConceptName` per context-concept name.
_concept_name = lru_cache(maxsize=_NAME_MEMO_SIZE)(ConceptName)


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


#: A parsed, order-independent context: sorted ``(concept, probability)``
#: pairs, duplicates kept, ``-0.0`` read as ``0.0``.
CanonicalContext = tuple


def canonical_context(specs: Iterable[str]) -> CanonicalContext:
    """``CONCEPT[:PROB]`` specs as a canonical, order-independent value.

    ``("Weekend", "Breakfast:1.0")`` and ``("Breakfast", "Weekend")``
    canonicalise identically — installs of either produce the same
    knowledge state.  Duplicates are kept: each spec is one assertion,
    and the installed state counts them.  Raises
    :class:`EngineConfigError` on a bad spec.
    """
    pairs = []
    for spec in specs:
        name, probability = parse_context_spec(str(spec))
        pairs.append((name, probability + 0.0))
    return tuple(sorted(pairs))


class ContextValue:
    """One context as a value, built once per ``(tick, canonical specs)``.

    The paper's context is a set of uncertain concept assertions about
    the user, so a context a user flips back to is the value it was
    before.  A value holds what installing it needs that does not depend
    on the user: its canonical ``pairs``, their ``digest``, and its
    :attr:`rows`, built by its first install.  :meth:`assertions_for`
    and :meth:`signature_for` build the per-user half: the dynamic
    assertions and their :meth:`ABox.dynamic_signature` rows.

    Values are interned weakly (:func:`context_value`): one live value
    per distinct context per process, gone when nothing holds it.  A
    value carries its tick, which names its atoms.
    """

    __slots__ = ("tick", "pairs", "digest", "_rows", "__weakref__")

    def __init__(self, tick: str, pairs: CanonicalContext):
        self.tick = tick
        self.pairs = pairs
        self.digest = content_digest((tick, pairs))[:24]
        self._rows: tuple[tuple[ConceptName, EventExpr, int], ...] | None = None

    @property
    def rows(self) -> tuple[tuple[ConceptName, EventExpr, int], ...]:
        """One row per concept, sorted by name: its :class:`ConceptName`,
        its event (certain, one interned context atom, or the disjunction
        duplicate specs of one concept merge into, exactly as sequential
        ``assert_concept`` calls would) and how many specs it stands for
        (each one ABox mutation).  Built on first use: a value that only
        keys a request builds no atom."""
        rows = self._rows
        if rows is None:
            built = []
            for name, group in groupby(self.pairs, key=itemgetter(0)):
                events = [
                    ALWAYS if probability >= 1.0 else _context_atom(self.tick, name, probability)
                    for _name, probability in group
                ]
                event = events[0] if len(events) == 1 else disj(events)
                built.append((_concept_name(name), event, len(events)))
            rows = self._rows = tuple(built)
        return rows

    def assertions_for(self, user: Individual) -> dict[ConceptAssertion, int]:
        """The dynamic assertions installing this value on ``user`` makes,
        each with the number of specs it stands for."""
        return {
            ConceptAssertion(concept, user, event, True): count
            for concept, event, count in self.rows
        }

    def signature_for(self, user: Individual) -> tuple[tuple[str, str, str], ...]:
        """:meth:`ABox.dynamic_signature`'s concept rows for those
        assertions (already in its order: one row per concept, by name)."""
        name = str(user)
        return tuple((concept.name, name, str(event)) for concept, event, _count in self.rows)

    def __len__(self) -> int:
        """How many specs the value was given (duplicates count)."""
        return len(self.pairs)

    def __repr__(self) -> str:
        return f"ContextValue({self.tick!r}, {self.pairs!r})"


#: The live values by ``(tick, canonical pairs)``.
_VALUES: "weakref.WeakValueDictionary[tuple, ContextValue]" = weakref.WeakValueDictionary()
_VALUES_LOCK = threading.Lock()
#: The last values built, kept alive past the request that built them:
#: herd mates ask for a fresh context right after its first request (the
#: ledger's ``herd_miss`` sends each pair in lockstep on two connections),
#: and a menu context is asked again before any session keeps it.  A
#: constant bound, so what stays alive does not grow with sessions.
RECENT_VALUES = 16
_RECENT: "deque[ContextValue]" = deque(maxlen=RECENT_VALUES)
#: ``values_built`` by :func:`context_value`; ``splices`` / ``fallbacks``
#: by :meth:`AboxContext.install` (rows, not installs).
_COUNTS = {"values_built": 0, "splices": 0, "fallbacks": 0}


def context_value(specs: "Iterable[str] | ContextValue", tick: str = "ctx") -> ContextValue:
    """``CONCEPT[:PROB]`` specs as their interned value (a value as itself).

    Every spec is validated (:func:`parse_context_spec`), so a bad one
    raises :class:`EngineConfigError` before anything is installed; a
    caller that derives the same specs again keeps the value (weakly,
    as the serving pipeline's parsed requests do) to skip the parse.
    """
    if isinstance(specs, ContextValue):
        return specs
    key = (tick, canonical_context(specs))
    value = _VALUES.get(key)
    if value is None:
        with _VALUES_LOCK:
            value = _VALUES.get(key)
            if value is None:
                value = _VALUES[key] = ContextValue(*key)
                _RECENT.append(value)
                _COUNTS["values_built"] += 1
    return value


def context_counters() -> dict[str, int]:
    """Process-wide context-value counts: ``values_built`` and
    ``values_live`` (interned values alive now), and the rows installs
    ``splices``-d in prebuilt or sent through ``fallbacks`` (the general
    ``assert_concept`` path, for a row that merges with a fact already
    there)."""
    with _VALUES_LOCK:
        return {**_COUNTS, "values_live": len(_VALUES)}


#: Contexts one session keeps prebuilt for a flip back (a handful of
#: menus), and digests of contexts it installed once: a context is kept
#: on its second install, so one that never repeats costs a digest.
#: Both tables drop their least recently used entry when full.
HELD_CONTEXTS = 4


class _Prebuilt:
    """A value's per-user half: its assertions (each with the number of
    specs it stands for) and their signature rows; once kept, the static
    and base ``epochs`` of its last clean splice and the context
    ``signature`` that splice left."""

    __slots__ = ("user", "assertions", "rows", "epochs", "signature")

    def __init__(self, value: ContextValue, user: Individual):
        self.user = user
        self.assertions = value.assertions_for(user)
        self.rows = value.signature_for(user)
        self.epochs: tuple | None = None
        self.signature: Hashable = None


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
    #: value -> its :class:`_Prebuilt` half, kept for a flip back, and
    #: the digests of values installed once (the admission check).
    #: Each is built on first use: a session that never installs a
    #: context twice never needs ``_held``.
    _held: LRU | None = field(default=None, repr=False, compare=False)
    _seen: LRU | None = field(default=None, repr=False, compare=False)

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
        specs: "Iterable[str] | ContextValue",
        tick: str = "ctx",
    ) -> None:
        """Replace the dynamic context with ``CONCEPT[:PROB]`` specs.

        The CLI's ``--context Weekend --context Breakfast:0.7`` syntax:
        each spec asserts the concept on ``user``, certainly or under a
        probabilistic atom named by its content (:func:`_context_atom`).
        ``specs`` may be their :class:`ContextValue` (which carries its
        own tick).  All specs are validated *before* the existing dynamic
        assertions are cleared, so a bad spec raises with the previous
        context fully intact — never half-installed.

        The value's prebuilt assertions are spliced in
        (:meth:`ABox.splice_dynamic`), leaving the state sequential
        ``assert_concept`` calls would; a row that merges with a fact
        already there takes that general path.  A value this session
        installed before reuses its assertions and signature rows.
        """
        value = specs if isinstance(specs, ContextValue) else context_value(specs, tick)
        user = Individual(user) if isinstance(user, str) else user
        kept = self._held
        held = kept.get(value) if kept is not None else None
        if held is None or (held.user is not user and held.user != user):
            held = self._prebuild(value, user)
        abox = self.abox
        abox.clear_dynamic()
        # What a clean splice leaves alone: the static rows (this box's
        # static epoch) and the layers below (their epoch).  Where both
        # stand as at this value's last clean splice, no row can merge,
        # and the context signature is the one that splice left.
        base = getattr(abox, "base", None)
        epochs = (abox.static_mutation_count, base.mutation_count if base is not None else None)
        repeat = held.epochs == epochs
        fallbacks = abox.splice_dynamic(held.assertions, held.rows, merge_check=not repeat)
        _COUNTS["splices"] += len(held.assertions) - fallbacks
        if fallbacks:
            _COUNTS["fallbacks"] += fallbacks
            return
        kept = self._held
        if kept is None or kept.peek(value) is not held:
            return
        if not repeat:
            held.epochs = epochs
            held.signature = (epochs[0], *abox.context_signature())
        self._cached_signature = held.signature
        self._seen_mutation = abox.mutation_count

    def _prebuild(self, value: ContextValue, user: Individual) -> _Prebuilt:
        """``value``'s per-user half; kept for a flip back when seen twice."""
        held = _Prebuilt(value, user)
        seen = self._seen
        if seen is None:
            seen = self._seen = LRU(HELD_CONTEXTS)
        if value.digest in seen:
            if self._held is None:
                self._held = LRU(HELD_CONTEXTS)
            self._held.put(value, held)
        else:
            seen.put(value.digest, None)
        return held


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
