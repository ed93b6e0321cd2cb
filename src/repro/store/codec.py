"""World ↔ snapshot-section codec.

:func:`snapshot_world` flattens a (frozen or freezable) base world into
the container sections of :mod:`repro.store.format`;
:func:`restore_world` rebuilds equivalent live objects.  Event
expressions ride on the s-expression codec
(:func:`repro.events.serialize.dump_lines` /
:func:`~repro.events.serialize.load_lines`), concepts and rules on
their existing text forms (``parse_concept`` round-trips ``str()``,
``parse_rules`` round-trips ``render_rules``), so no section invents a
second serialisation for anything the library already renders.

Sections (all optional except ``space``/``tbox``/``abox``):

* ``space`` (json) — registered events, mutex groups, fresh counter;
* ``tbox`` (json) — subsumption/role-subsumption edges, definitions,
  disjointness axioms;
* ``abox`` (json) + ``abox_events`` (text) — pre-merged assertion rows
  referencing a deduplicated event-expression line table;
* ``rules`` (text) — the rule repository in DSL form;
* ``database`` (json) + ``database_events`` (text) — every base table
  of the world's relational mirror (views are derived and rebuilt by
  their creators, not persisted);
* ``reasoner`` (json) — the compiled-KB base tier's concept expansions
  and name/role closure tables (the successor index is a linear pass
  over the restored role tables and is re-derived at load);
* ``basis`` (json) + ``matrix`` (f64) — the scoring kernel's
  documents×rules ``P(f)`` matrix over the sorted target members,
  with the candidate names, rule ids and possibility bitmask needed to
  re-seed the shared basis pool.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

from repro.core.kernel import compile_candidates
from repro.core.problem import RuleBinding, ScoringProblem, bind_documents
from repro.dl.abox import ABox, ConceptAssertion, RoleAssertion
from repro.dl.parser import parse_concept
from repro.dl.vocabulary import ConceptName, Individual, RoleName
from repro.errors import ReproError, SnapshotError
from repro.events.expr import NEVER
from repro.events.serialize import dump_lines, dumps as dump_event, load_lines
from repro.events.space import EventSpace
from repro.dl.tbox import TBox
from repro.reason import compiled_kb
from repro.rules.dsl import parse_rules, render_rules
from repro.storage.database import Database
from repro.storage.schema import Column, ColumnType, Schema
from repro.storage.table import Table
from repro.store.format import write_snapshot

__all__ = ["snapshot_world", "restore_world", "write_world_snapshot"]


class _EventTable:
    """Deduplicating event-expression line table (index per expression)."""

    def __init__(self) -> None:
        self._lines: list = []
        self._index: dict = {}

    def add(self, event) -> int:
        position = self._index.get(event)
        if position is None:
            position = len(self._lines)
            self._index[event] = position
            self._lines.append(event)
        return position

    def dump(self) -> bytes:
        return dump_lines(self._lines).encode("utf-8")


def _json_bytes(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _space_section(space: EventSpace | None) -> dict:
    if space is None:
        return {"present": False}
    return {
        "present": True,
        "name": space.name,
        "events": sorted(
            (event.name, event.probability) for event in space
        ),
        "groups": sorted(
            (group.name, list(group.member_names)) for group in space.groups
        ),
    }


def _tbox_section(tbox: TBox) -> dict:
    return {
        "subsumptions": sorted(
            (sub.name, sup.name)
            for sub, supers in tbox._supers.items()
            for sup in supers
        ),
        "role_subsumptions": sorted(
            (sub.name, sup.name)
            for sub, supers in tbox._role_supers.items()
            for sup in supers
        ),
        "definitions": sorted(
            (name.name, str(concept)) for name, concept in tbox._definitions.items()
        ),
        "disjointness": sorted(
            sorted(name.name for name in axiom.names) for axiom in tbox._disjointness
        ),
    }


def _abox_section(abox: ABox, events: _EventTable) -> dict:
    concepts = []
    for assertion in abox.concept_assertions():
        concepts.append(
            [
                assertion.concept.name,
                assertion.individual.name,
                events.add(assertion.event),
                assertion.dynamic,
            ]
        )
    roles = []
    for assertion in abox.role_assertions():
        roles.append(
            [
                assertion.role.name,
                assertion.source.name,
                assertion.target.name,
                events.add(assertion.event),
                assertion.dynamic,
            ]
        )
    concepts.sort(key=lambda row: (row[0], row[1]))
    roles.sort(key=lambda row: (row[0], row[1], row[2]))
    return {
        "individuals": sorted(ind.name for ind in abox.individuals),
        "concepts": concepts,
        "roles": roles,
    }


def _database_section(database: Database, events: _EventTable) -> dict:
    from repro.events.expr import EventExpr

    tables = []
    for name in database.table_names:
        table = database.table(name)
        columns = [[column.name, column.type.value] for column in table.schema]
        rows = []
        for row in table:
            encoded = []
            for value in row:
                if isinstance(value, EventExpr):
                    encoded.append({"$e": events.add(value)})
                else:
                    encoded.append(value)
            rows.append(encoded)
        tables.append({"name": name, "columns": columns, "rows": rows})
    return {"name": database.name, "tables": tables}


def _reasoner_section(abox: ABox, tbox: TBox, space, target) -> dict:
    """Materialise the base tier's expansion/closure tables for the target.

    Runs the retrieval the serving cold path would run, then exports
    the memo tables the session filled — exactly the reasoning a loaded
    process no longer has to repeat.
    """
    kb = compiled_kb(abox, tbox, space)
    session = kb.session()
    session.retrieve(target)
    return {
        "expansions": sorted(
            (str(concept), str(expanded))
            for concept, expanded in session._expansions.items()
        ),
        "descendants": sorted(
            (name.name, [n.name for n in names])
            for name, names in session._descendants.items()
        ),
        "role_descendants": sorted(
            (role.name, [r.name for r in roles])
            for role, roles in session._role_descendants.items()
        ),
    }


def _basis_sections(
    abox: ABox,
    tbox: TBox,
    space,
    target,
    repository,
    *,
    method: str,
    rule_threshold: float,
    prune_documents: bool,
) -> tuple[dict, bytes]:
    """The compiled documents×rules matrix over the sorted target members."""
    kb = compiled_kb(abox, tbox, space)
    members = kb.retrieve(target)
    names = sorted(individual.name for individual in members)
    rules = list(repository)
    documents = bind_documents(abox, tbox, rules, names, space, kb=kb)
    neutral = tuple(RuleBinding(rule, NEVER, 0.0) for rule in rules)
    problem = ScoringProblem(bindings=neutral, documents=documents, space=space)
    candidates = compile_candidates(problem)
    if candidates.backend == "numpy":
        matrix_bytes = candidates.matrix.astype("<f8", copy=False).tobytes(order="C")
    else:
        import array

        flat = array.array("d", candidates.matrix)
        import sys

        if sys.byteorder != "little":  # pragma: no cover - big-endian host
            flat.byteswap()
        matrix_bytes = flat.tobytes()
    basis = {
        "names": list(candidates.names),
        "rule_ids": [rule.rule_id for rule in rules],
        "possible_bits": list(candidates.possible_bits),
        "rows": candidates.document_count,
        "cols": candidates.rule_count,
        "method": method,
        "rule_threshold": rule_threshold,
        "prune_documents": prune_documents,
    }
    return basis, matrix_bytes


def snapshot_world(
    world,
    *,
    method: str = "factorised",
    rule_threshold: float = 0.0,
    prune_documents: bool = True,
    include_database: bool = True,
    include_basis: bool = True,
) -> tuple[list[tuple[str, str, bytes]], dict]:
    """Flatten ``world`` into ``(sections, meta)`` for :func:`write_snapshot`.

    ``world`` is duck-typed like ``EngineBuilder.world``: ``abox``,
    ``tbox`` and ``target`` are required; ``space``, ``user``,
    ``repository``, ``database``/``data_table``/``id_column`` are
    serialised when present.  The basis matrix is only emitted when the
    world carries a repository (per-session rule sets have no shared
    matrix to precompile).
    """
    abox = world.abox
    tbox = world.tbox
    space = getattr(world, "space", None)
    target = getattr(world, "target", None)
    if target is None:
        raise SnapshotError("world has no target concept; nothing to precompile")
    target = parse_concept(target) if isinstance(target, str) else target
    repository = getattr(world, "repository", None)
    user = getattr(world, "user", None)
    database = getattr(world, "database", None)

    abox_events = _EventTable()
    abox_json = _abox_section(abox, abox_events)

    sections: list[tuple[str, str, bytes]] = [
        ("space", "json", _json_bytes(_space_section(space))),
        ("tbox", "json", _json_bytes(_tbox_section(tbox))),
        ("abox", "json", _json_bytes(abox_json)),
        ("abox_events", "text", abox_events.dump()),
    ]
    if repository is not None:
        sections.append(("rules", "text", render_rules(repository).encode("utf-8")))
    if database is not None and include_database:
        database_events = _EventTable()
        sections.append(
            ("database", "json", _json_bytes(_database_section(database, database_events)))
        )
        sections.append(("database_events", "text", database_events.dump()))
    sections.append(
        ("reasoner", "json", _json_bytes(_reasoner_section(abox, tbox, space, target)))
    )
    if repository is not None and include_basis:
        basis, matrix_bytes = _basis_sections(
            abox,
            tbox,
            space,
            target,
            repository,
            method=method,
            rule_threshold=rule_threshold,
            prune_documents=prune_documents,
        )
        sections.append(("basis", "json", _json_bytes(basis)))
        sections.append(("matrix", "f64", matrix_bytes))

    meta = {
        "target": str(target),
        "user": user.name if isinstance(user, Individual) else user,
        "data_table": getattr(world, "data_table", None),
        "id_column": getattr(world, "id_column", None),
        "individuals": len(abox.individuals),
        "assertions": len(abox),
    }
    return sections, meta


def write_world_snapshot(path: str | Path, world, **options) -> str:
    """Snapshot ``world`` straight to ``path``; returns the hex digest."""
    sections, meta = snapshot_world(world, **options)
    return write_snapshot(path, sections, meta)


# -- restore ------------------------------------------------------------


def _decode_json(sections, name: str) -> dict | None:
    entry = sections.get(name)
    if entry is None:
        return None
    kind, payload = entry
    if kind != "json":
        raise SnapshotError(f"section {name!r} has kind {kind!r}, expected json")
    try:
        return json.loads(bytes(payload).decode("utf-8"))
    except ValueError as exc:
        raise SnapshotError(f"section {name!r} is malformed: {exc}") from exc


def _decode_events(sections, name: str) -> list:
    entry = sections.get(name)
    if entry is None:
        return []
    kind, payload = entry
    if kind != "text":
        raise SnapshotError(f"section {name!r} has kind {kind!r}, expected text")
    try:
        return load_lines(bytes(payload).decode("utf-8"))
    except ReproError as exc:
        raise SnapshotError(f"section {name!r} is malformed: {exc}") from exc


def _restore_space(data: dict) -> EventSpace | None:
    if not data.get("present"):
        return None
    space = EventSpace(data.get("name", "events"))
    for name, probability in data["events"]:
        space.event(name, probability)
    for group_name, members in data["groups"]:
        space.declare_mutex(group_name, members)
    return space


def _restore_tbox(data: dict) -> TBox:
    tbox = TBox()
    for sub, sup in data["subsumptions"]:
        tbox.add_subsumption(sub, sup)
    for sub, sup in data["role_subsumptions"]:
        tbox.add_role_subsumption(sub, sup)
    for name, concept_text in data["definitions"]:
        tbox.define(name, parse_concept(concept_text))
    for names in data["disjointness"]:
        tbox.declare_disjoint(names)
    return tbox


def _restore_abox(data: dict, events: list) -> ABox:
    abox = ABox()
    try:
        concept_rows = data["concepts"]
        role_rows = data["roles"]
        # One validated name object per distinct string, built up front:
        # rows repeat the same few thousand vocabulary names across
        # ~10^5 assertions, so the listcomps below index plain dicts
        # instead of constructing (and regex-validating) per row, and
        # the restored tables share interned, hash-cached keys.
        individual_of = {
            name: Individual(name) for name in data.get("individuals", ())
        }
        for name in {row[1] for row in concept_rows}:
            if name not in individual_of:
                individual_of[name] = Individual(name)
        for row in role_rows:
            for name in (row[1], row[2]):
                if name not in individual_of:
                    individual_of[name] = Individual(name)
        concept_of = {
            name: ConceptName(name) for name in {row[0] for row in concept_rows}
        }
        role_of = {name: RoleName(name) for name in {row[0] for row in role_rows}}
        concepts = [
            ConceptAssertion(
                concept_of[concept], individual_of[individual], events[index], bool(dynamic)
            )
            for concept, individual, index, dynamic in concept_rows
        ]
        roles = [
            RoleAssertion(
                role_of[role],
                individual_of[source],
                individual_of[target],
                events[index],
                bool(dynamic),
            )
            for role, source, target, index, dynamic in role_rows
        ]
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"abox section is malformed: {exc}") from exc
    # ``individual_of`` was grown to cover every name in the rows, so
    # adopt can skip its per-row domain registration.
    abox.adopt(concepts, roles, individual_of.values(), individuals_complete=True)
    return abox.freeze()


def _restore_database(data: dict, events: list) -> Database:
    database = Database(data.get("name", "db"))
    for spec in data["tables"]:
        schema = Schema(
            [Column(name, ColumnType(type_value)) for name, type_value in spec["columns"]]
        )
        table = Table(spec["name"], schema)
        # Event references only ever live in EVENT columns, so decode
        # by position instead of isinstance-probing every cell.
        event_positions = [
            position
            for position, column in enumerate(schema)
            if column.type is ColumnType.EVENT
        ]
        if event_positions:
            rows = []
            for encoded in spec["rows"]:
                for position in event_positions:
                    value = encoded[position]
                    if isinstance(value, dict):
                        encoded[position] = events[value["$e"]]
                rows.append(tuple(encoded))
        else:
            rows = [tuple(encoded) for encoded in spec["rows"]]
        # Snapshot rows come from a live table, so they are already
        # validated and event-merged: restore them directly and rebuild
        # the merge index in one pass instead of re-running the
        # per-insert validation and disjunction probes.
        table._rows = rows
        if table._merge_index is not None:
            p = schema.index_of("event")
            table._merge_index = {
                row[:p] + row[p + 1 :]: row_index
                for row_index, row in enumerate(rows)
            }
        database.add_table(table)
    return database


def restore_world(meta: dict, sections: dict) -> SimpleNamespace:
    """Rebuild live world objects from decoded snapshot sections.

    Returns a world namespace (``abox`` frozen) compatible with
    ``EngineBuilder.world`` and ``TenantRegistry``; derived-cache
    seeding (reasoner memos, basis matrix, basis pool) is the loader's
    job (:func:`repro.store.loader.load_world`), not the codec's.
    """
    space_data = _decode_json(sections, "space")
    tbox_data = _decode_json(sections, "tbox")
    abox_data = _decode_json(sections, "abox")
    if space_data is None or tbox_data is None or abox_data is None:
        raise SnapshotError("snapshot is missing a required section (space/tbox/abox)")
    try:
        space = _restore_space(space_data)
        tbox = _restore_tbox(tbox_data)
        abox = _restore_abox(abox_data, _decode_events(sections, "abox_events"))
    except SnapshotError:
        raise
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"cannot restore world from snapshot: {exc}") from exc

    repository = None
    rules_entry = sections.get("rules")
    if rules_entry is not None:
        try:
            repository = parse_rules(bytes(rules_entry[1]).decode("utf-8"))
        except ReproError as exc:
            raise SnapshotError(f"rules section is malformed: {exc}") from exc

    database = None
    database_data = _decode_json(sections, "database")
    if database_data is not None:
        try:
            database = _restore_database(
                database_data, _decode_events(sections, "database_events")
            )
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"database section is malformed: {exc}") from exc

    target_text = meta.get("target")
    if not target_text:
        raise SnapshotError("snapshot meta carries no target concept")
    user_name = meta.get("user")
    return SimpleNamespace(
        space=space,
        abox=abox,
        tbox=tbox,
        user=Individual(user_name) if user_name else None,
        repository=repository,
        database=database,
        target=parse_concept(target_text),
        data_table=meta.get("data_table"),
        id_column=meta.get("id_column"),
    )


def dump_event_text(event) -> str:
    """Convenience re-export used by the journal (one event, one line)."""
    return dump_event(event)
