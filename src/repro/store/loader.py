"""Snapshot loading: verify, restore, and re-seed derived caches.

:func:`load_world` is the cold-start fast path the fleet uses:

1. read and digest-verify the container (:mod:`repro.store.format`),
2. restore the live world objects (:mod:`repro.store.codec`),
3. copy the numeric basis matrix into one private buffer and view it —
   a read-only numpy array from ``VECTOR_MIN`` rows on (when numpy
   imports), a ``memoryview('d')`` flat view otherwise (fleet workers
   are forks of the loading process, so they share that buffer's
   pages copy-on-write like the rest of the world),
4. seed the compiled-KB base tier's memo tables and the process-wide
   shared basis pool, so the first rank of every tenant takes the
   incremental path instead of re-reasoning the world.

:func:`load_or_build` wraps it with the fallback discipline: any
snapshot problem (missing file, version mismatch, digest failure,
malformed section) degrades to the caller's rebuild-from-source
builder — a stale snapshot can cost time, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.dl.vocabulary import ConceptName, RoleName
from repro.dl.parser import parse_concept
from repro.errors import SnapshotError
from repro.perf.backend import resolve_backend
from repro.store.codec import restore_world
from repro.store.format import read_snapshot

__all__ = ["LoadedWorld", "load_world", "load_or_build"]


@dataclass
class LoadedWorld:
    """A restored world and how it came to be.

    Duck-compatible with ``EngineBuilder.world`` /
    ``TenantRegistry(world)``.  ``source`` is ``"snapshot"`` (loaded
    by :func:`load_world`) or ``"rebuild"`` (:func:`load_or_build`
    fell back to its builder).
    """

    space: object
    abox: object
    tbox: object
    user: object
    repository: object
    database: object
    target: object
    data_table: object
    id_column: object
    source: str = "snapshot"
    digest: str | None = None


def _matrix_view(buffer, rows: int, cols: int, nbytes: int):
    """A read-only documents×rules view over ``buffer``: an ndarray from
    ``VECTOR_MIN`` rows on, flat below (the kernel's own size rule)."""
    np = resolve_backend(rows=rows)
    if np is not None:
        matrix = np.frombuffer(buffer, dtype="<f8", count=rows * cols).reshape(
            rows, cols
        )
        matrix.setflags(write=False)
        return "numpy", matrix
    view = memoryview(buffer)[:nbytes]
    return "python", view.cast("d")


def _seed_reasoner(world, sections) -> None:
    """Fill the base tier's memo tables from the reasoner section."""
    import json

    from repro.reason import base_tier

    entry = sections.get("reasoner")
    if entry is None:
        return
    try:
        data = json.loads(bytes(entry[1]).decode("utf-8"))
        session = base_tier(world.abox, world.tbox, world.space)
        for concept_text, expanded_text in data.get("expansions", ()):
            session._expansions[parse_concept(concept_text)] = parse_concept(
                expanded_text
            )
        for name, names in data.get("descendants", ()):
            session._descendants[ConceptName(name)] = tuple(
                ConceptName(n) for n in names
            )
        for role, roles in data.get("role_descendants", ()):
            session._role_descendants[RoleName(role)] = tuple(
                RoleName(r) for r in roles
            )
        # The successor and incoming-edge indexes, reachability maps
        # and sensed-context digest are linear passes over the
        # restored tables; derive them now so the first rank pays none
        # of it (and forked workers inherit the results instead of
        # re-walking the base).
        world.abox.role_adjacency()
        session.role_incoming()
        session.reachability_maps()
        world.abox.context_digest()
    except SnapshotError:
        raise
    except Exception as exc:
        raise SnapshotError(f"reasoner section is malformed: {exc}") from exc


def _seed_basis_pool(world, candidates, basis: dict) -> None:
    """Publish a neutral-context kernel under the engine's basis key.

    The key mirrors ``RankingEngine._basis_key()`` for an overlay
    engine over this base world; the bindings are placeholders (the
    incremental path rebinds the context on first use and only checks
    rule identity), and the empty snapshot equals a fresh tenant's
    overlay, so the reuse guard sees exactly the state the matrix was
    compiled for.
    """
    from repro.core.kernel import ScoringKernel
    from repro.core.problem import RuleBinding
    from repro.engine.backends import RepositoryPreferences
    from repro.engine.basis import POOL_LOCK, ViewBasis, shared_basis_pool
    from repro.events.expr import NEVER

    rules = list(world.repository)
    if [rule.rule_id for rule in rules] != list(basis["rule_ids"]):
        return  # rules and matrix disagree; let the cold path rebuild
    neutral = tuple(RuleBinding(rule, NEVER, 0.0) for rule in rules)
    kernel = ScoringKernel(candidates, neutral, float(basis["rule_threshold"]))
    key = (
        (world.abox, world.abox.mutation_count, world.tbox, world.space),
        world.tbox.revision,
        world.space.revision if world.space is not None else -1,
        RepositoryPreferences(world.repository).fingerprint(),
        str(basis["method"]),
        float(basis["rule_threshold"]),
        bool(basis["prune_documents"]),
        str(world.target),
    )
    with POOL_LOCK:
        shared_basis_pool().put(key, ViewBasis(kernel=kernel, snapshot=frozenset()))


def load_world(
    path: str | Path,
    *,
    seed_caches: bool = True,
) -> LoadedWorld:
    """Load a verified snapshot into a ready-to-serve world.

    Raises :class:`~repro.errors.SnapshotError` on any verification or
    restore failure — use :func:`load_or_build` to degrade to a
    rebuild instead.
    """
    import gc
    import json

    # Restore allocates ~10^6 long-lived objects in one burst; the
    # cyclic collector would re-scan that growing heap dozens of times
    # for nothing (the world graph is acyclic), so pause it.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        meta, sections = read_snapshot(path)
        world = restore_world(meta, sections)
        if seed_caches:
            _seed_reasoner(world, sections)
    finally:
        if gc_was_enabled:
            gc.enable()

    loaded = LoadedWorld(
        space=world.space,
        abox=world.abox,
        tbox=world.tbox,
        user=world.user,
        repository=world.repository,
        database=world.database,
        target=world.target,
        data_table=world.data_table,
        id_column=world.id_column,
        digest=meta.get("_digest"),
    )
    basis_entry = sections.get("basis")
    matrix_entry = sections.get("matrix")
    if basis_entry is not None and matrix_entry is not None:
        try:
            basis = json.loads(bytes(basis_entry[1]).decode("utf-8"))
            rows, cols = int(basis["rows"]), int(basis["cols"])
        except (ValueError, KeyError, TypeError) as exc:
            raise SnapshotError(f"basis section is malformed: {exc}") from exc
        nbytes = rows * cols * 8
        matrix_bytes = matrix_entry[1]
        if len(matrix_bytes) != nbytes:
            raise SnapshotError(
                f"matrix section holds {len(matrix_bytes)} bytes for a "
                f"{rows}x{cols} float64 matrix ({nbytes} expected)"
            )
        # A copy, so the file image can be freed once the load returns.
        backend, matrix = _matrix_view(bytes(matrix_bytes), rows, cols, nbytes)
        from repro.core.kernel import CompiledCandidates

        candidates = CompiledCandidates(
            names=tuple(basis["names"]),
            rule_count=cols,
            backend=backend,
            matrix=matrix,
        )
        if seed_caches and world.repository is not None:
            _seed_basis_pool(loaded, candidates, basis)
    return loaded


def load_or_build(
    path: str | Path | None,
    builder: Callable[[], object],
    *,
    on_fallback: Callable[[str], None] | None = None,
    **load_options,
) -> LoadedWorld:
    """Load ``path`` if possible, else rebuild from source via ``builder``.

    Every snapshot failure mode — missing file, wrong magic or format
    version, digest mismatch, malformed section — lands in the same
    place: ``builder()`` runs and its world is wrapped with
    ``source="rebuild"``.  ``on_fallback`` (if given) receives the
    reason string, so servers can log why they paid a rebuild.
    """
    if path is not None:
        try:
            return load_world(path, **load_options)
        except (SnapshotError, OSError) as exc:
            if on_fallback is not None:
                on_fallback(str(exc))
    world = builder()
    target = getattr(world, "target", None)
    return LoadedWorld(
        space=getattr(world, "space", None),
        abox=world.abox,
        tbox=world.tbox,
        user=getattr(world, "user", None),
        repository=getattr(world, "repository", None),
        database=getattr(world, "database", None),
        target=parse_concept(target) if isinstance(target, str) else target,
        data_table=getattr(world, "data_table", None),
        id_column=getattr(world, "id_column", None),
        source="rebuild",
    )
