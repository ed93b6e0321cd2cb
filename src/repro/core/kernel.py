"""The compiled batch-scoring kernel: one-pass vectorised ranking.

Section 6 names scoring cost as the deployment bottleneck; the
per-document path (:func:`repro.core.scoring.score_document`) re-walks
dataclasses and rebuilds per-rule breakdowns for every candidate.  The
kernel compiles a bound :class:`~repro.core.problem.ScoringProblem`
once into flat numeric arrays:

* per rule: ``sigma`` and the context probability ``P(g)``, folded into
  the factor coefficients ``a = (1-P(g)) + P(g)(1-sigma)`` and
  ``b = P(g)(2 sigma - 1)`` (each rule's eq.(4) factor is ``a + b P(f)``,
  linear in the document's preference probability);
* per document x rule: the ``P(f)`` matrix.

Scoring the whole candidate set is then a single row-wise product —
numpy when importable, the :mod:`repro.perf.flatops` loops otherwise —
with no Section 6 pruning branch: a document whose ``P(f)`` is 0 under
every kept rule gets ``prod a`` from the product itself, bit for bit
the shared :func:`~repro.core.pruning.all_miss_score`.  The result
stays **columnar**: a :class:`ScoredView` is the
candidates' name tuple (shared by reference) beside one float vector.
It reads as a ``Mapping[str, DocumentScore]``, but a
:class:`~repro.core.scoring.DocumentScore` — and its per-rule
:class:`~repro.core.scoring.RuleContribution` breakdown — only exists
once someone indexes the view, as explanations, SQL and tests do; the
rank path orders and renders the vector without ever doing so.

On top of the compiled form:

* :meth:`ScoringKernel.with_context` — incremental rescoring: when only
  the context changed, rebuild the per-rule coefficient vectors on the
  *same* compiled ``P(f)`` matrix instead of re-binding every
  document (wired into the engine through
  :mod:`repro.engine.basis`);
* :meth:`ScoringKernel.score_vector` — the one full-ranking pass of
  a context-bound kernel over its shared matrix: every engine miss on
  a compiled basis is scored through it, one kernel at a time.

The three reference scorers in :mod:`repro.core.scoring` remain the
correctness oracle; kernel-vs-reference agreement is property-tested.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Optional, Sequence

from repro.errors import ScoringError
from repro.core.problem import RuleBinding, ScoringProblem, _active_deadline
from repro.core.scoring import DocumentScore, RuleContribution
from repro.perf.backend import resolve_backend
from repro.perf.columns import NameTable, ScoreColumn, as_floats
from repro.perf.flatops import row_scores

__all__ = [
    "CompiledCandidates",
    "LazyContributions",
    "ScoredView",
    "ScoringKernel",
    "compile_candidates",
    "score_values",
]

@dataclass(frozen=True, eq=False)
class CompiledCandidates:
    """The context-independent half of a compiled problem.

    ``matrix`` holds the documents x rules ``P(f)`` probabilities —
    a float64 ndarray on the numpy backend, a row-major ``list`` on the
    fallback.  This half is what incremental rescoring reuses across
    context changes.
    """

    names: tuple[str, ...]
    rule_count: int
    backend: str
    matrix: object

    @property
    def document_count(self) -> int:
        return len(self.names)

    @cached_property
    def table(self) -> NameTable:
        """Name lookup/order/JSON tables, shared by every view over
        these candidates and built lazily (never at compile or boot)."""
        return NameTable(self.names, resolve_backend(self.backend))


def compile_candidates(
    problem: ScoringProblem, backend: Optional[str] = None
) -> CompiledCandidates:
    """Flatten a bound problem's documents into the kernel's arrays.

    Without an explicit ``backend`` (or ``REPRO_KERNEL_BACKEND``) the
    set's length picks it: flat lists under ``VECTOR_MIN`` rows, numpy
    from there on."""
    np = resolve_backend(backend, rows=len(problem.documents))
    names = tuple(binding.document.name for binding in problem.documents)
    rule_count = problem.rule_count
    if np is not None:
        matrix = np.empty((len(names), rule_count), dtype=np.float64)
        for row, binding in enumerate(problem.documents):
            matrix[row, :] = binding.preference_probabilities
        matrix.setflags(write=False)
        return CompiledCandidates(names, rule_count, "numpy", matrix)
    flat: list[float] = []
    for binding in problem.documents:
        flat.extend(binding.preference_probabilities)
    return CompiledCandidates(names, rule_count, "python", flat)


class LazyContributions(abc.Sequence):
    """A document's per-rule breakdown, materialised on first access.

    Behaves like the tuple of :class:`RuleContribution` the reference
    :func:`~repro.core.scoring.score_document` builds eagerly, but the
    tuple only exists once an explanation (or a test) reads it — the
    batch-scoring hot path never pays for it.
    """

    __slots__ = ("_kernel", "_row", "_items")

    def __init__(self, kernel: "ScoringKernel", row: int):
        self._kernel = kernel
        self._row = row
        self._items: tuple[RuleContribution, ...] | None = None

    def _tuple(self) -> tuple[RuleContribution, ...]:
        if self._items is None:
            self._items = self._kernel.contributions_for(self._row)
        return self._items

    def __len__(self) -> int:
        return len(self._kernel.kept_rules)

    def __getitem__(self, index):
        return self._tuple()[index]

    def __iter__(self) -> Iterator[RuleContribution]:
        return iter(self._tuple())

    def __bool__(self) -> bool:
        return bool(self._kernel.kept_rules)

    def __eq__(self, other) -> bool:
        if isinstance(other, LazyContributions):
            return self._tuple() == other._tuple()
        if isinstance(other, (tuple, list)):
            return self._tuple() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        if self._items is None:
            return f"LazyContributions(<{len(self)} rules, unmaterialised>)"
        return repr(self._items)


class ScoredView(abc.Mapping):
    """One scored candidate set, held as columns: names beside a float vector.

    ``table`` is the candidates' shared :class:`~repro.perf.columns.NameTable`
    (the ``names`` tuple is the compiled candidates' own, by reference);
    ``vector`` is the eq.(4) score vector in row order — a read-only
    float64 ndarray on the numpy backend, a tuple of floats otherwise
    (named so because ``values()`` is the mapping's).
    Immutable, so the engine's incremental path, the scored-view memo,
    :class:`~repro.core.preference_view.PreferenceView` and the view
    cache all hold this one object: no per-holder copy, 8 bytes per
    document instead of a :class:`DocumentScore` plus a
    :class:`LazyContributions` each.

    Still a read-only ``Mapping[str, DocumentScore]``: indexing builds
    the document's :class:`DocumentScore` (breakdown lazy, as before)
    on the spot, and equality, iteration and ``len`` are the mapping's.
    """

    __slots__ = ("table", "vector", "kernel", "prune_documents", "method")

    def __init__(
        self,
        kernel: "ScoringKernel",
        vector,
        prune_documents: bool = True,
        method: str = "factorised",
    ):
        self.table = kernel.candidates.table
        self.vector = vector
        self.kernel = kernel
        self.prune_documents = prune_documents
        self.method = method

    @property
    def names(self) -> tuple[str, ...]:
        return self.table.names

    def column(self) -> ScoreColumn:
        """The view as ``{name: score}`` over the same columns (no copy)."""
        return ScoreColumn(self.table, self.vector)

    def __getitem__(self, name: str) -> DocumentScore:
        row = self.table.rows[name]
        kernel = self.kernel
        if self.prune_documents and row in kernel.trivial_row_set():
            contributions: Sequence[RuleContribution] = ()
        else:
            contributions = LazyContributions(kernel, row)
        return DocumentScore(name, float(self.vector[row]), contributions, self.method)

    def __contains__(self, name: object) -> bool:
        return name in self.table.rows

    def __iter__(self) -> Iterator[str]:
        return iter(self.table.names)

    def __len__(self) -> int:
        return len(self.table.names)

    def __reduce__(self):
        # The kernel (a numpy module handle) does not pickle; the
        # mapping it presents does.
        scores = {
            name: DocumentScore(
                name, score.value, tuple(score.contributions), score.method
            )
            for name, score in self.items()
        }
        return (dict, (scores,))

    def __repr__(self) -> str:
        return f"ScoredView(<{len(self)} documents, method={self.method!r}>)"


def score_values(view: Mapping[str, DocumentScore]) -> dict[str, float]:
    """Any scored view as plain ``{document: score}``.

    Read off the columns when the view has them — no
    :class:`DocumentScore` is built."""
    if isinstance(view, ScoredView):
        return dict(zip(view.names, as_floats(view.vector)))
    return {name: score.value for name, score in view.items()}


class ScoringKernel:
    """A compiled scoring problem, ready for one-pass batch evaluation.

    Immutable: the candidate matrix and the per-rule coefficient
    vectors are fixed at construction, so cached
    :class:`DocumentScore` objects may lazily read contributions from
    the kernel at any later time.  A context change produces a *new*
    kernel via :meth:`with_context`, sharing the compiled matrix.
    """

    def __init__(
        self,
        candidates: CompiledCandidates,
        bindings: Sequence[RuleBinding],
        rule_threshold: float = 0.0,
    ):
        if len(bindings) != candidates.rule_count:
            raise ScoringError(
                f"kernel compiled for {candidates.rule_count} rules, "
                f"got {len(bindings)} context bindings"
            )
        self.candidates = candidates
        self.bindings = tuple(bindings)
        self.rule_threshold = rule_threshold
        self._np = resolve_backend(candidates.backend)

        keep = [
            index
            for index, binding in enumerate(self.bindings)
            if binding.context_probability > rule_threshold
        ]
        self._keep = tuple(keep)
        coeffs = []
        for index in keep:
            binding = self.bindings[index]
            p_g = binding.context_probability
            sigma = binding.sigma
            a = (1.0 - p_g) + p_g * (1.0 - sigma)
            b = p_g * (2.0 * sigma - 1.0)
            coeffs.append((index, a, b))
        self._coeffs = tuple(coeffs)
        self._trivial: frozenset[int] | None = None
        if self._np is not None:
            np = self._np
            self._keep_idx = np.array(keep, dtype=np.intp)
            self._a = np.array([a for _i, a, _b in coeffs], dtype=np.float64)
            self._b = np.array([b for _i, _a, b in coeffs], dtype=np.float64)

    # -- construction ------------------------------------------------------
    @classmethod
    def compile(
        cls,
        problem: ScoringProblem,
        rule_threshold: float = 0.0,
        backend: Optional[str] = None,
    ) -> "ScoringKernel":
        """Compile a bound problem (threshold pruning applied as a mask)."""
        return cls(compile_candidates(problem, backend), problem.bindings, rule_threshold)

    def with_context(self, bindings: Sequence[RuleBinding]) -> "ScoringKernel":
        """The incremental path: same ``P(f)`` matrix, fresh context.

        ``bindings`` must carry the same rules in the same order (the
        engine guarantees this through its rule fingerprint).
        """
        if len(bindings) != len(self.bindings):
            raise ScoringError(
                f"context rebind changed the rule count "
                f"({len(self.bindings)} -> {len(bindings)})"
            )
        for old, new in zip(self.bindings, bindings):
            if old.rule.rule_id != new.rule.rule_id:
                raise ScoringError(
                    f"context rebind changed the rule set "
                    f"({old.rule.rule_id!r} -> {new.rule.rule_id!r})"
                )
        return ScoringKernel(self.candidates, bindings, self.rule_threshold)

    # -- introspection -----------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        return self.candidates.names

    @property
    def document_count(self) -> int:
        return self.candidates.document_count

    @property
    def backend(self) -> str:
        return self.candidates.backend

    @property
    def kept_rules(self) -> tuple[int, ...]:
        """Indices of rules surviving the context-probability threshold."""
        return self._keep

    @property
    def dropped_rule_count(self) -> int:
        return len(self.bindings) - len(self._keep)

    @property
    def coalesce_key(self) -> tuple[tuple[int, float, float], ...]:
        """Value identity of the context binding: the ``(rule, a, b)`` triples.

        Two kernels over the *same* compiled candidate matrix with equal
        coalesce keys produce identical scored views by construction —
        every per-document factor is ``a + b * P(f)`` and ``(a, b)``
        uniquely determine the binding's ``(P(g), sigma)`` pair.  The
        engine's scored-view memo keys on it to share one scored view
        between requests whose view signatures differ (e.g. the same
        context installed for two different tenants)."""
        return self._coeffs

    def trivial_row_set(self) -> frozenset[int]:
        """Rows whose ``P(f)`` is 0 under every kept rule: the Section 6
        trivial documents.  Read off the matrix on first use (the kernel
        is immutable); the pass never reads it, because the product
        already gives these rows the shared all-miss score."""
        rows = self._trivial
        if rows is None:
            matrix = self.candidates.matrix
            if self._np is not None:
                hits = matrix[:, self._keep_idx].any(axis=1)
                rows = frozenset(self._np.flatnonzero(~hits).tolist())
            else:
                width = self.candidates.rule_count
                rows = frozenset(
                    row
                    for row in range(self.document_count)
                    if not any(matrix[row * width + column] for column in self._keep)
                )
            self._trivial = rows
        return rows

    def trivial_rows(self) -> list[int]:
        """:meth:`trivial_row_set` in row order."""
        return sorted(self.trivial_row_set())

    # -- batch scoring -----------------------------------------------------
    def score_vector(self):
        """Every document's eq.(4) score, in candidate order, as the
        backend's immutable vector: a read-only float64 ndarray under
        numpy, a tuple of floats on the fallback."""
        deadline = _active_deadline()
        if deadline is not None:
            deadline.check()
        if self._np is not None:
            np = self._np
            sub = self.candidates.matrix[:, self._keep_idx]
            factors = self._a + self._b * sub
            values = factors.prod(axis=1)
            np.clip(values, 0.0, 1.0, out=values)
            values.setflags(write=False)
            return values
        return tuple(
            row_scores(
                self.candidates.matrix,
                self.document_count,
                self.candidates.rule_count,
                self._coeffs,
            )
        )

    def scores(self) -> list[float]:
        """Every document's eq.(4) score, in candidate order."""
        return as_floats(self.score_vector())

    def score_documents(
        self, prune_documents: bool = True, method: str = "factorised"
    ) -> ScoredView:
        """The scored candidate set as one columnar :class:`ScoredView`."""
        return ScoredView(self, self.score_vector(), prune_documents, method)

    def contributions_for(self, row: int) -> tuple[RuleContribution, ...]:
        """Materialise one document's per-rule breakdown (kept rules)."""
        matrix = self.candidates.matrix
        if self._np is not None:
            row_values = matrix[row]
        else:
            base = row * self.candidates.rule_count
            row_values = matrix[base : base + self.candidates.rule_count]
        contributions = []
        for index in self._keep:
            binding = self.bindings[index]
            p_f = float(row_values[index])
            p_g = binding.context_probability
            sigma = binding.sigma
            inner = p_f * sigma + (1.0 - p_f) * (1.0 - sigma)
            contributions.append(
                RuleContribution(
                    rule_id=binding.rule.rule_id,
                    sigma=sigma,
                    context_probability=p_g,
                    preference_probability=p_f,
                    factor=(1.0 - p_g) + p_g * inner,
                )
            )
        return tuple(contributions)

    def __repr__(self) -> str:
        return (
            f"ScoringKernel({self.document_count} documents x "
            f"{len(self.bindings)} rules, kept={len(self._keep)}, "
            f"backend={self.backend!r})"
        )

