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
* per document x rule: the ``P(f)`` matrix, plus a possibility bitmask
  for Section 6 document pruning.

Scoring the whole candidate set is then a single row-wise product —
numpy when importable, the :mod:`repro.perf.flatops` loops otherwise —
and the result stays **columnar**: a :class:`ScoredView` is the
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
* :func:`score_vectors` / :func:`score_documents_batch` — the one
  full-ranking pass for several context-bound kernels over one shared
  matrix: every engine miss on a compiled basis is scored through it
  (alone, or fused with its micro-batch mates).

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
from repro.core.pruning import all_miss_score
from repro.core.scoring import DocumentScore, RuleContribution
from repro.perf.backend import resolve_backend
from repro.perf.columns import VECTOR_MIN, NameTable, ScoreColumn, as_floats
from repro.perf.flatops import batch_row_scores, row_scores

__all__ = [
    "CompiledCandidates",
    "LazyContributions",
    "ScoredView",
    "ScoringKernel",
    "compile_candidates",
    "score_documents_batch",
    "score_values",
    "score_vectors",
]

@dataclass(frozen=True, eq=False)
class CompiledCandidates:
    """The context-independent half of a compiled problem.

    ``matrix`` holds the documents x rules ``P(f)`` probabilities —
    a float64 ndarray on the numpy backend, a row-major ``list`` on the
    fallback.  ``possible_bits[d]`` has bit ``r`` set when document
    ``d``'s preference event for rule ``r`` is not impossible (the
    Section 6 document-pruning test).  This half is what incremental
    rescoring reuses across context changes.
    """

    names: tuple[str, ...]
    rule_count: int
    backend: str
    matrix: object
    possible_bits: tuple[int, ...]

    @property
    def document_count(self) -> int:
        return len(self.names)

    @cached_property
    def bit_vector(self):
        """``possible_bits`` as a uint64 vector, when the backend is
        numpy, the rules fit one word and the set is long enough for a
        vector operation to beat the loop; ``None`` otherwise."""
        np = resolve_backend(self.backend)
        if np is None or self.rule_count > 64 or len(self.names) < VECTOR_MIN:
            return None
        return np.array(self.possible_bits, dtype=np.uint64)

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
    possible_bits = tuple(
        sum(
            1 << index
            for index, event in enumerate(binding.preference_events)
            if not event.is_impossible
        )
        for binding in problem.documents
    )
    if np is not None:
        matrix = np.empty((len(names), rule_count), dtype=np.float64)
        for row, binding in enumerate(problem.documents):
            matrix[row, :] = binding.preference_probabilities
        matrix.setflags(write=False)
        return CompiledCandidates(names, rule_count, "numpy", matrix, possible_bits)
    flat: list[float] = []
    for binding in problem.documents:
        flat.extend(binding.preference_probabilities)
    return CompiledCandidates(names, rule_count, "python", flat, possible_bits)


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
    Immutable, so the engine's incremental path, the batch scheduler,
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
        self._kept_bits = sum(1 << index for index in keep)
        coeffs = []
        for index in keep:
            binding = self.bindings[index]
            p_g = binding.context_probability
            sigma = binding.sigma
            a = (1.0 - p_g) + p_g * (1.0 - sigma)
            b = p_g * (2.0 * sigma - 1.0)
            coeffs.append((index, a, b))
        self._coeffs = tuple(coeffs)
        self._all_miss = all_miss_score([self.bindings[i] for i in keep])
        self._trivial = None  # intp array or list, see _trivial_index
        self._trivial_set: frozenset[int] | None = None
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
    def all_miss(self) -> float:
        """The shared score of documents matching no kept preference."""
        return self._all_miss

    @property
    def coalesce_key(self) -> tuple[tuple[int, float, float], ...]:
        """Value identity of the context binding: the ``(rule, a, b)`` triples.

        Two kernels over the *same* compiled candidate matrix with equal
        coalesce keys produce identical scored views by construction —
        every per-document factor is ``a + b * P(f)`` and ``(a, b)``
        uniquely determine the binding's ``(P(g), sigma)`` pair.  Batch
        schedulers use this to share one scored row between concurrent
        requests even when their view signatures differ (e.g. the same
        context installed for two different tenants)."""
        return self._coeffs

    def _trivial_index(self):
        """The trivial rows as an index (intp array or list), computed
        once — the kernel is immutable."""
        index = self._trivial
        if index is None:
            kept_bits = self._kept_bits
            bit_vector = self.candidates.bit_vector
            if bit_vector is not None:
                np = self._np
                index = np.flatnonzero((bit_vector & np.uint64(kept_bits)) == 0)
            else:
                index = [
                    row
                    for row, bits in enumerate(self.candidates.possible_bits)
                    if bits & kept_bits == 0
                ]
            self._trivial = index
        return index

    def trivial_rows(self) -> list[int]:
        """Rows whose preference events all miss every kept rule."""
        return as_floats(self._trivial_index())

    def trivial_row_set(self) -> frozenset[int]:
        """:meth:`trivial_rows` as a set (memoised like the index)."""
        rows = self._trivial_set
        if rows is None:
            rows = self._trivial_set = frozenset(self.trivial_rows())
        return rows

    # -- batch scoring -----------------------------------------------------
    def score_vector(self, prune_documents: bool = True):
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
        else:
            values = row_scores(
                self.candidates.matrix,
                self.document_count,
                self.candidates.rule_count,
                self._coeffs,
            )
        return self._share_all_miss(values, prune_documents)

    def _share_all_miss(self, values, prune_documents: bool):
        """Overwrite trivial rows with the shared all-miss score and
        seal the vector (Section 6 document pruning)."""
        if prune_documents:
            trivial = self._trivial_index()
            if self._np is not None:
                values[trivial] = self._all_miss
            else:
                shared = self._all_miss
                for row in trivial:
                    values[row] = shared
        if self._np is None:
            return tuple(values)
        values.setflags(write=False)
        return values

    def scores(self, prune_documents: bool = True) -> list[float]:
        """Every document's eq.(4) score, in candidate order."""
        return as_floats(self.score_vector(prune_documents))

    def score_documents(
        self, prune_documents: bool = True, method: str = "factorised"
    ) -> ScoredView:
        """The scored candidate set as one columnar :class:`ScoredView`."""
        return ScoredView(
            self, self.score_vector(prune_documents), prune_documents, method
        )

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


# -- cross-request batching ------------------------------------------------
#
# Many concurrent requests routinely share one compiled candidate
# matrix (the SharedBasisPool hands the same ``CompiledCandidates`` to
# every tenant over a frozen base world) while differing only in their
# per-request factor coefficients.  The batch entry points below score
# N such "batch mates" in one fused pass over the shared matrix: numpy
# stacks the coefficient vectors into (batch x rules) arrays and walks
# the matrix columns once; the python fallback walks each matrix row
# once and advances every mate's factor chain against it.
#
# Identity guarantee: a mate's multiplication chain visits exactly its
# own kept rules in index order — the same order the sequential path
# uses — and rules a mate dropped contribute the exact factor 1.0, so
# batched scores match ``ScoringKernel.scores()`` to within a few ulps
# (bit-identical on the python backend).


def _shared_candidates(kernels: Sequence[ScoringKernel]) -> CompiledCandidates:
    if not kernels:
        raise ScoringError("batched scoring needs at least one kernel")
    candidates = kernels[0].candidates
    for kernel in kernels[1:]:
        if kernel.candidates is not candidates:
            raise ScoringError(
                "batched kernels must share one compiled candidate matrix; "
                "group by basis identity before batching"
            )
    return candidates


def _union_coefficients(kernels: Sequence[ScoringKernel], np):
    """Full-width ``(batch, union-rules)`` coefficient arrays.

    The union holds every rule kept by at least one mate; a mate that
    dropped a union rule gets ``a=1, b=0`` there, multiplying its
    running product by exactly 1.0.
    """
    union = sorted({index for kernel in kernels for index in kernel._keep})
    position = {rule: j for j, rule in enumerate(union)}
    a = np.ones((len(kernels), len(union)), dtype=np.float64)
    b = np.zeros((len(kernels), len(union)), dtype=np.float64)
    for row, kernel in enumerate(kernels):
        for index, a_value, b_value in kernel._coeffs:
            a[row, position[index]] = a_value
            b[row, position[index]] = b_value
    return union, a, b


def score_vectors(kernels: Sequence[ScoringKernel], prune_documents: bool = True) -> list:
    """Every mate's score vector, one fused pass over the shared matrix.

    All ``kernels`` must share one :class:`CompiledCandidates` (by
    identity — group by basis before batching); each vector is in
    candidate order, immutable, and matches that kernel's sequential
    :meth:`ScoringKernel.score_vector` to well under 1e-9.
    """
    candidates = _shared_candidates(kernels)
    if len(kernels) == 1:
        return [kernels[0].score_vector(prune_documents)]
    deadline = _active_deadline()
    if deadline is not None:
        deadline.check()
    np = kernels[0]._np
    if np is not None:
        matrix = candidates.matrix
        union, a, b = _union_coefficients(kernels, np)
        values = np.ones((len(kernels), candidates.document_count), dtype=np.float64)
        for j, rule in enumerate(union):
            column = matrix[:, rule]
            values *= a[:, j, None] + b[:, j, None] * column[None, :]
        np.clip(values, 0.0, 1.0, out=values)
        results = list(values)
    else:
        results = batch_row_scores(
            candidates.matrix,
            candidates.document_count,
            candidates.rule_count,
            [kernel._coeffs for kernel in kernels],
        )
    return [
        kernel._share_all_miss(row_values, prune_documents)
        for kernel, row_values in zip(kernels, results)
    ]


def score_documents_batch(
    kernels: Sequence[ScoringKernel],
    prune_documents: bool = True,
    method: str = "factorised",
) -> list[ScoredView]:
    """:meth:`ScoringKernel.score_documents` for a whole batch at once."""
    return [
        ScoredView(kernel, values, prune_documents, method)
        for kernel, values in zip(kernels, score_vectors(kernels, prune_documents))
    ]
