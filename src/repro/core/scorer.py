"""The context-aware scorer: the library's main entry point.

Wraps problem binding, pruning and the scoring methods into one object
that answers "what is ``P(D=d | U=u_sit)`` for these candidates, right
now?" — recomputing as the context develops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import ScoringError
from repro.events.space import EventSpace
from repro.dl.abox import ABox
from repro.dl.concepts import Concept
from repro.dl.tbox import TBox
from repro.dl.vocabulary import Individual
from repro.reason import CompiledKB, compiled_kb
from repro.rules.repository import RuleRepository
from repro.core.kernel import ScoredView, ScoringKernel
from repro.core.problem import ScoringProblem, bind_problem
from repro.core.pruning import PruneReport, all_miss_score, prune_rules, split_trivial_documents
from repro.core.scoring import SCORING_METHODS, DocumentScore, score_document

__all__ = ["ContextAwareScorer"]


@dataclass
class ContextAwareScorer:
    """Scores documents against the user's current context.

    Parameters
    ----------
    abox / tbox / space:
        The knowledge base (static facts plus dynamic context).
    user:
        The situated user individual.
    repository:
        The scored preference rules.
    method:
        ``"factorised"`` (default), ``"enumeration"`` (the paper's
        naive math) or ``"exact"`` (correlation-aware).
    rule_threshold:
        Context-probability threshold for rule pruning (0 = lossless).
    prune_documents:
        Give candidates that satisfy no preference (``P(f)`` 0 under
        every kept rule) the shared all-miss score and an empty
        breakdown.
    kb:
        The compiled reasoner binding goes through.  Defaults to the
        shared :func:`repro.reason.compiled_kb` for the knowledge base,
        so scorers over the same world (including multi-user group
        members) share one membership/probability memo per epoch.

    Examples
    --------
    >>> # See repro.workloads.tvtouch.build_tvtouch for a ready-made setup.
    """

    abox: ABox
    tbox: TBox
    user: Individual
    repository: RuleRepository
    space: EventSpace | None = None
    method: str = "factorised"
    rule_threshold: float = 0.0
    prune_documents: bool = True
    kb: CompiledKB | None = None
    _last_report: PruneReport | None = field(default=None, repr=False)
    _last_kernel: ScoringKernel | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.method not in SCORING_METHODS:
            raise ScoringError(
                f"unknown scoring method {self.method!r}; choose from {sorted(SCORING_METHODS)}"
            )
        if self.kb is None:
            self.kb = compiled_kb(self.abox, self.tbox, self.space)

    # -- problem construction ---------------------------------------------
    def bind(self, documents: Iterable[Individual | str]) -> ScoringProblem:
        """Bind the repository and candidates to the current context."""
        problem = bind_problem(
            self.abox, self.tbox, self.user, self.repository, documents, self.space,
            kb=self.kb,
        )
        return prune_rules(problem, self.rule_threshold)

    def context_covered(self) -> bool:
        """Does any rule apply in the current context? (Section 4.1.)"""
        return self.repository.covers_context(self.abox, self.tbox, self.user)

    @property
    def last_prune_report(self) -> PruneReport | None:
        return self._last_report

    @property
    def last_kernel(self) -> ScoringKernel | None:
        """The kernel compiled by the last fast-path :meth:`score` call.

        ``None`` when the last call went through a reference method
        (``enumeration`` / ``exact``).  The engine's incremental
        rescoring basis (:mod:`repro.engine.basis`) is built from this.
        """
        return self._last_kernel

    # -- scoring ----------------------------------------------------------
    def score(self, documents: Iterable[Individual | str]) -> list[DocumentScore]:
        """Score candidates; order follows the input.

        Repeated candidates are bound and scored once and share one
        :class:`DocumentScore`.  The ``factorised`` method runs on the
        compiled batch kernel (:class:`~repro.core.kernel.ScoringKernel`);
        ``enumeration`` and ``exact`` keep the per-document reference
        path.
        """
        names = [
            document.name if isinstance(document, Individual) else document
            for document in documents
        ]
        unique_names = list(dict.fromkeys(names))
        view = self.score_view(unique_names)
        results = {name: view[name] for name in unique_names}
        return [results[name] for name in names]

    def score_view(self, unique_names: list[str]) -> Mapping[str, DocumentScore]:
        """The scored view over ``unique_names`` (distinct document names).

        On the ``factorised`` method this is the kernel's columnar
        :class:`~repro.core.kernel.ScoredView` — no per-document object
        is built until someone indexes it; the oracle methods return a
        plain dict of eagerly computed scores.
        """
        if self.method == "factorised":
            return self._score_with_kernel(unique_names)
        return self._score_with_reference(unique_names)

    def _compile_kernel(self, unique_names: list[str]) -> ScoringKernel:
        """Bind and compile ``unique_names``, recording report + kernel."""
        problem = bind_problem(
            self.abox, self.tbox, self.user, self.repository, unique_names, self.space,
            kb=self.kb,
        )
        kernel = ScoringKernel.compile(problem, rule_threshold=self.rule_threshold)
        trivial = len(kernel.trivial_row_set()) if self.prune_documents else 0
        self._last_report = PruneReport(
            kept_rules=len(kernel.kept_rules),
            dropped_rules=len(self.repository) - len(kernel.kept_rules),
            trivial_documents=trivial,
            scored_documents=len(unique_names) - trivial,
        )
        self._last_kernel = kernel
        return kernel

    def _score_with_kernel(self, unique_names: list[str]) -> ScoredView:
        """The batch path: compile once, score all rows in one pass."""
        kernel = self._compile_kernel(unique_names)
        return kernel.score_documents(
            prune_documents=self.prune_documents, method=self.method
        )

    def _score_with_reference(self, unique_names: list[str]) -> dict[str, DocumentScore]:
        """The per-document oracle path (enumeration / exact methods)."""
        problem = self.bind(unique_names)
        dropped = len(self.repository) - problem.rule_count

        results: dict[str, DocumentScore] = {}
        if self.prune_documents:
            interesting, trivial = split_trivial_documents(problem)
            shared = all_miss_score(problem.bindings)
            for document in trivial:
                results[document.document.name] = DocumentScore(
                    document.document.name, shared, (), self.method
                )
        else:
            interesting, trivial = list(problem.documents), []

        for document in interesting:
            results[document.document.name] = score_document(problem, document, self.method)

        self._last_report = PruneReport(
            kept_rules=problem.rule_count,
            dropped_rules=dropped,
            trivial_documents=len(trivial),
            scored_documents=len(interesting),
        )
        self._last_kernel = None
        return results

    def score_map(self, documents: Iterable[Individual | str]) -> dict[str, float]:
        """Scores keyed by document name."""
        return {score.document: score.value for score in self.score(documents)}

    def rank(self, documents: Iterable[Individual | str]) -> list[DocumentScore]:
        """Scores sorted by decreasing probability (ties by name)."""
        scores = self.score(documents)
        return sorted(scores, key=lambda s: (-s.value, s.document))

    def member_names(self, concept: Concept) -> list[str]:
        """Names of the individuals that (possibly) satisfy ``concept``, sorted."""
        kb = self.kb if self.kb is not None else compiled_kb(self.abox, self.tbox, self.space)
        return sorted(individual.name for individual in kb.column(concept))
