"""Experiment records: paper-claimed versus measured, in one place.

Each benchmark emits :class:`ExperimentRecord` rows; the tables in
``benchmarks/results/<experiment>.txt`` are their rendition.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.reporting.tables import TextTable

__all__ = ["ExperimentRecord", "render_records"]


@dataclass(frozen=True)
class ExperimentRecord:
    """One claim-versus-measurement comparison."""

    experiment: str
    artifact: str
    paper_claim: str
    measured: str
    verdict: str  # "reproduced" | "shape holds" | "differs"

    def as_row(self) -> list[str]:
        return [self.experiment, self.artifact, self.paper_claim, self.measured, self.verdict]


def render_records(records: list[ExperimentRecord], markdown: bool = False) -> str:
    """Render records as a table."""
    table = TextTable(["id", "artifact", "paper", "measured", "verdict"])
    for record in records:
        table.add_row(record.as_row())
    return table.render(markdown=markdown)
