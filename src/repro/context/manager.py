"""The context manager: sensors -> snapshot -> ABox -> database tables.

Ties the context pipeline together.  On every :meth:`refresh` the
manager reads all sensors against the current ground truth, replaces
the ABox's dynamic assertions with the new snapshot, and (when a
database is attached) re-materialises the concept/role tables — the
paper's "uniform tabular view towards both static and dynamic
contexts", where dynamic context "must be acquired real-time from
external sources/services like sensor networks".

Because views over the database are virtual, every preference view
automatically reflects the newest context after a refresh, which is the
behaviour Section 5 highlights: "as the current context develops, the
probabilities of containment of tuples in the view changes
accordingly".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.events.space import EventSpace
from repro.dl.abox import ABox
from repro.dl.concepts import Concept
from repro.dl.instances import membership_event, membership_probability
from repro.dl.tbox import TBox
from repro.storage.database import Database
from repro.context.clock import SimClock
from repro.context.model import ContextSnapshot, SituatedUser
from repro.context.sensors import GroundTruth, Sensor

__all__ = ["ContextManager"]


@dataclass
class ContextManager:
    """Coordinates clock, sensors, ABox and database refreshes.

    Parameters
    ----------
    user:
        The situated user.
    clock:
        The simulated wall clock.
    abox / tbox / space:
        The knowledge base the context is written into.
    sensors:
        The sensor suite to read on every refresh.
    database:
        Optional relational mirror, refreshed after the ABox.
    """

    user: SituatedUser
    clock: SimClock
    abox: ABox
    tbox: TBox
    space: EventSpace
    sensors: list[Sensor] = field(default_factory=list)
    database: Database | None = None
    _tick: int = 0
    _last_snapshot: ContextSnapshot | None = None

    def add_sensor(self, sensor: Sensor) -> None:
        self.sensors.append(sensor)

    def refresh(self, truth: GroundTruth) -> ContextSnapshot:
        """Read every sensor and install the resulting snapshot."""
        self._tick += 1
        tick = f"t{self._tick}"
        snapshot = ContextSnapshot(instant=f"{tick} {self.clock}")
        for sensor in self.sensors:
            snapshot.extend(sensor.read(self.clock, truth, self.space, tick))
        snapshot.apply(self.abox)
        if self.database is not None:
            self.database.load_abox(self.abox, refresh=True)
        self._last_snapshot = snapshot
        return snapshot

    @property
    def last_snapshot(self) -> ContextSnapshot | None:
        return self._last_snapshot

    # -- context feature queries ------------------------------------------
    def context_event(self, concept: Concept):
        """Event under which the situated user satisfies a context concept."""
        return membership_event(self.abox, self.tbox, self.user.individual, concept)

    def context_probability(self, concept: Concept, engine: str = "shannon") -> float:
        """Probability that the context concept holds for the user."""
        return membership_probability(
            self.abox, self.tbox, self.user.individual, concept, self.space, engine
        )
