"""Persistent world store: versioned snapshots and overlay journals.

A snapshot serialises one frozen base world — ABox, TBox, event space,
rule set, the relational mirror — **plus** the expensive derived
artifacts (the compiled reasoner's expansion/closure tables and the
scoring kernel's documents×rules basis matrix) into a single versioned,
digest-verified container (:mod:`repro.store.format`).  The loader
(:mod:`repro.store.loader`) restores the world and re-seeds every
derived cache once, in the fleet parent; N forked workers share those
pages copy-on-write instead of paying N private rebuilds.  Per-tenant
overlay deltas
persist separately in an append-only journal
(:mod:`repro.store.journal`) so sessions survive a fleet restart.
"""

from repro.store.format import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotInfo,
    inspect_snapshot,
    read_snapshot,
    write_snapshot,
)
from repro.store.codec import restore_world, snapshot_world, write_world_snapshot
from repro.store.journal import OverlayJournal
from repro.store.loader import LoadedWorld, load_or_build, load_world

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotInfo",
    "inspect_snapshot",
    "read_snapshot",
    "write_snapshot",
    "snapshot_world",
    "write_world_snapshot",
    "restore_world",
    "LoadedWorld",
    "load_world",
    "load_or_build",
    "OverlayJournal",
]
