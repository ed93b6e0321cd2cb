"""Per-tenant overlay persistence: an append-only delta journal.

Snapshots freeze the *shared base* world; everything per-tenant lives
in :class:`~repro.dl.abox.LayeredABox` overlays that would otherwise
die with the process.  The journal persists them: every write is one
JSON line carrying a tenant's **entire** current overlay
(``overlay_snapshot()`` serialised through the s-expression event
codec), so replay is latest-record-wins — no ordering subtleties, no
partial merges, and a torn final line (a crash mid-append) invalidates
only itself.

Concurrency: fleet workers append to one shared file under an
``fcntl`` advisory lock where the platform provides one (each record
is a single ``write`` of a single line either way); readers rescan
only the tail beyond their last offset and ignore a trailing partial
line until the newline lands.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.dl.abox import ConceptAssertion, LayeredABox, RoleAssertion
from repro.errors import ReproError, SnapshotError
from repro.events.serialize import dumps as dump_event, loads as load_event

try:  # pragma: no cover - platform gate
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

__all__ = ["OverlayJournal"]


def _encode_overlay(overlay: LayeredABox) -> dict:
    concepts = []
    roles = []
    for assertion in sorted(
        overlay.overlay_assertions(), key=lambda a: (a.__class__.__name__, str(a))
    ):
        if isinstance(assertion, ConceptAssertion):
            concepts.append(
                [
                    assertion.concept.name,
                    assertion.individual.name,
                    dump_event(assertion.event),
                    assertion.dynamic,
                ]
            )
        else:
            roles.append(
                [
                    assertion.role.name,
                    assertion.source.name,
                    assertion.target.name,
                    dump_event(assertion.event),
                    assertion.dynamic,
                ]
            )
    return {"concepts": concepts, "roles": roles}


class OverlayJournal:
    """Append-only journal of per-tenant overlay snapshots.

    Examples
    --------
    >>> import tempfile, os
    >>> from repro.dl.abox import ABox
    >>> path = os.path.join(tempfile.mkdtemp(), "overlays.jsonl")
    >>> journal = OverlayJournal(path)
    >>> base = ABox().freeze()
    >>> overlay = base.overlay()
    >>> _ = overlay.assert_concept("Weekend", "peter", dynamic=True)
    >>> journal.record("peter", overlay)
    >>> fresh = base.overlay()
    >>> journal2 = OverlayJournal(path)
    >>> journal2.replay_into("peter", fresh)
    True
    >>> len(fresh.overlay_snapshot())
    1
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._offset = 0
        self._latest: dict[str, dict] = {}
        self._sequence = 0
        self.refresh()

    # -- writing --------------------------------------------------------
    def record(self, tenant_id: str, overlay: LayeredABox) -> None:
        """Append the tenant's current overlay as one journal record."""
        self.refresh()
        self._sequence += 1
        payload = _encode_overlay(overlay)
        payload["tenant"] = str(tenant_id)
        payload["seq"] = self._sequence
        line = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        data = line.encode("utf-8")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab") as handle:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                handle.write(data)
                handle.flush()
            finally:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        self._latest[str(tenant_id)] = payload

    # -- reading --------------------------------------------------------
    def refresh(self) -> None:
        """Fold any new complete records from the file tail into memory."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return
        if size <= self._offset:
            return
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read()
        # Only complete lines count; a torn tail stays unconsumed until
        # its newline arrives (or forever, if the writer died mid-line).
        end = chunk.rfind(b"\n")
        if end < 0:
            return
        consumed = chunk[: end + 1]
        self._offset += len(consumed)
        for raw in consumed.splitlines():
            if not raw.strip():
                continue
            try:
                payload = json.loads(raw.decode("utf-8"))
                tenant = str(payload["tenant"])
                sequence = int(payload.get("seq", 0))
            except (ValueError, KeyError, TypeError):
                continue  # a corrupt record loses itself, not the journal
            self._sequence = max(self._sequence, sequence)
            self._latest[tenant] = payload

    @property
    def tenants(self) -> tuple[str, ...]:
        """Tenants with at least one journalled overlay, sorted."""
        return tuple(sorted(self._latest))

    def replay_into(self, tenant_id: str, overlay: LayeredABox) -> bool:
        """Re-assert the tenant's journalled overlay into a fresh overlay.

        Returns ``True`` when a record existed and was applied.  Every
        record carries its events' probabilities inline, so replay
        writes nothing but the overlay.
        """
        self.refresh()
        payload = self._latest.get(str(tenant_id))
        if payload is None:
            return False
        try:
            records = [
                ("concept", concept, individual, load_event(event_text), bool(dynamic))
                for concept, individual, event_text, dynamic in payload.get(
                    "concepts", ()
                )
            ] + [
                ("role", role, source, target, load_event(event_text), bool(dynamic))
                for role, source, target, event_text, dynamic in payload.get(
                    "roles", ()
                )
            ]
        except (ReproError, ValueError, TypeError) as exc:
            raise SnapshotError(
                f"journal record for tenant {tenant_id!r} is malformed: {exc}"
            ) from exc
        for entry in records:
            if entry[0] == "concept":
                _kind, concept, individual, event, dynamic = entry
                overlay.assert_concept(concept, individual, event, dynamic=dynamic)
            else:
                _kind, role, source, target, event, dynamic = entry
                overlay.assert_role(role, source, target, event, dynamic=dynamic)
        return True

    # -- maintenance ----------------------------------------------------
    def compact(self) -> int:
        """Rewrite the file keeping only each tenant's latest record.

        Returns the number of surviving records.  Uses the same
        temp-file + rename discipline as the snapshot writer.
        """
        self.refresh()
        lines = [
            json.dumps(self._latest[tenant], sort_keys=True, separators=(",", ":"))
            for tenant in sorted(self._latest)
        ]
        data = ("\n".join(lines) + "\n" if lines else "").encode("utf-8")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, self.path)
        self._offset = len(data)
        return len(lines)

    def __repr__(self) -> str:
        return f"OverlayJournal({str(self.path)!r}, tenants={len(self._latest)})"
