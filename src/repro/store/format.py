"""The snapshot container: a versioned, digest-verified section file.

Layout (all integers little-endian)::

    offset  size  field
    0       10    magic ``b"REPROSNAP\\0"``
    10      4     format version (u32)
    14      32    SHA-256 digest of everything after the header
    46      8     index length in bytes (u64)
    54      n     index JSON: ``{"meta": {...}, "sections": [...]}``
    54+n    ...   section payloads, back to back

Each index entry is ``{"name", "kind", "offset", "length"}`` with
``offset`` relative to the start of the payload area.  Section kinds:

* ``json`` — UTF-8 JSON;
* ``text`` — UTF-8 text (rule DSL, s-expression event lines);
* ``f64``  — raw C-order float64 bytes, returned as a zero-copy
  ``memoryview`` of the file image.

**Compatibility rule**: a snapshot is readable iff its format version
equals this library's :data:`SNAPSHOT_FORMAT_VERSION` exactly.  Any
change to the section contents bumps the version, and readers of a
different version raise :class:`~repro.errors.SnapshotError` — the
loader then rebuilds from source rather than guessing at the layout.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from repro.errors import SnapshotError

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotInfo",
    "write_snapshot",
    "read_snapshot",
    "inspect_snapshot",
]

MAGIC = b"REPROSNAP\x00"
#: Bump on any incompatible change to the section layout or contents.
#: 2: the ``basis`` section no longer carries the per-row possibility bits.
SNAPSHOT_FORMAT_VERSION = 2

_HEADER = struct.Struct("<10sI32sQ")  # magic, version, digest, index length
_KINDS = ("json", "text", "f64")


@dataclass(frozen=True)
class SnapshotInfo:
    """Header and section table of a snapshot, without the payloads."""

    path: str
    version: int
    digest: str
    meta: dict
    sections: tuple[tuple[str, str, int], ...]  # (name, kind, length)

    @property
    def total_bytes(self) -> int:
        return sum(length for _name, _kind, length in self.sections)


def write_snapshot(
    path: str | Path,
    sections: Iterable[tuple[str, str, bytes]],
    meta: Mapping[str, object] | None = None,
) -> str:
    """Write ``(name, kind, payload)`` sections as one container file.

    Returns the hex content digest.  The write goes through a
    same-directory temp file + ``os.replace`` so a crashed writer never
    leaves a half-written snapshot under the final name.
    """
    import os

    entries = []
    payloads = []
    offset = 0
    for name, kind, payload in sections:
        if kind not in _KINDS:
            raise SnapshotError(f"unknown section kind {kind!r} for section {name!r}")
        payload = bytes(payload)
        entries.append(
            {"name": name, "kind": kind, "offset": offset, "length": len(payload)}
        )
        payloads.append(payload)
        offset += len(payload)
    index = json.dumps(
        {"meta": dict(meta or {}), "sections": entries},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")

    body = struct.pack("<Q", len(index)) + index + b"".join(payloads)
    digest = hashlib.sha256(body).digest()
    header = MAGIC + struct.pack("<I", SNAPSHOT_FORMAT_VERSION) + digest

    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(header + body)
    os.replace(tmp, path)
    return digest.hex()


def _read_header(raw: bytes, path: str) -> tuple[int, bytes, int]:
    if len(raw) < _HEADER.size:
        raise SnapshotError(f"snapshot {path!r} is truncated (no header)")
    magic, version, digest, index_length = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise SnapshotError(f"{path!r} is not a repro snapshot (bad magic)")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot {path!r} has format version {version}, this library "
            f"reads exactly version {SNAPSHOT_FORMAT_VERSION}; rebuild the "
            "snapshot with `python -m repro snapshot build`"
        )
    return version, digest, index_length


def _verify(raw: bytes, digest: bytes, path: str) -> None:
    actual = hashlib.sha256(memoryview(raw)[_HEADER.size - 8 :]).digest()
    # The stored index length is covered by the digest (it sits in the
    # hashed body region), so corruption anywhere after the digest
    # field is caught here.
    if actual != digest:
        raise SnapshotError(
            f"snapshot {path!r} failed digest verification (corrupted or "
            "truncated); rebuild it from source"
        )


def _parse_index(raw: bytes, index_length: int, path: str) -> tuple[dict, list[dict]]:
    start = _HEADER.size
    end = start + index_length
    if end > len(raw):
        raise SnapshotError(f"snapshot {path!r} is truncated (index)")
    try:
        index = json.loads(raw[start:end].decode("utf-8"))
        meta = dict(index["meta"])
        entries = list(index["sections"])
    except (ValueError, KeyError, TypeError) as exc:
        raise SnapshotError(f"snapshot {path!r} has a malformed index: {exc}") from exc
    return meta, entries


def read_snapshot(
    path: str | Path,
) -> tuple[dict, dict[str, tuple[str, memoryview]]]:
    """Verify and load a snapshot: ``(meta, {name: (kind, payload)})``.

    Payloads are zero-copy ``memoryview`` slices of the file image
    (``f64`` sections stay raw bytes; decode ``json``/``text`` sections
    with the helpers in :mod:`repro.store.codec`).  Raises
    :class:`~repro.errors.SnapshotError` on any magic, version, digest
    or index problem.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {str(path)!r}: {exc}") from exc
    _version, digest, index_length = _read_header(raw, str(path))
    _verify(raw, digest, str(path))
    meta, entries = _parse_index(raw, index_length, str(path))
    meta["_digest"] = digest.hex()
    payload_start = _HEADER.size + index_length
    view = memoryview(raw)
    sections: dict[str, tuple[str, memoryview]] = {}
    for entry in entries:
        begin = payload_start + int(entry["offset"])
        finish = begin + int(entry["length"])
        if finish > len(raw):
            raise SnapshotError(
                f"snapshot {str(path)!r} section {entry.get('name')!r} "
                "extends past the end of the file"
            )
        sections[str(entry["name"])] = (str(entry["kind"]), view[begin:finish])
    return meta, sections


def inspect_snapshot(path: str | Path) -> SnapshotInfo:
    """Header, digest and section table (verifies the digest)."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {str(path)!r}: {exc}") from exc
    version, digest, index_length = _read_header(raw, str(path))
    _verify(raw, digest, str(path))
    meta, entries = _parse_index(raw, index_length, str(path))
    return SnapshotInfo(
        path=str(path),
        version=version,
        digest=digest.hex(),
        meta=meta,
        sections=tuple(
            (str(e["name"]), str(e["kind"]), int(e["length"])) for e in entries
        ),
    )
