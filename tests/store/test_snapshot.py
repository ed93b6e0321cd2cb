"""Snapshot round-trip identity and corruption.

The store's correctness bar: a snapshot-loaded world must rank with
*identical* scores (≤ 1e-9) to a world built directly from source —
in-process and in a genuinely fresh interpreter — while any corruption
or truncation is caught by the digest and degrades to a rebuild, never
to wrong answers.
"""

import os
import struct
import subprocess
import sys
from types import SimpleNamespace

import pytest

from repro.dl import ABox, TBox
from repro.errors import SnapshotError
from repro.events import EventSpace
from repro.rules import parse_rules
from repro.store import (
    SNAPSHOT_FORMAT_VERSION,
    inspect_snapshot,
    load_or_build,
    load_world,
    write_world_snapshot,
)
from repro.tenants import TenantRegistry
from repro.workloads import EXPECTED_TABLE1_SCORES, build_tvtouch

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)


def build_office_world():
    """A no-repository world (per-session rules, no relational mirror)."""
    space = EventSpace("office")
    abox = ABox()
    tbox = TBox()
    tbox.add_role_subsumption("hasMainTopic", "hasTopic")
    for topic in ("dl", "prob", "ranking"):
        abox.assert_concept("OwnTopic", f"topic_{topic}")
    for doc in ("paper_dl", "paper_prob", "dashboard", "newsletter"):
        abox.assert_concept("Reading", doc)
    abox.assert_concept("Dashboard", "dashboard")
    abox.assert_concept("Light", "newsletter")
    abox.assert_role("hasMainTopic", "paper_dl", "topic_dl")
    abox.assert_role(
        "hasTopic", "paper_dl", "topic_ranking", space.atom("t:dl:rank", 0.7)
    )
    abox.assert_role("hasMainTopic", "paper_prob", "topic_prob")
    abox.assert_role(
        "hasTopic", "paper_prob", "topic_dl", space.atom("t:prob:dl", 0.4)
    )
    return SimpleNamespace(abox=abox, tbox=tbox, space=space, target="Reading")


OFFICE_RULES = """
RULE deep1: WHEN DeepWork PREFER Reading AND ATLEAST 2 hasTopic.OwnTopic WITH 0.85
RULE meet1: WHEN InMeeting PREFER Reading AND Dashboard WITH 0.9
"""


#: Load a snapshot (path in argv) and rank alice in a fresh interpreter;
#: report what the load left behind: new ``/dev/shm`` entries, child
#: processes, and the ``multiprocessing`` modules it imported (a
#: shared-memory segment needs one).
COLD_START_PROBE = """
import json, os, sys

def shm():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()

def children():
    found = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except OSError:
            continue
        if ppid == os.getpid():
            found.append(int(entry))
    return found

before = shm()
from repro.store import load_world
from repro.tenants import TenantRegistry
loaded = load_world(sys.argv[1])
session = TenantRegistry(loaded).session("alice")
session.install_context("Weekend", "Breakfast")
print(json.dumps({
    "source": loaded.source,
    "scores": {item.document: item.score for item in session.rank().items},
    "new_shm": sorted(shm() - before),
    "children": children(),
    "multiprocessing": sorted(
        name for name in sys.modules if name.split(".")[0] == "multiprocessing"
    ),
}))
"""


def rank_alice(world_like) -> dict[str, float]:
    registry = TenantRegistry(world_like)
    session = registry.session("alice")
    session.install_context("Weekend", "Breakfast")
    return {item.document: item.score for item in session.rank().items}


class TestRoundTripIdentity:
    def test_tvtouch_scores_identical(self, tmp_path):
        path = tmp_path / "tv.snap"
        digest = write_world_snapshot(path, build_tvtouch())
        assert len(digest) == 64
        loaded = load_world(path)
        assert loaded.source == "snapshot"
        scores = rank_alice(loaded)
        direct = rank_alice(build_tvtouch())
        assert set(scores) == set(direct)
        for document, expected in direct.items():
            assert abs(scores[document] - expected) <= 1e-9, document
        for document, expected in EXPECTED_TABLE1_SCORES.items():
            assert abs(scores[document] - expected) <= 1e-9, document

    def test_space_section_round_trips_without_a_counter(self):
        from repro.store.codec import _restore_space, _space_section

        world = build_office_world()
        section = _space_section(world.space)
        assert "fresh_counter" not in section
        # A snapshot written while the space still counted fresh atoms.
        restored = _restore_space({**section, "fresh_counter": 12})
        assert sorted((e.name, e.probability) for e in restored) == sorted(
            (e.name, e.probability) for e in world.space
        )

    def test_office_world_without_repository(self, tmp_path):
        path = tmp_path / "office.snap"
        write_world_snapshot(path, build_office_world())
        # No repository → no basis/matrix sections.
        loaded = load_world(path)
        assert loaded.source == "snapshot"

        def scores(world_like):
            registry = TenantRegistry(world_like)
            session = registry.session("eva", rules=parse_rules(OFFICE_RULES))
            session.install_context("DeepWork")
            return {item.document: item.score for item in session.rank().items}

        direct = scores(build_office_world())
        restored = scores(loaded)
        assert set(restored) == set(direct)
        for document, expected in direct.items():
            assert abs(restored[document] - expected) <= 1e-9, document

    @staticmethod
    def cold_start(path) -> dict:
        """Run :data:`COLD_START_PROBE` on ``path``; return its report."""
        env = dict(os.environ, PYTHONPATH=SRC)
        result = subprocess.run(
            [sys.executable, "-c", COLD_START_PROBE, str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        import json

        return json.loads(result.stdout.strip().splitlines()[-1])

    def test_fresh_process_scores_identical(self, tmp_path):
        """The real cold-start: a new interpreter loads and ranks."""
        path = tmp_path / "tv.snap"
        write_world_snapshot(path, build_tvtouch())
        body = self.cold_start(path)
        assert body["source"] == "snapshot"
        for document, expected in EXPECTED_TABLE1_SCORES.items():
            assert abs(body["scores"][document] - expected) <= 1e-9, document

    def test_tvtouch_basis_matrix_is_a_private_buffer(self, tmp_path):
        """Loading a snapshot with a basis matrix leaves nothing outside
        the process: no shared-memory segment, no resource-tracker
        helper process, no ``multiprocessing`` import."""
        path = tmp_path / "tv.snap"
        write_world_snapshot(path, build_tvtouch())
        assert any(name == "matrix" for name, _, _ in inspect_snapshot(path).sections)
        body = self.cold_start(path)
        for document, expected in EXPECTED_TABLE1_SCORES.items():
            assert abs(body["scores"][document] - expected) <= 1e-9, document
        assert body["new_shm"] == []
        assert body["children"] == []
        assert body["multiprocessing"] == []


class TestInspection:
    def test_inspect_reports_header_and_sections(self, tmp_path):
        path = tmp_path / "tv.snap"
        digest = write_world_snapshot(path, build_tvtouch())
        info = inspect_snapshot(path)
        assert info.version == SNAPSHOT_FORMAT_VERSION
        assert info.digest == digest
        names = [name for name, _kind, _length in info.sections]
        for required in ("space", "tbox", "abox", "rules", "reasoner", "matrix"):
            assert required in names, names
        assert info.total_bytes > 0
        assert info.meta["target"] == "TvProgram"


class TestCorruption:
    def test_flipped_byte_fails_digest(self, tmp_path):
        path = tmp_path / "tv.snap"
        write_world_snapshot(path, build_tvtouch())
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="digest"):
            load_world(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "tv.snap"
        write_world_snapshot(path, build_tvtouch())
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SnapshotError):
            load_world(path)

    def test_future_format_version_rejected(self, tmp_path):
        path = tmp_path / "tv.snap"
        write_world_snapshot(path, build_tvtouch())
        raw = bytearray(path.read_bytes())
        raw[10:14] = struct.pack("<I", SNAPSHOT_FORMAT_VERSION + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="format version"):
            load_world(path)

    def test_not_a_snapshot_rejected(self, tmp_path):
        path = tmp_path / "tv.snap"
        path.write_bytes(b"definitely not a snapshot file at all")
        with pytest.raises(SnapshotError):
            load_world(path)

    def test_load_or_build_falls_back_to_rebuild(self, tmp_path):
        path = tmp_path / "tv.snap"
        write_world_snapshot(path, build_tvtouch())
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        reasons = []
        world = load_or_build(path, build_tvtouch, on_fallback=reasons.append)
        assert world.source == "rebuild"
        assert reasons and "digest" in reasons[0]
        scores = rank_alice(world)
        for document, expected in EXPECTED_TABLE1_SCORES.items():
            assert abs(scores[document] - expected) <= 1e-9, document

    def test_load_or_build_missing_file_falls_back(self, tmp_path):
        world = load_or_build(tmp_path / "absent.snap", build_tvtouch)
        assert world.source == "rebuild"
