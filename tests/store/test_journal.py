"""The overlay journal: durability for per-tenant context overlays."""

import json

import pytest

from repro.dl import ABox
from repro.errors import SnapshotError
from repro.events import BasicEvent
from repro.events.expr import atom
from repro.events.serialize import dumps as dump_event
from repro.store import OverlayJournal
from repro.tenants import TenantRegistry
from repro.workloads import EXPECTED_TABLE1_SCORES, build_tvtouch


@pytest.fixture()
def base():
    return ABox().freeze()


class TestRecordReplay:
    def test_round_trip_one_tenant(self, base, tmp_path):
        journal = OverlayJournal(tmp_path / "j.jsonl")
        overlay = base.overlay()
        overlay.assert_concept("Weekend", "alice", dynamic=True)
        overlay.assert_concept("AtHome", "alice")
        journal.record("alice", overlay)

        fresh = base.overlay()
        assert OverlayJournal(tmp_path / "j.jsonl").replay_into("alice", fresh)
        restored = fresh.overlay_snapshot()
        assert len(restored) == 2
        assert {a.dynamic for a in restored} == {True, False}

    def test_latest_record_wins(self, base, tmp_path):
        journal = OverlayJournal(tmp_path / "j.jsonl")
        overlay = base.overlay()
        overlay.assert_concept("Weekend", "alice", dynamic=True)
        journal.record("alice", overlay)
        overlay.clear_dynamic()
        overlay.assert_concept("Workday", "alice", dynamic=True)
        journal.record("alice", overlay)

        fresh = base.overlay()
        OverlayJournal(tmp_path / "j.jsonl").replay_into("alice", fresh)
        concepts = {a.concept.name for a in fresh.overlay_assertions()}
        assert concepts == {"Workday"}

    def test_unknown_tenant_is_a_noop(self, base, tmp_path):
        journal = OverlayJournal(tmp_path / "j.jsonl")
        fresh = base.overlay()
        assert not journal.replay_into("nobody", fresh)
        assert not fresh.overlay_snapshot()

    def test_torn_trailing_line_is_ignored(self, base, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = OverlayJournal(path)
        overlay = base.overlay()
        overlay.assert_concept("Weekend", "alice", dynamic=True)
        journal.record("alice", overlay)
        # Simulate a crash mid-append: a second record without newline.
        with open(path, "ab") as handle:
            handle.write(b'{"tenant": "bob", "seq": 99, "concepts"')
        reader = OverlayJournal(path)
        assert reader.tenants == ("alice",)

    def test_corrupt_record_loses_only_itself(self, base, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = OverlayJournal(path)
        overlay = base.overlay()
        overlay.assert_concept("Weekend", "alice", dynamic=True)
        journal.record("alice", overlay)
        with open(path, "ab") as handle:
            handle.write(b"this is not json\n")
        journal.record("bob", overlay)
        reader = OverlayJournal(path)
        assert set(reader.tenants) == {"alice", "bob"}

    def test_malformed_event_text_raises_snapshot_error(self, base, tmp_path):
        path = tmp_path / "j.jsonl"
        record = {
            "tenant": "alice",
            "seq": 1,
            "concepts": [["Weekend", "alice", "(a broken", True]],
            "roles": [],
        }
        path.write_text(json.dumps(record) + "\n")
        journal = OverlayJournal(path)
        with pytest.raises(SnapshotError, match="malformed"):
            journal.replay_into("alice", base.overlay())

    def test_compact_keeps_latest_per_tenant(self, base, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = OverlayJournal(path)
        overlay = base.overlay()
        for _ in range(5):
            overlay.clear_dynamic()
            overlay.assert_concept("Weekend", "alice", dynamic=True)
            journal.record("alice", overlay)
        journal.record("bob", overlay)
        assert journal.compact() == 2
        assert len(path.read_text().strip().splitlines()) == 2
        fresh = base.overlay()
        assert OverlayJournal(path).replay_into("alice", fresh)


class TestRegistryIntegration:
    def test_context_survives_registry_restart(self, tmp_path):
        path = tmp_path / "overlays.jsonl"
        registry = TenantRegistry(build_tvtouch(), journal=str(path))
        session = registry.session("alice")
        session.install_context("Weekend", "Breakfast")
        before = {i.document: i.score for i in session.rank().items}

        # A new registry over a fresh world build = a fleet restart.
        revived = TenantRegistry(build_tvtouch(), journal=str(path))
        again = revived.session("alice")
        after = {i.document: i.score for i in again.rank().items}
        assert set(after) == set(before)
        for document, score in before.items():
            assert abs(after[document] - score) <= 1e-9, document
        for document, expected in EXPECTED_TABLE1_SCORES.items():
            assert abs(after[document] - expected) <= 1e-9, document

    def test_clear_context_is_journalled(self, tmp_path):
        path = tmp_path / "overlays.jsonl"
        registry = TenantRegistry(build_tvtouch(), journal=str(path))
        session = registry.session("alice")
        session.install_context("Weekend")
        session.clear_context()

        revived = TenantRegistry(build_tvtouch(), journal=str(path))
        again = revived.session("alice")
        assert not any(a.dynamic for a in again.overlay.overlay_assertions())

    def test_eviction_then_checkout_rehydrates(self, tmp_path):
        path = tmp_path / "overlays.jsonl"
        registry = TenantRegistry(build_tvtouch(), journal=str(path))
        session = registry.session("alice")
        session.install_context("Weekend", "Breakfast")
        registry.evict("alice")
        again = registry.session("alice")
        assert again is not session
        scores = {i.document: i.score for i in again.rank().items}
        for document, expected in EXPECTED_TABLE1_SCORES.items():
            assert abs(scores[document] - expected) <= 1e-9, document

    def test_replay_leaves_the_space_unchanged(self, tmp_path):
        path = tmp_path / "overlays.jsonl"
        session = TenantRegistry(build_tvtouch(), journal=str(path)).session("alice")
        session.install_context("Weekend", "Breakfast:0.7")
        before = {i.document: i.score for i in session.rank().items}

        world = build_tvtouch()
        space = (len(world.space), world.space.revision)
        again = TenantRegistry(world, journal=str(path)).session("alice")
        assert (len(world.space), world.space.revision) == space
        after = {i.document: i.score for i in again.rank().items}
        assert after == pytest.approx(before, abs=1e-9)

    def test_serial_named_record_replays_to_the_same_ranking(self, tmp_path):
        # Before context atoms were named by content, an install of
        # Breakfast:0.7 could be journalled as svc:Breakfast#3.
        path = tmp_path / "overlays.jsonl"
        old = dump_event(atom(BasicEvent("svc:Breakfast#3", 0.7)))
        record = {
            "tenant": "alice",
            "seq": 1,
            "concepts": [["Breakfast", "alice", old, True], ["Weekend", "alice", "T", True]],
            "roles": [],
        }
        path.write_text(json.dumps(record) + "\n")
        world = build_tvtouch()
        space = (len(world.space), world.space.revision)
        replayed = TenantRegistry(world, journal=str(path)).session("alice").rank().items

        fresh = TenantRegistry(build_tvtouch()).session("alice")
        fresh.install_context("Weekend", "Breakfast:0.7", tick="svc")
        expected = fresh.rank().items
        assert [i.document for i in replayed] == [i.document for i in expected]
        for mine, theirs in zip(replayed, expected):
            assert abs(mine.score - theirs.score) <= 1e-9, mine.document
        assert (len(world.space), world.space.revision) == space

    def test_no_journal_means_no_files(self, tmp_path):
        registry = TenantRegistry(build_tvtouch())
        session = registry.session("alice")
        session.install_context("Weekend")
        assert list(tmp_path.iterdir()) == []
