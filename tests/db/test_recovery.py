"""Checkpoint + WAL recovery of a data directory."""

import json
import os
import time

import pytest

from repro.db.database import SpatialDatabase
from repro.db.durability import DurabilityManager
from repro.db.recovery import (MANIFEST, RecoveryError, apply_record,
                               list_checkpoints, list_wal_segments,
                               read_manifest, recover)
from repro.geometry.rect import Rect
from repro.rtree.validate import validate_rtree
from repro.serve import QueryService, ServiceClient
from repro.storage.faults import KillPlan, KillSwitch, SimulatedCrash


def _open(data_dir, **kwargs):
    return DurabilityManager.open(str(data_dir), **kwargs)


def _abandon(manager):
    """Simulate process death: drop the WAL handle without checkpoint."""
    if not manager.wal._file.closed:
        manager.wal._file.close()


class TestFreshDirectory:
    def test_starts_empty(self, tmp_path):
        db, manager = _open(tmp_path / "data")
        assert db.relations == {}
        assert manager.recovery.replayed == 0
        manager.close()

    def test_creates_manifest_layout(self, tmp_path):
        db, manager = _open(tmp_path / "data")
        db.create_relation("roads")
        manager.close()
        names = sorted(os.listdir(tmp_path / "data"))
        assert MANIFEST in names
        assert any(name.startswith("ckpt-") for name in names)
        assert any(name.startswith("wal-") for name in names)

    def test_page_size_is_persisted(self, tmp_path):
        db, manager = _open(tmp_path / "data", page_size=1024)
        db.create_relation("roads")
        manager.close()
        db2, manager2 = _open(tmp_path / "data")
        assert db2.page_size == 1024
        manager2.close()


class TestReplay:
    def test_graceful_close_replays_nothing(self, tmp_path):
        db, manager = _open(tmp_path / "data")
        rel = db.create_relation("roads")
        for i in range(10):
            rel.insert(Rect(i, i, i + 1, i + 1))
        manager.close()
        db2, manager2 = _open(tmp_path / "data")
        assert manager2.recovery.replayed == 0
        assert len(db2.relations["roads"]) == 10
        manager2.close()

    def test_crash_replays_the_tail(self, tmp_path):
        db, manager = _open(tmp_path / "data", checkpoint_every=1000)
        rel = db.create_relation("roads")
        oids = [rel.insert(Rect(i, i, i + 1, i + 1)) for i in range(8)]
        rel.delete(oids[3])
        _abandon(manager)
        db2, manager2 = _open(tmp_path / "data")
        info = manager2.recovery
        assert info.replayed == 10          # create + 8 inserts + delete
        recovered = db2.relations["roads"]
        assert sorted(recovered.objects) == sorted(
            oid for oid in oids if oid != oids[3])
        validate_rtree(recovered.tree)
        manager2.close()

    def test_geometry_round_trips_exactly(self, tmp_path):
        db, manager = _open(tmp_path / "data")
        rel = db.create_relation("r")
        rect = Rect(0.1 + 0.2, 1e-17, 3.14159265358979, 1e300)
        oid = rel.insert(rect)
        _abandon(manager)
        db2, manager2 = _open(tmp_path / "data")
        assert db2.relations["r"].objects[oid] == rect
        manager2.close()

    def test_replay_is_idempotent_across_checkpoint(self, tmp_path):
        # Records already covered by the checkpoint must be skipped,
        # not re-applied.
        db, manager = _open(tmp_path / "data", checkpoint_every=5)
        rel = db.create_relation("roads")
        for i in range(12):
            rel.insert(Rect(i, i, i + 1, i + 1))
        _abandon(manager)
        db2, manager2 = _open(tmp_path / "data")
        assert len(db2.relations["roads"]) == 12
        assert manager2.recovery.replayed \
            + manager2.recovery.checkpoint_lsn >= 13
        manager2.close()

    def test_drop_and_recreate_replay(self, tmp_path):
        db, manager = _open(tmp_path / "data", checkpoint_every=1000)
        db.create_relation("a")
        db.relations["a"].insert(Rect(0, 0, 1, 1))
        db.drop_relation("a")
        db.create_relation("a")
        db.relations["a"].insert(Rect(5, 5, 6, 6), oid=77)
        _abandon(manager)
        db2, manager2 = _open(tmp_path / "data")
        assert sorted(db2.relations["a"].objects) == [77]
        manager2.close()

    def test_torn_tail_is_truncated(self, tmp_path):
        db, manager = _open(tmp_path / "data", checkpoint_every=1000)
        db.create_relation("roads")
        db.relations["roads"].insert(Rect(0, 0, 1, 1))
        wal_path = manager.wal.path
        _abandon(manager)
        with open(wal_path, "ab") as handle:
            handle.write(b"\x10\x00\x00\x00torn!")
        db2, manager2 = _open(tmp_path / "data")
        assert manager2.recovery.truncated_bytes > 0
        assert len(db2.relations["roads"]) == 1
        manager2.close()


class TestApplyRecord:
    def test_idempotent_skips(self):
        db = SpatialDatabase()
        assert apply_record(db, {"op": "create", "rel": "a"}) is True
        assert apply_record(db, {"op": "create", "rel": "a"}) is False
        line = "5 rect 0.0 0.0 1.0 1.0"
        insert = {"op": "insert", "rel": "a", "oid": 5, "geom": line}
        assert apply_record(db, insert) is True
        assert apply_record(db, insert) is False
        delete = {"op": "delete", "rel": "a", "oid": 5}
        assert apply_record(db, delete) is True
        assert apply_record(db, delete) is False
        assert apply_record(db, {"op": "drop", "rel": "a"}) is True
        assert apply_record(db, {"op": "drop", "rel": "a"}) is False

    def test_ops_on_missing_relation_skip(self):
        db = SpatialDatabase()
        assert apply_record(db, {"op": "insert", "rel": "ghost",
                                 "oid": 1,
                                 "geom": "1 rect 0.0 0.0 1.0 1.0"}) \
            is False
        assert apply_record(db, {"op": "delete", "rel": "ghost",
                                 "oid": 1}) is False

    def test_unknown_op_is_fatal(self):
        with pytest.raises(RecoveryError):
            apply_record(SpatialDatabase(), {"op": "truncate"})


class TestCheckpointCrashWindows:
    def _run_until_crash(self, data_dir, point):
        kill = KillSwitch(KillPlan(seed=3, points={point: 1.0}))
        db, manager = _open(data_dir, checkpoint_every=4, kill=kill)
        with pytest.raises(SimulatedCrash):
            rel = db.create_relation("roads")
            for i in range(30):
                rel.insert(Rect(i, i, i + 1, i + 1))
        _abandon(manager)

    @pytest.mark.parametrize("point", ["checkpoint.before_rename",
                                       "checkpoint.after_rename",
                                       "checkpoint.before_gc"])
    def test_recovers_consistently(self, tmp_path, point):
        data_dir = tmp_path / "data"
        self._run_until_crash(data_dir, point)
        db, manager = _open(data_dir)
        # Everything the crashed run logged before the kill is acked
        # state and must be present; the checkpoint machinery crashed,
        # the data must not care.
        relation = db.relations["roads"]
        assert len(relation) >= 3
        validate_rtree(relation.tree)
        # The directory converged: exactly one checkpoint referenced,
        # debris gone.
        manifest = read_manifest(str(data_dir))
        checkpoints = list_checkpoints(str(data_dir))
        if manifest is not None and manifest["checkpoint"] is not None:
            assert checkpoints == [manifest["checkpoint_id"]]
        else:
            # The crash beat the very first checkpoint: recovery ran
            # from the WAL alone and swept the staging debris.
            assert checkpoints == []
        assert not [name for name in os.listdir(data_dir)
                    if name.endswith(".tmp")]
        manager.close()

    def test_gc_drops_covered_segments(self, tmp_path):
        data_dir = tmp_path / "data"
        db, manager = _open(data_dir, checkpoint_every=5)
        rel = db.create_relation("roads")
        for i in range(23):
            rel.insert(Rect(i, i, i + 1, i + 1))
        manager.close()
        segments = list_wal_segments(str(data_dir))
        assert len(segments) == 1           # only the active one

    def test_recovery_is_deterministic(self, tmp_path):
        data_dir = tmp_path / "data"
        db, manager = _open(data_dir, checkpoint_every=4)
        rel = db.create_relation("roads")
        for i in range(13):
            rel.insert(Rect(i, i, i + 1, i + 1))
        _abandon(manager)
        first = recover(str(data_dir))
        snapshot1 = dict(first.db.relations["roads"].objects)
        first.wal.close()
        second = recover(str(data_dir))
        snapshot2 = dict(second.db.relations["roads"].objects)
        second.wal.close()
        assert snapshot1 == snapshot2


class TestDeltaModeRecovery:
    """Recovery with pending deltas: every mutation is WAL-logged
    before the delta absorbs it, so a crash loses nothing and replay is
    idempotent regardless of how many rebuild points ran before the
    crash."""

    def _mutate(self, db):
        rel = db.create_relation("roads")
        oids = [rel.insert(Rect(i, i, i + 1, i + 1)) for i in range(9)]
        rel.delete(oids[4])
        return [oid for oid in oids if oid != oids[4]]

    def test_unmerged_delta_writes_survive_a_crash(self, tmp_path):
        db, manager = _open(tmp_path / "data", checkpoint_every=1000)
        live = self._mutate(db)            # everything still in the delta
        assert db.relations["roads"].delta_ops_pending > 0
        _abandon(manager)
        db2, manager2 = _open(tmp_path / "data")
        assert sorted(db2.relations["roads"].objects) == sorted(live)
        validate_rtree(db2.relations["roads"].tree)
        manager2.close()

    def test_rebuild_points_do_not_change_recovery(self, tmp_path):
        # Same logical history, one run merged mid-stream: recovered
        # states must be identical (rebuilds are not logged — they are
        # pure reorganisation).
        plain, flushed = tmp_path / "plain", tmp_path / "flushed"
        db_a, manager_a = _open(plain, checkpoint_every=1000)
        self._mutate(db_a)
        _abandon(manager_a)
        db_b, manager_b = _open(flushed, checkpoint_every=1000)
        self._mutate(db_b)
        assert db_b.flush_deltas() >= 1
        db_b.relations["roads"].insert(Rect(50, 50, 51, 51), oid=500)
        _abandon(manager_b)
        rec_a, mgr_a = _open(plain)
        rec_b, mgr_b = _open(flushed)
        extra = {500}
        assert set(rec_b.relations["roads"].objects) \
            == set(rec_a.relations["roads"].objects) | extra
        mgr_a.close()
        mgr_b.close()

    def test_recovery_is_idempotent_with_delta_history(self, tmp_path):
        data_dir = tmp_path / "data"
        db, manager = _open(data_dir, checkpoint_every=4)
        self._mutate(db)
        db.flush_deltas()
        db.relations["roads"].insert(Rect(20, 20, 21, 21))
        _abandon(manager)
        first = recover(str(data_dir))
        snapshot1 = dict(first.db.relations["roads"].objects)
        first.wal.close()
        second = recover(str(data_dir))
        snapshot2 = dict(second.db.relations["roads"].objects)
        second.wal.close()
        assert snapshot1 == snapshot2

    def test_recovered_database_resumes_delta_ingest(self, tmp_path):
        # Recovery replays into the delta, and further writes keep
        # working on top of the recovered base trees.
        db, manager = _open(tmp_path / "data", checkpoint_every=1000)
        live = self._mutate(db)
        _abandon(manager)
        db2, manager2 = _open(tmp_path / "data")
        rel = db2.relations["roads"]
        new_oid = rel.insert(Rect(30, 30, 31, 31))
        assert sorted(rel.objects) == sorted(live + [new_oid])
        assert rel.delta_ops_pending > 0
        rel.rebuild()
        assert rel.delta_ops_pending == 0
        assert sorted(rel.objects) == sorted(live + [new_oid])
        manager2.close()

    def test_replayed_writes_stay_pending_until_the_threshold(
            self, tmp_path):
        """Replay lands in the delta: the recovered base is the loaded
        checkpoint's, and a service merges the replayed writes only
        once they reach its rebuild threshold."""
        data_dir = tmp_path / "data"
        db, manager = _open(data_dir, checkpoint_every=1000)
        rel = db.create_relation("roads")
        for i in range(20):
            rel.insert(Rect(i, i, i + 1, i + 1))
        rel.rebuild()
        manager.checkpoint()
        # The WAL tail: three new objects, two base objects deleted.
        for i in range(3):
            rel.insert(Rect(50 + i, 50, 51 + i, 51))
        rel.delete(3)
        rel.delete(7)
        visible = dict(rel.objects)
        _abandon(manager)
        checkpoint = os.path.join(str(data_dir),
                                  read_manifest(str(data_dir))["checkpoint"])
        loaded = SpatialDatabase.open(checkpoint).relations["roads"]

        db2, manager2 = _open(data_dir)
        recovered = db2.relations["roads"]
        assert manager2.recovery.replayed == 5
        assert recovered.base_epoch == loaded.base_epoch
        assert len(recovered.tree) == len(loaded.tree) == 20
        assert recovered.delta_ops_pending == 5
        assert dict(recovered.objects) == visible

        service = QueryService(db2, workers=1, durability=manager2,
                               rebuild_threshold=6)
        try:
            time.sleep(0.2)                   # four rebuilder polls
            assert recovered.delta_ops_pending == 5
            assert recovered.base_epoch == loaded.base_epoch
            ServiceClient(service).insert(
                "roads", {"kind": "rect", "coords": [60, 60, 61, 61]})
            deadline = time.monotonic() + 10.0
            while recovered.delta_ops_pending \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            assert recovered.delta_ops_pending == 0
            assert recovered.base_epoch == loaded.base_epoch + 1
            assert len(recovered.tree) == 22
        finally:
            service.close()


class TestManifest:
    def test_corrupt_manifest_is_fatal(self, tmp_path):
        data_dir = tmp_path / "data"
        db, manager = _open(data_dir)
        db.create_relation("roads")
        manager.close()
        with open(data_dir / MANIFEST, "w") as handle:
            handle.write("{ not json")
        with pytest.raises(RecoveryError):
            recover(str(data_dir))

    def test_unsupported_version_is_fatal(self, tmp_path):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        with open(data_dir / MANIFEST, "w") as handle:
            json.dump({"version": 99}, handle)
        with pytest.raises(RecoveryError):
            recover(str(data_dir))

    def test_missing_checkpoint_is_fatal(self, tmp_path):
        data_dir = tmp_path / "data"
        db, manager = _open(data_dir)
        db.create_relation("roads")
        manager.close()
        manifest = read_manifest(str(data_dir))
        import shutil
        shutil.rmtree(data_dir / manifest["checkpoint"])
        with pytest.raises(RecoveryError):
            recover(str(data_dir))


class TestMetrics:
    def test_recovery_counters_emitted(self, tmp_path):
        from repro.obs.core import Observability
        db, manager = _open(tmp_path / "data", checkpoint_every=1000)
        db.create_relation("roads")
        db.relations["roads"].insert(Rect(0, 0, 1, 1))
        _abandon(manager)
        obs = Observability()
        db2, manager2 = DurabilityManager.open(str(tmp_path / "data"),
                                               obs=obs)
        assert obs.metrics.counters["serve.recovery.replayed"] == 2
        assert "serve.recovery.ms" in obs.metrics.gauges
        manager2.close()

    def test_status_shape(self, tmp_path):
        db, manager = _open(tmp_path / "data")
        db.create_relation("roads")
        status = manager.status()
        for key in ("checkpoint_id", "last_lsn", "applied_lsn",
                    "sync", "wal_appends", "dirty_records", "recovery"):
            assert key in status
        assert status["dirty_records"] == 1
        manager.close()
