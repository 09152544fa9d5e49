"""What a checkpoint writes: linked bases, deltas, rent-or-buy.

Every assertion here counts files, inodes and records; none reads a
clock.
"""

import json
import os

from repro.db.database import SpatialDatabase
from repro.db.durability import DurabilityManager
from repro.geometry.rect import Rect
from repro.rtree.persist import save_tree


def _open(data_dir, **kwargs):
    kwargs.setdefault("checkpoint_every", 10_000)
    return DurabilityManager.open(str(data_dir), **kwargs)


def _abandon(manager):
    """Simulate process death: drop the WAL handle without checkpoint."""
    if not manager.wal._file.closed:
        manager.wal._file.close()


def _box(i):
    return Rect(i, i % 7, i + 2, i % 7 + 2)


def _served(data_dir, objects):
    """A durable database whose one relation ``roads`` has a base of
    *objects* rows on disk (checkpoint written, nothing pending)."""
    db, manager = _open(data_dir)
    roads = db.create_relation("roads")
    for i in range(objects):
        roads.insert(_box(i))
    roads.rebuild()
    manager.checkpoint()
    return db, manager, roads


def _checkpoint_dir(manager):
    return os.path.join(manager.data_dir, manager.manifest["checkpoint"])


def _stored(manager):
    """The catalog the newest checkpoint holds, as ``{name: {oid:
    geometry}}``."""
    db = SpatialDatabase.open(_checkpoint_dir(manager))
    return {name: dict(relation.objects)
            for name, relation in db.relations.items()}


def _visible(db):
    return {name: dict(relation.objects)
            for name, relation in db.relations.items()}


def _inodes(manager, name):
    directory = _checkpoint_dir(manager)
    return [os.stat(os.path.join(directory, name + suffix)).st_ino
            for suffix in (".rtree", ".geom")]


class TestLinking:
    def test_unchanged_base_keeps_its_inodes(self, tmp_path):
        db, manager, roads = _served(tmp_path / "data", 40)
        first = _inodes(manager, "roads")     # read before the GC
        roads.insert(_box(100))
        roads.delete(3)
        manager.checkpoint()
        assert _inodes(manager, "roads") == first
        status = manager.status()
        assert (status["bases_written"], status["bases_linked"]) == (1, 1)
        assert status["delta_records"] == 2
        assert _stored(manager) == _visible(db)
        manager.close()

    def test_checkpoint_bytes_count_writes_not_links(self, tmp_path):
        db, manager, roads = _served(tmp_path / "data", 40)
        whole = manager.checkpoint_bytes
        roads.insert(_box(100))
        manager.checkpoint()
        delta_only = manager.checkpoint_bytes - whole
        delta_file = os.path.join(_checkpoint_dir(manager), "roads.delta")
        manifest = os.path.join(_checkpoint_dir(manager), "manifest.json")
        assert delta_only == (os.path.getsize(delta_file)
                              + os.path.getsize(manifest))
        manager.close()

    def test_rebuilt_base_stays_linked_with_a_diff(self, tmp_path):
        db, manager, roads = _served(tmp_path / "data", 40)
        first = _inodes(manager, "roads")
        roads.insert(_box(100))
        roads.delete(5)
        roads.rebuild()                  # the base moved in memory ...
        roads.insert(_box(101))
        manager.checkpoint()             # ... the one on disk did not
        assert _inodes(manager, "roads") == first
        assert manager.status()["delta_records"] == 3
        assert _stored(manager) == _visible(db)
        manager.close()

    def test_first_checkpoint_after_a_start_links(self, tmp_path):
        db, manager, roads = _served(tmp_path / "data", 40)
        roads.insert(_box(100))
        manager.checkpoint()
        first = _inodes(manager, "roads")
        manager.close()
        db, manager = _open(tmp_path / "data")
        db.relation("roads").insert(_box(101))
        manager.checkpoint()
        assert (manager.bases_written, manager.bases_linked) == (0, 1)
        assert _inodes(manager, "roads") == first
        assert _stored(manager) == _visible(db)
        manager.close()


class TestRentOrBuy:
    def test_rewrites_exactly_at_the_crossing(self, tmp_path):
        # A base of 24 rows; every checkpoint follows a rebuild, so the
        # delta against the base on disk grows by 4 each time: 4, 8,
        # 12 records written — 24 in all, not more than the base holds,
        # so all linked — then 16 more would make 40 > 24: rewrite.
        db, manager, roads = _served(tmp_path / "data", 24)
        oid = 1000
        outcomes = []
        for _ in range(5):
            for _ in range(4):
                roads.insert(_box(oid), oid=oid)
                oid += 1
            roads.rebuild()
            written = manager.bases_written
            manager.checkpoint()
            outcomes.append(("written" if manager.bases_written > written
                             else "linked",
                             manager.status()["delta_records"]))
            assert _stored(manager) == _visible(db)
        assert outcomes == [("linked", 4), ("linked", 8), ("linked", 12),
                            ("written", 0), ("linked", 4)]
        manager.close()

    def test_an_unmoved_base_is_never_rewritten(self, tmp_path):
        # Rewriting the base the relation still holds would write the
        # same bytes and the same delta again: it stays linked however
        # large the delta grows.
        db, manager, roads = _served(tmp_path / "data", 4)
        for i in range(6):
            roads.insert(_box(100 + i))
            manager.checkpoint()
        assert (manager.bases_written, manager.bases_linked) == (1, 6)
        assert _stored(manager) == _visible(db)
        manager.close()


class TestWholeWrites:
    def test_recreated_name_is_written_whole(self, tmp_path):
        db, manager, roads = _served(tmp_path / "data", 10)
        roads.insert(_box(50), oid=50)
        manager.checkpoint()
        assert (manager.bases_written, manager.bases_linked) == (1, 1)
        rows = dict(roads.snapshot().base_objects)
        db.drop_relation("roads")
        # The same geometry objects under the same oids: matched by
        # name, the old base would diff to nothing and be linked.
        again = db.create_relation("roads")
        for oid, geometry in rows.items():
            again.insert(geometry, oid=oid)
        again.rebuild()
        manager.checkpoint()
        assert (manager.bases_written, manager.bases_linked) == (2, 1)
        assert manager.status()["delta_records"] == 0
        assert _stored(manager) == {"roads": rows}
        manager.close()


class TestSaveAndOpen:
    def _pending(self):
        db = SpatialDatabase()
        roads = db.create_relation("roads")
        for i in range(10):
            roads.insert(_box(i))
        roads.rebuild()
        roads.delete(2)
        roads.insert(_box(20), oid=20)
        roads.insert(_box(21), oid=21)
        return db, roads

    def test_stale_delta_is_never_applied(self, tmp_path):
        directory = str(tmp_path / "catalog")
        db, roads = self._pending()
        db.save(directory)
        roads.delete(21)          # the stale delta would bring it back
        roads.rebuild()
        db.save(directory)
        assert os.path.exists(os.path.join(directory, "roads.delta"))
        manifest = json.load(open(os.path.join(directory,
                                               "manifest.json")))
        assert "deltas" not in manifest
        reopened = SpatialDatabase.open(directory)
        assert dict(reopened.relation("roads").objects) \
            == dict(roads.objects)
        assert 21 not in reopened.relation("roads").objects

    def test_loaded_tree_is_the_bulk_load_of_the_visible_objects(
            self, tmp_path):
        directory = str(tmp_path / "catalog")
        db, roads = self._pending()
        db.save(directory)
        reopened = SpatialDatabase.open(directory).relation("roads")
        save_tree(reopened.tree, str(tmp_path / "loaded.rtree"))
        save_tree(roads.bulk_load(dict(roads.snapshot().objects)),
                  str(tmp_path / "expected.rtree"))
        assert open(tmp_path / "loaded.rtree", "rb").read() \
            == open(tmp_path / "expected.rtree", "rb").read()

    def test_recovered_tree_is_the_bulk_load_page_for_page(self, tmp_path):
        db, manager, roads = _served(tmp_path / "data", 30)
        roads.insert(_box(100))
        roads.delete(7)
        manager.checkpoint()
        expected = roads.bulk_load(dict(roads.snapshot().objects))
        _abandon(manager)
        db2, manager2 = _open(tmp_path / "data")
        assert manager2.recovery.replayed == 0
        save_tree(db2.relation("roads").tree, str(tmp_path / "got.rtree"))
        save_tree(expected, str(tmp_path / "want.rtree"))
        assert open(tmp_path / "got.rtree", "rb").read() \
            == open(tmp_path / "want.rtree", "rb").read()
        manager2.close()

    def test_no_delta_no_delta_files(self, tmp_path):
        directory = str(tmp_path / "catalog")
        db = SpatialDatabase()
        roads = db.create_relation("roads")
        roads.insert(_box(1))
        roads.rebuild()
        db.save(directory)
        assert sorted(os.listdir(directory)) == [
            "manifest.json", "roads.geom", "roads.rtree"]
        manifest = json.load(open(os.path.join(directory,
                                               "manifest.json")))
        assert "deltas" not in manifest


def test_status_reports_checkpoint_output(tmp_path):
    db, manager, roads = _served(tmp_path / "data", 12)
    status = manager.status()
    for key in ("bases_written", "bases_linked", "delta_records",
                "checkpoint_bytes", "last_checkpoint_ms"):
        assert key in status
    assert status["checkpoint_bytes"] > 0
    manager.close()
