"""Tests for MVCC snapshots: isolation, visibility, epoch semantics."""

import random

import pytest

from repro.db.relation import SpatialRelation
from repro.errors import CatalogError
from repro.geometry import Rect


def rect(x, y, w=5.0, h=5.0):
    return Rect(x, y, x + w, y + h)


def build_relation(n=60, seed=3):
    relation = SpatialRelation("roads", page_size=1024)
    rng = random.Random(seed)
    for _ in range(n):
        relation.insert(rect(rng.uniform(0, 200), rng.uniform(0, 200)))
    relation.rebuild()
    return relation


class TestIsolation:
    def test_snapshot_does_not_see_later_writes(self):
        relation = build_relation()
        before = relation.snapshot()
        count = len(before)
        new_oid = relation.insert(rect(300, 300))
        relation.delete(0)
        assert len(before) == count
        assert new_oid not in before
        assert 0 in before
        after = relation.snapshot()
        assert new_oid in after and 0 not in after

    def test_snapshot_survives_rebuild(self):
        relation = build_relation()
        relation.insert(rect(300, 300))
        relation.delete(1)
        before = relation.snapshot()
        visible = dict(before.objects)
        assert relation.rebuild()
        # The old snapshot still reads through its frozen delta over
        # the old tree; the data it exposes is unchanged.
        assert dict(before.objects) == visible
        assert dict(relation.snapshot().objects) == visible

    def test_same_epoch_returns_same_snapshot(self):
        relation = build_relation()
        assert relation.snapshot() is relation.snapshot()
        relation.insert(rect(1, 1))
        assert relation.snapshot() is not None


class TestVisibility:
    def test_merged_mapping_protocol(self):
        relation = build_relation(n=10)
        added = relation.insert(rect(50, 50))
        relation.delete(0)
        snap = relation.snapshot()
        objects = snap.objects
        assert len(objects) == 10
        assert added in objects and 0 not in objects
        assert set(iter(objects)) == set(objects.keys())
        assert objects[added] == rect(50, 50)
        with pytest.raises(KeyError):
            objects[0]

    def test_reinsert_after_delete_shows_new_geometry(self):
        relation = build_relation(n=5)
        relation.delete(2)
        relation.insert(rect(99, 99), oid=2)
        snap = relation.snapshot()
        assert snap.get(2) == rect(99, 99)
        assert snap.objects[2] == rect(99, 99)

    def test_get_raises_catalog_error_for_hidden(self):
        relation = build_relation(n=5)
        relation.delete(3)
        with pytest.raises(CatalogError):
            relation.snapshot().get(3)

    def test_duplicate_insert_rejected_against_merged_view(self):
        relation = build_relation(n=5)
        new_oid = relation.insert(rect(10, 10))
        with pytest.raises(CatalogError):
            relation.insert(rect(0, 0), oid=new_oid)
        with pytest.raises(CatalogError):
            relation.insert(rect(0, 0), oid=0)       # base row

    def test_window_refs_matches_brute_force(self):
        relation = build_relation(n=80, seed=9)
        rng = random.Random(1)
        for _ in range(25):
            relation.insert(rect(rng.uniform(0, 200),
                                 rng.uniform(0, 200)))
        for oid in (0, 5, 17):
            relation.delete(oid)
        snap = relation.snapshot()
        for _ in range(20):
            window = rect(rng.uniform(0, 160), rng.uniform(0, 160),
                          40, 40)
            expected = sorted(oid for oid, g in snap.objects.items()
                              if g.intersects(window))
            assert sorted(snap.window(window)) == expected
            assert snap.window(window) == expected        # sorted
            # The cacheable split composes to the same answer.
            base = snap.window_base(window)
            assert snap.window_overlay(base, window) == expected

    def test_the_window_overlay_is_written_once(self):
        """One MVCC window rule — ``Snapshot.window_base`` /
        ``window_overlay`` / ``window`` — behind the relation and the
        query service alike; the older spellings are gone."""
        import inspect

        from repro.core import WindowQueryEngine
        from repro.db.snapshot import Snapshot
        from repro.serve import service
        assert not hasattr(Snapshot, "window_refs")
        assert list(inspect.signature(
            WindowQueryEngine.query).parameters) == ["self", "window"]
        source = inspect.getsource(service)
        assert "db.relation import" not in source
        assert "window_base" in source and "window_overlay" in source
        assert "added_in" not in source and ".hidden" not in source

    def test_exact_window_refines_both_halves(self):
        from repro.geometry import Polyline
        relation = SpatialRelation("lines", page_size=512)
        # A diagonal whose MBR covers the window but whose geometry
        # misses it, in the base and again in the delta.
        relation.insert(Polyline([(0, 0), (100, 100)]), oid=1)
        relation.insert(Polyline([(60, 0), (100, 40)]), oid=2)
        relation.rebuild()
        relation.insert(Polyline([(0, 0), (100, 100)]), oid=3)
        relation.insert(Polyline([(60, 0), (100, 40)]), oid=4)
        relation.delete(1)
        window = rect(70, 0, 20, 20)
        assert relation.window(window) == [2, 3, 4]
        assert relation.window(window, exact=True) == [2, 4]
        snap = relation.snapshot()
        assert snap.window_base(window, exact=True) == [2]
        assert snap.window_base(window) == [1, 2]


class TestEpochs:
    def test_delta_write_bumps_epoch_only(self):
        relation = build_relation()
        epoch, base = relation.epoch, relation.base_epoch
        relation.insert(rect(1, 1))
        assert relation.epoch == epoch + 1
        assert relation.base_epoch == base

    def test_rebuild_bumps_base_epoch_only(self):
        relation = build_relation()
        relation.insert(rect(1, 1))
        epoch, base = relation.epoch, relation.base_epoch
        assert relation.rebuild()
        assert relation.epoch == epoch
        assert relation.base_epoch == base + 1
        assert relation.delta_ops_pending == 0

    def test_rebuild_without_pending_delta_is_a_noop(self):
        relation = build_relation()
        assert relation.rebuild() is False

    def test_flush_merges_the_pending_delta_into_the_tree(self):
        relation = build_relation(n=10)
        added = relation.insert(rect(70, 70))
        relation.delete(0)
        assert relation.rebuild()
        assert relation.delta_ops_pending == 0
        assert added in relation.objects and 0 not in relation.objects
        # The tree itself now holds the merged records.
        refs = list(relation.tree.window_query(rect(69, 69, 10, 10)))
        assert added in refs
