"""Tests for SpatialRelation."""

import pytest

from repro.db import SpatialRelation
from repro.geometry import Polygon, Polyline, Rect
from repro.rtree import validate_rtree


@pytest.fixture
def relation():
    rel = SpatialRelation("parcels", page_size=1024)
    rel.insert(Rect(0, 0, 10, 10))              # id 0
    rel.insert(Polyline([(20, 20), (30, 30)]))  # id 1
    rel.insert(Polygon([(40, 40), (50, 40), (45, 50)]))  # id 2
    return rel


class TestMaintenance:
    def test_auto_ids(self, relation):
        assert sorted(relation) == [0, 1, 2]
        assert len(relation) == 3

    def test_explicit_id(self, relation):
        oid = relation.insert(Rect(1, 1, 2, 2), oid=77)
        assert oid == 77
        # Auto ids continue above the explicit one.
        assert relation.insert(Rect(2, 2, 3, 3)) == 78

    def test_duplicate_id_rejected(self, relation):
        with pytest.raises(KeyError):
            relation.insert(Rect(0, 0, 1, 1), oid=0)

    def test_delete(self, relation):
        relation.delete(1)
        assert len(relation) == 2
        assert relation.window(Rect(0, 0, 100, 100)) == [0, 2] or \
            sorted(relation.window(Rect(0, 0, 100, 100))) == [0, 2]
        validate_rtree(relation.tree)

    def test_delete_missing(self, relation):
        with pytest.raises(KeyError):
            relation.delete(99)

    def test_delete_missing_is_catalog_error_without_epoch_bump(
            self, relation):
        from repro.errors import CatalogError
        epoch = relation.epoch
        with pytest.raises(CatalogError):
            relation.delete(99)
        # A failed delete changes nothing, so caches keyed on the
        # epoch must stay valid.
        assert relation.epoch == epoch
        assert len(relation) == 3

    def test_delete_then_reinsert_same_oid(self, relation):
        relation.delete(1)
        oid = relation.insert(Rect(60, 60, 61, 61), oid=1)
        assert oid == 1
        assert relation.get(1) == Rect(60, 60, 61, 61)
        assert sorted(relation) == [0, 1, 2]
        assert sorted(relation.window(Rect(0, 0, 100, 100))) == [0, 1, 2]
        validate_rtree(relation.tree)

    def test_mutations_bump_epoch(self, relation):
        epoch = relation.epoch
        oid = relation.insert(Rect(70, 70, 71, 71))
        assert relation.epoch == epoch + 1
        relation.delete(oid)
        assert relation.epoch == epoch + 2

    @pytest.mark.parametrize("merged", [False, True])
    def test_auto_id_continues_past_a_loaded_base(self, relation, merged):
        """Loading a base by assignment (``tree`` + ``objects``, what
        ``SpatialDatabase.open`` and bulk loaders do) must leave the
        next auto-assigned id above every loaded one, whether the write
        is still pending in the delta or merged into a new base."""
        relation.rebuild()
        loaded = SpatialRelation("loaded", page_size=1024)
        loaded.tree = relation.tree
        loaded.objects = dict(relation.objects)
        assert loaded.insert(Rect(70, 70, 71, 71)) == 3
        if merged:
            loaded.rebuild()
            assert loaded.delta_ops_pending == 0
            assert sorted(loaded.tree.window_query(Rect(0, 0, 100, 100))) \
                == [0, 1, 2, 3]
            assert loaded.insert(Rect(80, 80, 81, 81)) == 4
            loaded.delete(4)
        assert sorted(loaded) == [0, 1, 2, 3]
        assert sorted(loaded.window(Rect(0, 0, 100, 100))) == [0, 1, 2, 3]

    def test_failed_rebuild_is_retried(self, relation):
        """A merge that raises leaves its frozen delta pending and
        visible; the next rebuild merges that delta plus the writes
        that arrived meanwhile."""
        def failing(fill=0.9):
            raise OSError("injected merge failure")

        relation.build_merged = failing
        with pytest.raises(OSError):
            relation.rebuild()
        del relation.build_merged
        assert len(relation.merging) == 3
        late = relation.insert(Rect(70, 70, 71, 71))
        assert sorted(relation) == [0, 1, 2, late]
        assert relation.rebuild()           # the frozen delta
        assert relation.delta_ops_pending == 1
        assert relation.rebuild()           # the late write
        assert relation.delta_ops_pending == 0
        assert not relation.merging
        assert sorted(relation.tree.window_query(Rect(0, 0, 100, 100))) \
            == [0, 1, 2, late]

    def test_invalid_names(self):
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(ValueError):
                SpatialRelation(bad)

    def test_index_and_table_stay_in_sync(self):
        import random
        rng = random.Random(7)
        rel = SpatialRelation("random", page_size=256)
        live = set()
        for _ in range(600):
            if live and rng.random() < 0.4:
                victim = rng.choice(sorted(live))
                rel.delete(victim)
                live.discard(victim)
            else:
                x, y = rng.random() * 100, rng.random() * 100
                oid = rel.insert(Rect(x, y, x + 1, y + 1))
                live.add(oid)
        assert set(rel) == live
        assert sorted(rel.window(Rect(0, 0, 100, 100))) == sorted(live)
        rel.rebuild()
        validate_rtree(rel.tree)
        assert sorted(rel.tree.window_query(Rect(0, 0, 100, 100))) \
            == sorted(live)


class TestQueries:
    def test_window_mbr(self, relation):
        assert relation.window(Rect(0, 0, 15, 15)) == [0]
        assert sorted(relation.window(Rect(0, 0, 100, 100))) == [0, 1, 2]

    def test_window_exact_refines(self):
        rel = SpatialRelation("lines")
        # MBR overlaps the window but the diagonal line misses it.
        rel.insert(Polyline([(0, 0), (10, 10)]))
        window = Rect(6, 0, 10, 4)    # below the diagonal
        assert rel.window(window) == [0]
        assert rel.window(window, exact=True) == []

    def test_window_exact_keeps_rect_objects(self, relation):
        window = Rect(5, 5, 12, 12)
        assert relation.window(window, exact=True) == [0]

    def test_window_exact_degenerate_falls_back(self, relation):
        window = Rect(5, 5, 5, 5)
        assert relation.window(window, exact=True) == \
            relation.window(window)

    def test_nearest(self, relation):
        got = relation.nearest(21, 21, k=2)
        assert [ref for ref, _ in got][0] == 1
        assert len(got) == 2

    def test_get(self, relation):
        assert relation.get(0) == Rect(0, 0, 10, 10)
        with pytest.raises(KeyError):
            relation.get(404)

    def test_records_and_mbr(self, relation):
        records = relation.records
        assert [oid for _, oid in records] == [0, 1, 2]
        assert relation.mbr() == Rect(0, 0, 50, 50)
