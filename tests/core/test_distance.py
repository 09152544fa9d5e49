"""Tests for the within-distance join (extension)."""

import random

import pytest

from repro.core.distance import distance_join, rect_mindist
from repro.db import SpatialDatabase
from repro.geometry import Rect
from tests.conftest import build_rstar, make_rects
from repro.core import JoinSpec


class TestRectMindist:
    def test_intersecting_is_zero(self):
        assert rect_mindist(Rect(0, 0, 2, 2), Rect(1, 1, 3, 3)) == 0.0

    def test_horizontal_gap(self):
        assert rect_mindist(Rect(0, 0, 1, 1), Rect(4, 0, 5, 1)) == 3.0

    def test_vertical_gap(self):
        assert rect_mindist(Rect(0, 0, 1, 1), Rect(0, 3, 1, 4)) == 2.0

    def test_diagonal_gap(self):
        assert rect_mindist(Rect(0, 0, 1, 1), Rect(4, 5, 6, 7)) == 5.0

    def test_symmetry(self):
        a, b = Rect(0, 0, 1, 1), Rect(7, 2, 8, 3)
        assert rect_mindist(a, b) == rect_mindist(b, a)

    def test_touching_is_zero(self):
        assert rect_mindist(Rect(0, 0, 1, 1), Rect(1, 0, 2, 1)) == 0.0


def brute_near(left, right, d):
    return {(i, j) for a, i in left for b, j in right
            if rect_mindist(a, b) <= d}


class TestDistanceJoin:
    @pytest.fixture(scope="class")
    def data(self):
        left = make_rects(900, seed=801)
        right = make_rects(900, seed=802)
        return left, right, build_rstar(left, 256), build_rstar(right, 256)

    @pytest.mark.parametrize("distance", [0.0, 5.0, 25.0, 120.0])
    def test_matches_brute_force(self, data, distance):
        left, right, tree_r, tree_s = data
        result = distance_join(tree_r, tree_s, distance, buffer_kb=16)
        assert result.pair_set() == brute_near(left, right, distance)

    def test_zero_distance_equals_intersection_join(self, data):
        from repro.core import spatial_join
        _, _, tree_r, tree_s = data
        near = distance_join(tree_r, tree_s, 0.0, buffer_kb=16)
        intersect = spatial_join(tree_r, tree_s,
                                 spec=JoinSpec(algorithm="sj4", buffer_kb=16))
        assert near.pair_set() == intersect.pair_set()

    def test_monotone_in_distance(self, data):
        _, _, tree_r, tree_s = data
        small = distance_join(tree_r, tree_s, 5.0).pair_set()
        large = distance_join(tree_r, tree_s, 50.0).pair_set()
        assert small <= large

    def test_different_heights(self):
        big = make_rects(5000, seed=803)
        small = make_rects(150, seed=804)
        tree_big = build_rstar(big, 256)
        tree_small = build_rstar(small, 256)
        assert tree_big.height > tree_small.height
        for pair in ((tree_big, tree_small, big, small),
                     (tree_small, tree_big, small, big)):
            tree_l, tree_r_, recs_l, recs_r = pair
            result = distance_join(tree_l, tree_r_, 20.0, buffer_kb=16)
            assert result.pair_set() == brute_near(recs_l, recs_r, 20.0)

    def test_negative_distance_rejected(self, data):
        _, _, tree_r, tree_s = data
        with pytest.raises(ValueError):
            distance_join(tree_r, tree_s, -1.0)

    def test_counters_populated(self, data):
        _, _, tree_r, tree_s = data
        result = distance_join(tree_r, tree_s, 10.0, buffer_kb=16)
        assert result.stats.comparisons.join > 0
        assert result.stats.disk_accesses > 0
        assert result.stats.algorithm == "distance<=10"

    def test_empty_tree(self, data):
        from repro.rtree import RStarTree, RTreeParams
        _, _, tree_r, _ = data
        empty = RStarTree(RTreeParams.from_page_size(256))
        assert distance_join(tree_r, empty, 10.0).pairs == []


class TestDistanceJoinOverDeltas:
    """``db.distance_join`` over snapshots with pending writes: the
    overlay is the engine's, run with the distance algorithm."""

    @staticmethod
    def brute(db, d):
        return {(a, b)
                for rect_a, a in db.relation("big").records
                for rect_b, b in db.relation("small").records
                if rect_mindist(rect_a, rect_b) <= d}

    @pytest.mark.parametrize("left, right", [("big", "small"),
                                             ("small", "big")])
    def test_matches_brute_force_before_and_after_rebuild(self, left,
                                                          right):
        db = SpatialDatabase(page_size=256)
        sizes = {"big": 700, "small": 25}
        for name, n in sizes.items():
            relation = db.create_relation(name)
            for rect, _ in make_rects(n, seed=811 + n, world=300.0):
                relation.insert(rect)
        db.flush_deltas()
        assert (db.relation("big").tree.height
                > db.relation("small").tree.height)
        rng = random.Random(812)
        for name, n in sizes.items():
            relation = db.relation(name)
            for rect, _ in make_rects(12, seed=813 + n, world=300.0):
                relation.insert(rect)
            for oid in rng.sample(range(n), 5):
                relation.delete(oid)
            # Deleted and re-inserted with new geometry: the base tree
            # still holds the old rectangle under this oid.
            moved = next(oid for oid in range(n)
                         if oid in relation.objects)
            relation.delete(moved)
            relation.insert(Rect(290, 290, 295, 295), oid=moved)
            assert relation.delta_ops_pending > 0

        def near(d):
            result = db.distance_join(left, right, d, buffer_kb=16)
            assert result.stats.pairs_output == len(result.pairs)
            assert len(result.pairs) == len(result.pair_set())
            pairs = result.pair_set()
            return pairs if left == "big" else {(b, a)
                                                for a, b in pairs}

        for d in (0.0, 12.0):
            expected = self.brute(db, d)
            assert expected
            assert near(d) == expected
        for name in sizes:
            assert db.relation(name).rebuild()
        assert near(12.0) == self.brute(db, 12.0)
