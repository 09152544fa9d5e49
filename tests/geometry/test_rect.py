"""Unit tests for the Rect value type."""

import math

import pytest

from repro.geometry import ComparisonCounter, Rect, intersect_count
from repro.geometry.rect import mbr_of_tuples


class TestConstruction:
    def test_basic_bounds(self):
        r = Rect(1, 2, 3, 4)
        assert (r.xl, r.yl, r.xu, r.yu) == (1.0, 2.0, 3.0, 4.0)

    def test_degenerate_point_allowed(self):
        r = Rect.point(5, 5)
        assert r.area() == 0.0
        assert r.width == 0.0 and r.height == 0.0

    def test_degenerate_line_allowed(self):
        r = Rect(0, 3, 10, 3)
        assert r.area() == 0.0
        assert r.margin() == 10.0

    def test_inverted_x_rejected(self):
        with pytest.raises(ValueError):
            Rect(3, 0, 1, 1)

    def test_inverted_y_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 3, 1, 1)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 0, math.nan, 1)

    def test_infinity_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 0, math.inf, 1)

    def test_immutable(self):
        r = Rect(0, 0, 1, 1)
        with pytest.raises(AttributeError):
            r.xl = 5.0

    def test_from_points(self):
        r = Rect.from_points([(3, 1), (0, 4), (2, 2)])
        assert r == Rect(0, 1, 3, 4)

    def test_from_points_empty_rejected(self):
        with pytest.raises(ValueError):
            Rect.from_points([])

    @pytest.mark.parametrize("points", [
        [(0, 0), (math.nan, 1)],
        [(0, 0), (1, math.nan)],
        [(0, 0), (2, 2), (math.nan, math.nan)],
        [(0, 0), (-math.inf, 1)],
        [(math.nan, 0), (1, 1)],
    ])
    def test_from_points_non_finite_rejected(self, points):
        # A NaN fails every comparison, so past the first point only an
        # explicit check keeps it from vanishing from the MBR.
        with pytest.raises(ValueError):
            Rect.from_points(points)

    def test_polyline_and_polygon_reject_a_nan_vertex(self):
        from repro.geometry import Polygon, Polyline
        with pytest.raises(ValueError):
            Polyline([(0, 0), (math.nan, 1)])
        with pytest.raises(ValueError):
            Polygon([(0, 0), (math.nan, 0), (1, 1)])

    def test_mbr_of(self):
        r = Rect.mbr_of([Rect(0, 0, 1, 1), Rect(2, -1, 3, 0.5)])
        assert r == Rect(0, -1, 3, 1)

    def test_mbr_of_empty_rejected(self):
        with pytest.raises(ValueError):
            Rect.mbr_of([])

    def test_mbr_of_tuples(self):
        r = mbr_of_tuples([(0, 0, 1, 1), (2, 2, 3, 3)])
        assert r == Rect(0, 0, 3, 3)

    def test_mbr_of_tuples_empty_rejected(self):
        with pytest.raises(ValueError):
            mbr_of_tuples([])


class TestMetrics:
    def test_area(self):
        assert Rect(0, 0, 4, 3).area() == 12.0

    def test_margin_is_half_perimeter(self):
        assert Rect(0, 0, 4, 3).margin() == 7.0

    def test_center(self):
        assert Rect(0, 0, 4, 2).center() == (2.0, 1.0)

    def test_enlargement_disjoint(self):
        base = Rect(0, 0, 2, 2)
        assert base.enlargement(Rect(4, 0, 6, 2)) == 12.0 - 4.0

    def test_enlargement_contained_is_zero(self):
        base = Rect(0, 0, 10, 10)
        assert base.enlargement(Rect(2, 2, 3, 3)) == 0.0


class TestPredicates:
    def test_intersects_overlap(self):
        assert Rect(0, 0, 2, 2).intersects(Rect(1, 1, 3, 3))

    def test_intersects_boundary_touch_counts(self):
        assert Rect(0, 0, 2, 2).intersects(Rect(2, 0, 4, 2))
        assert Rect(0, 0, 2, 2).intersects(Rect(0, 2, 2, 4))

    def test_intersects_corner_touch_counts(self):
        assert Rect(0, 0, 2, 2).intersects(Rect(2, 2, 4, 4))

    def test_disjoint(self):
        assert not Rect(0, 0, 1, 1).intersects(Rect(2, 2, 3, 3))
        assert not Rect(0, 0, 1, 1).intersects(Rect(0, 2, 1, 3))

    def test_contains(self):
        assert Rect(0, 0, 10, 10).contains(Rect(1, 1, 2, 2))
        assert Rect(0, 0, 10, 10).contains(Rect(0, 0, 10, 10))
        assert not Rect(1, 1, 2, 2).contains(Rect(0, 0, 10, 10))

    def test_within(self):
        assert Rect(1, 1, 2, 2).within(Rect(0, 0, 10, 10))

    def test_contains_point(self):
        r = Rect(0, 0, 2, 2)
        assert r.contains_point(1, 1)
        assert r.contains_point(0, 0)
        assert not r.contains_point(3, 1)


class TestCombinations:
    def test_intersection(self):
        r = Rect(0, 0, 4, 4).intersection(Rect(2, 2, 6, 6))
        assert r == Rect(2, 2, 4, 4)

    def test_intersection_disjoint_is_none(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(5, 5, 6, 6)) is None

    def test_intersection_touch_is_degenerate(self):
        r = Rect(0, 0, 2, 2).intersection(Rect(2, 0, 4, 2))
        assert r == Rect(2, 0, 2, 2)
        assert r.area() == 0.0

    def test_union(self):
        assert Rect(0, 0, 1, 1).union(Rect(3, 3, 4, 4)) == Rect(0, 0, 4, 4)

    def test_intersection_area(self):
        assert Rect(0, 0, 4, 4).intersection_area(Rect(2, 2, 6, 6)) == 4.0
        assert Rect(0, 0, 1, 1).intersection_area(Rect(5, 5, 6, 6)) == 0.0
        assert Rect(0, 0, 2, 2).intersection_area(Rect(2, 0, 4, 2)) == 0.0


class TestCountedIntersection:
    def test_hit_costs_four(self):
        c = ComparisonCounter()
        assert intersect_count(Rect(0, 0, 2, 2), Rect(1, 1, 3, 3), c)
        assert c.join == 4

    def test_x_low_miss_costs_one(self):
        c = ComparisonCounter()
        # a.xl > b.xu fails first.
        assert not intersect_count(Rect(5, 0, 6, 1), Rect(0, 0, 1, 1), c)
        assert c.join == 1

    def test_x_high_miss_costs_two(self):
        c = ComparisonCounter()
        # b.xl > a.xu fails second.
        assert not intersect_count(Rect(0, 0, 1, 1), Rect(5, 0, 6, 1), c)
        assert c.join == 2

    def test_y_low_miss_costs_three(self):
        c = ComparisonCounter()
        assert not intersect_count(Rect(0, 5, 1, 6), Rect(0, 0, 1, 1), c)
        assert c.join == 3

    def test_y_high_miss_costs_four(self):
        c = ComparisonCounter()
        assert not intersect_count(Rect(0, 0, 1, 1), Rect(0, 5, 1, 6), c)
        assert c.join == 4

    def test_matches_uncounted_predicate(self):
        import random
        rng = random.Random(5)
        c = ComparisonCounter()
        for _ in range(500):
            a = Rect(rng.random(), rng.random(),
                     rng.random() + 1, rng.random() + 1)
            b = Rect(rng.random(), rng.random(),
                     rng.random() + 1, rng.random() + 1)
            assert intersect_count(a, b, c) == a.intersects(b)


class TestValueSemantics:
    def test_equality_and_hash(self):
        assert Rect(0, 0, 1, 1) == Rect(0, 0, 1, 1)
        assert hash(Rect(0, 0, 1, 1)) == hash(Rect(0, 0, 1, 1))
        assert Rect(0, 0, 1, 1) != Rect(0, 0, 1, 2)

    def test_not_equal_other_type(self):
        assert Rect(0, 0, 1, 1) != (0, 0, 1, 1)

    def test_iteration_and_tuple(self):
        r = Rect(1, 2, 3, 4)
        assert tuple(r) == (1, 2, 3, 4)
        assert r.as_tuple() == (1, 2, 3, 4)

    def test_pickle_roundtrip(self):
        import pickle
        r = Rect(1, 2, 3, 4)
        assert pickle.loads(pickle.dumps(r)) == r
