"""Geometry substrate: MBRs, exact geometry, and counted predicates.

Everything the paper's filter step sees is a :class:`Rect`; everything the
refinement step sees is a :class:`Polyline` or :class:`Polygon`.  CPU cost
is accounted through :class:`ComparisonCounter` and
:func:`intersect_count`, which implement the paper's comparison metric.
"""

from .clipping import clip_polygon, clip_polyline, clip_segment, is_convex
from .counting import ComparisonCounter
from .point import Point
from .polygon import Polygon, regular_polygon
from .polyline import Polyline, split_into_records
from .predicates import SpatialPredicate
from .rect import Rect, geometry_mbr, intersect_count, mbr_of_tuples
from .segment import Segment, segment_intersection_point, segments_intersect
from .sweepline import count_intersecting_pairs, intersecting_segment_pairs

__all__ = [
    "ComparisonCounter",
    "Point",
    "Polygon",
    "Polyline",
    "Rect",
    "Segment",
    "SpatialPredicate",
    "clip_polygon",
    "clip_polyline",
    "clip_segment",
    "count_intersecting_pairs",
    "geometry_mbr",
    "intersect_count",
    "is_convex",
    "segment_intersection_point",
    "intersecting_segment_pairs",
    "mbr_of_tuples",
    "regular_polygon",
    "segments_intersect",
    "split_into_records",
]
