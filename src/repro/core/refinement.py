"""The refinement step: ID- and object-spatial-joins (Section 2.1).

The MBR-spatial-join is the *filter step*; this module implements the
*refinement step* on the exact geometry:

1. **ID-spatial-join** — keep only the candidate pairs whose exact
   objects really intersect.
2. **Object-spatial-join** — additionally compute the resulting
   geometry: boundary intersection points for line data, the clipped
   intersection polygon for convex region data.

The paper leaves joins "which actually operate on the real spatial
objects" to future work (Section 6); this is our implementation of that
extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..geometry.clipping import clip_polygon, clip_polyline, is_convex
from ..geometry.polygon import Polygon
from ..geometry.polyline import Polyline
from ..geometry.rect import Rect
from ..geometry.segment import any_segments_cross, segment_intersection_point

SpatialObject = Union[Polyline, Polygon]
IdPair = Tuple[int, int]


@dataclass
class RefinementStats:
    """Filter effectiveness of the two-step architecture."""

    candidates: int = 0
    survivors: int = 0

    @property
    def false_hit_ratio(self) -> float:
        """Fraction of MBR candidates the exact test rejected."""
        if self.candidates == 0:
            return 0.0
        return 1.0 - self.survivors / self.candidates


@dataclass
class ObjectIntersection:
    """One result object of the object-spatial-join."""

    id_r: int
    id_s: int
    #: Boundary crossing points (line/line, line/region, region/region).
    points: List[Tuple[float, float]] = field(default_factory=list)
    #: Intersection region for region/region pairs (None for line data or
    #: when the intersection is lower-dimensional).
    region: Optional[Polygon] = None
    #: Line pieces inside the region for line/region pairs with a
    #: convex region (the clipped polyline).
    line_pieces: List[Polyline] = field(default_factory=list)


def id_spatial_join(candidates: Iterable[IdPair],
                    objects_r: Mapping[int, SpatialObject],
                    objects_s: Mapping[int, SpatialObject],
                    ) -> Tuple[List[IdPair], RefinementStats]:
    """Refine MBR candidate pairs with the exact intersection test."""
    stats = RefinementStats()
    survivors: List[IdPair] = []
    for id_r, id_s in candidates:
        stats.candidates += 1
        obj_r = objects_r[id_r]
        obj_s = objects_s[id_s]
        if _exact_intersects(obj_r, obj_s):
            survivors.append((id_r, id_s))
    stats.survivors = len(survivors)
    return survivors, stats


def object_spatial_join(candidates: Iterable[IdPair],
                        objects_r: Mapping[int, SpatialObject],
                        objects_s: Mapping[int, SpatialObject],
                        ) -> Tuple[List[ObjectIntersection], RefinementStats]:
    """Refine candidates and compute the resulting intersection objects."""
    stats = RefinementStats()
    results: List[ObjectIntersection] = []
    for id_r, id_s in candidates:
        stats.candidates += 1
        obj_r = objects_r[id_r]
        obj_s = objects_s[id_s]
        if not _exact_intersects(obj_r, obj_s):
            continue
        intersection = ObjectIntersection(id_r=id_r, id_s=id_s)
        intersection.points = _boundary_crossings(obj_r, obj_s)
        if isinstance(obj_r, Polygon) and isinstance(obj_s, Polygon):
            intersection.region = _region_intersection(obj_r, obj_s)
        elif isinstance(obj_r, Polyline) != isinstance(obj_s, Polyline):
            line, region = ((obj_r, obj_s)
                            if isinstance(obj_r, Polyline)
                            else (obj_s, obj_r))
            assert isinstance(region, Polygon)
            if is_convex(region):
                intersection.line_pieces = clip_polyline(line, region)
        results.append(intersection)
    stats.survivors = len(results)
    return results, stats


# ----------------------------------------------------------------------
# Exact predicates
# ----------------------------------------------------------------------

def _exact_intersects(a: SpatialObject, b: SpatialObject) -> bool:
    if isinstance(a, Polyline) and isinstance(b, Polyline):
        return a.intersects(b)
    if isinstance(a, Polygon) and isinstance(b, Polygon):
        return a.intersects(b)
    line, region = (a, b) if isinstance(a, Polyline) else (b, a)
    assert isinstance(line, Polyline) and isinstance(region, Polygon)
    return _line_meets_region(line, region)


def _line_meets_region(line: Polyline, region: Polygon) -> bool:
    """A polyline meets a polygon when a boundary crossing exists or an
    endpoint lies inside."""
    if not line.mbr().intersects(region.mbr()):
        return False
    if any_segments_cross(line.segments(), region.edges()):
        return True
    x, y = line.vertices[0]
    return region.contains_point(x, y)


def exact_window_survivors(candidates: List[int], objects,
                           window: Rect) -> List[int]:
    """Refinement step of an exact window query: keep the candidates
    whose exact geometry intersects *window*.  A degenerate window
    cannot form a query polygon, so the MBR filter stands as-is then."""
    if window.area() == 0.0:
        return candidates
    survivors = []
    for oid in candidates:
        geometry = objects[oid]
        if isinstance(geometry, Rect):
            survivors.append(oid)         # MBR is the exact geometry
        elif _exact_meets_window(geometry, window):
            survivors.append(oid)
    return survivors


def _exact_meets_window(geometry: SpatialObject, window: Rect) -> bool:
    """Exact geometry vs. window rectangle (treated as a polygon)."""
    window_ring = Polygon([(window.xl, window.yl), (window.xu, window.yl),
                           (window.xu, window.yu), (window.xl, window.yu)])
    if isinstance(geometry, Polygon):
        return geometry.intersects(window_ring)
    return _line_meets_region(geometry, window_ring)


# ----------------------------------------------------------------------
# Result geometry
# ----------------------------------------------------------------------

def _segments_of(obj: SpatialObject) -> Sequence:
    if isinstance(obj, Polyline):
        return list(obj.segments())
    return list(obj.edges())


def _boundary_crossings(a: SpatialObject,
                        b: SpatialObject) -> List[Tuple[float, float]]:
    """Every proper crossing point of the two boundaries (deduplicated)."""
    points: List[Tuple[float, float]] = []
    seen: set[Tuple[float, float]] = set()
    segs_b = _segments_of(b)
    for seg_a in _segments_of(a):
        amb = seg_a.mbr()
        for seg_b in segs_b:
            if not amb.intersects(seg_b.mbr()):
                continue
            point = segment_intersection_point(
                (seg_a.x1, seg_a.y1), (seg_a.x2, seg_a.y2),
                (seg_b.x1, seg_b.y1), (seg_b.x2, seg_b.y2))
            if point is not None and point not in seen:
                seen.add(point)
                points.append(point)
    return points


def _region_intersection(a: Polygon, b: Polygon) -> Optional[Polygon]:
    """Intersection polygon when one operand is convex, else ``None``
    (callers still have the crossing points)."""
    if is_convex(b):
        return clip_polygon(a, b)
    if is_convex(a):
        return clip_polygon(b, a)
    return None
