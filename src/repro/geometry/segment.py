"""Line segments with exact intersection predicates.

The refinement step of the ID- and object-spatial-joins (Section 2.1)
needs exact geometry: two polylines/polygon boundaries intersect iff some
pair of their segments does.  The predicates here use the standard
orientation (counter-clockwise) test, which is robust for the float
coordinates produced by our generators.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from .rect import Rect


def orientation(ax: float, ay: float, bx: float, by: float,
                cx: float, cy: float) -> int:
    """Sign of the cross product (b-a) x (c-a).

    Returns 1 for counter-clockwise, -1 for clockwise, 0 for collinear.
    """
    cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if cross > 0.0:
        return 1
    if cross < 0.0:
        return -1
    return 0


def _on_segment(ax: float, ay: float, bx: float, by: float,
                px: float, py: float) -> bool:
    """True when collinear point p lies on the closed segment ab."""
    return (min(ax, bx) <= px <= max(ax, bx)
            and min(ay, by) <= py <= max(ay, by))


def segments_intersect(a1: Tuple[float, float], a2: Tuple[float, float],
                       b1: Tuple[float, float], b2: Tuple[float, float]) -> bool:
    """Closed-segment intersection test (touching endpoints count)."""
    ax, ay = a1
    bx, by = a2
    cx, cy = b1
    dx, dy = b2
    o1 = orientation(ax, ay, bx, by, cx, cy)
    o2 = orientation(ax, ay, bx, by, dx, dy)
    o3 = orientation(cx, cy, dx, dy, ax, ay)
    o4 = orientation(cx, cy, dx, dy, bx, by)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(ax, ay, bx, by, cx, cy):
        return True
    if o2 == 0 and _on_segment(ax, ay, bx, by, dx, dy):
        return True
    if o3 == 0 and _on_segment(cx, cy, dx, dy, ax, ay):
        return True
    if o4 == 0 and _on_segment(cx, cy, dx, dy, bx, by):
        return True
    return False


def segment_intersection_point(
        a1: Tuple[float, float], a2: Tuple[float, float],
        b1: Tuple[float, float], b2: Tuple[float, float],
) -> Tuple[float, float] | None:
    """Intersection point of two properly crossing segments.

    Returns ``None`` for disjoint or collinear-overlapping pairs (an
    overlap has no single representative point); a touching endpoint is
    returned as the contact point.
    """
    ax, ay = a1
    bx, by = a2
    cx, cy = b1
    dx, dy = b2
    r_x = bx - ax
    r_y = by - ay
    s_x = dx - cx
    s_y = dy - cy
    denom = r_x * s_y - r_y * s_x
    if denom == 0.0:
        return None
    t = ((cx - ax) * s_y - (cy - ay) * s_x) / denom
    u = ((cx - ax) * r_y - (cy - ay) * r_x) / denom
    if 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0:
        return (ax + t * r_x, ay + t * r_y)
    return None


def any_segments_cross(mine: Iterable[Segment],
                       theirs: Iterable[Segment]) -> bool:
    """True when some segment of *mine* meets some segment of *theirs*.

    Each pair is filtered on the two segment MBRs before the exact
    orientation test.
    """
    theirs = list(theirs)
    for a in mine:
        amb = a.mbr()
        for b in theirs:
            if amb.intersects(b.mbr()) and a.intersects(b):
                return True
    return False


class Segment:
    """An immutable line segment between two points."""

    __slots__ = ("x1", "y1", "x2", "y2")

    def __init__(self, x1: float, y1: float, x2: float, y2: float) -> None:
        object.__setattr__(self, "x1", float(x1))
        object.__setattr__(self, "y1", float(y1))
        object.__setattr__(self, "x2", float(x2))
        object.__setattr__(self, "y2", float(y2))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Segment is immutable")

    def __reduce__(self):
        return (Segment, (self.x1, self.y1, self.x2, self.y2))

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of the segment."""
        return Rect(min(self.x1, self.x2), min(self.y1, self.y2),
                    max(self.x1, self.x2), max(self.y1, self.y2))

    def intersects(self, other: "Segment") -> bool:
        return segments_intersect(
            (self.x1, self.y1), (self.x2, self.y2),
            (other.x1, other.y1), (other.x2, other.y2))

    def endpoints(self) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        return ((self.x1, self.y1), (self.x2, self.y2))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Segment):
            return NotImplemented
        return (self.x1, self.y1, self.x2, self.y2) == \
            (other.x1, other.y1, other.x2, other.y2)

    def __hash__(self) -> int:
        return hash((self.x1, self.y1, self.x2, self.y2))

    def __repr__(self) -> str:
        return f"Segment({self.x1}, {self.y1}, {self.x2}, {self.y2})"
