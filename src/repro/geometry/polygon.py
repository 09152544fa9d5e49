"""Simple polygons — the exact representation of region objects (test E).

Polygons are stored as a closed ring of vertices (the closing edge is
implicit).  The exact predicates implement the refinement step of the
ID-/object-spatial-join for region data: two polygons intersect iff their
boundaries cross or one contains a vertex of the other.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

from .rect import Rect
from .segment import Segment, segments_intersect


class Polygon:
    """A simple (non-self-intersecting) polygon given by its ring."""

    __slots__ = ("_vertices", "_mbr")

    def __init__(self, vertices: Iterable[Tuple[float, float]]) -> None:
        verts = [(float(x), float(y)) for x, y in vertices]
        if len(verts) < 3:
            raise ValueError("a polygon needs at least three vertices")
        # Every closing copy of the first vertex goes, so the stored
        # ring never ends on it and rebuilding from it is the identity.
        while len(verts) > 1 and verts[0] == verts[-1]:
            verts.pop()
        if len(verts) < 3:
            raise ValueError("a polygon needs at least three distinct vertices")
        object.__setattr__(self, "_vertices", tuple(verts))
        object.__setattr__(self, "_mbr", Rect.from_points(verts))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polygon is immutable")

    def __reduce__(self):
        return (Polygon, (list(self._vertices),))

    @property
    def vertices(self) -> Tuple[Tuple[float, float], ...]:
        return self._vertices

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of the ring."""
        return self._mbr

    def edges(self) -> Iterator[Segment]:
        """Yield the ring's edges, including the closing edge."""
        verts = self._vertices
        n = len(verts)
        for i in range(n):
            (x1, y1), (x2, y2) = verts[i], verts[(i + 1) % n]
            yield Segment(x1, y1, x2, y2)

    def signed_area(self) -> float:
        """Shoelace signed area (positive for counter-clockwise rings)."""
        verts = self._vertices
        n = len(verts)
        total = 0.0
        for i in range(n):
            x1, y1 = verts[i]
            x2, y2 = verts[(i + 1) % n]
            total += x1 * y2 - x2 * y1
        return total / 2.0

    def area(self) -> float:
        """Unsigned polygon area."""
        return abs(self.signed_area())

    def contains_point(self, x: float, y: float) -> bool:
        """Ray-casting point-in-polygon test (boundary points count as inside)."""
        verts = self._vertices
        n = len(verts)
        inside = False
        for i in range(n):
            x1, y1 = verts[i]
            x2, y2 = verts[(i + 1) % n]
            # Boundary check: point on edge.
            if segments_intersect((x1, y1), (x2, y2), (x, y), (x, y)):
                return True
            if (y1 > y) != (y2 > y):
                x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
                if x < x_cross:
                    inside = not inside
        return inside

    def intersects(self, other: "Polygon") -> bool:
        """Exact region-intersection test.

        True when the boundaries cross, or when one polygon lies entirely
        inside the other (tested via a representative vertex).
        """
        if not self._mbr.intersects(other._mbr):
            return False
        mine = list(self.edges())
        theirs = list(other.edges())
        for a in mine:
            amb = a.mbr()
            for b in theirs:
                if amb.intersects(b.mbr()) and a.intersects(b):
                    return True
        ox, oy = other._vertices[0]
        if self.contains_point(ox, oy):
            return True
        sx, sy = self._vertices[0]
        return other.contains_point(sx, sy)

    def __len__(self) -> int:
        return len(self._vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return self._vertices == other._vertices

    def __hash__(self) -> int:
        return hash(self._vertices)

    def __repr__(self) -> str:
        return f"Polygon({list(self._vertices)!r})"


def regular_polygon(cx: float, cy: float, radius: float, sides: int = 8,
                    rotation: float = 0.0) -> Polygon:
    """Convenience constructor for a regular polygon around a center."""
    import math
    if sides < 3:
        raise ValueError("a polygon needs at least three sides")
    step = 2.0 * math.pi / sides
    return Polygon([
        (cx + radius * math.cos(rotation + i * step),
         cy + radius * math.sin(rotation + i * step))
        for i in range(sides)
    ])
