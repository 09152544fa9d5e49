"""Polylines — the exact representation of TIGER-style line objects.

The paper's maps (streets, rivers, railways) are line objects: chains of
segments.  The MBR-spatial-join filters on MBRs; the refinement step then
tests the exact polylines with :meth:`Polyline.intersects`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from .rect import Rect
from .segment import Segment, any_segments_cross


class Polyline:
    """An open chain of at least two vertices."""

    __slots__ = ("_vertices", "_mbr")

    def __init__(self, vertices: Iterable[Tuple[float, float]]) -> None:
        verts = [(float(x), float(y)) for x, y in vertices]
        if len(verts) < 2:
            raise ValueError("a polyline needs at least two vertices")
        object.__setattr__(self, "_vertices", tuple(verts))
        object.__setattr__(self, "_mbr", Rect.from_points(verts))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polyline is immutable")

    def __reduce__(self):
        return (Polyline, (list(self._vertices),))

    @property
    def vertices(self) -> Tuple[Tuple[float, float], ...]:
        return self._vertices

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of all vertices."""
        return self._mbr

    def segments(self) -> Iterator[Segment]:
        """Yield the consecutive segments of the chain."""
        verts = self._vertices
        for i in range(len(verts) - 1):
            (x1, y1), (x2, y2) = verts[i], verts[i + 1]
            yield Segment(x1, y1, x2, y2)

    def length(self) -> float:
        """Total Euclidean length of the chain."""
        total = 0.0
        verts = self._vertices
        for i in range(len(verts) - 1):
            dx = verts[i + 1][0] - verts[i][0]
            dy = verts[i + 1][1] - verts[i][1]
            total += (dx * dx + dy * dy) ** 0.5
        return total

    def intersects(self, other: "Polyline") -> bool:
        """Exact intersection test — any segment pair intersecting.

        Pre-filters on the polyline MBRs and on per-segment MBRs, which is
        exactly the two-step filter/refinement idea of Section 2 applied
        one level down.
        """
        if not self._mbr.intersects(other._mbr):
            return False
        return any_segments_cross(self.segments(), other.segments())

    def __len__(self) -> int:
        return len(self._vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polyline):
            return NotImplemented
        return self._vertices == other._vertices

    def __hash__(self) -> int:
        return hash(self._vertices)

    def __repr__(self) -> str:
        return f"Polyline({list(self._vertices)!r})"


def split_into_records(line: Polyline) -> List[Polyline]:
    """Split a polyline chain into single-segment records.

    TIGER/Line files store each street/river *segment* as its own record;
    the paper's 131,461-object street map is a map of such records.  Our
    generators produce long chains and split them the same way.
    """
    records = []
    verts = line.vertices
    for i in range(len(verts) - 1):
        records.append(Polyline([verts[i], verts[i + 1]]))
    return records
