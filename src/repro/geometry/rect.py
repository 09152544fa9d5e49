"""Rectilinear rectangles (MBRs) and the paper's counted intersection test.

The minimum bounding rectilinear rectangle (MBR) is the approximation the
paper's R*-trees store for every spatial object (Section 2).  The join
condition of the MBR-spatial-join is rectangle intersection, whose CPU
cost model is defined in Section 4:

    "for a pair of rectilinear rectangles four comparisons are exactly
     required to determine that the join condition is fulfilled.  If the
     rectangles do not fulfill the join condition, less than four
     comparisons might be required."

:func:`intersect_count` implements exactly that short-circuit sequence and
reports how many comparisons it used, so callers can charge the
:class:`~repro.geometry.counting.ComparisonCounter`.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence, Tuple

from .counting import ComparisonCounter


class Rect:
    """A closed axis-aligned rectangle ``[xl, xu] x [yl, yu]``.

    Rectangles are immutable value objects.  Degenerate rectangles
    (zero width and/or height) are legal — a point MBR is a common case
    for point data — but inverted or non-finite bounds are rejected.
    """

    __slots__ = ("xl", "yl", "xu", "yu")

    def __init__(self, xl: float, yl: float, xu: float, yu: float) -> None:
        if not (math.isfinite(xl) and math.isfinite(yl)
                and math.isfinite(xu) and math.isfinite(yu)):
            raise ValueError(f"non-finite rectangle bounds: {(xl, yl, xu, yu)}")
        if xl > xu or yl > yu:
            raise ValueError(f"inverted rectangle bounds: {(xl, yl, xu, yu)}")
        object.__setattr__(self, "xl", float(xl))
        object.__setattr__(self, "yl", float(yl))
        object.__setattr__(self, "xu", float(xu))
        object.__setattr__(self, "yu", float(yu))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Rect is immutable")

    def __reduce__(self):
        # Immutability (raising __setattr__) breaks pickle's default slot
        # restore; rebuild through the constructor instead.
        return (Rect, (self.xl, self.yl, self.xu, self.yu))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_points(cls, points: Iterable[Tuple[float, float]]) -> "Rect":
        """MBR of a non-empty iterable of ``(x, y)`` pairs."""
        it = iter(points)
        try:
            x, y = next(it)
        except StopIteration:
            raise ValueError("cannot take the MBR of zero points") from None
        xl = xu = x
        yl = yu = y
        for x, y in it:
            # NaN fails every comparison below and would be dropped; an
            # infinity becomes a bound, which the constructor rejects
            # (as it does a non-finite first point).
            if x != x or y != y:
                raise ValueError(f"non-finite point: {(x, y)}")
            if x < xl:
                xl = x
            elif x > xu:
                xu = x
            if y < yl:
                yl = y
            elif y > yu:
                yu = y
        return cls(xl, yl, xu, yu)

    @classmethod
    def point(cls, x: float, y: float) -> "Rect":
        """Degenerate rectangle covering the single point ``(x, y)``."""
        return cls(x, y, x, y)

    @classmethod
    def mbr_of(cls, rects: Iterable["Rect"]) -> "Rect":
        """MBR of a non-empty iterable of rectangles."""
        it = iter(rects)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("cannot take the MBR of zero rectangles") from None
        xl, yl, xu, yu = first.xl, first.yl, first.xu, first.yu
        for r in it:
            if r.xl < xl:
                xl = r.xl
            if r.yl < yl:
                yl = r.yl
            if r.xu > xu:
                xu = r.xu
            if r.yu > yu:
                yu = r.yu
        return cls(xl, yl, xu, yu)

    # ------------------------------------------------------------------
    # Basic metrics
    # ------------------------------------------------------------------

    @property
    def width(self) -> float:
        return self.xu - self.xl

    @property
    def height(self) -> float:
        return self.yu - self.yl

    def area(self) -> float:
        """Area of the rectangle (zero for degenerate rectangles)."""
        return (self.xu - self.xl) * (self.yu - self.yl)

    def margin(self) -> float:
        """Half-perimeter, the R*-tree split criterion of Section 3.2."""
        return (self.xu - self.xl) + (self.yu - self.yl)

    def center(self) -> Tuple[float, float]:
        """Center point, used by forced reinsertion and the z-order schedule."""
        return ((self.xl + self.xu) / 2.0, (self.yl + self.yu) / 2.0)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    def intersects(self, other: "Rect") -> bool:
        """Closed-interval intersection test (boundary contact counts)."""
        return (self.xl <= other.xu and other.xl <= self.xu
                and self.yl <= other.yu and other.yl <= self.yu)

    def contains_point(self, x: float, y: float) -> bool:
        return self.xl <= x <= self.xu and self.yl <= y <= self.yu

    def contains(self, other: "Rect") -> bool:
        """True when *other* lies entirely inside (or on the boundary of) self."""
        return (self.xl <= other.xl and other.xu <= self.xu
                and self.yl <= other.yl and other.yu <= self.yu)

    def within(self, other: "Rect") -> bool:
        """Inverse of :meth:`contains`."""
        return other.contains(self)

    # ------------------------------------------------------------------
    # Combinations
    # ------------------------------------------------------------------

    def intersection(self, other: "Rect") -> "Rect | None":
        """The common rectangle, or ``None`` when disjoint."""
        xl = self.xl if self.xl > other.xl else other.xl
        yl = self.yl if self.yl > other.yl else other.yl
        xu = self.xu if self.xu < other.xu else other.xu
        yu = self.yu if self.yu < other.yu else other.yu
        if xl > xu or yl > yu:
            return None
        return Rect(xl, yl, xu, yu)

    def union(self, other: "Rect") -> "Rect":
        """The MBR enclosing both rectangles."""
        return Rect(
            self.xl if self.xl < other.xl else other.xl,
            self.yl if self.yl < other.yl else other.yl,
            self.xu if self.xu > other.xu else other.xu,
            self.yu if self.yu > other.yu else other.yu,
        )

    def intersection_area(self, other: "Rect") -> float:
        """Area of the overlap region (zero when disjoint)."""
        w = min(self.xu, other.xu) - max(self.xl, other.xl)
        if w <= 0.0:
            return 0.0
        h = min(self.yu, other.yu) - max(self.yl, other.yl)
        if h <= 0.0:
            return 0.0
        return w * h

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed for self to also cover *other*.

        This is the classic R-tree ``chooseLeaf`` criterion (Guttman 1984)
        and a tie-breaker in the R*-tree ``chooseSubtree``.
        """
        xl = self.xl if self.xl < other.xl else other.xl
        yl = self.yl if self.yl < other.yl else other.yl
        xu = self.xu if self.xu > other.xu else other.xu
        yu = self.yu if self.yu > other.yu else other.yu
        return (xu - xl) * (yu - yl) - (self.xu - self.xl) * (self.yu - self.yl)

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.xl, self.yl, self.xu, self.yu)

    def __iter__(self) -> Iterator[float]:
        return iter((self.xl, self.yl, self.xu, self.yu))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return (self.xl == other.xl and self.yl == other.yl
                and self.xu == other.xu and self.yu == other.yu)

    def __hash__(self) -> int:
        return hash((self.xl, self.yl, self.xu, self.yu))

    def __repr__(self) -> str:
        return f"Rect({self.xl}, {self.yl}, {self.xu}, {self.yu})"


def intersect_count(a: Rect, b: Rect, counter: ComparisonCounter) -> bool:
    """Counted intersection test with the paper's short-circuit semantics.

    Charges between 1 and 4 floating-point comparisons to ``counter.join``:
    a fulfilled join condition costs exactly 4 comparisons, a failed one
    costs as many comparisons as were evaluated before the first failing
    axis check.
    """
    if a.xl > b.xu:
        counter.join += 1
        return False
    if b.xl > a.xu:
        counter.join += 2
        return False
    if a.yl > b.yu:
        counter.join += 3
        return False
    counter.join += 4
    return a.yu >= b.yl


def mbr_of_tuples(rects: Sequence[Tuple[float, float, float, float]]) -> Rect:
    """MBR of a non-empty sequence of ``(xl, yl, xu, yu)`` tuples."""
    if not rects:
        raise ValueError("cannot take the MBR of zero rectangles")
    xl = min(r[0] for r in rects)
    yl = min(r[1] for r in rects)
    xu = max(r[2] for r in rects)
    yu = max(r[3] for r in rects)
    return Rect(xl, yl, xu, yu)


def geometry_mbr(geometry) -> Rect:
    """The MBR of a stored geometry: a :class:`Rect` is its own, a
    polyline or polygon reports its ``mbr()``."""
    if isinstance(geometry, Rect):
        return geometry
    return geometry.mbr()
