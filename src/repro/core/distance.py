"""Within-distance join (extension).

"Find all pairs of objects closer than d" is the other classic spatial
join condition.  The R-tree techniques of the paper carry over with one
change: the pruning predicate becomes *MINDIST(mbr_r, mbr_s) <= d*,
which is sound at every directory level because MINDIST between MBRs
lower-bounds the distance between any contained rectangles.

The traversal *is* SpatialJoin4's: :class:`DistanceJoin` is a
:class:`~repro.core.engine.JoinAlgorithm` whose qualifying pairs of a
node pair come from a plane sweep over x-intervals widened by d
(:func:`_near_pairs`); the engine processes them in sweep order with
degree-based pinning, hands trees of different height to
:mod:`repro.core.heights`, and overlays MVCC deltas through
:func:`repro.core.deltajoin.overlay_join` like any other join.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..geometry.rect import Rect
from ..rtree.base import RTreeBase
from ..rtree.columns import NodeColumns
from ..rtree.node import Node
from .context import JoinContext, R_SIDE, S_SIDE
from .deltajoin import overlay_join
from .engine import ColumnsPairs, JoinAlgorithm
from .heights import run_window_mode
from .pairs import nested_loop_pairs_columns
from .spec import JoinSpec
from .stats import JoinResult


def rect_mindist(a: Rect, b: Rect) -> float:
    """Smallest Euclidean distance between two rectangles
    (zero when they intersect)."""
    dx = 0.0
    if a.xu < b.xl:
        dx = b.xl - a.xu
    elif b.xu < a.xl:
        dx = a.xl - b.xu
    dy = 0.0
    if a.yu < b.yl:
        dy = b.yl - a.yu
    elif b.yu < a.yl:
        dy = a.yl - b.yu
    if dx == 0.0:
        return dy
    if dy == 0.0:
        return dx
    return math.hypot(dx, dy)


class DistanceJoin(JoinAlgorithm):
    """SJ4's read schedule over the MINDIST <= d pair search."""

    uses_pinning = True

    def __init__(self, distance: float) -> None:
        if distance < 0.0:
            raise ValueError("distance cannot be negative")
        super().__init__()
        self.distance = distance
        self.name = f"distance<={distance:g}"

    def _find_pairs(self, ctx: JoinContext, nr: Node, ns: Node,
                    rect: Optional[Rect]) -> ColumnsPairs:
        return _near_pairs(ctx, self.distance, nr, ns)

    def _window_mode(self, ctx: JoinContext, nr: Node, dr: int,
                     ns: Node, ds: int, rect: Optional[Rect],
                     out) -> None:
        """Different heights: subtrees are pruned with the queries
        widened by d — intersecting the widened window is being within
        d in the L-infinity metric, which every pair within Euclidean d
        is — and data entries confirmed with the exact MINDIST against
        the un-widened rectangle (2 comparisons, as in the sweep)."""
        distance = self.distance

        def prune(cols, queries, counter):
            return nested_loop_pairs_columns(
                cols, _widened(queries, distance), counter)

        def within(deep_rect, flat_rect, counter):
            counter.join += 2
            return rect_mindist(deep_rect, flat_rect) <= distance

        run_window_mode(self, ctx, nr, dr, ns, ds, rect, out,
                        accept=within, prune=prune)


def _widened(cols: NodeColumns, distance: float) -> NodeColumns:
    """*cols* with every rectangle grown by *distance* on all sides."""
    return NodeColumns.from_coords(
        [x - distance for x in cols.xlo], [y - distance for y in cols.ylo],
        [x + distance for x in cols.xhi], [y + distance for y in cols.yhi],
        cols.refs)


def distance_join(tree_r: RTreeBase, tree_s: RTreeBase,
                  distance: float,
                  buffer_kb: float = 128.0) -> JoinResult:
    """All id pairs whose MBRs lie within *distance* of each other.

    ``distance=0`` degenerates to the MBR-spatial-join (touching MBRs
    qualify, like the intersection test's closed semantics).
    """
    return DistanceJoin(distance).run(
        JoinContext(tree_r, tree_s, buffer_kb=buffer_kb))


def distance_join_snapshots(snap_l, snap_r, distance: float,
                            buffer_kb: float = 128.0) -> JoinResult:
    """MVCC variant of :func:`distance_join` over two relation
    snapshots (see :mod:`repro.db.snapshot`): the base trees join as
    usual, then the deltas are overlaid by the same three engine calls
    as any join's, run with :class:`DistanceJoin`."""
    base = distance_join(snap_l.tree, snap_r.tree, distance,
                         buffer_kb=buffer_kb)
    return overlay_join(snap_l, snap_r, base, JoinSpec(buffer_kb=buffer_kb),
                        algorithm=DistanceJoin(distance))


def _near_pairs(ctx: JoinContext, distance: float, nr: Node,
                ns: Node) -> ColumnsPairs:
    """Row-index pairs with MINDIST <= distance, by a widened plane
    sweep over the sorted columns.

    Comparisons: each x-window check costs 1; a surviving candidate
    pays 2 more for the exact MINDIST confirmation (the same flat
    accounting style as the intersection sweep).
    """
    cols_r = ctx.sorted_columns(R_SIDE, nr)
    cols_s = ctx.sorted_columns(S_SIDE, ns)
    rxl = list(cols_r.xlo)
    rxu = list(cols_r.xhi)
    sxl = list(cols_s.xlo)
    sxu = list(cols_s.xhi)
    counter = ctx.counter
    idx_r: List[int] = []
    idx_s: List[int] = []
    comparisons = 0
    i = 0
    j = 0
    n = len(cols_r)
    m = len(cols_s)
    while i < n and j < m:
        comparisons += 1
        if rxl[i] <= sxl[j]:
            t = cols_r.rect(i)
            limit = rxu[i] + distance
            k = j
            while k < m:
                comparisons += 1
                if sxl[k] > limit:
                    break
                comparisons += 2
                if rect_mindist(t, cols_s.rect(k)) <= distance:
                    idx_r.append(i)
                    idx_s.append(k)
                k += 1
            i += 1
        else:
            t = cols_s.rect(j)
            limit = sxu[j] + distance
            k = i
            while k < n:
                comparisons += 1
                if rxl[k] > limit:
                    break
                comparisons += 2
                if rect_mindist(cols_r.rect(k), t) <= distance:
                    idx_r.append(k)
                    idx_s.append(j)
                k += 1
            j += 1
    counter.join += comparisons
    return cols_r, cols_s, idx_r, idx_s
