"""SpatialJoin5 — local z-order with pinning (Section 4.3).

The qualifying pairs of a node pair are re-ordered by the z-value of the
centers of their intersection rectangles before processing (with the
same pinning as SJ4).  Computing the z-order costs extra CPU — charged
as sort comparisons — which the paper finds is not compensated by the
small I/O gain.
"""

from __future__ import annotations

from typing import List, Optional

from ..curves.zorder import ZGrid
from ..geometry.rect import Rect
from ..rtree.base import RTreeBase
from ..rtree.columns import NodeColumns
from .context import JoinContext
from .engine import IndexPair, common_rect
from .sj3 import SpatialJoin3


def world_rect(tree_r: RTreeBase, tree_s: RTreeBase) -> Optional[Rect]:
    """Union of both tree MBRs, padded when degenerate: the world a
    :class:`~repro.curves.zorder.ZGrid` is laid over (None when either
    tree is empty)."""
    mbr_r = tree_r.mbr()
    mbr_s = tree_s.mbr()
    if mbr_r is None or mbr_s is None:
        return None
    world = mbr_r.union(mbr_s)
    if world.width <= 0.0 or world.height <= 0.0:
        world = Rect(world.xl - 0.5, world.yl - 0.5,
                     world.xu + 0.5, world.yu + 0.5)
    return world


class SpatialJoin5(SpatialJoin3):
    """Plane-sweep pair finding, z-order read schedule, pinning."""

    name = "SJ5"
    uses_pinning = True

    def __init__(self, height_policy: str = "b",
                 zgrid_bits: int = 16, **kwargs) -> None:
        super().__init__(height_policy, **kwargs)
        self.zgrid_bits = zgrid_bits
        self._grid: Optional[ZGrid] = None

    def _prepare(self, ctx: JoinContext) -> None:
        # Hooked here (not in run()) so the streaming entry point and
        # the parallel executor's workers get the z-order schedule too.
        world = world_rect(*ctx.trees)
        self._grid = ZGrid(world, self.zgrid_bits) if world else None

    def _order_pairs(self, ctx: JoinContext, cols_r: NodeColumns,
                     cols_s: NodeColumns,
                     pairs: List[IndexPair]) -> List[IndexPair]:
        if self._grid is None or len(pairs) < 2:
            return pairs
        grid = self._grid
        keyed = [(grid.zvalue_of_rect(common_rect(cols_r, a, cols_s, b)),
                  (a, b)) for a, b in pairs]
        # The z-sort is the extra CPU of SJ5; charge its comparisons to
        # the sorting bucket.
        count = 0

        class _Key:
            __slots__ = ("value",)

            def __init__(self, item) -> None:
                self.value = item[0]

            def __lt__(self, other: "_Key") -> bool:
                nonlocal count
                count += 1
                return self.value < other.value

        keyed.sort(key=_Key)
        ctx.counter.sort += count
        return [pair for _, pair in keyed]
