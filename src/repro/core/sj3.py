"""SpatialJoin3 — local plane-sweep order (Section 4.3).

CPU side: search-space restriction plus the plane sweep over sorted
entries (the best CPU combination of Section 4.2).  I/O side: the sweep
emits the intersecting pairs in plane-sweep order, which "can also be
used to determine the read schedule of the spatial join ... without any
extra cost".
"""

from __future__ import annotations

from typing import Optional

from ..geometry.rect import Rect
from ..rtree.node import Node
from .context import JoinContext, R_SIDE, S_SIDE
from .engine import ColumnsPairs, JoinAlgorithm
from .pairs import restrict_columns, sorted_intersection_test_columns


class SpatialJoin3(JoinAlgorithm):
    """Restriction + plane sweep; pairs processed in sweep order."""

    name = "SJ3"
    restricts_search_space = True
    uses_pinning = False

    def _find_pairs(self, ctx: JoinContext, nr: Node, ns: Node,
                    rect: Optional[Rect]) -> ColumnsPairs:
        cols_r = ctx.sorted_columns(R_SIDE, nr)
        cols_s = ctx.sorted_columns(S_SIDE, ns)
        if rect is not None:
            # Restriction preserves order, so the views stay sorted.
            cols_r = restrict_columns(cols_r, rect, ctx.counter)
            cols_s = restrict_columns(cols_s, rect, ctx.counter)
        idx_r, idx_s = sorted_intersection_test_columns(cols_r, cols_s,
                                                        ctx.counter)
        return cols_r, cols_s, idx_r, idx_s
