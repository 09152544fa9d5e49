"""SpatialJoin2 — restricting the search space (Section 4.2).

"Only the entries of E1.ref and E2.ref which intersect the intersection
rectangle ER.rect ∩ ES.rect may have a common intersection."  Each node
is first scanned linearly against that intersection rectangle; only the
marked entries enter the nested loop.
"""

from __future__ import annotations

from typing import Optional

from ..geometry.rect import Rect
from ..rtree.node import Node
from .context import JoinContext
from .engine import ColumnsPairs, JoinAlgorithm
from .pairs import nested_loop_pairs_columns, restrict_columns


class SpatialJoin2(JoinAlgorithm):
    """SJ1 plus the search-space restriction."""

    name = "SJ2"
    restricts_search_space = True
    uses_pinning = False

    def _find_pairs(self, ctx: JoinContext, nr: Node, ns: Node,
                    rect: Optional[Rect]) -> ColumnsPairs:
        cols_r = nr.columns
        cols_s = ns.columns
        if rect is not None:
            cols_r = restrict_columns(cols_r, rect, ctx.counter)
            cols_s = restrict_columns(cols_s, rect, ctx.counter)
        idx_r, idx_s = nested_loop_pairs_columns(cols_r, cols_s,
                                                 ctx.counter)
        return cols_r, cols_s, idx_r, idx_s
