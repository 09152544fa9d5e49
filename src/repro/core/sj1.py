"""SpatialJoin1 — the straightforward approach (Section 4.1).

A synchronized depth-first traversal: for every qualifying pair of
directory entries the two child pages are read and joined recursively;
entry pairs are found with the full nested loop ("each entry of the one
node is checked against all entries of the other node").
"""

from __future__ import annotations

from typing import Optional

from ..geometry.rect import Rect
from ..rtree.node import Node
from .context import JoinContext
from .engine import ColumnsPairs, JoinAlgorithm
from .pairs import nested_loop_pairs_columns


class SpatialJoin1(JoinAlgorithm):
    """The paper's first approach: nested loop, traversal-order reads."""

    name = "SJ1"
    restricts_search_space = False
    uses_pinning = False

    def _find_pairs(self, ctx: JoinContext, nr: Node, ns: Node,
                    rect: Optional[Rect]) -> ColumnsPairs:
        cols_r = nr.columns
        cols_s = ns.columns
        idx_r, idx_s = nested_loop_pairs_columns(cols_r, cols_s,
                                                 ctx.counter)
        return cols_r, cols_s, idx_r, idx_s
