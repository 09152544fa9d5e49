"""SpatialJoin3 — local plane-sweep order (Section 4.3).

CPU side: search-space restriction plus the plane sweep over sorted
entries (the best CPU combination of Section 4.2).  I/O side: the sweep
emits the intersecting pairs in plane-sweep order, which "can also be
used to determine the read schedule of the spatial join ... without any
extra cost".  The engine runs the restriction and the sweep of a whole
tree level's node pairs as one segmented call each.
"""

from __future__ import annotations

from ..rtree.columns import NodeColumns
from .context import JoinContext
from .engine import JoinAlgorithm
from .pairs import sweep_segments


class SpatialJoin3(JoinAlgorithm):
    """Restriction + plane sweep; pairs processed in sweep order."""

    name = "SJ3"
    restricts_search_space = True
    uses_pinning = False
    sweeps = True

    def _segment_pairs(self, ctx: JoinContext, table_r: NodeColumns,
                       offsets_r, table_s: NodeColumns, offsets_s):
        # Restriction preserves order, so the segments stay sorted.
        return sweep_segments(table_r, offsets_r, table_s, offsets_s,
                              ctx.counter)
