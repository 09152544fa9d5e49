"""SpatialJoin2 — restricting the search space (Section 4.2).

"Only the entries of E1.ref and E2.ref which intersect the intersection
rectangle ER.rect ∩ ES.rect may have a common intersection."  Each node
is first scanned linearly against that intersection rectangle; only the
marked entries enter the nested loop.  The engine restricts a whole
tree level's node pairs in one segmented call; the nested loop then
runs per node pair over the marked entries.
"""

from __future__ import annotations

from .engine import JoinAlgorithm


class SpatialJoin2(JoinAlgorithm):
    """SJ1 plus the search-space restriction."""

    name = "SJ2"
    restricts_search_space = True
    uses_pinning = False
