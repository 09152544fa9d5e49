"""SpatialJoin1 — the straightforward approach (Section 4.1).

A synchronized depth-first traversal: for every qualifying pair of
directory entries the two child pages are read and joined recursively;
entry pairs are found with the full nested loop ("each entry of the one
node is checked against all entries of the other node"), the engine's
default per-node-pair kernel (``JoinAlgorithm._pair_kernel``).
"""

from __future__ import annotations

from .engine import JoinAlgorithm


class SpatialJoin1(JoinAlgorithm):
    """The paper's first approach: nested loop, traversal-order reads."""

    name = "SJ1"
    restricts_search_space = False
    uses_pinning = False
