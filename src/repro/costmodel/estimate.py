"""Analytical join-cost estimation (extension).

The paper cites Günther's model for "estimating the cost of spatial
joins" (reference [9]) and notes that an analytical treatment of
R*-tree joins "seems to be almost impossible" beyond uniform data.
This module implements exactly that classic uniform-independence
estimator so its predictions can be compared against the measured
counters (see ``bench_ablation_estimator``):

* Two axis-parallel rectangles with extents (w1, h1), (w2, h2) placed
  uniformly in a W x H world intersect with probability
  ``min(1, (w1+w2)/W) * min(1, (h1+h2)/H)``.
* The synchronized traversal pairs nodes level by level (from the
  roots), so the expected number of qualifying node pairs per level is
  ``n_r * n_s * P(intersect of average extents)``.
* Each qualifying directory pair costs two child reads, which bounds
  the no-buffer disk accesses from below.

On clustered real data the independence assumption underestimates —
quantifying *how much* is the point of the accuracy benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from ..rtree.base import RTreeBase
from ..rtree.columns import HAVE_NUMPY, np


@dataclass(frozen=True)
class LevelProfile:
    """Aggregate geometry of all entries at one tree level.

    ``level`` counts from the data entries: level 0 holds the data
    rectangles themselves, level 1 the leaf-page MBRs, and so on up to
    the root's children.
    """

    level: int
    count: int
    avg_width: float
    avg_height: float


def _running_sum(total: float, upper, lower) -> float:
    """``total + (upper[0] - lower[0]) + (upper[1] - lower[1]) + ...``,
    added strictly left to right — the rounding of a ``+=`` loop over
    the entries, which pairwise (``np.sum``) and compensated (builtin
    ``sum`` from Python 3.12 on) summation would not reproduce."""
    if HAVE_NUMPY and isinstance(upper, np.ndarray):
        if not len(upper):
            return total
        return float(np.add.accumulate(
            np.concatenate(((total,), upper - lower)))[-1])
    for hi, lo in zip(upper, lower):
        total += hi - lo
    return total


def level_profiles(tree: RTreeBase) -> List[LevelProfile]:
    """Per-level entry statistics, data entries first.  Read from the
    nodes' columns, so no node materializes ``Entry`` objects."""
    sums: Dict[int, List[float]] = {}
    for node in tree.iter_nodes():
        bucket = sums.setdefault(node.level, [0, 0.0, 0.0])
        cols = node.columns
        bucket[0] += len(cols)
        bucket[1] = _running_sum(bucket[1], cols.xhi, cols.xlo)
        bucket[2] = _running_sum(bucket[2], cols.yhi, cols.ylo)
    profiles = []
    for level in sorted(sums):
        count, width_sum, height_sum = sums[level]
        count = int(count)
        profiles.append(LevelProfile(
            level=level,
            count=count,
            avg_width=width_sum / count if count else 0.0,
            avg_height=height_sum / count if count else 0.0,
        ))
    # Level convention guard: ``LevelProfile.level`` counts from the
    # data entries (0) while ``RTreeBase.height`` counts nodes from the
    # root (root.level + 1), so a non-empty tree's deepest profile is
    # the root's entries at height - 1.  The estimator's and planner's
    # depth alignment both bank on this.
    assert not profiles or profiles[-1].level == tree.height - 1, (
        f"level convention violated: deepest profile level "
        f"{profiles[-1].level} != height {tree.height} - 1")
    return profiles


@dataclass(frozen=True)
class JoinPrediction:
    """Predicted traversal volume of a synchronized join."""

    node_pairs_per_level: Dict[int, float]
    output_pairs: float
    disk_accesses_no_buffer: float

    @property
    def node_pairs_total(self) -> float:
        return sum(self.node_pairs_per_level.values())


class JoinCardinalityEstimator:
    """Uniform-independence estimator for a two-tree join.

    Assumes both trees index the same world rectangle and (critically)
    uniformly, independently placed rectangles.  Trees of different
    height are aligned from the roots downward, like the traversal.
    """

    def __init__(self, tree_r: RTreeBase, tree_s: RTreeBase) -> None:
        mbr_r = tree_r.mbr()
        mbr_s = tree_s.mbr()
        if mbr_r is None or mbr_s is None:
            raise ValueError("cannot estimate joins of empty trees")
        world = mbr_r.union(mbr_s)
        self.world_width = max(world.width, 1e-12)
        self.world_height = max(world.height, 1e-12)
        self.profiles_r = {p.level: p for p in level_profiles(tree_r)}
        self.profiles_s = {p.level: p for p in level_profiles(tree_s)}
        self.height_r = tree_r.height
        self.height_s = tree_s.height

    def intersect_probability(self, a: LevelProfile,
                              b: LevelProfile) -> float:
        """P[two average rectangles of these levels intersect]."""
        px = min(1.0, (a.avg_width + b.avg_width) / self.world_width)
        py = min(1.0, (a.avg_height + b.avg_height) / self.world_height)
        return px * py

    def aligned_levels(self) -> Iterator[Tuple[int, int, LevelProfile,
                                               LevelProfile, float]]:
        """The traversal's top-down level alignment, one row per depth:
        ``(level_r, level_s, prof_r, prof_s, probability)``.

        Depth d pairs entries at level (root_level - d) on each side,
        clamped at the data level for the shallower tree (the window
        mode of Section 4.4); *probability* is
        :meth:`intersect_probability` of the two profiles.
        """
        for depth in range(max(self.height_r, self.height_s)):
            level_r = max(0, self.height_r - 1 - depth)
            level_s = max(0, self.height_s - 1 - depth)
            prof_r = self.profiles_r.get(level_r)
            prof_s = self.profiles_s.get(level_s)
            if prof_r is None or prof_s is None:
                continue
            yield (level_r, level_s, prof_r, prof_s,
                   self.intersect_probability(prof_r, prof_s))

    def predict(self) -> JoinPrediction:
        """Expected qualifying pairs per level, output size, and a
        no-buffer disk-access estimate."""
        per_level: Dict[int, float] = {}
        for level_r, level_s, prof_r, prof_s, probability \
                in self.aligned_levels():
            expected = prof_r.count * prof_s.count * probability
            key = max(level_r, level_s)
            per_level[key] = per_level.get(key, 0.0) + expected

        output = per_level.get(0, 0.0)
        # Each qualifying pair above the data level triggers two child
        # reads; the roots are read once each.
        directory_pairs = sum(v for level, v in per_level.items()
                              if level > 0)
        accesses = 2.0 + 2.0 * directory_pairs
        return JoinPrediction(
            node_pairs_per_level=per_level,
            output_pairs=output,
            disk_accesses_no_buffer=accesses,
        )
