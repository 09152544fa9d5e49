"""The R*-tree (Beckmann, Kriegel, Schneider, Seeger, SIGMOD 1990).

Section 3 of the spatial-join paper summarizes the three ingredients that
make the R*-tree "the most efficient member of the R-tree family", all
implemented here:

1. **ChooseSubtree** — when the children are leaves, descend into the
   entry whose rectangle needs the *minimum increase of overlap with its
   siblings*; above the leaf level, minimum area enlargement.
2. **Forced reinsertion** — the first time a node on a level overflows
   during one insertion, the p entries whose centers are farthest from
   the node's MBR center are removed and re-inserted on the same level.
3. **Split** — the split axis minimizes the sum of group margins
   (perimeters) over all legal distributions of entries sorted by lower
   and upper coordinate; the split index then minimizes group overlap.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..geometry.rect import Rect
from ..storage.pagestore import PageStore
from .base import Path, RTreeBase
from .entry import Entry
from .node import Node
from .params import RTreeParams

#: ChooseSubtree samples only the entries with the least area enlargement
#: when a node is larger than this, as the R*-tree paper recommends for
#: big nodes ("determine the nearly minimum overlap cost").
CHOOSE_SUBTREE_SAMPLE = 32


class RStarTree(RTreeBase):
    """R-tree with the R*-tree insertion and split algorithms."""

    variant = "rstar"

    def __init__(self, params: RTreeParams,
                 store: Optional[PageStore] = None) -> None:
        super().__init__(params, store)
        self._reinserted_levels: Set[int] = set()

    # ------------------------------------------------------------------
    # ChooseSubtree
    # ------------------------------------------------------------------

    def _begin_insert(self) -> None:
        # Forced reinsertion fires at most once per level per insertion.
        self._reinserted_levels.clear()

    def _choose_subtree(self, node: Node, rect: Rect) -> int:
        if node.level == 1:
            # Children are leaves: minimize overlap enlargement.
            return self._least_overlap_enlargement(node, rect)
        return self._least_area_enlargement(node, rect)

    @staticmethod
    def _least_area_enlargement(node: Node, rect: Rect) -> int:
        best_index = 0
        best_enlargement = float("inf")
        best_area = float("inf")
        for i, entry in enumerate(node.entries):
            enlargement = entry.rect.enlargement(rect)
            if enlargement < best_enlargement or (
                    enlargement == best_enlargement
                    and entry.rect.area() < best_area):
                best_index = i
                best_enlargement = enlargement
                best_area = entry.rect.area()
        return best_index

    def _least_overlap_enlargement(self, node: Node, rect: Rect) -> int:
        entries = node.entries
        n = len(entries)
        if n == 1:
            return 0
        # The inner loops run for every single insertion, so they work on
        # raw float tuples instead of Rect methods.
        rxl = rect.xl
        ryl = rect.yl
        rxu = rect.xu
        ryu = rect.yu
        bounds = [(e.rect.xl, e.rect.yl, e.rect.xu, e.rect.yu)
                  for e in entries]

        # Candidate order: ascending area enlargement; sample the best
        # CHOOSE_SUBTREE_SAMPLE candidates for large nodes (the R*-tree
        # paper's "nearly minimum overlap cost" heuristic).
        ranked = []
        for i, (xl, yl, xu, yu) in enumerate(bounds):
            uxl = xl if xl < rxl else rxl
            uyl = yl if yl < ryl else ryl
            uxu = xu if xu > rxu else rxu
            uyu = yu if yu > ryu else ryu
            enlargement = (uxu - uxl) * (uyu - uyl) - (xu - xl) * (yu - yl)
            ranked.append((enlargement, i))
        ranked.sort()
        candidates = ranked[:CHOOSE_SUBTREE_SAMPLE]

        best_index = candidates[0][1]
        best_delta = float("inf")
        best_enlargement = float("inf")
        best_area = float("inf")
        for enlargement, i in candidates:
            xl, yl, xu, yu = bounds[i]
            gxl = xl if xl < rxl else rxl
            gyl = yl if yl < ryl else ryl
            gxu = xu if xu > rxu else rxu
            gyu = yu if yu > ryu else ryu
            delta = 0.0
            for j, (oxl, oyl, oxu, oyu) in enumerate(bounds):
                if j == i:
                    continue
                # after: overlap of the grown rectangle with the sibling
                w = (gxu if gxu < oxu else oxu) - (gxl if gxl > oxl else oxl)
                if w > 0.0:
                    h = (gyu if gyu < oyu else oyu) - \
                        (gyl if gyl > oyl else oyl)
                    if h > 0.0:
                        delta += w * h
                # before: overlap of the original rectangle with the sibling
                w = (xu if xu < oxu else oxu) - (xl if xl > oxl else oxl)
                if w > 0.0:
                    h = (yu if yu < oyu else oyu) - (yl if yl > oyl else oyl)
                    if h > 0.0:
                        delta -= w * h
            if delta < best_delta:
                matched = True
            elif delta == best_delta:
                matched = (enlargement < best_enlargement
                           or (enlargement == best_enlargement
                               and (xu - xl) * (yu - yl) < best_area))
            else:
                matched = False
            if matched:
                best_index = i
                best_delta = delta
                best_enlargement = enlargement
                best_area = (xu - xl) * (yu - yl)
        return best_index

    # ------------------------------------------------------------------
    # OverflowTreatment
    # ------------------------------------------------------------------

    def _handle_overflow(self, path: Path, level: int) -> None:
        node, _ = path[-1]
        is_root = node.page_id == self.root_id
        if not is_root and node.level not in self._reinserted_levels:
            self._reinserted_levels.add(node.level)
            self._reinsert(path)
        else:
            groups = rstar_split(node.entries, self.params.min_entries)
            self._split_node(path, level, groups)

    def _reinsert(self, path: Path) -> None:
        """Forced reinsertion of the p farthest entries of the node."""
        node, _ = path[-1]
        center_x, center_y = node.mbr().center()
        p = min(self.params.reinsert_count,
                len(node.entries) - self.params.min_entries)
        if p <= 0:
            groups = rstar_split(node.entries, self.params.min_entries)
            self._split_node(path, node.level, groups)
            return

        def distance(entry: Entry) -> float:
            ex, ey = entry.rect.center()
            dx = ex - center_x
            dy = ey - center_y
            return dx * dx + dy * dy

        node.entries.sort(key=distance)
        removed = node.entries[-p:]
        del node.entries[-p:]
        node.sorted_by_xl = False
        self._write(node)
        self._shrink_path(path)
        # Close reinsert: nearest removed entry first (the R*-tree paper's
        # experimentally best variant).
        for entry in removed:
            self._insert_entry(entry, node.level)

    def _shrink_path(self, path: Path) -> None:
        """Recompute exact routing rectangles bottom-up after removals."""
        for depth in range(len(path) - 1, 0, -1):
            node, _ = path[depth]
            parent, parent_index = path[depth - 1]
            exact = node.mbr()
            if parent.entries[parent_index].rect != exact:
                parent.replace_rect(parent_index, exact)
                self._write(parent)


def rstar_split(entries: List[Entry],
                min_entries: int) -> Tuple[List[Entry], List[Entry]]:
    """The R*-tree topological split.

    ChooseSplitAxis: for both axes, sort the entries by lower and by upper
    coordinate and sum the margins of the two group MBRs over all legal
    distributions; the axis with the minimum sum wins.  ChooseSplitIndex:
    on the winning axis, over both sort orders, take the distribution with
    minimal overlap between the group MBRs (ties: minimal total area).
    """
    n = len(entries)
    if n < 2 * min_entries:
        raise ValueError(
            f"{n} entries cannot be split into two groups of >= {min_entries}")

    best_axis_margin = float("inf")
    best_axis_sorts: Tuple[List[Entry], List[Entry]] | None = None
    for axis in ("x", "y"):
        if axis == "x":
            by_lower = sorted(entries, key=lambda e: (e.rect.xl, e.rect.xu))
            by_upper = sorted(entries, key=lambda e: (e.rect.xu, e.rect.xl))
        else:
            by_lower = sorted(entries, key=lambda e: (e.rect.yl, e.rect.yu))
            by_upper = sorted(entries, key=lambda e: (e.rect.yu, e.rect.yl))
        margin_sum = 0.0
        for seq in (by_lower, by_upper):
            prefix, suffix = _running_mbrs(seq)
            for k in range(min_entries, n - min_entries + 1):
                margin_sum += prefix[k - 1].margin() + suffix[k].margin()
        if margin_sum < best_axis_margin:
            best_axis_margin = margin_sum
            best_axis_sorts = (by_lower, by_upper)

    assert best_axis_sorts is not None
    best_overlap = float("inf")
    best_area = float("inf")
    best_groups: Tuple[List[Entry], List[Entry]] | None = None
    for seq in best_axis_sorts:
        prefix, suffix = _running_mbrs(seq)
        for k in range(min_entries, n - min_entries + 1):
            bb1 = prefix[k - 1]
            bb2 = suffix[k]
            overlap = bb1.intersection_area(bb2)
            area = bb1.area() + bb2.area()
            if overlap < best_overlap or (
                    overlap == best_overlap and area < best_area):
                best_overlap = overlap
                best_area = area
                best_groups = (seq[:k], seq[k:])
    assert best_groups is not None
    return list(best_groups[0]), list(best_groups[1])


def _running_mbrs(seq: List[Entry]) -> Tuple[List[Rect], List[Rect]]:
    """Prefix and suffix MBR arrays for O(1) distribution evaluation.

    ``prefix[i]`` covers ``seq[:i+1]``; ``suffix[i]`` covers ``seq[i:]``.
    """
    n = len(seq)
    prefix: List[Rect] = [seq[0].rect] * n
    acc = seq[0].rect
    for i in range(1, n):
        acc = acc.union(seq[i].rect)
        prefix[i] = acc
    suffix: List[Rect] = [seq[-1].rect] * n
    acc = seq[-1].rect
    for i in range(n - 2, -1, -1):
        acc = acc.union(seq[i].rect)
        suffix[i] = acc
    return prefix, suffix
