"""Bulk loading (extension).

The paper builds its R*-trees by repeated insertion; bulk loading is a
later technique (STR: Leutenegger et al. 1997; Hilbert packing: Kamel &
Faloutsos 1993) included here so the ablation benchmarks can measure how
the join behaves on near-100 % utilization trees with very low overlap.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, TypeVar, Union

from ..curves.hilbert import HilbertGrid
from ..geometry.rect import Rect
from ..storage.pagestore import PageStore
from .base import Path, RTreeBase
from .columns import NodeColumns
from .node import Node
from .params import RTreeParams

T = TypeVar("T")

#: One data entry as a caller hands it to the packers.
Record = Tuple[Rect, int]
#: Data entries as the packers read them: ``xlo, ylo, xhi, yhi, refs``
#: as parallel lists of Python numbers.
Rows = Tuple[List[float], List[float], List[float], List[float], List[int]]


class PackedRTree(RTreeBase):
    """An R-tree built bottom-up from a packing of its data entries.

    Queries, joins, deletions and further insertions all work; post-load
    insertions use Guttman's minimal strategy (least enlargement,
    quadratic split) — a packed tree is not expected to absorb heavy
    update traffic.
    """

    variant = "packed"

    def __init__(self, params: RTreeParams,
                 store: Optional[PageStore] = None) -> None:
        super().__init__(params, store)

    def _choose_subtree(self, node: Node, rect: Rect) -> int:
        from .guttman import least_enlargement_index
        return least_enlargement_index(node.entries, rect)

    def _handle_overflow(self, path: Path, level: int) -> None:
        from .guttman import quadratic_split
        node, _ = path[-1]
        groups = quadratic_split(node.entries, self.params.min_entries)
        self._split_node(path, level, groups)

    # ------------------------------------------------------------------
    # Packing
    # ------------------------------------------------------------------

    def _pack(self, rows: Rows, runs: List[List[int]]) -> None:
        """Install the leaves *runs* (lists of indices into *rows*) and
        build the directory bottom-up; every node is born as columns."""
        self.store.free(self.root_id)  # discard the empty bootstrap leaf
        self._size = len(rows[4])
        level = 0
        while True:
            parents: Rows = ([], [], [], [], [])
            for run in runs:
                xlo, ylo, xhi, yhi, refs = ([column[i] for i in run]
                                            for column in rows)
                node = self._new_node(level, NodeColumns.from_coords(
                    xlo, ylo, xhi, yhi, refs))
                # First of equal extremes wins, as in Rect.mbr_of.
                for column, value in zip(parents, (
                        min(xlo), min(ylo), max(xhi), max(yhi),
                        node.page_id)):
                    column.append(value)
            if len(runs) == 1:
                break
            level += 1
            rows = parents
            runs = chunk_balanced(range(len(runs)), self.params.max_entries,
                                  self.params.min_entries)
        self.root_id = parents[4][0]


def _rows_of(rects: Union[Sequence[Record], NodeColumns]) -> Rows:
    """*rects* as five parallel lists of Python numbers."""
    if isinstance(rects, NodeColumns):
        return (rects.xlo.tolist(), rects.ylo.tolist(), rects.xhi.tolist(),
                rects.yhi.tolist(), rects.refs.tolist())
    boxes = [rect for rect, _ in rects]
    return ([r.xl for r in boxes], [r.yl for r in boxes],
            [r.xu for r in boxes], [r.yu for r in boxes],
            [ref for _, ref in rects])


def chunk_balanced(items: Sequence[T], capacity: int,
                   minimum: int) -> List[List[T]]:
    """Split *items* into runs of at most *capacity*, none (except a lone
    single run) smaller than *minimum*.

    A too-small tail is balanced against the preceding full run, which
    keeps every packed node within the R-tree fill invariants.
    """
    if capacity < 1:
        raise ValueError("capacity must be positive")
    runs = [list(items[lo:lo + capacity])
            for lo in range(0, len(items), capacity)]
    if len(runs) >= 2 and len(runs[-1]) < minimum:
        tail = runs.pop()
        combined = runs.pop() + tail
        if len(combined) <= capacity:
            runs.append(combined)
        else:
            half = len(combined) // 2
            runs.append(combined[:half])
            runs.append(combined[half:])
    return runs


def str_pack(rects: Union[Sequence[Record], NodeColumns],
             params: RTreeParams, fill: float = 1.0,
             store: Optional[PageStore] = None) -> PackedRTree:
    """Sort-Tile-Recursive packing of ``(rect, ref)`` pairs, or of the
    rows of a :class:`NodeColumns`.

    Entries are sorted by x-center into vertical slabs, each slab sorted
    by y-center and cut into leaves of ``fill * M`` entries.  Both sorts
    are stable, so entries with equal centres keep their input order.
    """
    if not rects:
        raise ValueError("cannot bulk-load zero rectangles")
    if not 0.0 < fill <= 1.0:
        raise ValueError("fill must be in (0, 1]")
    tree = PackedRTree(params, store)
    leaf_capacity = max(params.min_entries, int(params.max_entries * fill))
    rows = _rows_of(rects)
    xlo, ylo, xhi, yhi, _ = rows
    order = sorted(range(len(xlo)), key=[
        (lo + hi) / 2.0 for lo, hi in zip(xlo, xhi)].__getitem__)
    leaf_count = math.ceil(len(order) / leaf_capacity)
    slab_count = max(1, math.ceil(math.sqrt(leaf_count)))
    slab_size = math.ceil(len(order) / slab_count) or 1

    runs: List[List[int]] = []
    for start in range(0, len(order), slab_size):
        slab = order[start:start + slab_size]
        slab.sort(key=lambda i: (ylo[i] + yhi[i]) / 2.0)
        runs.extend(chunk_balanced(slab, leaf_capacity, params.min_entries))
    if len(runs) >= 2 and len(runs[-1]) < params.min_entries:
        runs = chunk_balanced([i for run in runs for i in run],
                              leaf_capacity, params.min_entries)
    tree._pack(rows, runs)
    return tree


def hilbert_pack(rects: Sequence[Record], params: RTreeParams,
                 fill: float = 1.0,
                 store: Optional[PageStore] = None) -> PackedRTree:
    """Hilbert-curve packing of ``(rect, ref)`` pairs, in the Hilbert
    order of their centres (stable, so equal keys keep input order)."""
    if not rects:
        raise ValueError("cannot bulk-load zero rectangles")
    if not 0.0 < fill <= 1.0:
        raise ValueError("fill must be in (0, 1]")
    tree = PackedRTree(params, store)
    leaf_capacity = max(params.min_entries, int(params.max_entries * fill))
    rows = _rows_of(rects)
    xlo, ylo, xhi, yhi, _ = rows
    world = Rect(min(xlo), min(ylo), max(xhi), max(yhi))
    if world.width <= 0.0 or world.height <= 0.0:
        world = Rect(world.xl - 0.5, world.yl - 0.5,
                     world.xu + 0.5, world.yu + 0.5)
    grid = HilbertGrid(world)
    key = [grid.index((xl + xu) / 2.0, (yl + yu) / 2.0)
           for xl, yl, xu, yu in zip(xlo, ylo, xhi, yhi)]
    order = sorted(range(len(key)), key=key.__getitem__)
    tree._pack(rows, chunk_balanced(order, leaf_capacity,
                                    params.min_entries))
    return tree
