"""Space-oriented partitioning of spatial relations onto a grid.

The scheme follows "Two-layer Space-oriented Partitioning for
Non-point Data" (Tsitsigkos et al.): the universe is divided into a
uniform grid of cells, and every object is assigned to *every* cell
its MBR overlaps.  Each copy carries a two-layer **class** describing
where the object's reference point (the lower-left MBR corner) lives
relative to the cell:

====== =====================================================
class  meaning
====== =====================================================
``A``  the reference point is inside this cell (the primary
       copy — exactly one per object)
``B``  the object begins in a cell to the west, same row
``C``  the object begins in a cell to the south, same column
``D``  the object begins to the south-west (diagonal)
====== =====================================================

Storing boundary-spanning objects once per overlapped cell makes every
partition *self-contained*: a partition-local join (or window query)
over cell ``c`` sees every object that could produce a result whose
geometry touches ``c``.  The price is duplicate results across cells,
which the router removes with the **reference-point rule** (from
"Parallel In-Memory Evaluation of Spatial Joins"): a join pair is
*owned* by the single cell containing the lower-left corner of the
pair's MBR intersection (:func:`pair_reference_point`).  Both
rectangles of an intersecting pair overlap that cell, so the owner's
local join is guaranteed to find the pair — and every other cell's
copy is dropped.  Each pair is therefore emitted exactly once, with
no cross-shard coordination.

The router applies the rule without touching a coordinate: the point
``(max xl, max yl)`` locates into the cell whose column is the larger
of the two sides' owner columns and whose row is the larger of their
owner rows.  That is exact, not an approximation — the clamped floor
is monotone non-decreasing, so ``ix(max(p, q)) == max(ix(p), ix(q))``
for any two floats — so :class:`PartitionMap` keeps each object's
owner cell and :attr:`GridPartitioner.pair_owners` tabulates the pair
rule once per grid (:meth:`GridPartitioner.owns_pair` stays as its
reference).

Coordinates outside the universe clamp onto the border cells; the
clamp is the same monotonic ``floor`` for points and for rectangle
ranges, so the ownership rule stays exact even for objects inserted
outside the original data MBR.
"""

from __future__ import annotations

import math
from typing import (TYPE_CHECKING, Any, Dict, Iterable, List, Optional,
                    Tuple)

from ..geometry.rect import Rect, geometry_mbr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.database import SpatialDatabase

#: The two-layer class labels, primary copy first.
CLASSES = ("A", "B", "C", "D")


def grid_for(shards: int) -> Tuple[int, int]:
    """The most-square ``(cells_x, cells_y)`` factorization of
    *shards* — 4 becomes 2x2, 8 becomes 4x2, primes become Nx1."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1 ({shards})")
    best = (shards, 1)
    for cells_y in range(1, int(math.isqrt(shards)) + 1):
        if shards % cells_y == 0:
            best = (shards // cells_y, cells_y)
    return best


class GridPartitioner:
    """A uniform grid over a universe rectangle.

    Cells are numbered row-major: ``cell = iy * cells_x + ix`` with
    ``ix`` growing eastward and ``iy`` northward.  Tiles are closed
    rectangles; assignment uses the closed intersection test, and
    point location uses the clamped floor — the two agree on
    boundaries (a point on a shared edge locates into the higher
    cell, which the rectangle range also overlaps).
    """

    def __init__(self, cells_x: int, cells_y: int,
                 universe: Rect) -> None:
        if cells_x < 1 or cells_y < 1:
            raise ValueError(
                f"grid must be at least 1x1 ({cells_x}x{cells_y})")
        self.cells_x = cells_x
        self.cells_y = cells_y
        self.universe = universe
        # A degenerate universe (all data on one point/line) still
        # needs positive cell extents for the floor arithmetic.
        self._step_x = max(universe.xu - universe.xl, 1e-9) / cells_x
        self._step_y = max(universe.yu - universe.yl, 1e-9) / cells_y
        #: ``pair_owners[a][b]``: the cell that owns a pair whose sides
        #: have owner cells *a* and *b* — the reference-point rule over
        #: owner cells (see the module docstring).
        self.pair_owners: List[List[int]] = [
            [max(a // cells_x, b // cells_x) * cells_x
             + max(a % cells_x, b % cells_x)
             for b in range(self.n_cells)]
            for a in range(self.n_cells)]

    @classmethod
    def for_database(cls, db: "SpatialDatabase", shards: int,
                     grid: Optional[Tuple[int, int]] = None
                     ) -> "GridPartitioner":
        """A partitioner over the universe MBR of every relation of
        *db* (an empty catalog gets the unit square)."""
        if grid is None:
            grid = grid_for(shards)
        mbrs = [relation.mbr() for relation in db.relations.values()]
        mbrs = [m for m in mbrs if m is not None]
        universe = Rect.mbr_of(mbrs) if mbrs else Rect(0.0, 0.0,
                                                       1.0, 1.0)
        return cls(grid[0], grid[1], universe)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def n_cells(self) -> int:
        return self.cells_x * self.cells_y

    def _ix(self, x: float) -> int:
        index = int((x - self.universe.xl) // self._step_x)
        return min(max(index, 0), self.cells_x - 1)

    def _iy(self, y: float) -> int:
        index = int((y - self.universe.yl) // self._step_y)
        return min(max(index, 0), self.cells_y - 1)

    def cell_of_point(self, x: float, y: float) -> int:
        """The (clamped) cell containing a point."""
        return self._iy(y) * self.cells_x + self._ix(x)

    def tile(self, cell: int) -> Rect:
        """The closed tile rectangle of one cell."""
        if not 0 <= cell < self.n_cells:
            raise ValueError(f"no cell {cell} in a "
                             f"{self.cells_x}x{self.cells_y} grid")
        ix, iy = cell % self.cells_x, cell // self.cells_x
        return Rect(self.universe.xl + ix * self._step_x,
                    self.universe.yl + iy * self._step_y,
                    self.universe.xl + (ix + 1) * self._step_x,
                    self.universe.yl + (iy + 1) * self._step_y)

    def cells_of_rect(self, rect: Rect) -> List[int]:
        """Every cell a rectangle overlaps (closed intersection),
        ascending."""
        ix_lo, ix_hi = self._ix(rect.xl), self._ix(rect.xu)
        iy_lo, iy_hi = self._iy(rect.yl), self._iy(rect.yu)
        return [iy * self.cells_x + ix
                for iy in range(iy_lo, iy_hi + 1)
                for ix in range(ix_lo, ix_hi + 1)]

    def owner_cell(self, rect: Rect) -> int:
        """The cell holding the primary (class-A) copy: the one
        containing the rectangle's reference point (lower-left)."""
        return self.cell_of_point(rect.xl, rect.yl)

    def classify(self, rect: Rect, cell: int) -> str:
        """The two-layer class of *rect*'s copy in *cell*."""
        owner = self.owner_cell(rect)
        same_col = owner % self.cells_x == cell % self.cells_x
        same_row = owner // self.cells_x == cell // self.cells_x
        if owner == cell:
            return "A"
        if same_row:
            return "B"
        if same_col:
            return "C"
        return "D"

    def owns_pair(self, cell: int, left: Rect, right: Rect) -> bool:
        """The reference-point rule: does *cell* own the (assumed
        intersecting) pair?  The reference form of the rule; the
        router applies it as :attr:`pair_owners` over owner cells."""
        x, y = pair_reference_point(left, right)
        return self.cell_of_point(x, y) == cell

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"GridPartitioner({self.cells_x}x{self.cells_y} over "
                f"{self.universe})")


def pair_reference_point(left: Rect, right: Rect
                         ) -> Tuple[float, float]:
    """The lower-left corner of the intersection of two rectangles
    (for intersecting rectangles it lies inside both, so exactly one
    cell both copies inhabit contains it)."""
    return max(left.xl, right.xl), max(left.yl, right.yl)


def dedup_pairs(partitioner: GridPartitioner, cell: int,
                pairs: Iterable[Tuple[int, int]],
                left_mbrs: Dict[int, Rect],
                right_mbrs: Dict[int, Rect]) -> List[Tuple[int, int]]:
    """The pairs of one cell's local join that the cell owns."""
    return [(a, b) for a, b in pairs
            if partitioner.owns_pair(cell, left_mbrs[a], right_mbrs[b])]


# ----------------------------------------------------------------------
# The routing map: per-object MBRs and per-cell census
# ----------------------------------------------------------------------

class PartitionMap:
    """Router-side bookkeeping of one partitioned catalog.

    For every relation it keeps each object's MBR (what mutation
    routing needs — two corner points per object, not the geometry)
    and its owner cell (what the reference-point rule needs), plus a
    per-cell object count and a per-class census.  An oid has an
    owner cell exactly when it has an MBR.  The map is maintained by
    the router as mutations flow through, so routing decisions never
    require asking the shards.
    """

    def __init__(self, partitioner: GridPartitioner) -> None:
        self.partitioner = partitioner
        #: relation name -> oid -> MBR.
        self.mbrs: Dict[str, Dict[int, Rect]] = {}
        #: relation name -> oid -> owner cell (of its reference point).
        self.owners: Dict[str, Dict[int, int]] = {}
        #: relation name -> per-cell object-copy count.
        self.cell_counts: Dict[str, List[int]] = {}
        #: relation name -> {"A": ..., "B": ..., "C": ..., "D": ...}.
        self.class_counts: Dict[str, Dict[str, int]] = {}
        #: relation name -> the id the next auto-assigned insert gets.
        #: Only ever advanced, like ``SpatialRelation._next_id``: the
        #: fleet and a single server hand out the same ids, and a
        #: deleted id is never issued twice.
        self._next_oids: Dict[str, int] = {}

    @classmethod
    def of_database(cls, db: "SpatialDatabase",
                    partitioner: GridPartitioner) -> "PartitionMap":
        """The routing map of every object in *db*, relations and
        objects in sorted order."""
        pmap = cls(partitioner)
        for name, relation in sorted(db.relations.items()):
            pmap.assign(name, relation.objects)
        return pmap

    def assign(self, name: str, objects: Dict[int, Any]
               ) -> List[Dict[int, Any]]:
        """Create relation *name* and record every object of its
        table, in id order; returns each cell's ``{oid: geometry}``
        table of copies."""
        self.create_relation(name)
        tables: List[Dict[int, Any]] = [
            {} for _ in range(self.partitioner.n_cells)]
        for oid, geometry in sorted(objects.items()):
            for cell in self.add(name, oid, geometry_mbr(geometry)):
                tables[cell][oid] = geometry
        return tables

    # -- catalog -------------------------------------------------------

    def create_relation(self, name: str) -> None:
        self.mbrs[name] = {}
        self.owners[name] = {}
        self.cell_counts[name] = [0] * self.partitioner.n_cells
        self.class_counts[name] = {label: 0 for label in CLASSES}
        self._next_oids[name] = 0

    def drop_relation(self, name: str) -> None:
        del self.mbrs[name]
        del self.owners[name]
        del self.cell_counts[name]
        del self.class_counts[name]
        del self._next_oids[name]

    def __contains__(self, name: str) -> bool:
        return name in self.mbrs

    # -- objects -------------------------------------------------------

    def add(self, relation: str, oid: int, mbr: Rect) -> List[int]:
        """Record one object; returns the cells holding a copy."""
        cells = self.partitioner.cells_of_rect(mbr)
        self.mbrs[relation][oid] = mbr
        self.owners[relation][oid] = self.partitioner.owner_cell(mbr)
        self._next_oids[relation] = max(self._next_oids[relation],
                                        oid + 1)
        counts = self.cell_counts[relation]
        classes = self.class_counts[relation]
        for cell in cells:
            counts[cell] += 1
            classes[self.partitioner.classify(mbr, cell)] += 1
        return cells

    def remove(self, relation: str, oid: int) -> List[int]:
        """Forget one object; returns the cells that held a copy."""
        mbr = self.mbrs[relation].pop(oid)
        del self.owners[relation][oid]
        cells = self.partitioner.cells_of_rect(mbr)
        counts = self.cell_counts[relation]
        classes = self.class_counts[relation]
        for cell in cells:
            counts[cell] -= 1
            classes[self.partitioner.classify(mbr, cell)] -= 1
        return cells

    def mbr(self, relation: str, oid: int) -> Optional[Rect]:
        objects = self.mbrs.get(relation)
        return None if objects is None else objects.get(oid)

    def next_oid(self, relation: str) -> int:
        """The id an insert without one would get (a peek: only
        :meth:`add` advances it)."""
        return self._next_oids[relation]

    # -- census --------------------------------------------------------

    def objects(self, relation: str) -> int:
        return len(self.mbrs[relation])

    def copies(self, relation: str) -> int:
        return sum(self.cell_counts[relation])

    def replication_factor(self, relation: str) -> float:
        """Stored copies per object (1.0 = nothing spans a border)."""
        objects = self.objects(relation)
        return self.copies(relation) / objects if objects else 1.0

    def census(self, relation: str) -> Dict[str, Any]:
        """One relation's census, as the ``stats`` op and ``repro shard
        plan`` report it."""
        return {"objects": self.objects(relation),
                "copies": self.copies(relation),
                "replication": round(
                    self.replication_factor(relation), 4),
                "classes": dict(self.class_counts[relation])}

    def nonempty_cells(self, *relations: str) -> List[int]:
        """Cells where every named relation has at least one copy
        (the minimal fan-out of a join between them)."""
        cells = []
        for cell in range(self.partitioner.n_cells):
            if all(self.cell_counts[name][cell] > 0
                   for name in relations):
                cells.append(cell)
        return cells


# ----------------------------------------------------------------------
# Building partition-local catalogs
# ----------------------------------------------------------------------

def partition_database(db: "SpatialDatabase",
                       partitioner: GridPartitioner
                       ) -> Tuple[List["SpatialDatabase"], PartitionMap]:
    """Split one catalog into per-cell catalogs plus the routing map.

    Every relation exists in every partition (possibly empty), so a
    fanned-out request never hits an unknown-relation error on a
    sparse shard.  Objects keep their ids and exact geometry in every
    copy — partition-local refinement and ``get`` work unchanged.
    """
    from ..db.database import SpatialDatabase
    from ..db.table import GeometryTable

    pmap = PartitionMap(partitioner)
    shards = [SpatialDatabase(page_size=db.page_size)
              for _ in range(partitioner.n_cells)]
    # Assign, then load: every cell tree is STR-packed once from the
    # copies the map assigned to it, the way a served relation's
    # rebuild packs it.
    for name, relation in sorted(db.relations.items()):
        tables = pmap.assign(name, relation.objects)
        for shard, copies in zip(shards, tables):
            local = shard.create_relation(name)
            table = GeometryTable.of(copies)
            local.tree = local.bulk_load(table)
            local.objects = table
    return shards, pmap
