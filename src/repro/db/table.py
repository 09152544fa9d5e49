"""A relation's base object table, kept as columns.

The paper's spatial relation (Section 2.1) holds object ids, exact
geometry and an R*-tree over the objects' MBRs.  Only the refinement
step and a point read (``get``) ever look at the exact geometry; the
bulk loader, saves and checkpoint diffs need ids and MBRs.  So a
relation's immutable base table is one :class:`GeometryTable`, the
struct-of-arrays layout of "SIMD-ified R-tree Query Processing and
Optimization" applied to rows instead of nodes, in ascending oid
order::

    oids                 the object ids, ascending
    kinds                RECT, POLYLINE or POLYGON
    offsets              row i's coordinates are
                         coords[offsets[i]:offsets[i + 1]]
    coords               flat x0 y0 x1 y1 ... (a rect keeps none: its
                         MBR columns are its geometry)
    xlo ylo xhi yhi      the MBR columns, bit-equal to geometry_mbr
    stamps               where each row came from (below)

Nothing builds a geometry object except a read of its oid: the first
``table[oid]`` builds it, and later reads return that same object.  A
table built from objects holds those objects and hands them back.

Every row gets a stamp, unique in the process, when it enters a table
from a file or an object, and keeps it when a derived table
(:meth:`GeometryTable.merged`) carries it over.  Two tables hold the
same geometry for an oid when their rows for it share a stamp, which
is what a checkpoint diff compares instead of object identity.

The columns use the backend :mod:`repro.rtree.columns` picks: numpy
``int64``/``float64`` arrays, or ``array('q')``/``array('d')`` with
:mod:`bisect` when numpy is absent or masked.  An operation that
derives a table takes the path of the backend in force when it runs
and reads columns of either kind.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from ..geometry.polygon import Polygon
from ..geometry.polyline import Polyline
from ..geometry.rect import Rect, geometry_mbr
from ..rtree import columns as backend

__all__ = ["GeometryTable", "KIND_CODES", "KIND_NAMES", "OID_MAX",
           "OID_MIN", "POLYGON", "POLYLINE", "RECT", "TableBuilder"]

RECT, POLYLINE, POLYGON = 0, 1, 2
#: The line-format word of each kind code.
KIND_NAMES = ("rect", "polyline", "polygon")
KIND_CODES = {name: code for code, name in enumerate(KIND_NAMES)}

#: The stamp a row appended from a file or an object carries until
#: :meth:`TableBuilder.build` gives it a fresh one.
_FRESH = -1
_STAMP_LOCK = threading.Lock()
_next_stamp = 0
#: The oids a table can hold (int64): a relation refuses to insert
#: any other.
OID_MIN, OID_MAX = -2 ** 63, 2 ** 63 - 1
#: Rows converted to Python values at a time by :meth:`rows`.
_CHUNK = 4096
_COLUMNS = ("oids", "kinds", "offsets", "coords", "xlo", "ylo", "xhi",
            "yhi", "stamps")
_TYPECODES = {"oids": "q", "kinds": "b", "offsets": "q", "coords": "d",
              "xlo": "d", "ylo": "d", "xhi": "d", "yhi": "d",
              "stamps": "q"}


class TableBuilder:
    """Rows appended one at a time, then frozen by :meth:`build`.

    Rows may arrive in any oid order (:meth:`build` sorts them) but
    each oid at most once; ``oid in builder`` tells whether one has.
    """

    __slots__ = _COLUMNS + ("built", "_seen", "_ordered")

    def __init__(self) -> None:
        for name in _COLUMNS:
            setattr(self, name, array(_TYPECODES[name]))
        self.offsets.append(0)
        #: oid -> the geometry object a copied row had built.
        self.built: Dict[int, object] = {}
        #: Every oid appended, kept from the first ``in`` the last oid
        #: cannot answer (the oids left ascending order).
        self._seen: Optional[Set[int]] = None
        self._ordered = True

    def __contains__(self, oid: int) -> bool:
        oids = self.oids
        if self._seen is None:
            if not oids or oid > oids[-1]:
                return False
            self._seen = set(oids)
        return oid in self._seen

    def _append(self, oid: int, kind: int, xl: float, yl: float,
                xu: float, yu: float, stamp: int = _FRESH) -> None:
        """One row whose coordinates are already in :attr:`coords`."""
        oids = self.oids
        if oids and oid <= oids[-1]:
            self._ordered = False
        if self._seen is not None:
            self._seen.add(oid)
        oids.append(oid)
        self.kinds.append(kind)
        self.offsets.append(len(self.coords))
        self.xlo.append(xl)
        self.ylo.append(yl)
        self.xhi.append(xu)
        self.yhi.append(yu)
        self.stamps.append(stamp)

    def add_values(self, oid: int, kind: int, values: List[float]) -> bool:
        """Append a row parsed from text, if the geometry constructors
        would accept it; otherwise append nothing and return False.

        *values* are a line's numbers: the four MBR bounds of a rect,
        else the vertices' coordinates.  A polygon drops every closing
        copy of its first vertex, as :class:`Polygon` does, and the MBR
        is taken the way :meth:`Rect.from_points` takes it (builtin
        ``min``/``max`` keep the first of equal values, so a ``-0.0``
        /``0.0`` tie keeps the first vertex's zero too).
        """
        n = len(values)
        # The sum is finite only when every value is (a sum that
        # overflows has every value looked at).
        if n % 2 or not (math.isfinite(sum(values))
                         or all(map(math.isfinite, values))):
            return False
        if kind == RECT:
            if n != 4:
                return False
            xl, yl, xu, yu = values
            if xl > xu or yl > yu:
                return False
        else:
            if kind == POLYGON:
                while n > 2 and values[0] == values[n - 2] \
                        and values[1] == values[n - 1]:
                    n -= 2
                if n < 6:
                    return False
                del values[n:]
            elif n < 4:
                return False
            xs, ys = values[0::2], values[1::2]
            xl, yl, xu, yu = min(xs), min(ys), max(xs), max(ys)
            self.coords.extend(values)
        self._append(oid, kind, xl, yl, xu, yu)
        return True

    def add_row(self, table: "GeometryTable", row: int) -> None:
        """Append row *row* of *table*, stamp and built object kept."""
        start, stop = int(table.offsets[row]), int(table.offsets[row + 1])
        self.coords.extend(table.coords[start:stop])
        oid = int(table.oids[row])
        self._append(oid, int(table.kinds[row]), table.xlo[row],
                     table.ylo[row], table.xhi[row], table.yhi[row],
                     int(table.stamps[row]))
        geometry = table._built.get(oid)
        if geometry is not None:
            self.built[oid] = geometry

    def build(self) -> "GeometryTable":
        """The table of the rows appended, in ascending oid order; rows
        that entered from a file or an object get fresh stamps."""
        if not self._ordered:
            order = sorted(range(len(self.oids)),
                           key=self.oids.__getitem__)
            if any(self.oids[a] == self.oids[b]
                   for a, b in zip(order, order[1:])):
                raise ValueError("a table holds each oid at most once")
            table = GeometryTable(*(getattr(self, name)
                                    for name in _COLUMNS), self.built)
            ordered = TableBuilder()
            for row in order:
                ordered.add_row(table, row)
            return ordered.build()
        return _freeze([getattr(self, name) for name in _COLUMNS],
                       self.built)


def _freeze(columns: List[array], built: Dict[int, object]
            ) -> "GeometryTable":
    """The table over ``array`` *columns* in :data:`_COLUMNS` order and
    oid order: viewed as numpy arrays on that backend, fresh rows
    stamped."""
    if backend.use_numpy():
        columns = [_view(column) for column in columns]
    _stamp_fresh(columns[-1])
    return GeometryTable(*columns, built)


def _stamp_fresh(stamps) -> None:
    """Give every ``_FRESH`` entry of *stamps* a new stamp, in place."""
    if isinstance(stamps, array):
        fresh = [row for row, stamp in enumerate(stamps)
                 if stamp == _FRESH]
        first = _new_stamps(len(fresh))
        for offset, row in enumerate(fresh):
            stamps[row] = first + offset
        return
    np = backend.np
    fresh = stamps == _FRESH
    count = int(np.count_nonzero(fresh))
    if count:
        first = _new_stamps(count)
        stamps[fresh] = np.arange(first, first + count, dtype=np.int64)


def _new_stamps(count: int) -> int:
    """The first of *count* consecutive stamps no row has had."""
    global _next_stamp
    with _STAMP_LOCK:
        first = _next_stamp
        _next_stamp += count
    return first


class GeometryTable(Mapping):
    """An immutable ``oid -> geometry`` mapping stored as columns (see
    the module docstring); build one with :meth:`of` or a
    :class:`TableBuilder`."""

    __slots__ = _COLUMNS + ("_built",)

    def __init__(self, oids, kinds, offsets, coords, xlo, ylo, xhi, yhi,
                 stamps, built: Optional[Dict[int, object]] = None
                 ) -> None:
        self.oids = oids
        self.kinds = kinds
        self.offsets = offsets
        self.coords = coords
        self.xlo = xlo
        self.ylo = ylo
        self.xhi = xhi
        self.yhi = yhi
        self.stamps = stamps
        #: oid -> the object a read built (or the table was built from).
        self._built: Dict[int, object] = {} if built is None else built

    @classmethod
    def of(cls, objects: Mapping) -> "GeometryTable":
        """*objects* as a table: a table is returned as it is, any
        other mapping is copied in, its objects handed back by reads."""
        if isinstance(objects, GeometryTable):
            return objects
        oids = sorted(objects)
        geometries = [objects[oid] for oid in oids]
        kinds = [RECT if isinstance(g, Rect)
                 else POLYGON if isinstance(g, Polygon) else POLYLINE
                 for g in geometries]
        mbrs = [geometry_mbr(g) for g in geometries]
        vertices = [() if kind == RECT else g.vertices
                    for g, kind in zip(geometries, kinds)]
        offsets = array("q", [0])
        offsets.extend(itertools.accumulate(2 * len(v) for v in vertices))
        flat = itertools.chain.from_iterable
        return _freeze(
            [array("q", oids), array("b", kinds), offsets,
             array("d", flat(flat(vertices))),
             array("d", [mbr.xl for mbr in mbrs]),
             array("d", [mbr.yl for mbr in mbrs]),
             array("d", [mbr.xu for mbr in mbrs]),
             array("d", [mbr.yu for mbr in mbrs]),
             array("q", [_FRESH]) * len(oids)],
            dict(zip(oids, geometries)))

    def alias(self) -> "GeometryTable":
        """Another table object over the same columns, stamps and built
        objects: equal row for row, but not ``is`` this one."""
        return GeometryTable(*(getattr(self, name) for name in _COLUMNS),
                             self._built)

    # ------------------------------------------------------------------
    # The mapping
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.oids)

    def __iter__(self) -> Iterator[int]:
        oids = self.oids
        for start in range(0, len(oids), _CHUNK):
            yield from oids[start:start + _CHUNK].tolist()

    def __contains__(self, oid) -> bool:
        return oid in self._built or self._row(oid) >= 0

    def __getitem__(self, oid):
        geometry = self._built.get(oid)
        if geometry is not None:
            return geometry
        row = self._row(oid)
        if row < 0:
            raise KeyError(oid)
        return self._built.setdefault(int(self.oids[row]),
                                      self._build(row))

    def _row(self, oid) -> int:
        """The row holding *oid*, or -1."""
        try:
            key = operator.index(oid)
        except TypeError:
            return -1
        if not OID_MIN <= key <= OID_MAX:
            return -1
        oids = self.oids
        if isinstance(oids, array):
            row = bisect_left(oids, key)
        else:
            row = int(oids.searchsorted(key))
        return row if row < len(oids) and oids[row] == key else -1

    def _build(self, row: int):
        """The geometry object of row *row* (the only place one is
        built from the columns)."""
        kind = self.kinds[row]
        if kind == RECT:
            return Rect(self.xlo[row], self.ylo[row], self.xhi[row],
                        self.yhi[row])
        flat = self.coords[int(self.offsets[row]):
                           int(self.offsets[row + 1])].tolist()
        points = list(zip(flat[0::2], flat[1::2]))
        return Polygon(points) if kind == POLYGON else Polyline(points)

    # ------------------------------------------------------------------
    # Column reads: no geometry object is built
    # ------------------------------------------------------------------

    def built(self) -> int:
        """How many rows have their geometry object held: built by a
        read, or handed in by the objects the table was built from."""
        return len(self._built)

    def next_oid(self) -> int:
        """One past the largest oid (0 when empty)."""
        return int(self.oids[-1]) + 1 if len(self.oids) else 0

    def records(self) -> List[Tuple[Rect, int]]:
        """``(MBR, oid)`` of every row, in oid order."""
        return list(zip(map(Rect, self.xlo.tolist(), self.ylo.tolist(),
                            self.xhi.tolist(), self.yhi.tolist()),
                        self.oids.tolist()))

    def rows(self) -> Iterator[Tuple[int, int, Sequence[float]]]:
        """``(oid, kind, values)`` per row in oid order, as Python
        numbers: *values* are a rect's ``(xl, yl, xu, yu)``, else the
        vertices' flat coordinates."""
        for start in range(0, len(self.oids), _CHUNK):
            stop = min(start + _CHUNK, len(self.oids))
            oids = self.oids[start:stop].tolist()
            kinds = self.kinds[start:stop].tolist()
            offsets = self.offsets[start:stop + 1].tolist()
            first = offsets[0]
            flat = self.coords[first:offsets[-1]].tolist()
            bounds = zip(self.xlo[start:stop].tolist(),
                         self.ylo[start:stop].tolist(),
                         self.xhi[start:stop].tolist(),
                         self.yhi[start:stop].tolist())
            for i, (oid, kind, box) in enumerate(zip(oids, kinds, bounds)):
                if kind == RECT:
                    yield oid, kind, box
                else:
                    yield oid, kind, flat[offsets[i] - first:
                                          offsets[i + 1] - first]

    def count_present(self, oids: Iterable[int]) -> int:
        """How many of the distinct *oids* are rows of this table."""
        return sum(1 for oid in set(oids) if self._row(oid) >= 0)

    # ------------------------------------------------------------------
    # Derived tables: stamps and built objects carried over
    # ------------------------------------------------------------------

    def merged(self, hidden: Iterable[int],
               added: "GeometryTable") -> "GeometryTable":
        """This table's rows whose oid neither *hidden* nor *added*
        holds, plus every row of *added*: a base overlaid by a delta."""
        drop = set(hidden)
        drop.update(added)
        # A copy first: reads may build objects while this runs.
        built = {oid: g for oid, g in dict(self._built).items()
                 if oid not in drop}
        built.update(added._built)
        if backend.use_numpy():
            np = backend.np
            keep = np.ones(len(self.oids), dtype=bool)
            keep[_rows_of(self.oids, drop)] = False
            return _gather([(self, np.flatnonzero(keep)),
                            (added, np.arange(len(added.oids)))], built)
        builder = TableBuilder()
        theirs, i = added.oids.tolist(), 0
        for row, oid in enumerate(self.oids.tolist()):
            if oid in drop:
                continue
            while i < len(theirs) and theirs[i] < oid:
                builder.add_row(added, i)
                i += 1
            builder.add_row(self, row)
        for i in range(i, len(theirs)):
            builder.add_row(added, i)
        builder.built = built
        return builder.build()

    def diff(self, old: "GeometryTable", hidden: Iterable[int]
             ) -> Tuple["GeometryTable", List[int]]:
        """What takes *old* to this table with the oids *hidden* taken
        out: ``(changed, gone)``.  *changed* holds this table's rows
        that are not hidden and that *old* does not hold with the same
        stamp; *gone* lists the oids of *old* that this table lacks or
        hides, ascending."""
        hidden = set(hidden)
        if backend.use_numpy():
            np = backend.np
            mine, theirs = _view(self.oids), _view(old.oids)
            rows = _rows_in(theirs, mine)
            same = rows >= 0
            same[same] = (_view(old.stamps)[rows[same]]
                          == _view(self.stamps)[same])
            gone = _rows_in(mine, theirs) < 0
            same[_rows_of(mine, hidden)] = True
            gone[_rows_of(theirs, hidden)] = True
            changed = _gather([(self, np.flatnonzero(~same))], {})
            return changed, theirs[gone].tolist()
        stamps = dict(zip(old.oids.tolist(), old.stamps.tolist()))
        builder = TableBuilder()
        for row, (oid, stamp) in enumerate(zip(self.oids.tolist(),
                                               self.stamps.tolist())):
            if oid not in hidden and stamps.get(oid) != stamp:
                builder.add_row(self, row)
        return builder.build(), [oid for oid in old.oids.tolist()
                                 if oid in hidden or self._row(oid) < 0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"GeometryTable({len(self)} rows, "
                f"{len(self._built)} built)")


# ----------------------------------------------------------------------
# numpy helpers
# ----------------------------------------------------------------------

def _view(column):
    """*column* as a numpy array (an ``array`` column is viewed, not
    copied)."""
    if isinstance(column, array):
        return backend.np.frombuffer(
            column, dtype=backend.np.dtype(column.typecode))
    return column


def _rows_of(sorted_oids, oids: Iterable[int]):
    """The rows of ascending *sorted_oids* that hold one of *oids*."""
    np = backend.np
    wanted = np.fromiter((oid for oid in oids if OID_MIN <= oid <= OID_MAX),
                         np.int64)
    rows = _rows_in(_view(sorted_oids), wanted)
    return rows[rows >= 0]


def _rows_in(sorted_oids, wanted):
    """Row of each *wanted* oid in ascending *sorted_oids* (-1 when
    absent)."""
    np = backend.np
    if not len(sorted_oids):
        return np.full(len(wanted), -1, dtype=np.int64)
    rows = np.minimum(np.searchsorted(sorted_oids, wanted),
                      len(sorted_oids) - 1)
    return np.where(sorted_oids[rows] == wanted, rows, -1)


def _gather(parts, built: Dict[int, object]) -> GeometryTable:
    """The rows ``(table, rows)`` of *parts* name, as one numpy table
    in oid order (the parts' oids are disjoint)."""
    np = backend.np
    columns = {name: [] for name in _COLUMNS if name != "offsets"}
    starts, lengths = [], []
    base = 0
    for table, rows in parts:
        offsets = _view(table.offsets)
        for name in columns:
            if name == "coords":
                columns[name].append(_view(table.coords))
            else:
                columns[name].append(_view(getattr(table, name))[rows])
        starts.append(offsets[rows] + base)
        lengths.append(offsets[rows + 1] - offsets[rows])
        base += int(offsets[-1])
    joined = {name: np.concatenate(parts_of)
              for name, parts_of in columns.items()}
    start, length = np.concatenate(starts), np.concatenate(lengths)
    order = np.argsort(joined["oids"], kind="stable")
    start, length = start[order], length[order]
    offsets = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(length, out=offsets[1:])
    total = int(offsets[-1])
    source = (np.repeat(start - offsets[:-1], length)
              + np.arange(total, dtype=np.int64))
    return GeometryTable(
        joined["oids"][order], joined["kinds"][order], offsets,
        joined["coords"][source], joined["xlo"][order],
        joined["ylo"][order], joined["xhi"][order],
        joined["yhi"][order], joined["stamps"][order], built)
