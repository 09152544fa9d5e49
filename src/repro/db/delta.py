"""The in-memory delta index: write absorption for MVCC relations.

A :class:`~repro.db.relation.SpatialRelation` does not mutate its
R*-tree on ``insert``/``delete``.  Mutations are absorbed
into a small :class:`DeltaIndex` — an insert buffer kept in row order
plus a deleted-oid set — and reads resolve through an immutable
:class:`FrozenDelta` snapshot layered over the base tree.  A
background rebuild periodically merges the accumulated delta into a
fresh bulk-loaded tree (:func:`repro.rtree.bulk.str_pack`) and swaps
it in atomically.

Visibility semantics (one rule, applied uniformly):

* an oid is **visible** iff it is in ``added``, or it is in the base
  object table and not in :attr:`FrozenDelta.hidden`;
* ``hidden = set(added) | deleted`` — a base row is suppressed both
  when its oid was deleted *and* when it was re-inserted with new
  geometry (the delta copy is authoritative then).

``delete`` always records ``added.pop(oid); deleted.add(oid)``: the
over-approximation (a never-persisted oid may land in ``deleted``) is
safe because ``deleted`` only ever *suppresses base rows*, and a later
re-insert puts the oid back into ``added``, which wins.

Row order is ascending ``(xlo, oid)`` and is established once, where a
row enters: :meth:`DeltaIndex.insert` computes the MBR and places the
row by bisection, so :meth:`DeltaIndex.freeze` (run on every absorbed
write) copies rows instead of sorting them, and
:meth:`FrozenDelta.combine` merges two ordered runs.  The frozen rows
back both the bisected window probe and, built on first use,
:attr:`FrozenDelta.columns` — a :class:`~repro.rtree.columns.NodeColumns`
so the vectorized restriction and plane-sweep kernels of
:mod:`repro.core.pairs` run over the delta unchanged.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..geometry.rect import Rect, geometry_mbr
from ..rtree.columns import NodeColumns

__all__ = ["DeltaIndex", "FrozenDelta"]

#: One added entry: ``(oid, mbr, geometry)``.
Row = Tuple[int, Rect, object]


def _row_key(row: Row) -> Tuple[float, int]:
    return row[1].xl, row[0]


class FrozenDelta:
    """An immutable snapshot of one delta index.

    Instances are shared freely across threads: nothing here mutates
    after construction (the lazily built :attr:`columns` is a pure
    function of the rows).  ``added`` maps oid -> exact geometry,
    ``deleted`` is the recorded deleted-oid set, and ``rows`` holds the
    added entries as ``(oid, mbr, geometry)`` in ascending ``(xlo,
    oid)`` order.
    """

    __slots__ = ("added", "deleted", "hidden", "rows", "_xls",
                 "_max_width", "_columns")

    def __init__(self, added: Dict[int, object],
                 deleted: Iterable[int]) -> None:
        """Build from scratch: MBRs computed and rows sorted here."""
        added = dict(added)
        rows = sorted(((oid, geometry_mbr(g), g)
                       for oid, g in added.items()), key=_row_key)
        self._assign(added, frozenset(deleted), tuple(rows),
                     tuple(mbr.xl for _, mbr, _ in rows),
                     max((mbr.xu - mbr.xl for _, mbr, _ in rows),
                         default=0.0))

    @classmethod
    def _of_rows(cls, added: Dict[int, object], deleted: frozenset,
                 rows: Tuple[Row, ...], xls: Tuple[float, ...],
                 max_width: float) -> "FrozenDelta":
        """Adopt rows already in order (no copy, no sort)."""
        frozen = cls.__new__(cls)
        frozen._assign(added, deleted, rows, xls, max_width)
        return frozen

    def _assign(self, added, deleted, rows, xls, max_width) -> None:
        self.added: Dict[int, object] = added
        self.deleted: frozenset = deleted
        #: Base-row suppression set: any oid the delta knows about.
        self.hidden = frozenset(added) | deleted
        self.rows: Tuple[Row, ...] = rows
        #: The rows' ``xlo``, the bisect key of :meth:`added_in`.
        self._xls: Tuple[float, ...] = xls
        #: An upper bound on the rows' x-extents (exact when built from
        #: scratch): how far left of a window a meeting row may start.
        self._max_width = max_width
        self._columns: Optional[NodeColumns] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of recorded operations (adds + deletes)."""
        return len(self.added) + len(self.deleted)

    def __bool__(self) -> bool:
        return bool(self.added) or bool(self.deleted)

    @property
    def order(self) -> Tuple[int, ...]:
        """The added oids in row order."""
        return tuple(oid for oid, _, _ in self.rows)

    @property
    def columns(self) -> NodeColumns:
        """The rows as columns (refs are the oids), built on first use:
        only the join overlay reads them."""
        columns = self._columns
        if columns is None:
            columns = NodeColumns.from_rect_refs(
                [(mbr, oid) for oid, mbr, _ in self.rows])
            self._columns = columns
        return columns

    def iter_added(self) -> Iterator[Row]:
        """Yield ``(oid, mbr, geometry)`` in row order."""
        return iter(self.rows)

    def added_in(self, window: Rect) -> List[int]:
        """Oids of added entries whose MBR meets *window* — the hot
        read-overlay probe.  The rows are xlo-sorted, so the scan is
        restricted to the window's x-band: a bisect skips every row
        that ends before the window starts (any intersecting row has
        ``xl >= window.xl - max_width``), and the scan stops once past
        the window's right edge.  Cost is proportional to the rows
        *near* the window, not the delta size."""
        xu = window.xu
        lo = bisect_left(self._xls, window.xl - self._max_width)
        matches: List[int] = []
        for oid, mbr, _ in self.rows[lo:]:
            if mbr.xl > xu:
                break
            if mbr.intersects(window):
                matches.append(oid)
        return matches

    def combine(self, newer: "FrozenDelta") -> "FrozenDelta":
        """Flatten ``self`` (older) and *newer* into one delta.

        Applying the result over a base is equivalent to applying
        ``self`` first and *newer* second: newer deletions cancel older
        adds, newer adds win outright, and every recorded deletion
        keeps suppressing base rows.
        """
        if not self:
            return newer
        if not newer:
            return self
        hidden = newer.hidden
        added = {oid: g for oid, g in self.added.items()
                 if oid not in hidden}
        added.update(newer.added)
        kept = [row for row in self.rows if row[0] not in hidden]
        # Two ordered runs: the sort merges them without re-deriving
        # a single MBR.
        rows = tuple(sorted(kept + list(newer.rows), key=_row_key))
        return FrozenDelta._of_rows(
            added, self.deleted | newer.deleted, rows,
            tuple(mbr.xl for _, mbr, _ in rows),
            max(self._max_width, newer._max_width))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FrozenDelta(+{len(self.added)}, "
                f"-{len(self.deleted)})")


#: The shared empty delta: relations with nothing absorbed (never
#: written, or freshly rebuilt) snapshot against this singleton.
FrozenDelta.EMPTY: "FrozenDelta" = FrozenDelta({}, ())


class DeltaIndex:
    """The mutable write-absorption buffer of one relation.

    All mutation goes through the owning relation's mutex; readers
    never touch a ``DeltaIndex`` — they get a :class:`FrozenDelta` via
    :meth:`freeze`.
    """

    __slots__ = ("added", "deleted", "_rows", "_xls", "_mbrs",
                 "_max_width")

    def __init__(self) -> None:
        self.added: Dict[int, object] = {}
        self.deleted: set = set()
        #: ``added`` as rows in ``(xlo, oid)`` order, with their
        #: ``xlo`` alongside (the bisect key) and each oid's MBR.
        self._rows: List[Row] = []
        self._xls: List[float] = []
        self._mbrs: Dict[int, Rect] = {}
        #: Widest x-extent absorbed since the last :meth:`clear`.
        self._max_width = 0.0

    def insert(self, oid: int, geometry) -> None:
        """Absorb an insert (validation happens in the relation)."""
        if oid in self.added:
            self._unlink(oid)
        mbr = geometry_mbr(geometry)
        at = self._position(mbr.xl, oid)
        self._rows.insert(at, (oid, mbr, geometry))
        self._xls.insert(at, mbr.xl)
        self._mbrs[oid] = mbr
        self.added[oid] = geometry
        self._max_width = max(self._max_width, mbr.xu - mbr.xl)

    def delete(self, oid: int) -> None:
        """Absorb a delete (validation happens in the relation)."""
        if self.added.pop(oid, None) is not None:
            self._unlink(oid)
        self.deleted.add(oid)

    def _position(self, xl: float, oid: int) -> int:
        """Where ``(xl, oid)`` belongs in row order: bisect on ``xlo``,
        then step over the equal-``xlo`` rows with smaller oids."""
        xls, rows = self._xls, self._rows
        at = bisect_left(xls, xl)
        while at < len(rows) and xls[at] == xl and rows[at][0] < oid:
            at += 1
        return at

    def _unlink(self, oid: int) -> None:
        at = self._position(self._mbrs.pop(oid).xl, oid)
        del self._rows[at]
        del self._xls[at]

    def __len__(self) -> int:
        return len(self.added) + len(self.deleted)

    def __bool__(self) -> bool:
        return bool(self.added) or bool(self.deleted)

    def freeze(self) -> FrozenDelta:
        """An immutable copy of the current state (rows copied, not
        re-sorted)."""
        if not self:
            return FrozenDelta.EMPTY
        return FrozenDelta._of_rows(
            dict(self.added), frozenset(self.deleted), tuple(self._rows),
            tuple(self._xls), self._max_width)

    def clear(self) -> None:
        self.added.clear()
        self.deleted.clear()
        self._rows.clear()
        self._xls.clear()
        self._mbrs.clear()
        self._max_width = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeltaIndex(+{len(self.added)}, -{len(self.deleted)})"
