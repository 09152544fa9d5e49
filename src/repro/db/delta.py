"""The in-memory delta index: write absorption for MVCC relations.

A relation adopted by a query service (see
:meth:`~repro.db.relation.SpatialRelation.absorb_writes`) does not
mutate its R*-tree on ``insert``/``delete``.  Mutations are absorbed
into a small :class:`DeltaIndex` — a columnar insert buffer plus a
deleted-oid set — and reads resolve through an immutable
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

The frozen insert buffer is a :class:`~repro.rtree.columns.NodeColumns`
sorted by ascending ``xlo``, so the vectorized restriction and
plane-sweep kernels of :mod:`repro.core.pairs` run over the delta
unchanged.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..geometry.rect import Rect, geometry_mbr
from ..rtree.columns import NodeColumns

__all__ = ["DeltaIndex", "FrozenDelta"]


class FrozenDelta:
    """An immutable snapshot of one delta index.

    Instances are shared freely across threads: nothing here mutates
    after construction.  ``added`` maps oid -> exact geometry,
    ``deleted`` is the recorded deleted-oid set, and ``columns`` holds
    the added entries' MBRs sorted by ascending ``xlo`` (refs are the
    oids), ready for the columnar kernels.
    """

    __slots__ = ("added", "deleted", "hidden", "columns", "order",
                 "rows", "_xls", "_max_width")

    def __init__(self, added: Dict[int, object],
                 deleted: Iterable[int]) -> None:
        self.added: Dict[int, object] = dict(added)
        self.deleted = frozenset(deleted)
        #: Base-row suppression set: any oid the delta knows about.
        self.hidden = frozenset(self.added) | self.deleted
        records = sorted(((geometry_mbr(g), oid)
                          for oid, g in self.added.items()),
                         key=lambda item: (item[0].xl, item[1]))
        #: oids in the columns' row order (ascending xlo).
        self.order: Tuple[int, ...] = tuple(oid for _, oid in records)
        #: ``(oid, mbr, geometry)`` rows in columns order — MBRs are
        #: computed once here, never per probe.
        self.rows: Tuple[Tuple[int, Rect, object], ...] = tuple(
            (oid, mbr, self.added[oid]) for mbr, oid in records)
        self._xls: Tuple[float, ...] = tuple(
            mbr.xl for mbr, _ in records)
        self._max_width = max(
            (mbr.xu - mbr.xl for mbr, _ in records), default=0.0)
        self.columns = NodeColumns.from_rect_refs(records)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of recorded operations (adds + deletes)."""
        return len(self.added) + len(self.deleted)

    def __bool__(self) -> bool:
        return bool(self.added) or bool(self.deleted)

    def iter_added(self) -> Iterator[Tuple[int, Rect, object]]:
        """Yield ``(oid, mbr, geometry)`` in columns row order."""
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
        added = {oid: g for oid, g in self.added.items()
                 if oid not in newer.hidden}
        added.update(newer.added)
        return FrozenDelta(added, self.deleted | newer.deleted)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FrozenDelta(+{len(self.added)}, "
                f"-{len(self.deleted)})")


#: The shared empty delta: relations with nothing absorbed (never
#: armed, or freshly rebuilt) snapshot against this singleton.
FrozenDelta.EMPTY: "FrozenDelta" = FrozenDelta({}, ())


class DeltaIndex:
    """The mutable write-absorption buffer of one relation.

    All mutation goes through the owning relation's mutex; readers
    never touch a ``DeltaIndex`` — they get a :class:`FrozenDelta` via
    :meth:`freeze`.
    """

    __slots__ = ("added", "deleted")

    def __init__(self) -> None:
        self.added: Dict[int, object] = {}
        self.deleted: set = set()

    def insert(self, oid: int, geometry) -> None:
        """Absorb an insert (validation happens in the relation)."""
        self.added[oid] = geometry

    def delete(self, oid: int) -> None:
        """Absorb a delete (validation happens in the relation)."""
        self.added.pop(oid, None)
        self.deleted.add(oid)

    def __len__(self) -> int:
        return len(self.added) + len(self.deleted)

    def __bool__(self) -> bool:
        return bool(self.added) or bool(self.deleted)

    def freeze(self) -> FrozenDelta:
        """An immutable copy of the current state."""
        if not self:
            return FrozenDelta.EMPTY
        return FrozenDelta(self.added, self.deleted)

    def clear(self) -> None:
        self.added.clear()
        self.deleted.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeltaIndex(+{len(self.added)}, -{len(self.deleted)})"
