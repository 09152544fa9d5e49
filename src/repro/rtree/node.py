"""R-tree nodes (pages).

A node is the payload of exactly one page.  ``level`` counts from the
leaves: 0 for data pages, ``height - 1`` for the root.  Nodes carry a
``sorted_by_xl`` flag so the plane-sweep join variants know whether the
entries are already in sweep order (Section 4.2 discusses maintaining
sorted nodes vs. sorting on every read).

A node holds its entries in one representation at a time, an
:class:`~repro.rtree.entry.Entry` list or
:class:`~repro.rtree.columns.NodeColumns`; the rule and who converts
when are stated once, in ``docs/columnar.md``.
"""

from __future__ import annotations

from typing import List, Optional

from ..geometry.counting import counted_xlo_order
from ..geometry.rect import Rect
from .columns import NodeColumns
from .entry import Entry


class Node:
    """One R-tree page: a level tag and its entries, as a list of
    ``Entry`` objects or as columns."""

    __slots__ = ("page_id", "level", "_entries", "_columns", "sorted_by_xl")

    def __init__(self, page_id: int, level: int,
                 entries: List[Entry] | None = None,
                 columns: Optional[NodeColumns] = None) -> None:
        self.page_id = page_id
        self.level = level
        if entries is None and columns is None:
            entries = []
        self._entries = entries
        self._columns = columns
        self.sorted_by_xl = False

    # ------------------------------------------------------------------
    # One representation at a time.  A conversion builds the new form
    # from a local reference and publishes it before dropping the old
    # one, so readers of a shared tree always find one of the two.
    # ------------------------------------------------------------------

    @property
    def entries(self) -> List[Entry]:
        """The entry list, for in-place maintenance; a columnar node is
        converted and drops its columns."""
        entries = self._entries
        if entries is None:
            columns = self._columns
            if columns is None:  # converted by another thread meanwhile
                return self._entries
            entries = columns.to_entries()
            self._entries = entries
            self._columns = None
        return entries

    @entries.setter
    def entries(self, value: List[Entry]) -> None:
        self._entries = value
        self._columns = None

    @property
    def columns(self) -> NodeColumns:
        """The struct-of-arrays view the readers use; an entry node is
        converted and drops its entry list."""
        columns = self._columns
        if columns is None:
            entries = self._entries
            if entries is None:  # converted by another thread meanwhile
                return self._columns
            columns = NodeColumns.from_entries(entries)
            self._columns = columns
            self._entries = None
        return columns

    def has_materialized_entries(self) -> bool:
        """True when the node is in its ``Entry`` list form."""
        return self._entries is not None

    # ------------------------------------------------------------------
    # Reads in the form the node holds: none of these converts
    # ------------------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        """Data pages live at level 0."""
        return self.level == 0

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of all entries."""
        entries = self._entries
        if entries is None:
            columns = self.columns
            if len(columns):
                return columns.mbr()
        elif entries:
            return Rect.mbr_of(e.rect for e in entries)
        raise ValueError(f"node {self.page_id} has no entries")

    def child_refs(self) -> List[int]:
        """All entry refs."""
        entries = self._entries
        if entries is None:
            return self.columns.child_refs()
        return [e.ref for e in entries]

    def refs_intersecting(self, rect: Rect) -> List[int]:
        """Refs of the entries whose MBR intersects *rect*, in order."""
        entries = self._entries
        if entries is None:
            return self.columns.refs_intersecting(rect)
        return [e.ref for e in entries if e.rect.intersects(rect)]

    def __len__(self) -> int:
        entries = self._entries
        if entries is None:
            return len(self.columns)
        return len(entries)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def replace_rect(self, index: int, rect: Rect) -> None:
        """Give entry *index* a new rectangle (its ref stays).  A new
        lower x can break plane-sweep order, so the node is no longer
        known to be sorted."""
        self.entries[index].rect = rect
        self.sorted_by_xl = False

    def sort_by_xl(self) -> int:
        """Bring the node into plane-sweep order (ascending lower x) in
        the form it holds; returns the comparisons charged (0 when
        already sorted)."""
        if self.sorted_by_xl:
            return 0
        entries = self._entries
        if entries is None:
            columns = self.columns
            order, count = counted_xlo_order(columns.xlo)
            self._columns = columns.take(order)
        else:
            order, count = counted_xlo_order([e.rect.xl for e in entries])
            entries[:] = [entries[i] for i in order]
        self.sorted_by_xl = True
        return count

    # ------------------------------------------------------------------
    # Pickling: ship columns, not Entry object graphs (parallel workers
    # deserialize straight into the columnar form)
    # ------------------------------------------------------------------

    def __getstate__(self):
        entries = self._entries
        cols = (self.columns if entries is None
                else NodeColumns.from_entries(entries))
        if cols.is_numpy:
            payload = (cols.xlo, cols.ylo, cols.xhi, cols.yhi, cols.refs)
        else:
            payload = (cols.xlo.tobytes(), cols.ylo.tobytes(),
                       cols.xhi.tobytes(), cols.yhi.tobytes(),
                       cols.refs.tobytes())
        return (self.page_id, self.level, self.sorted_by_xl,
                cols.is_numpy, payload)

    def __setstate__(self, state) -> None:
        page_id, level, sorted_by_xl, is_numpy, payload = state
        self.page_id = page_id
        self.level = level
        self.sorted_by_xl = sorted_by_xl
        self._entries = None
        if is_numpy:
            xlo, ylo, xhi, yhi, refs = payload
            self._columns = NodeColumns(xlo, ylo, xhi, yhi, refs)
        else:
            from array import array
            xlo = array("d"); xlo.frombytes(payload[0])
            ylo = array("d"); ylo.frombytes(payload[1])
            xhi = array("d"); xhi.frombytes(payload[2])
            yhi = array("d"); yhi.frombytes(payload[3])
            refs = array("q"); refs.frombytes(payload[4])
            self._columns = NodeColumns(xlo, ylo, xhi, yhi, refs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else "dir"
        return (f"Node(page={self.page_id}, level={self.level}, "
                f"{kind}, entries={len(self)})")
