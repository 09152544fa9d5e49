"""R-tree nodes (pages).

A node is the payload of exactly one page.  ``level`` counts from the
leaves: 0 for data pages, ``height - 1`` for the root.  Nodes carry a
``sorted_by_xl`` flag so the plane-sweep join variants know whether the
entries are already in sweep order (Section 4.2 discusses maintaining
sorted nodes vs. sorting on every read).

A node holds its entries in one (or both) of two representations:

* the **object path** — a list of :class:`~repro.rtree.entry.Entry`
  objects, the mutable form all tree-maintenance code works on;
* the **columnar path** — a :class:`~repro.rtree.columns.NodeColumns`
  struct-of-arrays view the join kernels read.

Either representation is materialized lazily from the other and cached.
Code that mutates entries *through the list* (append, delete, in-place
``entry.rect`` replacement) must call :meth:`Node.invalidate_columns`
afterwards; ``RTreeBase._write`` does this for every structure
modification, so tree code gets it for free.  Nodes loaded from disk or
shipped to worker processes carry only columns until someone touches
``.entries``.  :meth:`Node.sort_by_xl` reorders the representations a
node holds and builds neither, so a columns-only node stays so.
"""

from __future__ import annotations

from typing import List, Optional

from ..geometry.counting import counted_xlo_order
from ..geometry.rect import Rect
from .columns import NodeColumns
from .entry import Entry


class Node:
    """One R-tree page: a level tag and a list of entries."""

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
    # Dual representation
    # ------------------------------------------------------------------

    @property
    def entries(self) -> List[Entry]:
        """The entry list (materialized from columns on first access)."""
        if self._entries is None:
            self._entries = self._columns.to_entries()
        return self._entries

    @entries.setter
    def entries(self, value: List[Entry]) -> None:
        self._entries = value
        self._columns = None

    @property
    def columns(self) -> NodeColumns:
        """Struct-of-arrays view of the entries (built lazily, cached).

        The view is only valid until the next mutation; mutation sites
        invalidate it via :meth:`invalidate_columns` (``RTreeBase._write``
        calls it on every structure modification).
        """
        if self._columns is None:
            self._columns = NodeColumns.from_entries(self._entries)
        return self._columns

    def invalidate_columns(self) -> None:
        """Drop the cached columnar view after an in-place entry mutation.

        A no-op for columnar-only nodes (nothing stale to drop: the
        columns *are* the data until ``.entries`` is materialized)."""
        if self._entries is not None:
            self._columns = None

    def has_materialized_entries(self) -> bool:
        """True when the object-path entry list exists (reads test a
        node in the representation it holds, see
        :meth:`RTreeBase.window_query`)."""
        return self._entries is not None

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        """Data pages live at level 0."""
        return self.level == 0

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of all entries."""
        if self._entries is None:
            if not len(self._columns):
                raise ValueError(f"node {self.page_id} has no entries")
            return self._columns.mbr()
        if not self._entries:
            raise ValueError(f"node {self.page_id} has no entries")
        return Rect.mbr_of(e.rect for e in self._entries)

    def child_refs(self) -> List[int]:
        """All entry refs, without materializing ``Entry`` objects."""
        if self._entries is None:
            return self._columns.child_refs()
        return [e.ref for e in self._entries]

    def replace_rect(self, index: int, rect: Rect) -> None:
        """Give entry *index* a new rectangle (its ref stays).  A new
        lower x can break plane-sweep order, so the node is no longer
        known to be sorted."""
        self.entries[index].rect = rect
        self.sorted_by_xl = False

    def sort_by_xl(self) -> int:
        """Bring the node into plane-sweep order (ascending lower x);
        returns the comparisons charged (0 when already sorted)."""
        if self.sorted_by_xl:
            return 0
        entries, cols = self._entries, self._columns
        order, count = counted_xlo_order(
            cols.xlo if entries is None else [e.rect.xl for e in entries])
        if entries is not None:
            entries[:] = [entries[i] for i in order]
        if cols is not None:
            self._columns = cols.take(order)
        self.sorted_by_xl = True
        return count

    def __len__(self) -> int:
        if self._entries is None:
            return len(self._columns)
        return len(self._entries)

    # ------------------------------------------------------------------
    # Pickling: ship columns, not Entry object graphs (parallel workers
    # deserialize straight into the columnar fast path)
    # ------------------------------------------------------------------

    def __getstate__(self):
        cols = self.columns
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
