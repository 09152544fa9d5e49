"""Immutable point-in-time views of a spatial relation (MVCC reads).

A :class:`Snapshot` pairs an immutable base (tree + object table) with
a :class:`~repro.db.delta.FrozenDelta` and the epoch pair that
identifies the view:

* ``epoch`` — the relation's mutation counter; two snapshots with the
  same epoch see exactly the same data.  Result caches key on it.
* ``base_epoch`` — bumped only when a rebuild installs a new base.
  Cached base-tree computations key on it, so they survive writes.

Readers grab one snapshot and use it for the whole query: nothing a
snapshot references is ever mutated (writes build new frozen deltas;
rebuilds swap in a new tree + table), so queries run without holding
any lock.  The snapshot also serves as the merged object table:
:attr:`objects` is a read-only mapping implementing the visibility
rule ``added wins; deleted suppresses base``.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import itemgetter
from typing import Iterator, List, Optional, Tuple

from ..core.knn import NearestNeighborEngine
from ..core.refinement import exact_window_survivors
from ..errors import CatalogError
from ..geometry.rect import Rect
from ..rtree.base import RTreeBase
from .delta import FrozenDelta
from .table import GeometryTable

__all__ = ["Snapshot", "SnapshotObjects"]


class SnapshotObjects(Mapping):
    """Read-only merged object table of one snapshot.

    Implements the full :class:`~collections.abc.Mapping` protocol over
    ``(base - hidden) ∪ added`` without materializing the merge; code
    that previously indexed ``relation.objects`` (persistence, chaos
    census, CLI listings, refinement) works unchanged against it.  A
    base geometry is built only when its oid is read.
    """

    __slots__ = ("_base", "_delta", "_len")

    def __init__(self, base: GeometryTable, delta: FrozenDelta) -> None:
        self._base = base
        self._delta = delta
        #: Counted on first use: a write publishes a view per call.
        self._len: Optional[int] = None

    def __getitem__(self, oid: int):
        delta = self._delta
        try:
            return delta.added[oid]
        except KeyError:
            pass
        if oid in delta.deleted:
            raise KeyError(oid)
        return self._base[oid]

    def __contains__(self, oid) -> bool:
        delta = self._delta
        if oid in delta.added:
            return True
        if oid in delta.hidden:
            return False
        return oid in self._base

    def __iter__(self) -> Iterator[int]:
        delta = self._delta
        hidden = delta.hidden
        for oid in self._base:
            if oid not in hidden:
                yield oid
        yield from delta.added

    def __len__(self) -> int:
        if self._len is None:
            delta = self._delta
            self._len = (len(self._base)
                         - self._base.count_present(delta.hidden)
                         + len(delta.added))
        return self._len


class Snapshot:
    """One immutable, consistent view of a relation.

    Everything here is read-only: the tree and base table are never
    mutated while any snapshot references them, and the delta is
    frozen.  Query helpers mirror the relation's read surface
    (``window``/``nearest``/``get``/``records``/``mbr``) so callers can
    swap a live relation for a snapshot without code changes.
    """

    __slots__ = ("name", "tree", "base_objects", "delta", "epoch",
                 "base_epoch", "objects")

    def __init__(self, name: str, tree: RTreeBase,
                 base_objects: GeometryTable, delta: FrozenDelta,
                 epoch: int, base_epoch: int) -> None:
        self.name = name
        self.tree = tree
        self.base_objects = base_objects
        self.delta = delta
        self.epoch = epoch
        self.base_epoch = base_epoch
        self.objects = SnapshotObjects(base_objects, delta)

    # ------------------------------------------------------------------
    # Point reads
    # ------------------------------------------------------------------

    def get(self, oid: int):
        """The exact geometry of one visible object."""
        try:
            return self.objects[oid]
        except KeyError:
            raise CatalogError(
                f"no object {oid} in {self.name!r}") from None

    def __contains__(self, oid: int) -> bool:
        return oid in self.objects

    def __len__(self) -> int:
        return len(self.objects)

    def __iter__(self) -> Iterator[int]:
        return iter(self.objects)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def window_base(self, window: Rect,
                    exact: bool = False) -> List[int]:
        """The base-tree half of a window query, sorted: ids whose MBR
        (``exact``: whose exact geometry) intersects *window*, the
        delta ignored — so it depends on ``base_epoch`` only and a
        server may cache it across delta writes."""
        refs = self.tree.window_query(window)
        if exact:
            refs = exact_window_survivors(refs, self.base_objects,
                                          window)
        return sorted(refs)

    def window_overlay(self, base_refs: List[int], window: Rect,
                       exact: bool = False) -> List[int]:
        """:meth:`window_base`'s result made current: base hits the
        delta hides dropped, the delta's own hits added (refined on
        the same terms), still sorted."""
        delta = self.delta
        if not delta:
            return base_refs
        hidden = delta.hidden
        refs = base_refs if not hidden \
            else [oid for oid in base_refs if oid not in hidden]
        added = delta.added_in(window)
        if exact and added:
            added = exact_window_survivors(added, self.objects, window)
        # The filtered base refs are already sorted; only a nonempty
        # delta contribution forces a re-sort.
        if added:
            refs = sorted(refs + added)
        return refs

    def window(self, window: Rect, exact: bool = False) -> List[int]:
        """Sorted ids of visible objects whose MBR intersects
        *window*; ``exact=True`` adds the refinement step (only
        objects whose exact geometry intersects the window survive)."""
        return self.window_overlay(self.window_base(window, exact),
                                   window, exact)

    def nearest(self, x: float, y: float, k: int = 1,
                buffer_kb: float = 0.0) -> List[Tuple[int, float]]:
        """The k visible objects whose MBRs are nearest to a point."""
        engine = NearestNeighborEngine(self.tree, buffer_kb=buffer_kb)
        return engine.query(x, y, k, delta=self.delta).neighbors

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def records(self) -> List[Tuple[Rect, int]]:
        """(MBR, id) records of every visible object, id-ordered, the
        base's read from its MBR columns."""
        delta = self.delta
        records = self.base_objects.records()
        if not delta:
            return records
        hidden = delta.hidden
        records = [record for record in records if record[1] not in hidden]
        records += [(mbr, oid) for oid, mbr, _ in delta.rows]
        records.sort(key=itemgetter(1))
        return records

    def mbr(self) -> Optional[Rect]:
        """MBR of every visible object (None when empty)."""
        if not self.delta:
            return self.tree.mbr()
        rects = [mbr for mbr, _ in self.records]
        if not rects:
            return None
        return Rect.mbr_of(rects)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Snapshot({self.name!r}, epoch={self.epoch}, "
                f"base_epoch={self.base_epoch}, {len(self)} objects, "
                f"delta={self.delta!r})")
