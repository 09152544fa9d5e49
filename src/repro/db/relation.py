"""A spatial relation: exact geometry + MBR index, kept in sync.

The paper's setting (Section 2.1) is a pair of *spatial relations*
whose objects carry identifiers, exact geometry, and an R*-tree over
their MBRs.  :class:`SpatialRelation` packages exactly that: a write
reaches the object table and the index together, queries go through
the index, and the exact geometry feeds the refinement step.

Every ``insert``/``delete`` lands in an in-memory
:class:`~repro.db.delta.DeltaIndex` (see docs/ingestion.md); reads
resolve through an immutable :class:`~repro.db.snapshot.Snapshot`
(base tree + frozen delta + epoch) published atomically, so readers
never hold a lock and never observe a half-applied write.
:meth:`SpatialRelation.rebuild` merges the delta into a fresh STR
bulk-loaded tree and swaps it in.  Between a write and a rebuild,
``relation.tree`` is the base and :meth:`~SpatialRelation.snapshot`
is the visible view.

``epoch`` counts data mutations (result caches key on it) while
``base_epoch`` changes only when a new base is installed — a write
bumps ``epoch`` but leaves ``base_epoch`` alone, which is what lets
the serve layer keep base-tree computations cached across writes.
"""

from __future__ import annotations

import threading
from typing import Iterator, List, Mapping, Optional, Tuple, Union

from ..errors import CatalogError, QueryError
from ..geometry.polygon import Polygon
from ..geometry.polyline import Polyline
from ..geometry.rect import Rect
from ..rtree.bulk import str_pack
from ..rtree.columns import NodeColumns
from ..rtree.params import RTreeParams
from ..rtree.rstar import RStarTree
from .delta import DeltaIndex, FrozenDelta
from .snapshot import Snapshot
from .table import OID_MAX, OID_MIN, GeometryTable

SpatialObject = Union[Polyline, Polygon]
Geometry = Union[SpatialObject, Rect]


class SpatialRelation:
    """A named collection of spatial objects with an R*-tree index."""

    #: Optional :class:`~repro.db.durability.DurabilityManager`: when
    #: attached (by the manager, never directly), every insert/delete
    #: is appended to the write-ahead log *before* the delta absorbs
    #: it — so an acknowledged write is durable and a crashed one is
    #: either fully replayed or fully absent after recovery.
    _durability = None

    def __init__(self, name: str, page_size: int = 2048) -> None:
        if not name or "/" in name or name.startswith("."):
            raise QueryError(f"invalid relation name {name!r}")
        self.name = name
        self.params = RTreeParams.from_page_size(page_size)
        #: The base tree: replaced by :meth:`commit_rebuild` (or by
        #: assignment, followed by assigning :attr:`objects`, which
        #: publishes both); no write mutates it.
        self.tree = RStarTree(self.params)
        #: The base table, object id -> exact geometry, kept as
        #: columns; Rect-only inserts are stored as their MBR (the
        #: geometry *is* the rectangle then).  The merged view is
        #: :attr:`objects`.
        self._objects = GeometryTable.of({})
        self._next_id = 0
        #: Mutation counter: bumped by every :meth:`insert`/:meth:`delete`.
        #: Cached query results are keyed by the epochs of the relations
        #: they read (see :mod:`repro.serve.cache`), so a bump makes all
        #: previously cached results for this relation unreachable.
        self.epoch = 0
        #: Base-tree version: bumped only when :meth:`commit_rebuild`
        #: installs a new base.  Base-keyed cache entries (see
        #: ``repro.serve.service``) stamp this.
        self.base_epoch = 0
        #: The write buffer every mutation lands in.
        self._delta = DeltaIndex()
        #: Delta frozen by a rebuild, still part of reads until a
        #: commit merges it; empty when nothing is being merged.  A
        #: failed rebuild leaves it here for the next one to retry.
        self._merging = FrozenDelta.EMPTY
        #: True from :meth:`begin_rebuild` to :meth:`commit_rebuild` or
        #: :meth:`abort_rebuild`.
        self._rebuilding = False
        #: Guards mutation + snapshot publication.  Readers never take
        #: it: they grab :attr:`_snapshot` (one atomic reference read).
        self._mutex = threading.Lock()
        self._publish()

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """The current immutable view of this relation: one attribute
        read, because every change publishes eagerly."""
        return self._snapshot

    def _publish(self) -> None:
        """Build + publish the snapshot for the current state.

        Must hold :attr:`_mutex`.  Publication is one reference store,
        so concurrent readers see either the old or the new snapshot,
        never a mix.
        """
        delta = self._merging.combine(self._delta.freeze())
        self._snapshot = Snapshot(self.name, self.tree, self._objects,
                                  delta, self.epoch, self.base_epoch)

    @property
    def objects(self):
        """The visible object table: the snapshot's read-only merged
        mapping."""
        return self.snapshot().objects

    @objects.setter
    def objects(self, value: Mapping[int, Geometry]) -> None:
        """Replace the base table outright and publish it with the
        current :attr:`tree` (the load path: assign ``tree`` first);
        auto-assigned ids continue past the largest one loaded.  A
        :class:`~repro.db.table.GeometryTable` is installed as it is,
        any other mapping is converted once."""
        table = GeometryTable.of(value)
        with self._mutex:
            self._objects = table
            self._next_id = table.next_oid()
            self._publish()

    @property
    def delta_ops_pending(self) -> int:
        """Recorded delta operations not yet merged into the tree."""
        return len(self._delta) + len(self._merging)

    @property
    def merging(self) -> FrozenDelta:
        """The delta the rebuild in flight merges into the base (empty
        when none is); immutable, like every frozen delta."""
        return self._merging

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def insert(self, geometry: Geometry,
               oid: Optional[int] = None) -> int:
        """Add an object; returns its id (auto-assigned when omitted).
        An id outside 64-bit signed range is refused: the base table
        stores ids as ``int64``.

        ``committed`` runs after the mutex is released so a checkpoint
        it triggers can read this relation's snapshot.
        """
        durability = self._durability
        lsn = None
        with self._mutex:
            if oid is None:
                oid = self._next_id
            if not OID_MIN <= oid <= OID_MAX:
                raise QueryError(f"object id {oid} does not fit in 64 "
                                 f"signed bits")
            if oid in self._snapshot.objects:
                raise CatalogError(f"object id {oid} already exists in "
                                   f"{self.name!r}")
            if durability is not None:
                # Validation above ran first: only applicable operations
                # may enter the log.  The append (and its fsync) happens
                # before any in-memory mutation, so a crash leaves either
                # a logged record recovery will replay or nothing at all.
                lsn = durability.log_insert(self.name, oid, geometry)
            self._next_id = max(self._next_id, oid + 1)
            self._delta.insert(oid, geometry)
            self.epoch += 1
            self._publish()
        if durability is not None:
            durability.committed(lsn)
        return oid

    def delete(self, oid: int) -> None:
        """Remove an object by id."""
        durability = self._durability
        lsn = None
        with self._mutex:
            if oid not in self._snapshot.objects:
                raise CatalogError(f"no object {oid} in {self.name!r}")
            if durability is not None:
                lsn = durability.log_delete(self.name, oid)
            self._delta.delete(oid)
            self.epoch += 1
            self._publish()
        if durability is not None:
            durability.committed(lsn)

    # ------------------------------------------------------------------
    # Rebuild (delta merge)
    # ------------------------------------------------------------------

    def begin_rebuild(self) -> bool:
        """Freeze the active delta for merging; False when there is
        nothing to merge or a rebuild is already in flight.  After a
        failed rebuild the delta it froze is still :attr:`merging`, and
        this retries that delta as it is."""
        with self._mutex:
            if self._rebuilding or not (self._merging or self._delta):
                return False
            if not self._merging:
                self._merging = self._delta.freeze()
                self._delta = DeltaIndex()
                self._publish()
            self._rebuilding = True
        return True

    def abort_rebuild(self) -> None:
        """End a rebuild that will not commit: :attr:`merging` stays
        pending and visible, and the next :meth:`begin_rebuild`
        retries it."""
        with self._mutex:
            self._rebuilding = False

    def build_merged(self, fill: float = 0.9):
        """Bulk-load the merged (base + frozen delta) tree.

        Runs **without any lock**: the base table and the frozen delta
        are immutable while a rebuild is in flight, and
        concurrent writes land in the fresh active delta.  Returns
        ``(tree, objects)`` for :meth:`commit_rebuild`.
        """
        merging = self._merging
        assert merging, "begin_rebuild was not called"
        objects = self._objects.merged(merging.hidden,
                                       GeometryTable.of(merging.added))
        return self.bulk_load(objects, fill=fill), objects

    def bulk_load(self, objects: Mapping[int, Geometry], **pack):
        """The STR bulk-loaded tree over *objects*, in id order (*pack*
        goes to :func:`~repro.rtree.bulk.str_pack`), packed from the
        table's MBR columns; an empty table gets an empty R*-tree,
        which ``str_pack`` refuses to build.  The relation itself is
        not changed."""
        table = GeometryTable.of(objects)
        if not len(table):
            return RStarTree(self.params)
        return str_pack(NodeColumns(table.xlo, table.ylo, table.xhi,
                                    table.yhi, table.oids),
                        self.params, **pack)

    def commit_rebuild(self, tree, objects: GeometryTable) -> None:
        """Swap the merged tree in atomically.

        The data a reader can see does not change (the merged tree
        holds exactly what base+merging-delta exposed), so ``epoch``
        stays put — previously cached results remain valid — while
        ``base_epoch`` bumps because base-keyed computations now run
        against a different tree.
        """
        with self._mutex:
            self.tree = tree
            self._objects = objects
            self._merging = FrozenDelta.EMPTY
            self._rebuilding = False
            self.base_epoch += 1
            self._publish()

    def rebuild(self, fill: float = 0.9) -> bool:
        """Synchronously merge any pending delta into the tree."""
        if not self.begin_rebuild():
            return False
        try:
            tree, objects = self.build_merged(fill=fill)
        except BaseException:
            self.abort_rebuild()
            raise
        self.commit_rebuild(tree, objects)
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def window(self, window: Rect, exact: bool = False) -> List[int]:
        """Sorted ids of objects whose MBR intersects *window*.

        ``exact=True`` adds the refinement step: only objects whose
        exact geometry intersects the window rectangle survive.
        """
        return self.snapshot().window(window, exact)

    def nearest(self, x: float, y: float, k: int = 1,
                buffer_kb: float = 0.0) -> List[Tuple[int, float]]:
        """The k objects whose MBRs are nearest to a point."""
        return self.snapshot().nearest(x, y, k, buffer_kb=buffer_kb)

    def get(self, oid: int) -> Geometry:
        """The exact geometry of one object."""
        return self.snapshot().get(oid)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def records(self) -> List[Tuple[Rect, int]]:
        """(MBR, id) records of every visible object, id-ordered."""
        return self.snapshot().records

    def mbr(self) -> Optional[Rect]:
        """MBR of the whole relation."""
        return self.snapshot().mbr()

    def __len__(self) -> int:
        return len(self.objects)

    def __iter__(self) -> Iterator[int]:
        return iter(self.objects)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpatialRelation({self.name!r}, {len(self)} objects, "
                f"height {self.tree.height})")
