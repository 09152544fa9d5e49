"""A minimal spatial database: named relations, joins, persistence.

This is the facade a downstream application uses: it owns several
:class:`~repro.db.relation.SpatialRelation` objects sharing one page
size, runs filter+refinement joins between them, and round-trips the
whole catalog to a directory (the format is
:mod:`repro.db.checkpoint`'s).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.deltajoin import overlay_join
from ..core.planner import execute_plan
from ..core.refinement import id_spatial_join
from ..core.spec import JoinSpec, resolve_spec
from ..core.stats import JoinResult
from ..plan.optimizer import plan_join
from ..plan.plan import ExecutionPlan
from ..errors import CatalogError, QueryError
from ..geometry.predicates import SpatialPredicate
from ..geometry.rect import Rect
from .checkpoint import SavedCatalog, load_catalog, save_catalog
from .relation import SpatialRelation


class SpatialDatabase:
    """A catalog of spatial relations with join support."""

    #: Optional :class:`~repro.db.durability.DurabilityManager` hook:
    #: when attached, every catalog mutation is appended to the
    #: write-ahead log *before* it is applied (and therefore before the
    #: caller sees it acknowledged).  ``None`` keeps the pre-durability
    #: in-memory behaviour.
    _durability = None

    def __init__(self, page_size: int = 2048) -> None:
        self.page_size = page_size
        self.relations: Dict[str, SpatialRelation] = {}
        #: Catalog epoch: bumped on create/drop.  Cached query results
        #: include it in their keys, so recreating a relation under an
        #: old name can never resurrect results computed against the
        #: dropped one (per-relation epochs restart at zero).
        self.epoch = 0

    def flush_deltas(self) -> int:
        """Synchronously merge every relation's pending delta into its
        tree; returns the number of relations rebuilt."""
        return sum(1 for relation in self.relations.values()
                   if relation.rebuild())

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------

    def create_relation(self, name: str) -> SpatialRelation:
        """Create an empty relation."""
        if name in self.relations:
            raise CatalogError(f"relation {name!r} already exists")
        # Constructing first also validates the name — an invalid name
        # must raise before anything reaches the write-ahead log.
        relation = SpatialRelation(name, page_size=self.page_size)
        durability = self._durability
        lsn = durability.log_create(name) if durability else None
        self.relations[name] = relation
        self.epoch += 1
        if durability is not None:
            relation._durability = durability
            durability.committed(lsn)
        return relation

    def drop_relation(self, name: str) -> None:
        """Remove a relation and its index."""
        if name not in self.relations:
            raise CatalogError(f"no relation {name!r}")
        durability = self._durability
        lsn = durability.log_drop(name) if durability else None
        del self.relations[name]
        self.epoch += 1
        if durability is not None:
            durability.committed(lsn)

    def relation(self, name: str) -> SpatialRelation:
        """Look up a relation by name."""
        try:
            return self.relations[name]
        except KeyError:
            raise CatalogError(f"no relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def __len__(self) -> int:
        return len(self.relations)

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------

    def join(self, left: str, right: str,
             spec: Optional[JoinSpec] = None, *,
             refine: bool = False) -> JoinResult:
        """Join two relations.

        Configuration goes through the shared
        :class:`~repro.core.spec.JoinSpec` path — pass ``spec=`` (with
        ``spec.workers >= 2`` for parallel execution).

        ``refine=False`` returns the MBR-spatial-join (the filter step);
        ``refine=True`` additionally runs the ID-spatial-join on the
        exact geometry and returns only real intersections.  Refinement
        requires the intersection predicate (containment on exact
        geometry is not implemented).
        """
        # One consistent snapshot per side: the base trees are static
        # for the whole join and unmerged writes are overlaid on the
        # base result by repro.core.deltajoin.
        snap_l = self.relation(left).snapshot()
        snap_r = self.relation(right).snapshot()
        spec = resolve_spec(spec)
        base = self.join_base(snap_l, snap_r, spec, refine=refine)
        return self.join_overlay(snap_l, snap_r, base, spec,
                                 refine=refine)

    def join_base(self, snap_l, snap_r, spec: JoinSpec, *,
                  refine: bool = False) -> JoinResult:
        """The base-tree half of a snapshot join: plan and execute over
        the two base trees, optionally refining against the *base*
        geometry.

        Deterministic in ``(snap.base_epoch, spec, refine)`` — the
        query service caches this result under a base-epoch key so
        repeated reads pay only the (cheap) delta overlay.  Refining
        here against base geometry is sound because the overlay later
        drops every pair with a hidden oid, and unhidden base oids
        resolve to the same geometry in base and merged views.
        """
        if refine and spec.predicate is not SpatialPredicate.INTERSECTS:
            raise QueryError(
                "exact-geometry refinement supports only INTERSECTS")
        plan = plan_join(snap_l.tree, snap_r.tree, spec)
        result = execute_plan(snap_l.tree, snap_r.tree, plan)
        if refine:
            result.pairs = _refine_pairs(result.pairs,
                                         snap_l.base_objects,
                                         snap_r.base_objects)
            result.stats.pairs_output = len(result.pairs)
        return result

    def join_overlay(self, snap_l, snap_r, base: JoinResult,
                     spec: JoinSpec, *,
                     refine: bool = False) -> JoinResult:
        """Complete a snapshot join from its base half: drop pairs the
        deltas hide, add the pairs the deltas contribute (under *spec*'s
        deadline and sort regime, like the base half), and (when
        refining) run the exact-geometry test on just those additions.
        Returns *base* unchanged when both deltas are empty."""
        if not (snap_l.delta or snap_r.delta):
            return base
        return _overlay(snap_l, snap_r, base, spec, refine)

    def carry_join_base(self, snap_l, snap_r, base: JoinResult,
                        spec: JoinSpec, *,
                        refine: bool = False) -> JoinResult:
        """Carry a base join across a rebuild without recomputing it.

        *base* is :meth:`join_base` of the two snapshots' base trees;
        each snapshot's delta is what a rebuild merges into that base
        (``FrozenDelta.EMPTY`` on a side that is not being rebuilt).
        Returns the join of the merged bases — what :meth:`join_base`
        would return once the rebuild commits — computed as the
        :meth:`join_overlay` of those deltas, refined the same way.
        The result keeps *base*'s plan; its statistics are *base*'s
        merged with the overlay's, the work that produced its pairs."""
        return _overlay(snap_l, snap_r, base, spec, refine)

    def explain(self, left: str, right: str,
                spec: Optional[JoinSpec] = None) -> ExecutionPlan:
        """Plan a join between two relations without executing it.

        Takes the same configuration as :meth:`join` and returns the
        :class:`~repro.plan.ExecutionPlan` that :meth:`join` would run,
        with the scored candidate table always populated (a fixed
        algorithm is re-scored against the auto candidates for
        comparison).
        """
        return plan_join(self.relation(left).snapshot().tree,
                         self.relation(right).snapshot().tree,
                         spec, score=True)

    def distance_join(self, left: str, right: str, distance: float,
                      buffer_kb: float = 128.0) -> JoinResult:
        """All id pairs whose MBRs lie within *distance* of each other
        (the within-distance join extension)."""
        from ..core.distance import distance_join_snapshots as run
        return run(self.relation(left).snapshot(),
                   self.relation(right).snapshot(),
                   distance, buffer_kb=buffer_kb)

    # ------------------------------------------------------------------
    # Persistence (the directory format is repro.db.checkpoint's)
    # ------------------------------------------------------------------

    def save(self, directory: str,
             previous: Optional[SavedCatalog] = None) -> SavedCatalog:
        """Write the catalog to *directory* (created if needed), linking
        the bases *previous* (the last save elsewhere) still holds; see
        :func:`~repro.db.checkpoint.save_catalog`."""
        return save_catalog(directory, self.page_size, self.relations,
                            previous)

    @classmethod
    def open(cls, directory: str) -> "SpatialDatabase":
        """Load a catalog written by :meth:`save`."""
        return cls.load(directory)[0]

    @classmethod
    def load(cls, directory: str
             ) -> Tuple["SpatialDatabase", SavedCatalog]:
        """:meth:`open`, also returning the bases as they lie in
        *directory* — what a later :meth:`save` may link."""
        page_size, relations, saved = load_catalog(directory)
        db = cls(page_size=page_size)
        db.relations.update(relations)
        return db, saved


def _overlay(snap_l, snap_r, base: JoinResult, spec: JoinSpec,
             refine: bool) -> JoinResult:
    """:func:`overlay_join`, then (when refining) the exact-geometry
    test on just the pairs this overlay added."""
    result = overlay_join(snap_l, snap_r, base, spec)
    # *base* may itself carry earlier overlays' delta pairs.
    added = result.stats.delta_pairs - base.stats.delta_pairs
    if refine and added:
        # overlay_join appends the delta contributions after the
        # surviving (already refined) base pairs.
        split = len(result.pairs) - added
        head, extras = result.pairs[:split], result.pairs[split:]
        kept = _refine_pairs(extras, snap_l.objects, snap_r.objects)
        result.pairs = head + kept
        result.stats.delta_pairs -= len(extras) - len(kept)
        result.stats.pairs_output = len(result.pairs)
    return result


def _refine_pairs(pairs, objects_l, objects_r):
    """ID-spatial-join refinement of *pairs*: rect-backed pairs pass
    through (their MBR test is exact), the rest run the exact-geometry
    intersection."""
    refinable = [(a, b) for a, b in pairs
                 if not isinstance(objects_l[a], Rect)
                 and not isinstance(objects_r[b], Rect)]
    rect_pairs = [(a, b) for a, b in pairs
                  if isinstance(objects_l[a], Rect)
                  or isinstance(objects_r[b], Rect)]
    survivors, _ = id_spatial_join(refinable, objects_l, objects_r)
    return rect_pairs + survivors
